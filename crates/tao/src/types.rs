//! Core social-graph types: objects (nodes) and associations (edges).

use std::fmt;

/// Identifier of a social-graph object (node).
///
/// Like TAO, ids are globally unique 64-bit values; the shard an object
/// lives on is derived from its id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A value stored in an object's or association's data map.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// UTF-8 text.
    Str(String),
    /// Signed integer.
    Int(i64),
    /// Floating-point number (quality scores etc.).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Returns the string contents if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// A field name in a [`Data`] payload. Shared, not owned: the store
/// interns the handful of distinct field names once (like
/// [`Object::otype`]), so a million user objects carry three pointers
/// each instead of three heap strings each.
pub type Key = std::sync::Arc<str>;

/// Key-value payload attached to objects and associations.
pub type Data = Vec<(Key, Value)>;

/// Looks up a key in a [`Data`] payload.
pub fn data_get<'a>(data: &'a Data, key: &str) -> Option<&'a Value> {
    data.iter().find(|(k, _)| k.as_ref() == key).map(|(_, v)| v)
}

/// A social-graph object (node).
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// Globally unique id.
    pub id: ObjectId,
    /// Object type, e.g. `"user"`, `"video"`, `"comment"`. Shared: the
    /// store interns the handful of distinct type names once, so millions
    /// of objects (and their cache copies) carry refcounted pointers
    /// rather than per-object heap strings.
    pub otype: std::sync::Arc<str>,
    /// Typed payload.
    pub data: Data,
    /// Version, bumped on every update (used by caches for freshness).
    pub version: u64,
}

impl Object {
    /// Convenience field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        data_get(&self.data, key)
    }
}

/// A social-graph association (directed, typed, timestamped edge).
#[derive(Clone, Debug, PartialEq)]
pub struct Assoc {
    /// Source object.
    pub id1: ObjectId,
    /// Association type, e.g. `"friend"`, `"has_comment"`, `"blocked"`.
    pub atype: String,
    /// Destination object.
    pub id2: ObjectId,
    /// Creation time (application timestamp, milliseconds).
    pub time: u64,
    /// Typed payload.
    pub data: Data,
}

impl Assoc {
    /// Convenience field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        data_get(&self.data, key)
    }
}

// Snapshot codecs. Payloads are ordered vecs, not maps — order is
// construction order and survives verbatim. Shared `otype`/key handles are
// written as their strings and come back as fresh allocations; the store
// re-points them at its intern tables.
simkit::snap_struct!(ObjectId { 0 });
simkit::snap_enum!(Value {
    0 => Str(s),
    1 => Int(i),
    2 => Float(f),
    3 => Bool(b),
});
simkit::snap_struct!(Object {
    id,
    otype,
    data,
    version
});
simkit::snap_struct!(Assoc {
    id1,
    atype,
    id2,
    time,
    data
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(1.0).as_int(), None);
    }

    #[test]
    fn data_lookup() {
        let data: Data = vec![
            ("a".into(), Value::from(1i64)),
            ("b".into(), Value::from("x")),
        ];
        assert_eq!(data_get(&data, "b").unwrap().as_str(), Some("x"));
        assert!(data_get(&data, "c").is_none());
    }

    #[test]
    fn object_get() {
        let o = Object {
            id: ObjectId(1),
            otype: "user".into(),
            data: vec![("name".into(), Value::from("ada"))],
            version: 0,
        };
        assert_eq!(o.get("name").unwrap().as_str(), Some("ada"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ObjectId(7)), "7");
        assert_eq!(format!("{:?}", ObjectId(7)), "obj:7");
    }
}
