//! Topics: hierarchical names for areas of the social graph.
//!
//! Topics "may be arbitrary strings, but in our domain are structured
//! similarly to file names" (§3). Constructors are provided for the topic
//! families the paper names: `/LVC/videoID`, `/LVC/videoID/uid`,
//! `/TI/threadId/uid`, `/Status/uid`, and `/Stories/uid`.
//!
//! # Interning
//!
//! Pylon keys *everything* on topics (§4), so [`Topic`] is an interned
//! handle, not an owned string: a process-wide intern table maps each
//! distinct topic string to a dense [`TopicId`] exactly once, and the
//! handle carries the id, the leaked `&'static str` name, and a cached
//! routing hash. That makes `Topic` `Copy`, equality an integer compare,
//! and map lookups integer hashes — publish/subscribe/fan-out never hash
//! or clone topic strings.
//!
//! Determinism: within a process the same string always interns to the
//! same id, and nothing behaviour-visible depends on id *values* — shard
//! and replica placement use the cached string hash ([`Topic::route_hash`],
//! identical to the pre-interning hashing), and ordering
//! ([`Ord`]) remains lexicographic on the name. Id assignment order (e.g.
//! from concurrently running tests) therefore cannot perturb simulation
//! results; `sim::tests::intern_order_does_not_change_metrics` pins this.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use simkit::fxhash::FxHashMap;

use crate::hash;

/// Dense identifier of an interned topic string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub u32);

/// A hierarchical pub/sub topic, e.g. `/LVC/42` or `/TI/7/1001`.
///
/// Interned and `Copy`: compare, hash, and pass by value freely.
#[derive(Clone, Copy)]
pub struct Topic {
    id: TopicId,
    /// FNV-1a of the topic string, cached at intern time; drives shard
    /// and replica placement exactly as hashing the string did.
    route_hash: u64,
    name: &'static str,
}

/// The process-wide intern table.
struct Interner {
    by_name: FxHashMap<&'static str, TopicId>,
    /// Every interned topic, at its id.
    by_id: Vec<Topic>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_name: FxHashMap::default(),
            by_id: Vec::new(),
        })
    })
}

/// Interns a pre-validated topic string.
fn intern(s: &str) -> Topic {
    let mut table = interner().lock().expect("topic interner poisoned");
    if let Some(&id) = table.by_name.get(s) {
        return table.by_id[id.0 as usize];
    }
    let name: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let topic = Topic {
        id: TopicId(u32::try_from(table.by_id.len()).expect("topic table overflow")),
        route_hash: hash::hash_key(name.as_bytes()),
        name,
    };
    table.by_name.insert(name, topic.id);
    table.by_id.push(topic);
    topic
}

/// Error returned for malformed topic strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopicError {
    /// The topic string was empty.
    Empty,
    /// The topic did not start with `/`.
    MissingLeadingSlash,
    /// A path segment was empty (`//` or trailing `/`).
    EmptySegment,
}

impl fmt::Display for TopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicError::Empty => write!(f, "topic is empty"),
            TopicError::MissingLeadingSlash => write!(f, "topic must start with '/'"),
            TopicError::EmptySegment => write!(f, "topic has an empty segment"),
        }
    }
}

impl std::error::Error for TopicError {}

impl Topic {
    /// Parses, validates, and interns a topic string.
    ///
    /// # Examples
    ///
    /// ```
    /// use pylon::Topic;
    ///
    /// let t = Topic::new("/LVC/42").unwrap();
    /// assert_eq!(t.segments().collect::<Vec<_>>(), vec!["LVC", "42"]);
    /// assert!(Topic::new("LVC/42").is_err());
    /// ```
    pub fn new(s: &str) -> Result<Topic, TopicError> {
        if s.is_empty() {
            return Err(TopicError::Empty);
        }
        if !s.starts_with('/') {
            return Err(TopicError::MissingLeadingSlash);
        }
        if s[1..].split('/').any(|seg| seg.is_empty()) {
            return Err(TopicError::EmptySegment);
        }
        Ok(intern(s))
    }

    /// The interned id: dense, unique per distinct topic string.
    pub fn id(&self) -> TopicId {
        self.id
    }

    /// The topic interned as `id`; panics if none was.
    pub fn of_id(id: TopicId) -> Topic {
        interner().lock().expect("topic interner poisoned").by_id[id.0 as usize]
    }

    /// The cached routing hash (FNV-1a of the topic string), used for
    /// shard selection and rendezvous replica placement.
    pub fn route_hash(&self) -> u64 {
        self.route_hash
    }

    /// The full topic string.
    pub fn as_str(&self) -> &str {
        self.name
    }

    /// Iterates over the path segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.name[1..].split('/')
    }

    /// The application family (first segment), e.g. `"LVC"`.
    pub fn family(&self) -> &str {
        self.segments()
            .next()
            .expect("validated topic is non-empty")
    }

    /// The numeric id in the segment after `family`, when `family` is the
    /// first segment: 42 for `/LVC/42` and for `/LVC/42/9` under `"LVC"`.
    pub fn id_under(&self, family: &str) -> Option<u64> {
        let mut segs = self.segments();
        if segs.next() != Some(family) {
            return None;
        }
        segs.next()?.parse().ok()
    }

    /// Topic carrying comments on a live video: `/LVC/videoID`.
    pub fn live_video_comments(video_id: u64) -> Topic {
        intern(&format!("/LVC/{video_id}"))
    }

    /// Per-poster overflow topic used by the hot-video strategy:
    /// `/LVC/videoID/uid`.
    pub fn live_video_comments_by(video_id: u64, uid: u64) -> Topic {
        intern(&format!("/LVC/{video_id}/{uid}"))
    }

    /// Typing-indicator topic: `/TI/threadId/uid`.
    pub fn typing_indicator(thread_id: u64, uid: u64) -> Topic {
        intern(&format!("/TI/{thread_id}/{uid}"))
    }

    /// Online-status topic: `/Status/uid`.
    pub fn active_status(uid: u64) -> Topic {
        intern(&format!("/Status/{uid}"))
    }

    /// Stories container topic: `/Stories/uid`.
    pub fn stories(uid: u64) -> Topic {
        intern(&format!("/Stories/{uid}"))
    }

    /// Messenger mailbox topic: `/Msgr/uid`.
    pub fn messenger_mailbox(uid: u64) -> Topic {
        intern(&format!("/Msgr/{uid}"))
    }

    /// Website-notifications topic: `/Notif/uid`.
    pub fn notifications(uid: u64) -> Topic {
        intern(&format!("/Notif/{uid}"))
    }
}

/// A topic snapshots as its name string. Intern ids are process-local and
/// never serialized; restoring re-interns the name (rejecting strings the
/// validating constructor would refuse), and nothing behaviour-visible
/// depends on id values.
impl simkit::snap::Snap for Topic {
    fn snap(&self, w: &mut simkit::snap::SnapWriter) {
        w.put_str(self.name);
    }

    fn restore(r: &mut simkit::snap::SnapReader<'_>) -> simkit::snap::SnapResult<Topic> {
        let name = r.get_str()?;
        Topic::new(&name)
            .map_err(|e| simkit::snap::SnapError::Invalid(format!("bad topic {name:?}: {e}")))
    }
}

impl PartialEq for Topic {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Topic {}

impl std::hash::Hash for Topic {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u32(self.id.0);
    }
}

// Ordering stays lexicographic on the topic string (not id order), so any
// sorted view is identical to the pre-interning behaviour and independent
// of intern order. Consistent with `Eq`: distinct strings ⇔ distinct ids.
impl PartialOrd for Topic {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Topic {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(other.name)
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_topics() {
        for s in ["/a", "/LVC/42", "/TI/7/9", "/a/b/c/d"] {
            assert!(Topic::new(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn invalid_topics() {
        assert_eq!(Topic::new(""), Err(TopicError::Empty));
        assert_eq!(Topic::new("a/b"), Err(TopicError::MissingLeadingSlash));
        assert_eq!(Topic::new("/a//b"), Err(TopicError::EmptySegment));
        assert_eq!(Topic::new("/a/"), Err(TopicError::EmptySegment));
        assert_eq!(Topic::new("/"), Err(TopicError::EmptySegment));
    }

    #[test]
    fn id_under_reads_the_id_after_its_family() {
        let lvc = Topic::live_video_comments(42);
        assert_eq!(lvc.id_under("LVC"), Some(42));
        assert_eq!(
            Topic::live_video_comments_by(42, 9).id_under("LVC"),
            Some(42)
        );
        assert_eq!(lvc.id_under("Likes"), None, "another family");
        assert_eq!(lvc.id_under("LV"), None, "a prefix of the family");
        assert_eq!(Topic::new("/LVC").unwrap().id_under("LVC"), None, "no id");
        assert_eq!(
            Topic::new("/LVC/x").unwrap().id_under("LVC"),
            None,
            "not a number"
        );
        assert_eq!(Topic::new("/Likes/7").unwrap().id_under("Likes"), Some(7));
        assert_eq!(Topic::notifications(3).id_under("Notif"), Some(3));
        assert_eq!(Topic::messenger_mailbox(3).id_under("Msgr"), Some(3));
        assert_eq!(Topic::active_status(3).id_under("Status"), Some(3));
    }

    #[test]
    fn constructors_match_paper_shapes() {
        assert_eq!(Topic::live_video_comments(42).as_str(), "/LVC/42");
        assert_eq!(Topic::live_video_comments_by(42, 9).as_str(), "/LVC/42/9");
        assert_eq!(Topic::typing_indicator(7, 9).as_str(), "/TI/7/9");
        assert_eq!(Topic::active_status(9).as_str(), "/Status/9");
        assert_eq!(Topic::stories(9).as_str(), "/Stories/9");
        assert_eq!(Topic::messenger_mailbox(9).as_str(), "/Msgr/9");
        assert_eq!(Topic::notifications(9).as_str(), "/Notif/9");
    }

    #[test]
    fn family_and_segments() {
        let t = Topic::typing_indicator(7, 9);
        assert_eq!(t.family(), "TI");
        assert_eq!(t.segments().collect::<Vec<_>>(), vec!["TI", "7", "9"]);
    }

    #[test]
    fn error_display() {
        assert!(TopicError::Empty.to_string().contains("empty"));
        assert!(TopicError::MissingLeadingSlash.to_string().contains('/'));
    }

    #[test]
    fn interning_is_stable_and_id_keyed() {
        let a = Topic::new("/LVC/4242").unwrap();
        let b = Topic::live_video_comments(4242);
        assert_eq!(a, b, "same string interns to the same handle");
        assert_eq!(a.id(), b.id());
        assert_eq!(a.route_hash(), b.route_hash());
        assert_eq!(a.route_hash(), hash::hash_key(b"/LVC/4242"));
        let c = Topic::new("/LVC/4243").unwrap();
        assert_ne!(a, c);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn of_id_finds_each_interned_topic() {
        let first = Topic::new("/of_id/first").unwrap();
        for n in 0..3 {
            Topic::new(&format!("/of_id/between/{n}")).unwrap();
        }
        let later = Topic::new("/of_id/later").unwrap();
        assert_eq!(Topic::of_id(first.id()).as_str(), "/of_id/first");
        assert_eq!(Topic::of_id(later.id()).as_str(), "/of_id/later");
        assert_eq!(Topic::of_id(later.id()).route_hash(), later.route_hash());
    }

    #[test]
    fn ordering_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order: ids follow intern order,
        // but Ord must still compare the strings.
        let z = Topic::new("/ZZZ/ordering/9").unwrap();
        let a = Topic::new("/AAA/ordering/9").unwrap();
        assert!(a < z);
        let mut v = [z, a];
        v.sort();
        assert_eq!(v[0].as_str(), "/AAA/ordering/9");
    }
}
