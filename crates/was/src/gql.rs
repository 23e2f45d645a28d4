//! A from-scratch GraphQL subset: lexer, parser and AST.
//!
//! Devices talk to the WAS (and, for subscriptions, to BRASSes) "using a
//! query language such as GraphQL" with subscription requests expressed in
//! "a framework similar to GraphQL Subscriptions" (§1). The subset here
//! covers what the Bladerunner flows need: the three operation types, named
//! operations, nested selection sets, and scalar/list arguments.
//!
//! ```text
//! document      := operation
//! operation     := ("query" | "mutation" | "subscription")? name? selection_set
//! selection_set := "{" field+ "}"
//! field         := name arguments? selection_set?
//! arguments     := "(" (name ":" value ","?)* ")"
//! value         := int | float | string | bool | null | name | "[" value* "]"
//! ```

use std::fmt;

/// The three GraphQL operation types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Read-only fetch.
    Query,
    /// Write followed by fetch.
    Mutation,
    /// Long-lived stream request.
    Subscription,
}

/// A literal argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum GqlValue {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Bare name (enum value).
    Enum(String),
    /// List of values.
    List(Vec<GqlValue>),
}

impl GqlValue {
    /// The value as an integer (ints only).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            GqlValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a non-negative id.
    pub fn as_id(&self) -> Option<u64> {
        match self {
            GqlValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            GqlValue::Str(s) | GqlValue::Enum(s) => Some(s),
            _ => None,
        }
    }
}

/// A selected field with arguments and nested selections.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// `(name: value, …)` arguments.
    pub args: Vec<(String, GqlValue)>,
    /// Nested selection set (empty for leaves).
    pub selections: Vec<Field>,
}

impl Field {
    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<&GqlValue> {
        self.args.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up a required id argument.
    pub fn arg_id(&self, name: &str) -> Result<u64, ParseError> {
        self.arg(name)
            .and_then(GqlValue::as_id)
            .ok_or_else(|| ParseError::new(0, format!("missing id argument '{name}'")))
    }

    /// Looks up a required string argument.
    pub fn arg_str(&self, name: &str) -> Result<&str, ParseError> {
        self.arg(name)
            .and_then(GqlValue::as_str)
            .ok_or_else(|| ParseError::new(0, format!("missing string argument '{name}'")))
    }
}

/// A parsed operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// Operation type (defaults to query for bare selection sets).
    pub kind: OpKind,
    /// Optional operation name.
    pub name: Option<String>,
    /// Top-level fields.
    pub selections: Vec<Field>,
}

/// Error produced by the lexer or parser.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphQL parse error at {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Name(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char),
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                // GraphQL treats commas as whitespace.
                Some(b' ' | b'\t' | b'\n' | b'\r' | b',') => self.pos += 1,
                Some(b'#') => {
                    while !matches!(self.bytes.get(self.pos), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<(usize, Token)>, ParseError> {
        self.skip_trivia();
        let start = self.pos;
        let Some(&b) = self.bytes.get(self.pos) else {
            return Ok(None);
        };
        let token = match b {
            b'{' | b'}' | b'(' | b')' | b':' | b'[' | b']' => {
                self.pos += 1;
                Token::Punct(b as char)
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.bytes.get(self.pos) {
                        None => return Err(ParseError::new(start, "unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.bytes.get(self.pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                _ => return Err(ParseError::new(self.pos, "bad escape")),
                            }
                            self.pos += 1;
                        }
                        Some(&c) => {
                            // Pass through UTF-8 bytes unchanged.
                            s.push(c as char);
                            self.pos += 1;
                        }
                    }
                }
                Token::Str(s)
            }
            b'-' | b'0'..=b'9' => {
                if b == b'-' {
                    self.pos += 1;
                    if !matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                        return Err(ParseError::new(start, "digit expected after '-'"));
                    }
                }
                while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let mut is_float = false;
                if self.bytes.get(self.pos) == Some(&b'.') {
                    is_float = true;
                    self.pos += 1;
                    while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                if is_float {
                    Token::Float(
                        text.parse()
                            .map_err(|_| ParseError::new(start, "bad float"))?,
                    )
                } else {
                    Token::Int(
                        text.parse()
                            .map_err(|_| ParseError::new(start, "int out of range"))?,
                    )
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                Token::Name(text.to_owned())
            }
            c => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character '{}'", c as char),
                ))
            }
        };
        Ok(Some((start, token)))
    }
}

struct TokenStream {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    end: usize,
}

impl TokenStream {
    fn lex(input: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        while let Some(t) = lexer.next_token()? {
            tokens.push(t);
        }
        Ok(TokenStream {
            tokens,
            pos: 0,
            end: input.len(),
        })
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.end, |(o, _)| *o)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Punct(p)) if p == c => Ok(()),
            _ => Err(ParseError::new(self.offset(), format!("expected '{c}'"))),
        }
    }
}

/// Parses a GraphQL document containing a single operation.
///
/// # Examples
///
/// ```
/// use was::gql::{parse, OpKind};
///
/// let op = parse(r#"subscription { liveVideoComments(videoId: 42) }"#).unwrap();
/// assert_eq!(op.kind, OpKind::Subscription);
/// assert_eq!(op.selections[0].arg_id("videoId").unwrap(), 42);
/// ```
pub fn parse(input: &str) -> Result<Operation, ParseError> {
    let mut ts = TokenStream::lex(input)?;
    let (kind, name) = match ts.peek() {
        Some(Token::Name(n)) => {
            let kind = match n.as_str() {
                "query" => OpKind::Query,
                "mutation" => OpKind::Mutation,
                "subscription" => OpKind::Subscription,
                other => {
                    return Err(ParseError::new(
                        ts.offset(),
                        format!("unknown operation type '{other}'"),
                    ))
                }
            };
            ts.next();
            let name = match ts.peek() {
                Some(Token::Name(n)) => {
                    let n = n.clone();
                    ts.next();
                    Some(n)
                }
                _ => None,
            };
            (kind, name)
        }
        _ => (OpKind::Query, None),
    };
    let selections = parse_selection_set(&mut ts)?;
    if ts.peek().is_some() {
        return Err(ParseError::new(ts.offset(), "trailing tokens"));
    }
    Ok(Operation {
        kind,
        name,
        selections,
    })
}

fn parse_selection_set(ts: &mut TokenStream) -> Result<Vec<Field>, ParseError> {
    ts.expect_punct('{')?;
    let mut fields = Vec::new();
    loop {
        match ts.peek() {
            Some(Token::Punct('}')) => {
                ts.next();
                if fields.is_empty() {
                    return Err(ParseError::new(ts.offset(), "empty selection set"));
                }
                return Ok(fields);
            }
            Some(Token::Name(_)) => fields.push(parse_field(ts)?),
            _ => return Err(ParseError::new(ts.offset(), "expected field or '}'")),
        }
    }
}

fn parse_field(ts: &mut TokenStream) -> Result<Field, ParseError> {
    let name = match ts.next() {
        Some(Token::Name(n)) => n,
        _ => return Err(ParseError::new(ts.offset(), "expected field name")),
    };
    let mut args = Vec::new();
    if ts.peek() == Some(&Token::Punct('(')) {
        ts.next();
        loop {
            match ts.next() {
                Some(Token::Punct(')')) => break,
                Some(Token::Name(arg_name)) => {
                    ts.expect_punct(':')?;
                    args.push((arg_name, parse_value(ts)?));
                }
                _ => {
                    return Err(ParseError::new(
                        ts.offset(),
                        "expected argument name or ')'",
                    ))
                }
            }
        }
        if args.is_empty() {
            return Err(ParseError::new(ts.offset(), "empty argument list"));
        }
    }
    let selections = if ts.peek() == Some(&Token::Punct('{')) {
        parse_selection_set(ts)?
    } else {
        Vec::new()
    };
    Ok(Field {
        name,
        args,
        selections,
    })
}

fn parse_value(ts: &mut TokenStream) -> Result<GqlValue, ParseError> {
    match ts.next() {
        Some(Token::Int(i)) => Ok(GqlValue::Int(i)),
        Some(Token::Float(f)) => Ok(GqlValue::Float(f)),
        Some(Token::Str(s)) => Ok(GqlValue::Str(s)),
        Some(Token::Name(n)) => match n.as_str() {
            "true" => Ok(GqlValue::Bool(true)),
            "false" => Ok(GqlValue::Bool(false)),
            "null" => Ok(GqlValue::Null),
            _ => Ok(GqlValue::Enum(n)),
        },
        Some(Token::Punct('[')) => {
            let mut items = Vec::new();
            loop {
                if ts.peek() == Some(&Token::Punct(']')) {
                    ts.next();
                    return Ok(GqlValue::List(items));
                }
                items.push(parse_value(ts)?);
            }
        }
        _ => Err(ParseError::new(ts.offset(), "expected value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_query() {
        let op = parse("{ me { name } }").unwrap();
        assert_eq!(op.kind, OpKind::Query);
        assert_eq!(op.name, None);
        assert_eq!(op.selections[0].name, "me");
        assert_eq!(op.selections[0].selections[0].name, "name");
    }

    #[test]
    fn parses_named_operations() {
        let op = parse("query GetFeed { feed { post } }").unwrap();
        assert_eq!(op.kind, OpKind::Query);
        assert_eq!(op.name.as_deref(), Some("GetFeed"));
        let op = parse("mutation M { doIt(x: 1) { ok } }").unwrap();
        assert_eq!(op.kind, OpKind::Mutation);
        let op = parse("subscription { typing(threadId: 5, uid: 2) }").unwrap();
        assert_eq!(op.kind, OpKind::Subscription);
    }

    #[test]
    fn parses_arguments_of_all_types() {
        let op = parse(r#"{ f(a: 1, b: -2.5, c: "hi\n", d: true, e: null, g: UP, h: [1, 2, 3]) }"#)
            .unwrap();
        let f = &op.selections[0];
        assert_eq!(f.arg("a"), Some(&GqlValue::Int(1)));
        assert_eq!(f.arg("b"), Some(&GqlValue::Float(-2.5)));
        assert_eq!(f.arg("c"), Some(&GqlValue::Str("hi\n".into())));
        assert_eq!(f.arg("d"), Some(&GqlValue::Bool(true)));
        assert_eq!(f.arg("e"), Some(&GqlValue::Null));
        assert_eq!(f.arg("g"), Some(&GqlValue::Enum("UP".into())));
        assert_eq!(
            f.arg("h"),
            Some(&GqlValue::List(vec![
                GqlValue::Int(1),
                GqlValue::Int(2),
                GqlValue::Int(3)
            ]))
        );
    }

    #[test]
    fn commas_and_comments_are_trivia() {
        let op = parse("{ a(x: 1,), b # comment\n }").unwrap();
        assert_eq!(op.selections.len(), 2);
    }

    #[test]
    fn nested_selections() {
        let op =
            parse("{ video(id: 7) { comments(first: 10) { text author { name } } } }").unwrap();
        let video = &op.selections[0];
        assert_eq!(video.arg_id("id").unwrap(), 7);
        let comments = &video.selections[0];
        assert_eq!(comments.arg("first"), Some(&GqlValue::Int(10)));
        assert_eq!(comments.selections[1].selections[0].name, "name");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{}",
            "{ f(",
            "{ f(a) }",
            "{ f(a:) }",
            "query",
            "frag { x }",
            "{ f } extra",
            "{ \"str\" }",
            "{ f(a: 1 }",
            "{ f(a: @) }",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn arg_helpers() {
        let op = parse(r#"{ f(id: 9, name: "x") }"#).unwrap();
        let f = &op.selections[0];
        assert_eq!(f.arg_id("id").unwrap(), 9);
        assert_eq!(f.arg_str("name").unwrap(), "x");
        assert!(f.arg_id("missing").is_err());
        assert!(f.arg_str("id").is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(GqlValue::Int(-1).as_id(), None);
        assert_eq!(GqlValue::Enum("X".into()).as_str(), Some("X"));
        assert_eq!(GqlValue::Null.as_int(), None);
    }

    #[test]
    fn error_display_has_offset() {
        let err = parse("{ f(a:) }").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }
}
