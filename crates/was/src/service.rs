//! The Web Application Server.
//!
//! [`WebApplicationServer`] owns a [`Tao`] store and implements the three
//! flows of §3.3:
//!
//! 1. **Data fetch** — devices issue GraphQL queries
//!    ([`execute_query`](WebApplicationServer::execute_query)); the executor
//!    resolves them with TAO reads (range/intersect for polling shapes).
//! 2. **Mutation issue and publish** — devices issue GraphQL mutations
//!    ([`execute_mutation`](WebApplicationServer::execute_mutation)); the
//!    executor converts them to TAO writes, then business logic emits
//!    [`UpdateEvent`]s for Pylon, including ML pre-ranking for
//!    LiveVideoComments (and the hot-video strategy switch of §3.4).
//! 3. **Payload fetch for BRASS** —
//!    [`fetch_for_viewer`](WebApplicationServer::fetch_for_viewer) serves a
//!    BRASS's point query for one update, running the privacy check inline
//!    (privacy only ever runs inside the WAS).

use std::fmt::{self, Write as _};

use pylon::Topic;
use simkit::fxhash::FxHashMap;
use simkit::snap::ensure;
use simkit::snap_struct;
use tao::{ObjectId, QueryCost, ReplicationEvent, Tao, Value};

use crate::event::{EventKind, EventMeta, UpdateEvent};
use crate::gql::{parse, Field, OpKind};
use crate::privacy::{check_visibility, Audience};
use crate::ranking::{self, CommentFeatures};

/// A GraphQL response value.
#[derive(Clone, Debug, PartialEq)]
pub enum Rv {
    /// Null.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// List.
    List(Vec<Rv>),
    /// Object with ordered fields.
    Obj(Vec<(String, Rv)>),
}

impl Rv {
    /// Looks up a field in an object response.
    pub fn get(&self, key: &str) -> Option<&Rv> {
        match self {
            Rv::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items of a list response.
    pub fn items(&self) -> &[Rv] {
        match self {
            Rv::List(items) => items,
            _ => &[],
        }
    }

    /// The string contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Rv::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer contents.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Rv::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Serializes the response for transport to a device (compact JSON-ish).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut s = String::new();
        self.write(&mut s);
        s.into_bytes()
    }

    fn write(&self, out: &mut String) {
        match self {
            Rv::Null => out.push_str("null"),
            // Formatting into a `String` cannot fail.
            Rv::Int(i) => _ = write!(out, "{i}"),
            Rv::Float(f) => _ = write!(out, "{f}"),
            Rv::Str(s) => write_wire_str(s, out),
            Rv::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Rv::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Rv::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The wire encoding of a string, shared by [`Rv::to_wire`] and the BRASS
/// payload fetch (which writes a TAO object without building an `Rv`).
fn write_wire_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Errors from WAS operation execution.
#[derive(Clone, Debug, PartialEq)]
pub enum WasError {
    /// The GraphQL text failed to parse or had the wrong operation kind.
    BadRequest(String),
    /// The operation referenced an unknown field.
    UnknownField(String),
    /// A referenced object does not exist.
    NotFound(ObjectId),
    /// The privacy check denied the viewer.
    PrivacyDenied,
}

impl fmt::Display for WasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WasError::BadRequest(m) => write!(f, "bad request: {m}"),
            WasError::UnknownField(n) => write!(f, "unknown field '{n}'"),
            WasError::NotFound(id) => write!(f, "object {id} not found"),
            WasError::PrivacyDenied => write!(f, "privacy check denied"),
        }
    }
}

impl std::error::Error for WasError {}

/// Result of executing a mutation.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The GraphQL response to send to the device.
    pub response: Rv,
    /// Update events to publish to Pylon.
    pub events: Vec<UpdateEvent>,
    /// Cross-region TAO replication produced by the writes.
    pub replication: Vec<ReplicationEvent>,
    /// WAS handling latency in milliseconds (ranked mutations pay the ML
    /// cost; see Table 3).
    pub was_latency_ms: u64,
}

/// Result of executing a query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The response tree.
    pub response: Rv,
    /// Aggregate TAO cost of resolving the query.
    pub cost: QueryCost,
}

/// Aggregate WAS counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WasCounters {
    /// Queries executed.
    pub queries: u64,
    /// Mutations executed.
    pub mutations: u64,
    /// Update events emitted toward Pylon.
    pub events_published: u64,
    /// Comments discarded by pre-ranking before ever reaching Pylon.
    pub preranked_discards: u64,
    /// Payload fetches served to BRASSes.
    pub brass_fetches: u64,
    /// Privacy denials on BRASS fetches.
    pub privacy_denials: u64,
}

/// Per-video hot-mode configuration for the LVC strategy switch (§3.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotVideoPolicy {
    /// Comments scoring below this are discarded at the WAS.
    pub discard_below: f64,
    /// Comments scoring at or above this go to the main `/LVC/videoID`
    /// topic; the rest go to per-poster `/LVC/videoID/uid` topics.
    pub headline_at: f64,
}

impl Default for HotVideoPolicy {
    fn default() -> Self {
        HotVideoPolicy {
            discard_below: 0.25,
            headline_at: 0.9,
        }
    }
}

/// The WAS tier (business logic + GraphQL executor in front of TAO).
pub struct WebApplicationServer {
    tao: Tao,
    next_event_id: u64,
    /// Mailbox sequence counters (the Messenger backend of §4).
    mailbox_seq: FxHashMap<u64, u64>,
    /// Videos switched to the hot strategy.
    hot_videos: FxHashMap<u64, HotVideoPolicy>,
    counters: WasCounters,
}

snap_struct!(WasCounters {
    queries,
    mutations,
    events_published,
    preranked_discards,
    brass_fetches,
    privacy_denials
});
snap_struct!(
    HotVideoPolicy {
        discard_below,
        headline_at
    },
    |p| {
        ensure(
            p.discard_below.is_finite() && p.headline_at.is_finite(),
            "was: non-finite hot policy",
        )
    }
);
// The TAO store, the event-id counter, mailbox sequence counters,
// hot-video policies, and the aggregate counters.
snap_struct!(
    WebApplicationServer {
        tao,
        next_event_id,
        mailbox_seq,
        hot_videos,
        counters
    },
    |was| ensure(was.next_event_id != 0, "was: zero event-id counter")
);

impl WebApplicationServer {
    /// Wraps a TAO store.
    pub fn new(tao: Tao) -> Self {
        WebApplicationServer {
            tao,
            next_event_id: 1,
            mailbox_seq: FxHashMap::default(),
            hot_videos: FxHashMap::default(),
            counters: WasCounters::default(),
        }
    }

    /// The underlying store.
    pub fn tao(&self) -> &Tao {
        &self.tao
    }

    /// Direct access to the underlying store (setup and assertions).
    pub fn tao_mut(&mut self) -> &mut Tao {
        &mut self.tao
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &WasCounters {
        &self.counters
    }

    fn next_event_id(&mut self) -> u64 {
        let id = self.next_event_id;
        self.next_event_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Setup helpers (fixtures used by workloads, examples, and tests).
    // ------------------------------------------------------------------

    /// Creates a user object; returns its id.
    pub fn create_user(&mut self, name: &str, lang: &str) -> u64 {
        self.tao
            .obj_add(
                "user",
                vec![
                    ("name".into(), Value::from(name)),
                    ("lang".into(), Value::from(lang)),
                    ("verified".into(), Value::from(false)),
                ],
            )
            .0
    }

    /// Marks a user as verified (celebrity accounts rank higher).
    pub fn set_verified(&mut self, uid: u64) {
        let name = self
            .tao
            .obj_get(0, ObjectId(uid))
            .0
            .and_then(|o| o.get("name").and_then(Value::as_str).map(str::to_owned))
            .unwrap_or_default();
        let lang = self
            .tao
            .obj_get(0, ObjectId(uid))
            .0
            .and_then(|o| o.get("lang").and_then(Value::as_str).map(str::to_owned))
            .unwrap_or_default();
        self.tao.obj_update(
            ObjectId(uid),
            vec![
                ("name".into(), Value::from(name)),
                ("lang".into(), Value::from(lang)),
                ("verified".into(), Value::from(true)),
            ],
        );
    }

    /// Creates a feed post owned by `author`; returns its id.
    pub fn create_post(&mut self, author: u64, text: &str) -> u64 {
        self.tao
            .obj_add(
                "post",
                vec![
                    ("text".into(), Value::from(text)),
                    ("author".into(), Value::Int(author as i64)),
                ],
            )
            .0
    }

    /// Creates a live video; returns its id.
    pub fn create_video(&mut self, title: &str) -> u64 {
        self.tao
            .obj_add("video", vec![("title".into(), Value::from(title))])
            .0
    }

    /// Creates a message thread over the given member uids; returns its id.
    pub fn create_thread(&mut self, members: &[u64]) -> u64 {
        let thread = self.tao.obj_add("thread", vec![]).0;
        for (i, &m) in members.iter().enumerate() {
            self.tao
                .assoc_add(ObjectId(thread), "member", ObjectId(m), i as u64, vec![]);
        }
        thread
    }

    /// Makes `a` and `b` friends (both directions).
    pub fn add_friend(&mut self, a: u64, b: u64, time: u64) {
        self.tao
            .assoc_add(ObjectId(a), "friend", ObjectId(b), time, vec![]);
        self.tao
            .assoc_add(ObjectId(b), "friend", ObjectId(a), time, vec![]);
    }

    /// Records that `blocker` blocked `blocked`.
    pub fn block(&mut self, blocker: u64, blocked: u64, time: u64) {
        self.tao.assoc_add(
            ObjectId(blocker),
            "blocked",
            ObjectId(blocked),
            time,
            vec![],
        );
    }

    /// Friend ids of a user.
    pub fn friends_of(&mut self, uid: u64) -> Vec<u64> {
        self.tao
            .assoc_range(0, ObjectId(uid), "friend", 0, 10_000)
            .0
            .into_iter()
            .map(|a| a.id2.0)
            .collect()
    }

    /// Switches a video to the hot-load strategy (WAS pre-ranks, discards,
    /// and splits topics; §3.4). `None` reverts to the nominal strategy.
    pub fn set_video_hot(&mut self, video: u64, policy: Option<HotVideoPolicy>) {
        match policy {
            Some(p) => {
                self.hot_videos.insert(video, p);
            }
            None => {
                self.hot_videos.remove(&video);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutations.
    // ------------------------------------------------------------------

    /// Executes a GraphQL mutation, producing TAO writes and update events.
    pub fn execute_mutation(
        &mut self,
        src: &str,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let op = parse(src).map_err(|e| WasError::BadRequest(e.to_string()))?;
        if op.kind != OpKind::Mutation {
            return Err(WasError::BadRequest("expected a mutation".into()));
        }
        let field = &op.selections[0];
        self.counters.mutations += 1;
        let outcome = match field.name.as_str() {
            "postComment" => self.mutate_post_comment(field, now_ms),
            "setTyping" => self.mutate_set_typing(field, now_ms),
            "setOnline" => self.mutate_set_online(field, now_ms),
            "createStory" => self.mutate_create_story(field, now_ms),
            "sendMessage" => self.mutate_send_message(field, now_ms),
            "likePost" => self.mutate_like_post(field, now_ms),
            other => Err(WasError::UnknownField(other.to_owned())),
        }?;
        self.counters.events_published += outcome.events.len() as u64;
        Ok(outcome)
    }

    fn require_object(&mut self, id: u64) -> Result<tao::Object, WasError> {
        self.tao
            .obj_get(0, ObjectId(id))
            .0
            .ok_or(WasError::NotFound(ObjectId(id)))
    }

    fn mutate_post_comment(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let video = field.arg_id("videoId").map_err(bad)?;
        let author = field.arg_id("authorId").map_err(bad)?;
        let text = field.arg_str("text").map_err(bad)?.to_owned();
        self.require_object(video)?;
        let author_obj = self.require_object(author)?;
        let lang = field
            .arg("lang")
            .and_then(crate::gql::GqlValue::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| {
                author_obj
                    .get("lang")
                    .and_then(Value::as_str)
                    .unwrap_or("en")
                    .to_owned()
            });
        let verified = author_obj
            .get("verified")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let (friend_count, _) = self.tao.assoc_count(0, ObjectId(author), "friend");

        // TAO writes: the comment object and the video→comment edge.
        let (comment, mut replication) = self.tao.obj_add_with_events(
            "comment",
            vec![
                ("text".into(), Value::from(text.clone())),
                ("author".into(), Value::Int(author as i64)),
                ("video".into(), Value::Int(video as i64)),
                ("lang".into(), Value::from(lang.clone())),
                ("created_ms".into(), Value::Int(now_ms as i64)),
            ],
        );
        replication.extend(self.tao.assoc_add(
            ObjectId(video),
            "has_comment",
            comment,
            now_ms,
            vec![],
        ));

        // ML pre-ranking (the expensive part of the WAS path for LVC).
        let features = CommentFeatures::extract(&text, verified, friend_count);
        let quality = ranking::score(&features, comment.0);

        let meta = EventMeta {
            uid: author,
            quality,
            lang: Some(lang),
            created_ms: now_ms,
            seq: None,
            typing: None,
        };
        let mut events = Vec::new();
        match self.hot_videos.get(&video) {
            Some(policy) => {
                // Hot strategy: discard low quality, split the rest between
                // the headline topic and per-poster topics.
                if quality < policy.discard_below {
                    self.counters.preranked_discards += 1;
                } else {
                    let topic = if quality >= policy.headline_at {
                        Topic::live_video_comments(video)
                    } else {
                        Topic::live_video_comments_by(video, author)
                    };
                    events.push(UpdateEvent {
                        id: self.next_event_id(),
                        topic,
                        object: comment,
                        kind: EventKind::CommentPosted,
                        meta,
                    });
                }
            }
            None => {
                events.push(UpdateEvent {
                    id: self.next_event_id(),
                    topic: Topic::live_video_comments(video),
                    object: comment,
                    kind: EventKind::CommentPosted,
                    meta,
                });
            }
        }
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("id".into(), Rv::Int(comment.0 as i64))]),
            events,
            replication,
            was_latency_ms: ranking::RANKING_LATENCY_MS + 210,
        })
    }

    fn mutate_set_typing(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let thread = field.arg_id("threadId").map_err(bad)?;
        let uid = field.arg_id("uid").map_err(bad)?;
        let typing = field
            .arg("typing")
            .and_then(|v| match v {
                crate::gql::GqlValue::Bool(b) => Some(*b),
                _ => None,
            })
            .ok_or_else(|| WasError::BadRequest("missing bool argument 'typing'".into()))?;
        // Typing state is ephemeral: no TAO write, event only.
        let event = UpdateEvent {
            id: self.next_event_id(),
            topic: Topic::typing_indicator(thread, uid),
            object: ObjectId(uid),
            kind: EventKind::TypingChanged,
            meta: EventMeta {
                uid,
                created_ms: now_ms,
                typing: Some(typing),
                ..Default::default()
            },
        };
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("ok".into(), Rv::Bool(true))]),
            events: vec![event],
            replication: Vec::new(),
            was_latency_ms: ranking::NON_RANKED_WAS_LATENCY_MS,
        })
    }

    fn mutate_set_online(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let uid = field.arg_id("uid").map_err(bad)?;
        let user = self.require_object(uid)?;
        let mut data = user.data.clone();
        data.retain(|(k, _)| k.as_ref() != "last_online_ms");
        data.push(("last_online_ms".into(), Value::Int(now_ms as i64)));
        let replication = self.tao.obj_update(ObjectId(uid), data).unwrap_or_default();
        let event = UpdateEvent {
            id: self.next_event_id(),
            topic: Topic::active_status(uid),
            object: ObjectId(uid),
            kind: EventKind::StatusOnline,
            meta: EventMeta {
                uid,
                created_ms: now_ms,
                ..Default::default()
            },
        };
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("ok".into(), Rv::Bool(true))]),
            events: vec![event],
            replication,
            was_latency_ms: ranking::NON_RANKED_WAS_LATENCY_MS,
        })
    }

    fn mutate_create_story(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let author = field.arg_id("authorId").map_err(bad)?;
        let media = field.arg_str("media").map_err(bad)?.to_owned();
        self.require_object(author)?;
        let audience = field
            .arg("audience")
            .and_then(crate::gql::GqlValue::as_str)
            .unwrap_or("public")
            .to_owned();
        let (story, mut replication) = self.tao.obj_add_with_events(
            "story",
            vec![
                ("media".into(), Value::from(media)),
                ("author".into(), Value::Int(author as i64)),
                ("created_ms".into(), Value::Int(now_ms as i64)),
                ("audience".into(), Value::from(audience)),
            ],
        );
        replication.extend(self.tao.assoc_add(
            ObjectId(author),
            "has_story",
            story,
            now_ms,
            vec![],
        ));
        let event = UpdateEvent {
            id: self.next_event_id(),
            topic: Topic::stories(author),
            object: story,
            kind: EventKind::StoryCreated,
            meta: EventMeta {
                uid: author,
                created_ms: now_ms,
                ..Default::default()
            },
        };
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("id".into(), Rv::Int(story.0 as i64))]),
            events: vec![event],
            replication,
            was_latency_ms: ranking::NON_RANKED_WAS_LATENCY_MS,
        })
    }

    fn mutate_send_message(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let thread = field.arg_id("threadId").map_err(bad)?;
        let from = field.arg_id("fromId").map_err(bad)?;
        let text = field.arg_str("text").map_err(bad)?.to_owned();
        self.require_object(thread)?;
        let (members, _) = self.tao.assoc_range(0, ObjectId(thread), "member", 0, 64);
        if members.is_empty() {
            return Err(WasError::BadRequest("thread has no members".into()));
        }
        let (message, mut replication) = self.tao.obj_add_with_events(
            "message",
            vec![
                ("text".into(), Value::from(text)),
                ("author".into(), Value::Int(from as i64)),
                ("thread".into(), Value::Int(thread as i64)),
                ("created_ms".into(), Value::Int(now_ms as i64)),
            ],
        );
        // "each new message to the thread will be separately added to all
        // five mailboxes … assigned the next consecutive sequence number for
        // the mailbox" (§4).
        let mut events = Vec::new();
        for m in &members {
            let mailbox_owner = m.id2.0;
            let seq_slot = self.mailbox_seq.entry(mailbox_owner).or_insert(0);
            let seq = *seq_slot;
            *seq_slot += 1;
            // The row names the event that added it, so a mailbox replay
            // carries the same update as the live event.
            let id = self.next_event_id();
            replication.extend(self.tao.assoc_add(
                ObjectId(mailbox_owner),
                "mailbox",
                message,
                seq,
                vec![
                    ("thread".into(), Value::Int(thread as i64)),
                    ("event".into(), Value::Int(id as i64)),
                ],
            ));
            events.push(UpdateEvent {
                id,
                topic: Topic::messenger_mailbox(mailbox_owner),
                object: message,
                kind: EventKind::MessageAdded,
                meta: EventMeta {
                    uid: from,
                    created_ms: now_ms,
                    seq: Some(seq),
                    ..Default::default()
                },
            });
        }
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("id".into(), Rv::Int(message.0 as i64))]),
            events,
            replication,
            was_latency_ms: ranking::NON_RANKED_WAS_LATENCY_MS,
        })
    }

    fn mutate_like_post(
        &mut self,
        field: &Field,
        now_ms: u64,
    ) -> Result<MutationOutcome, WasError> {
        let post = field.arg_id("postId").map_err(bad)?;
        let uid = field.arg_id("uid").map_err(bad)?;
        let post_obj = self.require_object(post)?;
        let replication =
            self.tao
                .assoc_add(ObjectId(post), "liked_by", ObjectId(uid), now_ms, vec![]);
        let mut events = vec![UpdateEvent {
            id: self.next_event_id(),
            topic: Topic::new(&format!("/Likes/{post}")).expect("static shape"),
            object: ObjectId(post),
            kind: EventKind::PostLiked,
            meta: EventMeta {
                uid,
                created_ms: now_ms,
                ..Default::default()
            },
        }];
        // Business logic: the post's owner gets a website notification
        // (unless they liked their own post).
        let owner = post_obj.get("author").and_then(Value::as_int).unwrap_or(0) as u64;
        if owner != 0 && owner != uid {
            events.push(UpdateEvent {
                id: self.next_event_id(),
                topic: Topic::notifications(owner),
                object: ObjectId(post),
                kind: EventKind::NotificationPosted,
                meta: EventMeta {
                    uid,
                    created_ms: now_ms,
                    ..Default::default()
                },
            });
        }
        Ok(MutationOutcome {
            response: Rv::Obj(vec![("ok".into(), Rv::Bool(true))]),
            events,
            replication,
            was_latency_ms: ranking::NON_RANKED_WAS_LATENCY_MS,
        })
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Executes a GraphQL query in `region`.
    pub fn execute_query(&mut self, region: u16, src: &str) -> Result<QueryOutcome, WasError> {
        let op = parse(src).map_err(|e| WasError::BadRequest(e.to_string()))?;
        if op.kind != OpKind::Query {
            return Err(WasError::BadRequest("expected a query".into()));
        }
        self.counters.queries += 1;
        let mut cost = QueryCost::default();
        let mut pairs = Vec::new();
        for field in &op.selections {
            let value = match field.name.as_str() {
                "video" => self.query_video(region, field, &mut cost)?,
                "user" => self.query_user(region, field, &mut cost)?,
                "storiesTray" => self.query_stories_tray(region, field, &mut cost)?,
                "mailbox" => self.query_mailbox(region, field, &mut cost)?,
                other => return Err(WasError::UnknownField(other.to_owned())),
            };
            pairs.push((field.name.clone(), value));
        }
        Ok(QueryOutcome {
            response: Rv::Obj(pairs),
            cost,
        })
    }

    fn comment_to_rv(&mut self, region: u16, id: ObjectId, cost: &mut QueryCost) -> Rv {
        match self.tao.obj_get(region, id) {
            (Some(obj), c) => {
                *cost += c;
                Rv::Obj(vec![
                    ("id".into(), Rv::Int(obj.id.0 as i64)),
                    (
                        "text".into(),
                        Rv::Str(
                            obj.get("text")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_owned(),
                        ),
                    ),
                    (
                        "author".into(),
                        Rv::Int(obj.get("author").and_then(Value::as_int).unwrap_or(0)),
                    ),
                ])
            }
            (None, c) => {
                *cost += c;
                Rv::Null
            }
        }
    }

    fn query_video(
        &mut self,
        region: u16,
        field: &Field,
        cost: &mut QueryCost,
    ) -> Result<Rv, WasError> {
        let video = field.arg_id("id").map_err(bad)?;
        let mut pairs = vec![("id".into(), Rv::Int(video as i64))];
        for sel in &field.selections {
            match sel.name.as_str() {
                "comments" => {
                    let first = sel.arg("first").and_then(|v| v.as_int()).unwrap_or(10) as usize;
                    let (assocs, c) =
                        self.tao
                            .assoc_range(region, ObjectId(video), "has_comment", 0, first);
                    *cost += c;
                    let items = assocs
                        .iter()
                        .map(|a| self.comment_to_rv(region, a.id2, cost))
                        .collect();
                    pairs.push(("comments".into(), Rv::List(items)));
                }
                "commentsSince" => {
                    // The polling query shape: "fetch all comments on live
                    // video V since timestamp X".
                    let since = sel.arg("since").and_then(|v| v.as_int()).unwrap_or(0) as u64;
                    let first = sel.arg("first").and_then(|v| v.as_int()).unwrap_or(50) as usize;
                    let (assocs, c) = self.tao.assoc_time_range(
                        region,
                        ObjectId(video),
                        "has_comment",
                        since,
                        u64::MAX,
                        first,
                    );
                    *cost += c;
                    let items = assocs
                        .iter()
                        .map(|a| self.comment_to_rv(region, a.id2, cost))
                        .collect();
                    pairs.push(("commentsSince".into(), Rv::List(items)));
                }
                "title" => {
                    let (obj, c) = self.tao.obj_get(region, ObjectId(video));
                    *cost += c;
                    let title = obj
                        .and_then(|o| o.get("title").and_then(Value::as_str).map(str::to_owned))
                        .unwrap_or_default();
                    pairs.push(("title".into(), Rv::Str(title)));
                }
                other => return Err(WasError::UnknownField(other.to_owned())),
            }
        }
        Ok(Rv::Obj(pairs))
    }

    fn query_user(
        &mut self,
        region: u16,
        field: &Field,
        cost: &mut QueryCost,
    ) -> Result<Rv, WasError> {
        let uid = field.arg_id("id").map_err(bad)?;
        let (obj, c) = self.tao.obj_get(region, ObjectId(uid));
        *cost += c;
        let Some(obj) = obj else {
            return Ok(Rv::Null);
        };
        let mut pairs = vec![("id".into(), Rv::Int(uid as i64))];
        for sel in &field.selections {
            match sel.name.as_str() {
                "name" => pairs.push((
                    "name".into(),
                    Rv::Str(
                        obj.get("name")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    ),
                )),
                "lastOnlineMs" => pairs.push((
                    "lastOnlineMs".into(),
                    Rv::Int(
                        obj.get("last_online_ms")
                            .and_then(Value::as_int)
                            .unwrap_or(0),
                    ),
                )),
                other => return Err(WasError::UnknownField(other.to_owned())),
            }
        }
        Ok(Rv::Obj(pairs))
    }

    fn query_stories_tray(
        &mut self,
        region: u16,
        field: &Field,
        cost: &mut QueryCost,
    ) -> Result<Rv, WasError> {
        // The expensive polling shape: two intersect-style queries over all
        // of the viewer's friends (§3.4 Stories).
        let viewer = field.arg_id("viewerId").map_err(bad)?;
        let first = field.arg("first").and_then(|v| v.as_int()).unwrap_or(10) as usize;
        let (friends, c) = self
            .tao
            .assoc_range(region, ObjectId(viewer), "friend", 0, 5_000);
        *cost += c;
        let friend_ids: Vec<ObjectId> = friends.iter().map(|a| a.id2).collect();
        let (stories, c) = self
            .tao
            .assoc_intersect(region, &friend_ids, "has_story", first);
        *cost += c;
        let items = stories
            .iter()
            .map(|a| {
                Rv::Obj(vec![
                    ("storyId".into(), Rv::Int(a.id2.0 as i64)),
                    ("author".into(), Rv::Int(a.id1.0 as i64)),
                    ("time".into(), Rv::Int(a.time as i64)),
                ])
            })
            .collect();
        Ok(Rv::List(items))
    }

    fn query_mailbox(
        &mut self,
        region: u16,
        field: &Field,
        cost: &mut QueryCost,
    ) -> Result<Rv, WasError> {
        let uid = field.arg_id("uid").map_err(bad)?;
        let after_seq = field.arg("afterSeq").and_then(|v| v.as_int());
        let first = field.arg("first").and_then(|v| v.as_int()).unwrap_or(50) as usize;
        let (assocs, c) = match after_seq {
            Some(after) => self.tao.assoc_time_range(
                region,
                ObjectId(uid),
                "mailbox",
                (after + 1) as u64,
                u64::MAX,
                first,
            ),
            None => self
                .tao
                .assoc_range(region, ObjectId(uid), "mailbox", 0, first),
        };
        *cost += c;
        let mut items: Vec<Rv> = assocs
            .iter()
            .map(|a| {
                let event = a.get("event").and_then(Value::as_int).unwrap_or(0);
                Rv::Obj(vec![
                    ("seq".into(), Rv::Int(a.time as i64)),
                    ("messageId".into(), Rv::Int(a.id2.0 as i64)),
                    ("eventId".into(), Rv::Int(event)),
                ])
            })
            .collect();
        // Mailbox reads are oldest-first for replay.
        items.reverse();
        Ok(Rv::List(items))
    }

    // ------------------------------------------------------------------
    // BRASS-facing payload fetch (steps [8]-[10] of Fig. 5).
    // ------------------------------------------------------------------

    /// Fetches one updated object's payload on behalf of a viewer, running
    /// the privacy check inline.
    ///
    /// Returns the wire payload to push to the device, or
    /// [`WasError::PrivacyDenied`] / [`WasError::NotFound`].
    pub fn fetch_for_viewer(
        &mut self,
        region: u16,
        viewer: u64,
        object: ObjectId,
    ) -> Result<(Vec<u8>, QueryCost), WasError> {
        self.counters.brass_fetches += 1;
        let (obj, mut cost) = self.tao.obj_get(region, object);
        let obj = obj.ok_or(WasError::NotFound(object))?;
        let author = obj.get("author").and_then(Value::as_int).unwrap_or(0) as u64;
        let audience = Audience::from_field(obj.get("audience").and_then(Value::as_str));
        if author != 0 {
            let (verdict, c) = check_visibility(&mut self.tao, region, viewer, author, audience);
            cost += c;
            if !verdict.allowed() {
                self.counters.privacy_denials += 1;
                return Err(WasError::PrivacyDenied);
            }
        }
        Ok((object_wire(&obj), cost))
    }
}

/// The wire payload of one TAO object: `{"id":…}` followed by its fields in
/// stored order — the bytes `Rv::Obj` of the same fields serializes to.
fn object_wire(obj: &tao::Object) -> Vec<u8> {
    let mut out = String::with_capacity(128);
    // Formatting into a `String` cannot fail.
    _ = write!(out, "{{\"id\":{}", obj.id.0 as i64);
    for (key, value) in &obj.data {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        match value {
            Value::Str(s) => write_wire_str(s, &mut out),
            Value::Int(i) => _ = write!(out, "{i}"),
            Value::Float(f) => _ = write!(out, "{f}"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out.into_bytes()
}

fn bad(e: crate::gql::ParseError) -> WasError {
    WasError::BadRequest(e.message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::Snap;
    use tao::TaoConfig;

    fn was() -> WebApplicationServer {
        WebApplicationServer::new(Tao::new(TaoConfig::small()))
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut w = was();
        let v = w.create_video("eclipse");
        let u = w.create_user("ada", "en");
        w.set_verified(u);
        w.set_video_hot(
            v,
            Some(HotVideoPolicy {
                discard_below: 0.3,
                headline_at: 0.8,
            }),
        );
        w.execute_mutation(
            &format!(
                r#"mutation {{ postComment(videoId: {v}, authorId: {u}, text: "hello") {{ id }} }}"#
            ),
            1_000,
        )
        .unwrap();
        w.execute_query(
            0,
            &format!("{{ video(id: {v}) {{ comments(first: 5) {{ text }} }} }}"),
        )
        .unwrap();
        let mut sw = simkit::snap::SnapWriter::new();
        w.snap(&mut sw);
        let bytes = sw.into_bytes();
        let mut r = simkit::snap::SnapReader::new(&bytes);
        let restored = WebApplicationServer::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let mut sw2 = simkit::snap::SnapWriter::new();
        restored.snap(&mut sw2);
        assert_eq!(bytes, sw2.into_bytes(), "snap(restore(snap(w))) differs");
        assert_eq!(restored.counters().mutations, w.counters().mutations);
        assert_eq!(restored.counters().queries, w.counters().queries);
        // Truncations must fail closed, never yield a partial WAS.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = simkit::snap::SnapReader::new(&bytes[..cut]);
            assert!(
                WebApplicationServer::restore(&mut r).is_err() || r.finish().is_err(),
                "truncation at {cut} must not produce a clean WAS"
            );
        }
    }

    #[test]
    fn post_comment_emits_event_and_writes_tao() {
        let mut w = was();
        let v = w.create_video("eclipse");
        let u = w.create_user("ada", "en");
        let out = w
            .execute_mutation(
                &format!(
                    r#"mutation {{ postComment(videoId: {v}, authorId: {u}, text: "nice totality shot") {{ id }} }}"#
                ),
                1_000,
            )
            .unwrap();
        assert_eq!(out.events.len(), 1);
        let ev = &out.events[0];
        assert_eq!(ev.topic, Topic::live_video_comments(v));
        assert_eq!(ev.kind, EventKind::CommentPosted);
        assert_eq!(ev.meta.uid, u);
        assert!(ev.meta.quality > 0.0);
        assert_eq!(out.was_latency_ms, 2_000, "ranked path costs 2s (Table 3)");
        // The comment is queryable.
        let q = w
            .execute_query(
                0,
                &format!("{{ video(id: {v}) {{ comments(first: 5) {{ text }} }} }}"),
            )
            .unwrap();
        let comments = q.response.get("video").unwrap().get("comments").unwrap();
        assert_eq!(comments.items().len(), 1);
    }

    #[test]
    fn hot_video_strategy_splits_topics_and_discards() {
        let mut w = was();
        let v = w.create_video("cake");
        let celeb = w.create_user("celeb", "en");
        w.set_verified(celeb);
        for f in 0..200 {
            let friend = w.create_user(&format!("f{f}"), "en");
            w.add_friend(celeb, friend, f);
        }
        let pleb = w.create_user("pleb", "en");
        w.set_video_hot(
            v,
            Some(HotVideoPolicy {
                discard_below: 0.3,
                headline_at: 0.8,
            }),
        );
        // Post many comments from both authors and check topic routing.
        let mut headline = 0;
        let mut per_uid = 0;
        let mut discarded = 0;
        for i in 0..60 {
            let (author, text) = if i % 2 == 0 {
                (celeb, "what an incredible broadcast from the summit")
            } else {
                (pleb, "ok")
            };
            let out = w
                .execute_mutation(
                    &format!(
                        r#"mutation {{ postComment(videoId: {v}, authorId: {author}, text: "{text}") {{ id }} }}"#
                    ),
                    i,
                )
                .unwrap();
            match out.events.first() {
                None => discarded += 1,
                Some(ev) if ev.topic == Topic::live_video_comments(v) => headline += 1,
                Some(_) => per_uid += 1,
            }
        }
        assert!(
            headline > 0,
            "some high-quality comments hit the main topic"
        );
        assert!(per_uid > 0, "mid-quality comments go to per-poster topics");
        assert!(discarded > 0, "low-quality comments are discarded at WAS");
        assert_eq!(w.counters().preranked_discards, discarded);
    }

    #[test]
    fn typing_mutation_is_ephemeral() {
        let mut w = was();
        let out = w
            .execute_mutation(
                "mutation { setTyping(threadId: 5, uid: 9, typing: true) { ok } }",
                10,
            )
            .unwrap();
        assert_eq!(out.events[0].topic, Topic::typing_indicator(5, 9));
        assert_eq!(out.events[0].meta.typing, Some(true));
        assert!(out.replication.is_empty(), "no TAO write for typing");
        assert_eq!(out.was_latency_ms, 240);
    }

    #[test]
    fn set_online_updates_user_and_publishes_status() {
        let mut w = was();
        let u = w.create_user("ada", "en");
        let out = w
            .execute_mutation(&format!("mutation {{ setOnline(uid: {u}) {{ ok }} }}"), 99)
            .unwrap();
        assert_eq!(out.events[0].topic, Topic::active_status(u));
        let q = w
            .execute_query(0, &format!("{{ user(id: {u}) {{ lastOnlineMs }} }}"))
            .unwrap();
        assert_eq!(
            q.response.get("user").unwrap().get("lastOnlineMs").unwrap(),
            &Rv::Int(99)
        );
    }

    #[test]
    fn send_message_fans_to_all_mailboxes_with_seq() {
        let mut w = was();
        let users: Vec<u64> = (0..5)
            .map(|i| w.create_user(&format!("u{i}"), "en"))
            .collect();
        let t = w.create_thread(&users);
        let out = w
            .execute_mutation(
                &format!(r#"mutation {{ sendMessage(threadId: {t}, fromId: {}, text: "hello") {{ id }} }}"#, users[0]),
                5,
            )
            .unwrap();
        assert_eq!(out.events.len(), 5, "one event per mailbox");
        assert!(out.events.iter().all(|e| e.meta.seq == Some(0)));
        // Second message increments each mailbox's sequence independently.
        let out2 = w
            .execute_mutation(
                &format!(r#"mutation {{ sendMessage(threadId: {t}, fromId: {}, text: "again") {{ id }} }}"#, users[1]),
                6,
            )
            .unwrap();
        assert!(out2.events.iter().all(|e| e.meta.seq == Some(1)));
    }

    #[test]
    fn mailbox_query_replays_after_seq() {
        let mut w = was();
        let users: Vec<u64> = (0..2)
            .map(|i| w.create_user(&format!("u{i}"), "en"))
            .collect();
        let t = w.create_thread(&users);
        let mut added = Vec::new();
        for i in 0..5 {
            let out = w
                .execute_mutation(
                    &format!(r#"mutation {{ sendMessage(threadId: {t}, fromId: {}, text: "m{i}") {{ id }} }}"#, users[0]),
                    i,
                )
                .unwrap();
            let mailbox = Topic::messenger_mailbox(users[1]);
            added.extend(
                out.events
                    .iter()
                    .filter(|e| e.topic == mailbox)
                    .map(|e| e.id as i64),
            );
        }
        let q = w
            .execute_query(0, &format!("{{ mailbox(uid: {}, afterSeq: 2) }}", users[1]))
            .unwrap();
        let items = q.response.get("mailbox").unwrap().items();
        let field = |name: &str| -> Vec<i64> {
            items
                .iter()
                .map(|m| m.get(name).unwrap().as_int().unwrap())
                .collect()
        };
        assert_eq!(
            field("seq"),
            vec![3, 4],
            "only messages after seq 2, oldest first"
        );
        // Each row names the event that added the message to this mailbox.
        assert_eq!(field("eventId"), added[3..]);
    }

    #[test]
    fn create_story_and_tray_intersect() {
        let mut w = was();
        let viewer = w.create_user("v", "en");
        for i in 0..10 {
            let f = w.create_user(&format!("f{i}"), "en");
            w.add_friend(viewer, f, i);
            w.execute_mutation(
                &format!(r#"mutation {{ createStory(authorId: {f}, media: "pic{i}") {{ id }} }}"#),
                100 + i,
            )
            .unwrap();
        }
        let q = w
            .execute_query(
                0,
                &format!("{{ storiesTray(viewerId: {viewer}, first: 3) }}"),
            )
            .unwrap();
        let tray = q.response.get("storiesTray").unwrap().items();
        assert_eq!(tray.len(), 3);
        // The tray query is the expensive intersect shape.
        assert!(
            q.cost.shards_touched >= 3,
            "shards {}",
            q.cost.shards_touched
        );
    }

    #[test]
    fn fetch_for_viewer_applies_privacy() {
        let mut w = was();
        let v = w.create_video("x");
        let author = w.create_user("author", "en");
        let viewer = w.create_user("viewer", "en");
        let out = w
            .execute_mutation(
                &format!(r#"mutation {{ postComment(videoId: {v}, authorId: {author}, text: "hello viewers") {{ id }} }}"#),
                1,
            )
            .unwrap();
        let comment = out.events[0].object;
        let (payload, _) = w.fetch_for_viewer(0, viewer, comment).unwrap();
        let text = String::from_utf8(payload).unwrap();
        assert!(text.contains("hello viewers"));
        // After a block, the fetch is denied.
        w.block(viewer, author, 2);
        assert_eq!(
            w.fetch_for_viewer(0, viewer, comment),
            Err(WasError::PrivacyDenied)
        );
        assert_eq!(w.counters().privacy_denials, 1);
    }

    /// What `fetch_for_viewer` used to do: copy the object into an `Rv`
    /// tree and serialize that. Kept as the oracle for the direct writer.
    fn rv_wire(obj: &tao::Object) -> Vec<u8> {
        let fields = obj.data.iter().map(|(k, v)| {
            let rv = match v {
                Value::Str(s) => Rv::Str(s.clone()),
                Value::Int(i) => Rv::Int(*i),
                Value::Float(f) => Rv::Float(*f),
                Value::Bool(b) => Rv::Bool(*b),
            };
            (k.to_string(), rv)
        });
        Rv::Obj(
            std::iter::once(("id".to_owned(), Rv::Int(obj.id.0 as i64)))
                .chain(fields)
                .collect(),
        )
        .to_wire()
    }

    #[test]
    fn fetch_payload_bytes_match_the_rv_path() {
        let mut w = was();
        let author = w.create_user("author", "en");
        let viewer = w.create_user("viewer", "en");
        let blocked = w.create_user("blocked", "en");
        w.block(blocked, author, 1);
        let objects = [
            vec![],
            vec![
                ("text".into(), Value::Str("say \"hi\"\\\n\ttab é".into())),
                ("author".into(), Value::Int(author as i64)),
                ("neg".into(), Value::Int(i64::MIN)),
                ("quality".into(), Value::Float(0.125)),
                ("whole".into(), Value::Float(3.0)),
                ("tiny".into(), Value::Float(-1e-9)),
                ("huge".into(), Value::Float(1e300)),
                ("nan".into(), Value::Float(f64::NAN)),
                ("hot".into(), Value::Bool(true)),
                ("cold".into(), Value::Bool(false)),
                ("empty".into(), Value::Str(String::new())),
            ],
        ];
        for data in objects {
            let id = w.tao_mut().obj_add("thing", data);
            let stored = w.tao_mut().obj_get(0, id).0.expect("just added");
            let want = rv_wire(&stored);
            let before = *w.counters();
            let (payload, _) = w.fetch_for_viewer(0, viewer, id).expect("visible");
            assert_eq!(
                String::from_utf8(payload).unwrap(),
                String::from_utf8(want).unwrap()
            );
            assert_eq!(w.counters().brass_fetches, before.brass_fetches + 1);
            assert_eq!(w.counters().privacy_denials, before.privacy_denials);
            // The privacy gate still runs ahead of the writer.
            if stored.get("author").is_some() {
                assert_eq!(
                    w.fetch_for_viewer(0, blocked, id),
                    Err(WasError::PrivacyDenied)
                );
                assert_eq!(w.counters().privacy_denials, before.privacy_denials + 1);
                assert_eq!(w.counters().brass_fetches, before.brass_fetches + 2);
            }
        }
        let before = *w.counters();
        assert_eq!(
            w.fetch_for_viewer(0, viewer, ObjectId(999_999)),
            Err(WasError::NotFound(ObjectId(999_999)))
        );
        assert_eq!(w.counters().brass_fetches, before.brass_fetches + 1);
        assert_eq!(w.counters().privacy_denials, before.privacy_denials);
    }

    #[test]
    fn fetch_unknown_object_is_not_found() {
        let mut w = was();
        assert!(matches!(
            w.fetch_for_viewer(0, 1, ObjectId(999_999)),
            Err(WasError::NotFound(_))
        ));
    }

    #[test]
    fn rejects_wrong_operation_kinds_and_unknown_fields() {
        let mut w = was();
        assert!(matches!(
            w.execute_mutation("query { video(id: 1) { title } }", 0),
            Err(WasError::BadRequest(_))
        ));
        assert!(matches!(
            w.execute_query(0, "mutation { setOnline(uid: 1) { ok } }"),
            Err(WasError::BadRequest(_))
        ));
        assert!(matches!(
            w.execute_mutation("mutation { frobnicate(x: 1) { ok } }", 0),
            Err(WasError::UnknownField(_))
        ));
        assert!(matches!(
            w.execute_query(0, "{ nonsense(id: 1) }"),
            Err(WasError::UnknownField(_))
        ));
    }

    #[test]
    fn comments_since_polling_shape_reports_cost() {
        let mut w = was();
        let v = w.create_video("x");
        let u = w.create_user("u", "en");
        for i in 0..20 {
            w.execute_mutation(
                &format!(r#"mutation {{ postComment(videoId: {v}, authorId: {u}, text: "comment number {i} right here") {{ id }} }}"#),
                i * 10,
            )
            .unwrap();
        }
        let q = w
            .execute_query(
                0,
                &format!(
                    "{{ video(id: {v}) {{ commentsSince(since: 100, first: 50) {{ text }} }} }}"
                ),
            )
            .unwrap();
        let items = q
            .response
            .get("video")
            .unwrap()
            .get("commentsSince")
            .unwrap()
            .items();
        assert_eq!(items.len(), 10, "comments at times 100..190");
        assert!(q.cost.cache_misses >= 1, "since-queries hit storage");
    }

    #[test]
    fn like_on_owned_post_notifies_the_owner() {
        let mut w = was();
        let owner = w.create_user("owner", "en");
        let fan = w.create_user("fan", "en");
        let post = w.create_post(owner, "my holiday photos");
        let out = w
            .execute_mutation(
                &format!("mutation {{ likePost(postId: {post}, uid: {fan}) {{ ok }} }}"),
                5,
            )
            .unwrap();
        assert_eq!(out.events.len(), 2, "a like event plus a notification");
        assert_eq!(out.events[1].kind, EventKind::NotificationPosted);
        assert_eq!(out.events[1].topic, Topic::notifications(owner));
        assert_eq!(out.events[1].meta.uid, fan);
        // Self-likes do not notify.
        let out = w
            .execute_mutation(
                &format!("mutation {{ likePost(postId: {post}, uid: {owner}) {{ ok }} }}"),
                6,
            )
            .unwrap();
        assert_eq!(out.events.len(), 1);
    }

    #[test]
    fn rv_wire_serialization() {
        let rv = Rv::Obj(vec![
            ("a".into(), Rv::Int(1)),
            ("b".into(), Rv::Str("x\"y".into())),
            ("c".into(), Rv::List(vec![Rv::Bool(true), Rv::Null])),
        ]);
        assert_eq!(
            String::from_utf8(rv.to_wire()).unwrap(),
            r#"{"a":1,"b":"x\"y","c":[true,null]}"#
        );
    }
}
