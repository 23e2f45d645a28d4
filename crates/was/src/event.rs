//! Update events: the metadata-only notifications flowing WAS → Pylon →
//! BRASS.
//!
//! A key Bladerunner design choice (§1, third "unique aspect"): when the
//! social graph mutates, "the data involved in an update itself is not
//! pushed to Pylon … but only a corresponding update event, along with
//! metadata characterizing and identifying the update in TAO". The BRASS
//! later fetches the payload from the WAS with a cheap point query. Keeping
//! payloads out of the event halves cross-region bandwidth.

use pylon::Topic;
use simkit::snap::ensure;
use simkit::trace::TraceId;
use simkit::{snap_enum, snap_struct};
use tao::ObjectId;

/// What kind of mutation an event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A new live-video comment was posted.
    CommentPosted,
    /// A user's typing state changed (`true` = started typing).
    TypingChanged,
    /// A user refreshed their online status.
    StatusOnline,
    /// A new story was created.
    StoryCreated,
    /// A message was added to a mailbox.
    MessageAdded,
    /// A post received a new like.
    PostLiked,
    /// A user received a website notification (e.g. "X liked your post").
    NotificationPosted,
    /// Generic mutation for onboarded applications not modelled above.
    Generic,
}

/// Metadata attached to an update event by WAS business logic.
///
/// "The event may include metadata such as uid, quality score, etc." (§3.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventMeta {
    /// The acting user.
    pub uid: u64,
    /// ML quality score in `[0, 1]` (LiveVideoComments pre-ranking).
    pub quality: f64,
    /// BCP-47-ish language tag of the content, if textual.
    pub lang: Option<String>,
    /// Application timestamp (milliseconds).
    pub created_ms: u64,
    /// Per-mailbox sequence number (Messenger reliability).
    pub seq: Option<u64>,
    /// Whether the typing indicator turned on (TypingChanged events).
    pub typing: Option<bool>,
}

/// An update event: a pointer to mutated TAO state plus routing metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateEvent {
    /// Globally unique event id (assigned by the WAS).
    pub id: u64,
    /// Topic identifying the mutated area of the social graph.
    pub topic: Topic,
    /// The TAO object the event refers to (what BRASS will fetch).
    pub object: ObjectId,
    /// Mutation kind.
    pub kind: EventKind,
    /// Business-logic metadata.
    pub meta: EventMeta,
}

impl UpdateEvent {
    /// The trace this update opens at commit: one per event, named by its
    /// id. Whatever BRASS builds from the event carries it.
    pub fn trace(&self) -> TraceId {
        TraceId(self.id)
    }

    /// Approximate wire size of the event (metadata only — this is the
    /// point: it stays small no matter how large the payload is).
    pub fn wire_size(&self) -> usize {
        48 + self.topic.as_str().len() + self.meta.lang.as_deref().map_or(0, str::len)
    }
}

snap_enum!(EventKind {
    0 => CommentPosted,
    1 => TypingChanged,
    2 => StatusOnline,
    3 => StoryCreated,
    4 => MessageAdded,
    5 => PostLiked,
    6 => NotificationPosted,
    7 => Generic,
});
snap_struct!(
    EventMeta {
        uid,
        quality,
        lang,
        created_ms,
        seq,
        typing
    },
    |m| ensure(m.quality.is_finite(), "EventMeta quality not finite")
);
// The interned topic is written as its string and re-interned (validated)
// on restore.
snap_struct!(UpdateEvent {
    id,
    topic,
    object,
    kind,
    meta
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_is_payload_independent() {
        let ev = UpdateEvent {
            id: 1,
            topic: Topic::live_video_comments(42),
            object: ObjectId(7),
            kind: EventKind::CommentPosted,
            meta: EventMeta {
                uid: 9,
                quality: 0.9,
                lang: Some("en".into()),
                created_ms: 1,
                seq: None,
                typing: None,
            },
        };
        // Events are small regardless of the comment text length in TAO.
        assert!(ev.wire_size() < 128);
    }
}
