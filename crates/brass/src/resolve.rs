//! Subscription resolution: BURST header → (application, topic).
//!
//! A device "expresses its interest by issuing (for example) a GraphQL
//! subscription request to a BRASS, which is translated to a topic" (§3).
//! The subscription travels in the BURST header under `"gql"`; this module
//! parses it and maps the subscription field onto the owning application
//! and its Pylon topic. Pre-resolved headers (with explicit `"app"` and
//! `"topic"` fields — e.g. after a proxy repair) are accepted directly when
//! `"app"` names an [`AppId`].

use burst::json::Json;
use pylon::Topic;
use was::gql::{self, OpKind};

use crate::apps::AppId;

/// A resolved subscription.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedSub {
    /// The owning application.
    pub app: AppId,
    /// The primary Pylon topic for this stream.
    pub topic: Topic,
    /// The viewing user (drives per-user filtering and privacy).
    pub viewer: u64,
}

/// Resolution failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolveError {
    /// The header carries no `viewer` field.
    MissingViewer,
    /// The header carries neither a `gql` subscription nor `app`+`topic`.
    MissingSubscription,
    /// The GraphQL text failed to parse or was not a subscription.
    BadGql(String),
    /// The subscription field, or a pre-resolved header's `"app"`, is not a
    /// known application.
    UnknownSubscription(String),
    /// A required argument was missing.
    MissingArgument(&'static str),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::MissingViewer => write!(f, "header missing 'viewer'"),
            ResolveError::MissingSubscription => {
                write!(f, "header missing 'gql' or 'app'+'topic'")
            }
            ResolveError::BadGql(m) => write!(f, "bad subscription: {m}"),
            ResolveError::UnknownSubscription(n) => write!(f, "unknown subscription '{n}'"),
            ResolveError::MissingArgument(a) => write!(f, "missing argument '{a}'"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolves a BURST subscribe header into an application and topic.
///
/// # Examples
///
/// ```
/// use burst::json::Json;
/// use brass::resolve::resolve;
///
/// let header = Json::obj([
///     ("viewer", Json::from(9u64)),
///     ("gql", Json::from("subscription { liveVideoComments(videoId: 42) }")),
/// ]);
/// let sub = resolve(&header).unwrap();
/// assert_eq!(sub.app, brass::AppId::Lvc);
/// assert_eq!(sub.topic.as_str(), "/LVC/42");
/// assert_eq!(sub.viewer, 9);
/// ```
pub fn resolve(header: &Json) -> Result<ResolvedSub, ResolveError> {
    let viewer = header
        .get("viewer")
        .and_then(Json::as_u64)
        .ok_or(ResolveError::MissingViewer)?;

    // Pre-resolved headers short-circuit (proxy repairs, tests).
    if let (Some(app), Some(topic)) = (
        header.get("app").and_then(Json::as_str),
        header.get("topic").and_then(Json::as_str),
    ) {
        let app = AppId::from_name(app)
            .ok_or_else(|| ResolveError::UnknownSubscription(app.to_owned()))?;
        let topic = Topic::new(topic).map_err(|e| ResolveError::BadGql(e.to_string()))?;
        return Ok(ResolvedSub { app, topic, viewer });
    }

    let src = header
        .get("gql")
        .and_then(Json::as_str)
        .ok_or(ResolveError::MissingSubscription)?;
    let op = gql::parse(src).map_err(|e| ResolveError::BadGql(e.to_string()))?;
    if op.kind != OpKind::Subscription {
        return Err(ResolveError::BadGql("expected a subscription".into()));
    }
    let field = &op.selections[0];
    let arg = |name: &'static str| {
        field
            .arg(name)
            .and_then(gql::GqlValue::as_id)
            .ok_or(ResolveError::MissingArgument(name))
    };
    let (app, topic) = match field.name.as_str() {
        "liveVideoComments" => (AppId::Lvc, Topic::live_video_comments(arg("videoId")?)),
        "typingIndicator" => (
            AppId::Typing,
            Topic::typing_indicator(arg("threadId")?, arg("counterpartyId")?),
        ),
        "activeStatus" => (AppId::ActiveStatus, Topic::active_status(viewer)),
        "storiesTray" => (AppId::Stories, Topic::stories(viewer)),
        "mailbox" => (AppId::Messenger, Topic::messenger_mailbox(arg("uid")?)),
        "postLikes" => (
            AppId::Likes,
            Topic::new(&format!("/Likes/{}", arg("postId")?))
                .expect("numeric post ids form valid topics"),
        ),
        "notifications" => (AppId::Notifications, Topic::notifications(viewer)),
        other => return Err(ResolveError::UnknownSubscription(other.to_owned())),
    };
    Ok(ResolvedSub { app, topic, viewer })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(gql: &str, viewer: u64) -> Json {
        Json::obj([("viewer", Json::from(viewer)), ("gql", Json::from(gql))])
    }

    #[test]
    fn resolves_all_known_subscriptions() {
        let cases = [
            (
                "subscription { liveVideoComments(videoId: 1) }",
                AppId::Lvc,
                "/LVC/1",
            ),
            (
                "subscription { typingIndicator(threadId: 2, counterpartyId: 3) }",
                AppId::Typing,
                "/TI/2/3",
            ),
            (
                "subscription { activeStatus }",
                AppId::ActiveStatus,
                "/Status/9",
            ),
            ("subscription { storiesTray }", AppId::Stories, "/Stories/9"),
            (
                "subscription { mailbox(uid: 9) }",
                AppId::Messenger,
                "/Msgr/9",
            ),
            (
                "subscription { postLikes(postId: 5) }",
                AppId::Likes,
                "/Likes/5",
            ),
            (
                "subscription { notifications }",
                AppId::Notifications,
                "/Notif/9",
            ),
        ];
        for (gql, app, topic) in cases {
            let sub = resolve(&header(gql, 9)).unwrap();
            assert_eq!(sub.app, app, "{gql}");
            assert_eq!(sub.topic.as_str(), topic, "{gql}");
            assert_eq!(sub.viewer, 9);
        }
    }

    #[test]
    fn pre_resolved_headers_pass_through() {
        let h = Json::obj([
            ("viewer", Json::from(4u64)),
            ("app", Json::from("lvc")),
            ("topic", Json::from("/LVC/77")),
        ]);
        let sub = resolve(&h).unwrap();
        assert_eq!(sub.app, AppId::Lvc);
        assert_eq!(sub.topic.as_str(), "/LVC/77");
    }

    #[test]
    fn pre_resolved_headers_must_name_an_application() {
        let h = Json::obj([
            ("viewer", Json::from(4u64)),
            ("app", Json::from("noisy")),
            ("topic", Json::from("/LVC/77")),
        ]);
        assert_eq!(
            resolve(&h),
            Err(ResolveError::UnknownSubscription("noisy".into()))
        );
    }

    #[test]
    fn missing_viewer() {
        let h = Json::obj([("gql", Json::from("subscription { activeStatus }"))]);
        assert_eq!(resolve(&h), Err(ResolveError::MissingViewer));
    }

    #[test]
    fn missing_subscription_source() {
        let h = Json::obj([("viewer", Json::from(1u64))]);
        assert_eq!(resolve(&h), Err(ResolveError::MissingSubscription));
    }

    #[test]
    fn rejects_queries_and_unknown_fields() {
        assert!(matches!(
            resolve(&header("query { video(id: 1) { title } }", 1)),
            Err(ResolveError::BadGql(_))
        ));
        assert!(matches!(
            resolve(&header("subscription { somethingElse(x: 1) }", 1)),
            Err(ResolveError::UnknownSubscription(_))
        ));
        assert!(matches!(
            resolve(&header("subscription { liveVideoComments }", 1)),
            Err(ResolveError::MissingArgument("videoId"))
        ));
    }

    #[test]
    fn bad_pre_resolved_topic() {
        let h = Json::obj([
            ("viewer", Json::from(1u64)),
            ("app", Json::from("lvc")),
            ("topic", Json::from("not-a-topic")),
        ]);
        assert!(matches!(resolve(&h), Err(ResolveError::BadGql(_))));
    }

    #[test]
    fn error_messages() {
        assert!(ResolveError::MissingViewer.to_string().contains("viewer"));
        assert!(ResolveError::MissingArgument("x").to_string().contains('x'));
    }
}
