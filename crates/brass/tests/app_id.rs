//! The one table of applications: every `AppId` names itself, sorts by
//! its name, is what its GraphQL subscription resolves to, owns the
//! family of the topic it resolves to, and spools up on a host.

use brass::app::DeviceId;
use brass::host::{BrassHost, HostConfig};
use brass::resolve::resolve;
use brass::AppId;
use burst::frame::StreamId;
use burst::json::Json;
use simkit::snap::{Snap, SnapReader, SnapWriter};
use simkit::time::SimTime;

/// A subscription each application serves.
fn subscription(app: AppId) -> &'static str {
    match app {
        AppId::ActiveStatus => "subscription { activeStatus }",
        AppId::Likes => "subscription { postLikes(postId: 5) }",
        AppId::Lvc => "subscription { liveVideoComments(videoId: 1) }",
        AppId::Messenger => "subscription { mailbox(uid: 9) }",
        AppId::Notifications => "subscription { notifications }",
        AppId::Stories => "subscription { storiesTray }",
        AppId::Typing => "subscription { typingIndicator(threadId: 2, counterpartyId: 3) }",
    }
}

#[test]
fn every_app_id_round_trips_resolves_and_spools_up() {
    for pair in AppId::ALL.windows(2) {
        assert!(pair[0] < pair[1], "{pair:?} out of order");
        assert!(
            pair[0].name() < pair[1].name(),
            "{pair:?} names out of order"
        );
    }
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    for (i, app) in AppId::ALL.into_iter().enumerate() {
        assert_eq!(AppId::from_name(app.name()), Some(app));
        let mut w = SnapWriter::new();
        app.snap(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(AppId::restore(&mut SnapReader::new(&bytes)), Ok(app));

        let gql = subscription(app);
        let header = Json::obj([("viewer", Json::from(9u64)), ("gql", Json::from(gql))]);
        let sub = resolve(&header).expect(gql);
        assert_eq!(sub.app, app, "{gql}");
        assert_eq!(
            AppId::of_topic(&sub.topic),
            Some(app),
            "{}",
            sub.topic.as_str()
        );

        let sid = StreamId(i as u64 + 1);
        host.on_subscribe(DeviceId(9), sid, header, SimTime::ZERO);
        assert_eq!(host.instance_count(), i + 1, "{app:?} spooled up");
        assert!(host.app_counters(app).is_some(), "{app:?} runs");
    }
    assert_eq!(AppId::from_name("noisy"), None);
}
