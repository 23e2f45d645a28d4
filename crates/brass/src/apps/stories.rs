//! Stories: per-user ranked container trays (§3.4).
//!
//! "Stories are organized into 'containers', with each container comprising
//! stories of one user … Each user's UI displays thumbnails of the n
//! highest-ranked containers of their friends." The BRASS maintains, per
//! connected device, a rank-ordered container list and pushes (i) new
//! stories for displayed containers, (ii) newly displayed containers, and
//! (iii) container deletion requests — "the BRASS effectively manages what
//! is being displayed on the device", eliminating the two intersect queries
//! polling would need.

use burst::json::Json;
use pylon::{Topic, TopicId};
use simkit::fxhash::FxHashMap;
use simkit::snap::ensure;
use simkit::snap_struct;
use simkit::time::SimTime;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::apps::AppId;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

/// Stories tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct StoriesConfig {
    /// Number of containers displayed on the device (`n`).
    pub tray_size: usize,
}

impl Default for StoriesConfig {
    fn default() -> Self {
        StoriesConfig { tray_size: 5 }
    }
}

#[derive(Clone, Debug, Default)]
struct Container {
    story_count: u64,
    last_story: SimTime,
}

impl Container {
    /// Rank: recency-dominated with a small volume bonus.
    fn rank(&self) -> f64 {
        self.last_story.as_secs_f64() + (self.story_count as f64).ln_1p()
    }
}

struct StreamState {
    containers: FxHashMap<u64, Container>,
    /// Authors currently displayed on the device, tray order.
    displayed: Vec<u64>,
}

/// The Stories BRASS application.
pub struct StoriesApp {
    config: StoriesConfig,
    /// Streams listed under each friend they follow, and their friend-list
    /// requests.
    table: StreamTable<StreamState>,
}

/// With the default config.
impl Default for StoriesApp {
    fn default() -> Self {
        StoriesApp::new(StoriesConfig::default())
    }
}

impl StoriesApp {
    /// Creates the application.
    pub fn new(config: StoriesConfig) -> Self {
        StoriesApp {
            config,
            table: StreamTable::default(),
        }
    }

    fn top_n(state: &StreamState, n: usize) -> Vec<u64> {
        let mut ranked: Vec<(&u64, &Container)> = state.containers.iter().collect();
        ranked.sort_by(|a, b| {
            b.1.rank()
                .partial_cmp(&a.1.rank())
                .expect("ranks are finite")
                .then(a.0.cmp(b.0))
        });
        ranked.into_iter().take(n).map(|(&uid, _)| uid).collect()
    }
}

snap_struct!(StoriesConfig { tray_size }, |c| {
    ensure(c.tray_size != 0, "stories: zero tray size")
});
snap_struct!(Container {
    story_count,
    last_story
});
// `displayed` is verbatim — tray order is behavior-visible.
snap_struct!(StreamState {
    containers,
    displayed
});
snap_struct!(StoriesApp { config, table });

impl BrassApp for StoriesApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        _header: &Json,
    ) {
        // A live key's new incarnation keeps the old one's friend topics
        // until its own friend list answers, so Pylon sees no churn.
        let state = StreamState {
            containers: FxHashMap::default(),
            displayed: Vec::new(),
        };
        let slot = self.table.open(stream, state);
        let token = ctx.was_request(WasRequest::Friends { uid: sub.viewer });
        self.table.await_fetch(token, slot, ());
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        if let (Some((slot, ())), WasResponse::Friends(friends)) =
            (self.table.answer(token), response)
        {
            let topics: Vec<Topic> = friends.into_iter().map(Topic::stories).collect();
            self.table.set_topics(ctx, slot, &topics);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::StoryCreated {
            return;
        }
        let Some(author) = event.topic.id_under(AppId::Stories.family()) else {
            return;
        };
        let tray_size = self.config.tray_size;
        self.table.fan_out(&event.topic, |table, slot| {
            let key = table.key(slot);
            let Some(state) = table.get_mut(slot) else {
                return;
            };
            ctx.decision();
            let c = state.containers.entry(author).or_default();
            c.story_count += 1;
            c.last_story = ctx.now;

            // Recompute the tray and diff against what the device displays.
            let new_tray = Self::top_n(state, tray_size);
            let mut commands: Vec<Vec<u8>> = Vec::new();
            for gone in state.displayed.iter().filter(|u| !new_tray.contains(u)) {
                commands.push(format!(r#"{{"remove_container":{gone}}}"#).into_bytes());
            }
            for added in new_tray.iter().filter(|u| !state.displayed.contains(u)) {
                commands.push(format!(r#"{{"add_container":{added}}}"#).into_bytes());
            }
            if new_tray.contains(&author) && state.displayed.contains(&author) {
                // The container is already on screen: push just the story.
                commands.push(
                    format!(r#"{{"add_story":{},"container":{author}}}"#, event.object.0)
                        .into_bytes(),
                );
            }
            state.displayed = new_tray;
            ctx.send_batch(key, commands);
        });
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        self.table.close(ctx, &stream);
    }

    fn watches(&self, topic: TopicId) -> bool {
        self.table.watches(topic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{DeviceId, Effect, TestDriver};
    use burst::frame::StreamId;
    use simkit::time::SimDuration;
    use tao::ObjectId;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            ("gql", Json::from("subscription { storiesTray }")),
        ])
    }

    fn story(author: u64, story_id: u64) -> UpdateEvent {
        UpdateEvent {
            id: story_id,
            topic: Topic::stories(author),
            object: ObjectId(story_id),
            kind: EventKind::StoryCreated,
            meta: EventMeta {
                uid: author,
                ..Default::default()
            },
        }
    }

    fn setup(friends: Vec<u64>) -> TestDriver<StoriesApp> {
        let mut d = TestDriver::new(StoriesApp::new(StoriesConfig { tray_size: 2 }));
        let fx = d.subscribe(stream(1), &header(9));
        let tok = fx
            .iter()
            .find_map(|e| match e {
                Effect::Was { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        d.was_response(tok, WasResponse::Friends(friends));
        d
    }

    fn last_commands(fx: &[Effect]) -> Vec<String> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => Some(
                    payloads
                        .iter()
                        .map(|p| String::from_utf8(p.to_vec()).unwrap())
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn subscribes_per_friend() {
        let d = setup(vec![5, 6, 7]);
        for f in [5, 6, 7] {
            assert!(d
                .effects
                .contains(&Effect::SubscribeTopic(Topic::stories(f))));
        }
    }

    #[test]
    fn first_story_adds_container() {
        let mut d = setup(vec![5, 6]);
        let fx = d.event(&story(5, 100));
        assert_eq!(last_commands(&fx), vec![r#"{"add_container":5}"#]);
    }

    #[test]
    fn story_for_displayed_container_pushes_story() {
        let mut d = setup(vec![5]);
        d.event(&story(5, 100));
        let fx = d.event(&story(5, 101));
        assert_eq!(
            last_commands(&fx),
            vec![r#"{"add_story":101,"container":5}"#]
        );
    }

    #[test]
    fn tray_overflow_evicts_lowest_ranked_container() {
        let mut d = setup(vec![5, 6, 7]);
        d.event(&story(5, 100));
        d.advance(SimDuration::from_secs(10));
        d.event(&story(6, 101));
        d.advance(SimDuration::from_secs(10));
        // Tray size is 2; author 7's newer story evicts the oldest (5).
        let fx = d.event(&story(7, 102));
        let cmds = last_commands(&fx);
        assert!(
            cmds.contains(&r#"{"remove_container":5}"#.to_string()),
            "{cmds:?}"
        );
        assert!(cmds.contains(&r#"{"add_container":7}"#.to_string()));
    }

    #[test]
    fn decisions_counted_per_watcher() {
        let mut d = setup(vec![5]);
        let fx = d.subscribe(stream(2), &header(11));
        let tok = fx
            .iter()
            .find_map(|e| match e {
                Effect::Was { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        d.was_response(tok, WasResponse::Friends(vec![5]));
        d.event(&story(5, 100));
        assert_eq!(d.counters.decisions, 2, "one decision per watching stream");
    }

    #[test]
    fn close_unsubscribes() {
        let mut d = setup(vec![5]);
        let fx = d.close(stream(1));
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::stories(5))));
        assert_eq!(d.app.table.values().count(), 0);
    }

    #[test]
    fn unwatched_author_ignored() {
        let mut d = setup(vec![5]);
        let fx = d.event(&story(99, 100));
        assert!(fx.is_empty());
    }
}
