//! The scenario catalog: every world this repository runs is assembled
//! here, once — its system config, its population, its workload driver
//! and the instant it ends — and every harness builds it from here, so a
//! gate added to one world reaches every caller of it.
//!
//! Three drivers compose into worlds: [`LiveVideo`] (one video, steady
//! comments), [`FlashCrowd`] (a crowd on one hot topic, a comment storm,
//! regional trouble) and [`DiurnalDay`] (a social graph living through a
//! day). The catalog's entries, and who builds each:
//!
//! | entry | the world | built by |
//! |---|---|---|
//! | [`scale`] ([`ScaleDriver`]) | a fleet-sized system: LVC audiences, notification topics, brief visitors and churn, scheduled lazily chunk by chunk | `bench --bin scale`; `benchmark/` ports it as `lvc_fanout` |
//! | [`chaos`] ([`ChaosMeta`]) | the canned fault plan over a fleet of LVC viewers | `bench --bin chaos`, `bench`'s `chaos_gate` test; ported as `chaos_repair` |
//! | [`flash_crowd_tier`] | one offered-load tier of the flash crowd under the overload model | `bench`'s `flash_crowd_gate` test |
//! | [`diurnal_day`] | a 24 h day over a generated social graph | `bench::paper` (Table 2, Figs. 7, 8, 10) |
//! | [`live_video_mix`], [`flash_crowd_mix`], [`diurnal_lite`] | the three fuzz workloads a case runs under its fault plan | [`crate::fuzz`] |
//! | [`chatter`] | 24 users on one video, a comment every 740 ms | `bench --bin bisect`, [`crate::replay`]'s tests, `tests/snapshot.rs` |
//!
//! Each entry is a plain function of its parameters: two calls build
//! bit-identical worlds (`every_entry_builds_the_same_world_twice`).

use simkit::dist::{Distribution, Exponential};
use simkit::fxhash::FxHashMap;
use simkit::rng::DetRng;
use simkit::snap::{Snap, SnapWriter};
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;
use workload::activity::{DiurnalCurve, PoissonArrivals};
use workload::graph::{SocialGraph, SocialGraphConfig};
use workload::tables::StreamLifetimeModel;

use crate::config::SystemConfig;
use crate::fault::canned_plan;
use crate::metrics::SystemMetrics;
use crate::sim::SystemSim;

/// A live-video audience: one video, registered viewers and posters.
pub struct LiveVideo {
    /// The TAO video id.
    pub video: u64,
    /// Device ids of the audience (subscribed viewers).
    pub viewers: Vec<u64>,
    /// Device ids of commenting users.
    pub posters: Vec<u64>,
}

impl LiveVideo {
    /// Creates a video with `viewers` subscribed viewers and `posters`
    /// commenting users, subscribing everyone at `start`.
    pub fn setup(sim: &mut SystemSim, viewers: usize, posters: usize, start: SimTime) -> LiveVideo {
        let names = ["live", "viewer", "poster"];
        let (video, viewers, posters) =
            audience(sim, names, viewers, posters, start, SimDuration::ZERO);
        LiveVideo {
            video,
            viewers,
            posters,
        }
    }

    /// Schedules Poisson comment arrivals at `rate_per_sec` over
    /// `[from, from + duration)`, cycling through the posters.
    ///
    /// Returns the number of comments scheduled.
    pub fn drive_comments(
        &self,
        sim: &mut SystemSim,
        from: SimTime,
        duration: SimDuration,
        rate_per_sec: f64,
    ) -> usize {
        let texts = [
            "what a moment for everyone watching this",
            "greetings from the other side of the world",
            "that replay deserves a second look honestly",
            "cannot believe what we are seeing right now",
            "this broadcast keeps getting better and better",
        ];
        poisson_comments(
            sim,
            self.video,
            &self.posters,
            from,
            duration,
            rate_per_sec,
            |n| texts[n % texts.len()],
        )
    }
}

/// A flash-crowd overload driver: a celebrity goes live and the audience
/// piles onto ONE topic. Three stressors compose, each schedulable on its
/// own timeline:
///
/// 1. **subscribe surge** — every viewer subscribes to the same video's
///    comment stream inside a short ramp window ([`FlashCrowd::setup`]);
/// 2. **viral-comment hot key** — a Poisson comment storm on that video
///    at a configurable offered rate, each comment fanning to the whole
///    audience ([`FlashCrowd::drive_storm`]);
/// 3. **reconnect storm** — a regional outage (proxy dark, or a slice of
///    devices vanishing) that slams the herd back through resubscribes
///    ([`FlashCrowd::regional_outage`], [`FlashCrowd::reconnect_storm`]).
pub struct FlashCrowd {
    /// The TAO video id everyone is watching.
    pub video: u64,
    /// Device ids of the subscribed audience.
    pub viewers: Vec<u64>,
    /// Device ids of commenting users.
    pub posters: Vec<u64>,
}

impl FlashCrowd {
    /// Creates the crowd: `viewers` devices all subscribing to one fresh
    /// video's comment stream, evenly spread over `[start, start + ramp)`
    /// — the celebrity-goes-live surge. `ramp == ZERO` is the worst case:
    /// the entire audience subscribes in the same instant.
    pub fn setup(
        sim: &mut SystemSim,
        viewers: usize,
        posters: usize,
        start: SimTime,
        ramp: SimDuration,
    ) -> FlashCrowd {
        let names = ["celebrity-live", "crowd", "hotposter"];
        let (video, viewers, posters) = audience(sim, names, viewers, posters, start, ramp);
        FlashCrowd {
            video,
            viewers,
            posters,
        }
    }

    /// Schedules the viral-comment storm: Poisson arrivals on the hot
    /// video at `rate_per_sec` over `[from, from + duration)`, cycling
    /// through the posters. Every comment fans out to the whole audience,
    /// so the *delivered* offered load is `rate × viewers`.
    ///
    /// Returns the number of comments scheduled.
    pub fn drive_storm(
        &self,
        sim: &mut SystemSim,
        from: SimTime,
        duration: SimDuration,
        rate_per_sec: f64,
    ) -> usize {
        poisson_comments(
            sim,
            self.video,
            &self.posters,
            from,
            duration,
            rate_per_sec,
            |_| "the whole internet is watching this",
        )
    }

    /// Schedules a regional POP outage: the proxy goes dark at `at` and
    /// comes back after `down`. POPs repair the orphaned streams onto
    /// surviving proxies — under flash-crowd load, the repair burst lands
    /// on top of the comment storm.
    pub fn regional_outage(
        &self,
        sim: &mut SystemSim,
        at: SimTime,
        proxy: usize,
        down: SimDuration,
    ) {
        sim.schedule_proxy_outage(at, proxy, down);
    }

    /// Schedules a reconnect storm: every `stride`-th viewer's link dies
    /// silently, spread over `[at, at + ramp)`. Each victim reconnects on
    /// the normal backoff schedule and re-subscribes — the thundering
    /// herd arriving while the system is already hot.
    ///
    /// Returns the number of devices vanished.
    pub fn reconnect_storm(
        &self,
        sim: &mut SystemSim,
        at: SimTime,
        ramp: SimDuration,
        stride: usize,
    ) -> usize {
        let victims: Vec<u64> = self
            .viewers
            .iter()
            .copied()
            .step_by(stride.max(1))
            .collect();
        for (i, &device) in victims.iter().enumerate() {
            sim.schedule_device_vanish(at + spread(ramp, i, victims.len()), device);
        }
        victims.len()
    }
}

/// One video's audience: a video titled `names[0]`, then `viewers` and
/// `posters` devices named `names[1]{i}` and `names[2]{i}`, viewer `i`
/// subscribing at `start` plus its even share of `ramp`.
fn audience(
    sim: &mut SystemSim,
    names: [&str; 3],
    viewers: usize,
    posters: usize,
    start: SimTime,
    ramp: SimDuration,
) -> (u64, Vec<u64>, Vec<u64>) {
    let video = sim.was_mut().create_video(names[0]);
    let viewer_ids: Vec<u64> = (0..viewers)
        .map(|i| sim.create_user_device(&format!("{}{i}", names[1]), "en"))
        .collect();
    let poster_ids: Vec<u64> = (0..posters)
        .map(|i| sim.create_user_device(&format!("{}{i}", names[2]), "en"))
        .collect();
    for (i, &v) in viewer_ids.iter().enumerate() {
        sim.subscribe_lvc(start + spread(ramp, i, viewer_ids.len()), v, video);
    }
    (video, viewer_ids, poster_ids)
}

/// Item `i` of `n`'s offset when `n` items spread evenly over `ramp`.
fn spread(ramp: SimDuration, i: usize, n: usize) -> SimDuration {
    SimDuration::from_micros(ramp.as_micros().saturating_mul(i as u64) / n.max(1) as u64)
}

/// Poisson comment arrivals on `video` at `rate_per_sec` over
/// `[from, from + duration)`, cycling through `posters`; comment `n`
/// reads `text(n)`. Returns the number scheduled.
fn poisson_comments(
    sim: &mut SystemSim,
    video: u64,
    posters: &[u64],
    from: SimTime,
    duration: SimDuration,
    rate_per_sec: f64,
    text: impl Fn(usize) -> &'static str,
) -> usize {
    let gap = Exponential::new(rate_per_sec);
    let mut t = from;
    let mut n = 0usize;
    loop {
        t += SimDuration::from_secs_f64(gap.sample(sim.rng_mut()));
        if t.saturating_since(from) >= duration {
            return n;
        }
        sim.post_comment(t, posters[n % posters.len()], video, text(n));
        n += 1;
    }
}

/// A 24-hour diurnal population driver: devices open and close streams with
/// Table-2 lifetimes at Fig. 8 subscription rates, post mutations at Fig. 8
/// publication rates, and refresh online status.
pub struct DiurnalDay {
    /// The generated population (users double as devices).
    pub device_ids: Vec<u64>,
    /// TAO video ids (from the population's videos).
    pub video_ids: Vec<u64>,
    /// TAO thread ids.
    pub thread_ids: Vec<u64>,
}

impl DiurnalDay {
    /// Registers the graph's users (with their verified marks and friend
    /// edges, and their block edges when `blocks` is set), videos and
    /// threads.
    fn populate(sim: &mut SystemSim, graph: &SocialGraph, blocks: bool) -> DiurnalDay {
        let device_ids: Vec<u64> = graph
            .users
            .iter()
            .map(|u| sim.create_user_device(&u.name, &u.lang))
            .collect();
        for u in &graph.users {
            if u.verified {
                sim.was_mut().set_verified(device_ids[u.index]);
            }
            for &f in &u.friends {
                if f > u.index {
                    sim.was_mut()
                        .add_friend(device_ids[u.index], device_ids[f], 0);
                }
            }
            if blocks {
                for &b in &u.blocked {
                    sim.was_mut().block(device_ids[u.index], device_ids[b], 0);
                }
            }
        }
        let video_ids: Vec<u64> = graph
            .videos
            .iter()
            .map(|v| sim.was_mut().create_video(&v.title))
            .collect();
        let thread_ids: Vec<u64> = graph
            .threads
            .iter()
            .map(|t| {
                let members: Vec<u64> = t.members.iter().map(|&m| device_ids[m]).collect();
                sim.was_mut().create_thread(&members)
            })
            .collect();
        DiurnalDay {
            device_ids,
            video_ids,
            thread_ids,
        }
    }

    /// Schedules a full day of activity at `scale` times the paper's
    /// per-user rates (smaller keeps runs fast).
    fn schedule_day(&self, sim: &mut SystemSim, graph: &SocialGraph, scale: f64) {
        let users = self.device_ids.len() as f64;
        let sub_curve = DiurnalCurve::subscriptions_per_min();
        let pub_curve = DiurnalCurve::publications_per_min();
        let lifetimes = StreamLifetimeModel::new();
        let horizon = SimDuration::from_hours(24);
        let step = SimDuration::from_mins(1);
        // Each device's streams opened so far: devices allocate stream
        // ids sequentially from 1, so the next open gets count + 1.
        let mut opened: FxHashMap<u64, u64> = FxHashMap::default();
        let mut t = SimTime::ZERO;
        while t.saturating_since(SimTime::ZERO) < horizon {
            // Subscriptions this minute (Fig. 8: 0.5–0.75/min/user).
            let subs = {
                let mean = sub_curve.value_at(t) * users * scale;
                simkit::dist::Poisson::new(mean.max(1e-9)).sample_count(sim.rng_mut())
            };
            for _ in 0..subs {
                let offset = SimDuration::from_micros(sim.rng_mut().below(60_000_000));
                let at = t + offset;
                let device_idx = sim.rng_mut().index(self.device_ids.len());
                let device = self.device_ids[device_idx];
                let lifetime = lifetimes.sample(sim.rng_mut());
                self.open_random_stream(sim, graph, device_idx, at);
                // The lifetime ends the stream this subscribe opens.
                let sid = opened.entry(device).or_insert(0);
                *sid += 1;
                sim.cancel_stream(at + lifetime, device, burst::frame::StreamId(*sid));
            }
            // Mutations this minute (Fig. 8 publications: 0.8–1.5/min/user).
            let muts = {
                let mean = pub_curve.value_at(t) * users * scale;
                simkit::dist::Poisson::new(mean.max(1e-9)).sample_count(sim.rng_mut())
            };
            for _ in 0..muts {
                let offset = SimDuration::from_micros(sim.rng_mut().below(60_000_000));
                self.post_random_mutation(sim, t + offset);
            }
            t += step;
        }
    }

    fn open_random_stream(
        &self,
        sim: &mut SystemSim,
        graph: &SocialGraph,
        device_idx: usize,
        at: SimTime,
    ) {
        let device = self.device_ids[device_idx];
        // App mix: weighted toward LVC and typing, the highest-churn apps.
        match sim.rng_mut().below(10) {
            0..=2 => {
                // LVC: watch a video, weighted by viewer lists.
                let v = sim.rng_mut().index(self.video_ids.len().max(1));
                sim.subscribe_lvc(at, device, self.video_ids[v]);
            }
            3..=6 => {
                let t = sim.rng_mut().index(self.thread_ids.len().max(1));
                let other = self.thread_peer(graph, t, device_idx);
                sim.subscribe_typing(at, device, self.thread_ids[t], other);
            }
            7 => sim.subscribe_active_status(at, device),
            8 => sim.subscribe_stories(at, device),
            _ => sim.subscribe_mailbox(at, device),
        }
    }

    /// The first member of thread `t` other than user `user_idx` (user 0
    /// when there is none), as a device id.
    fn thread_peer(&self, graph: &SocialGraph, t: usize, user_idx: usize) -> u64 {
        let other = graph.threads[t]
            .members
            .iter()
            .copied()
            .find(|&m| m != user_idx)
            .unwrap_or(0);
        self.device_ids[other]
    }

    fn post_random_mutation(&self, sim: &mut SystemSim, at: SimTime) {
        let device = self.device_ids[sim.rng_mut().index(self.device_ids.len())];
        match sim.rng_mut().below(100) {
            0..=29 => {
                // Comment volume is Zipf-concentrated on a few hot videos
                // (Table 1's Pareto principle): most videos stay quiet.
                let zipf = simkit::dist::Zipf::new(self.video_ids.len().max(1) as u64, 1.3);
                let rank = zipf.sample_rank(sim.rng_mut()) as usize - 1;
                let v = self.video_ids[rank.min(self.video_ids.len() - 1)];
                sim.post_comment(at, device, v, "a perfectly reasonable live comment");
            }
            30..=59 => {
                let t = self.thread_ids[sim.rng_mut().index(self.thread_ids.len().max(1))];
                sim.set_typing(at, device, t, true);
            }
            60..=95 => {
                // Status pings come from the continuously-online cohort
                // (devices refresh every 30 s *while online*): a small,
                // frequently-pinged cohort stays continuously online, so
                // ActiveStatus snapshots barely change between batches.
                let cohort = &self.device_ids[..(self.device_ids.len() / 10).max(1)];
                let d = cohort[sim.rng_mut().index(cohort.len())];
                sim.set_online(at, d)
            }
            96..=97 => sim.create_story(at, device, "fresh-picture"),
            _ => {
                let t = sim.rng_mut().index(self.thread_ids.len().max(1));
                let thread = self.thread_ids[t];
                sim.send_message(at, device, thread, "a short chat message");
            }
        }
    }
}

/// A social graph of the small shape with `users` users, `videos` videos
/// and `threads` threads.
fn social_graph(users: usize, videos: usize, threads: usize, rng: &mut DetRng) -> SocialGraph {
    let mut config = SocialGraphConfig::small();
    config.users = users;
    config.videos = videos;
    config.threads = threads;
    SocialGraph::generate(&config, rng)
}

// ----------------------------------------------------------------------
// The catalog.
// ----------------------------------------------------------------------

/// Attaches a driver's resumable state to every snapshot the sim takes
/// from here on.
fn set_driver<T: Snap>(sim: &mut SystemSim, state: &T) {
    let mut w = SnapWriter::new();
    state.snap(&mut w);
    sim.set_driver_blob(w.into_bytes());
}

/// The system shape sized for six- and seven-figure device counts that
/// the [`scale`] and [`chaos`] worlds start from.
fn fleet_config() -> SystemConfig {
    let mut config = SystemConfig::medium();
    config.tao = tao::TaoConfig {
        shards: 64,
        regions: 3,
        cache_capacity: 1 << 20,
    };
    config.pylon = pylon::PylonConfig {
        topic_shards: 65_536,
        servers: 64,
        kv_nodes: 16,
        replicas: 3,
    };
    config.brass_hosts = 32;
    config.proxies = 8;
    config.pops = 8;
    config
}

/// The [`scale`] world's system: the fleet shape with a lossless last
/// mile (the world measures simulator throughput, not loss behaviour, so
/// delivered-event counts track the workload) and a metrics tick every
/// `metrics_interval`. Ticks are also the fingerprint and snapshot
/// boundaries, and a resumed run must rebuild the same config.
pub fn scale_config(metrics_interval: SimDuration) -> SystemConfig {
    let mut config = fleet_config();
    config.last_mile_drop = 0.0;
    config.metrics_interval = metrics_interval;
    config
}

/// The [`scale`] world's lazy workload driver, complete. It rides in
/// every snapshot's driver blob, refreshed before every chunk, so any
/// snapshot carries cursors consistent with its event queue: everything
/// scheduled strictly before `scheduled_through` is already queued, and a
/// resumed driver continues scheduling from there.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleDriver {
    pub devices: usize,
    pub videos: usize,
    pub sim_seconds: u64,
    pub seed: u64,
    pub active_fraction: f64,
    /// First video / device id (both ranges are contiguous).
    pub video0: u64,
    pub device0: u64,
    pub comment_rate: f64,
    pub next_sub: usize,
    pub next_brief: usize,
    /// The Poisson stream's pending arrival
    /// ([`workload::activity::PoissonArrivals::state`]).
    pub comment_next: SimTime,
    pub comment_idx: usize,
    pub churned: bool,
    pub scheduled_through: SimTime,
}

snap_struct!(ScaleDriver {
    devices,
    videos,
    sim_seconds,
    seed,
    active_fraction,
    video0,
    device0,
    comment_rate,
    next_sub,
    next_brief,
    comment_next,
    comment_idx,
    churned,
    scheduled_through
});

/// The scale world: `videos` live videos and `devices` devices on
/// `config` (a [`scale_config`]), with nothing scheduled yet — the
/// returned driver schedules the workload chunk by chunk as it runs
/// ([`ScaleDriver::run_until`]), so workload memory is O(chunk), not
/// O(events):
///
/// - the engaged fraction (`active_fraction`, in (0, 1]) joins one video
///   each via a deterministic scatter over the first five simulated
///   seconds, and every 4th engaged device also opens a per-user
///   notification topic (the paper's dominant topic shape);
/// - the rest are brief visitors: they subscribe on a ramp across the
///   first 60 % of the horizon, watch one short session, cancel and
///   hibernate, so their server-side state never all coexists;
/// - comments arrive as a Poisson stream over [10 s, 40 s) whose mean
///   total is `videos × comments_per_video`, round-robined over videos;
/// - one device in a thousand drops at 20 s and reconnects.
pub fn scale(
    config: SystemConfig,
    devices: usize,
    videos: usize,
    comments_per_video: usize,
    sim_seconds: u64,
    seed: u64,
    active_fraction: f64,
) -> (SystemSim, ScaleDriver) {
    assert!(
        active_fraction > 0.0 && active_fraction <= 1.0,
        "the active fraction must be in (0, 1]"
    );
    let mut sim = SystemSim::new(config, seed);
    let video0 = sim.was_mut().create_video("live0");
    for i in 1..videos {
        let v = sim.was_mut().create_video(&format!("live{i}"));
        // The driver stores only each range's first id: ids are contiguous.
        assert_eq!(v, video0 + i as u64, "video ids not contiguous");
    }
    let device0 = sim.create_user_device("u0", "en");
    for i in 1..devices {
        let d = sim.create_user_device(&format!("u{i}"), "en");
        assert_eq!(d, device0 + i as u64, "device ids not contiguous");
    }
    let comment_rate = (videos * comments_per_video) as f64 / 30.0;
    let comments = PoissonArrivals::new(comment_rate, SimTime::from_secs(10), sim.rng_mut());
    let driver = ScaleDriver {
        devices,
        videos,
        sim_seconds,
        seed,
        active_fraction,
        video0,
        device0,
        comment_rate,
        next_sub: 0,
        next_brief: 0,
        comment_next: comments.state(),
        comment_idx: 0,
        churned: false,
        scheduled_through: SimTime::ZERO,
    };
    (sim, driver)
}

impl ScaleDriver {
    /// When the world ends.
    pub fn end(&self) -> SimTime {
        SimTime::from_secs(self.sim_seconds)
    }

    /// How many devices are in the always-engaged fraction.
    pub fn engaged_devices(&self) -> usize {
        (0..self.devices)
            .filter(|&i| engaged(i, self.active_fraction))
            .count()
    }

    /// Runs the world to `until` in 250 ms chunks, scheduling each
    /// chunk's workload just before the engine reaches it.
    pub fn run_until(&mut self, sim: &mut SystemSim, until: SimTime) {
        let devices = self.devices;
        let sub_span_us = 5_000_000u64;
        let brief_span_us = self.end().as_micros() * 3 / 5;
        let brief_session =
            SimDuration::from_micros((brief_span_us / 12).clamp(250_000, 3_000_000));
        let comment_end = SimTime::from_secs(40);
        let churn_at = SimTime::from_secs(20);
        let video_of =
            |i: usize| self.video0 + (i.wrapping_mul(2_654_435_761) % self.videos) as u64;
        // Rebuilding from the stored pending arrival draws no RNG, so a
        // resumed master stream stays exactly where the original left it.
        let mut comments = PoissonArrivals::from_state(self.comment_rate, self.comment_next);
        let chunk = SimDuration::from_millis(250);
        let mut t = self.scheduled_through;
        while t < until {
            let next_t = if t + chunk > until { until } else { t + chunk };
            // Engaged subscribe ramp: all arrivals in [t, next_t).
            while self.next_sub < devices {
                let at = SimTime::from_micros(self.next_sub as u64 * sub_span_us / devices as u64);
                if at >= next_t {
                    break;
                }
                let i = self.next_sub;
                self.next_sub += 1;
                if !engaged(i, self.active_fraction) {
                    continue;
                }
                let d = self.device0 + i as u64;
                sim.subscribe_lvc(at, d, video_of(i));
                if i.is_multiple_of(4) {
                    sim.subscribe_notifications(at + SimDuration::from_millis(10), d);
                }
            }
            // Brief-visitor ramp: subscribe, one short session, cancel the
            // visitor's only stream (devices allocate stream ids from 1).
            while self.next_brief < devices {
                let at =
                    SimTime::from_micros(self.next_brief as u64 * brief_span_us / devices as u64);
                if at >= next_t {
                    break;
                }
                let i = self.next_brief;
                self.next_brief += 1;
                if engaged(i, self.active_fraction) {
                    continue;
                }
                let d = self.device0 + i as u64;
                sim.subscribe_lvc(at, d, video_of(i));
                sim.cancel_stream(at + brief_session, d, burst::frame::StreamId(1));
            }
            // Comment arrivals in [t, next_t) ∩ [start, end).
            while comments.peek() < next_t && comments.peek() < comment_end {
                let at = comments.pop(sim.rng_mut());
                let v = self.comment_idx % self.videos;
                self.comment_idx += 1;
                sim.post_comment(
                    at,
                    self.device0 + (v % devices) as u64,
                    self.video0 + v as u64,
                    "scale bench comment",
                );
            }
            // Churn burst, scheduled in the chunk that contains it.
            if !self.churned && churn_at < next_t {
                for i in (0..devices).filter(|i| i % 1_000 == 500) {
                    sim.schedule_device_drop(churn_at, self.device0 + i as u64);
                }
                self.churned = true;
            }
            self.comment_next = comments.state();
            self.scheduled_through = next_t;
            set_driver(sim, self);
            sim.run_until(next_t);
            t = next_t;
        }
    }
}

/// Whether device `i` is in the always-engaged fraction. A multiplicative
/// hash (distinct from the video scatter) makes engagement a
/// deterministic, seed-independent property of the device index.
fn engaged(i: usize, active_fraction: f64) -> bool {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    (h as f64) < active_fraction * (1u64 << 24) as f64
}

/// The [`chaos`] world's system: the fleet shape with the full
/// failure-detection stack on — proxy→host heartbeats drive crash
/// detection, POP→device heartbeats reap silently vanished devices, and
/// the full ledger lets the convergence audit account every admitted
/// update — and a 2 s metrics tick, so the availability timeline
/// resolves each episode's dip and recovery.
pub fn chaos_config() -> SystemConfig {
    let mut config = fleet_config();
    config.device_heartbeats = true;
    config.trace_retention = Retention::Full;
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(2);
    config
}

/// What a [`chaos`] run's report needs that is not recoverable from the
/// sim itself. It rides in the snapshots' driver blob, so a resumed run
/// reports what the uninterrupted run would have.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosMeta {
    pub devices: usize,
    pub videos: usize,
    pub comments: usize,
    pub seed: u64,
    pub plan_start: SimTime,
    pub heal: SimTime,
    pub end: SimTime,
    pub kinds: Vec<String>,
    /// Per-episode `(kind label, injected at, heals at)`.
    pub episodes: Vec<(String, SimTime, SimTime)>,
}

snap_struct!(ChaosMeta {
    devices,
    videos,
    comments,
    seed,
    plan_start,
    heal,
    end,
    kinds,
    episodes
});

/// The chaos world on [`chaos_config`], everything scheduled before the
/// clock moves: `devices` LVC viewers scattered over `videos` videos and
/// subscribing over the first five seconds; the canned fault plan (all
/// six kinds) from 30 s, compiled from the seed; one comment per video
/// every ~10 s until the plan heals, phase-offset so publishes
/// interleave; and `grace_secs` after the heal for detection windows to
/// close, backoffs to drain and backfills to land.
pub fn chaos(devices: usize, videos: usize, seed: u64, grace_secs: u64) -> (SystemSim, ChaosMeta) {
    let config = chaos_config();
    let mut sim = SystemSim::new(config.clone(), seed);
    let video_ids: Vec<u64> = (0..videos)
        .map(|i| sim.was_mut().create_video(&format!("chaos{i}")))
        .collect();
    let mut device_ids = Vec::with_capacity(devices);
    for i in 0..devices {
        let d = sim.create_user_device(&format!("u{i}"), "en");
        let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
        sim.subscribe_lvc(at, d, video_ids[i.wrapping_mul(2_654_435_761) % videos]);
        device_ids.push(d);
    }

    let plan_start = SimTime::from_secs(30);
    let mut plan_rng = sim.rng_mut().fork(0xFA);
    let plan = canned_plan(plan_start, &config, &device_ids, &mut plan_rng);
    assert!(
        plan.kinds().len() >= 5,
        "the canned plan must cover at least 5 fault kinds (got {:?})",
        plan.kinds()
    );
    plan.apply(&mut sim);
    let heal = plan.heal_time();

    let mut comments = 0usize;
    for (v, &video) in video_ids.iter().enumerate() {
        let mut t =
            SimTime::from_secs(10) + SimDuration::from_micros((v as u64 * 7_919) % 10_000_000);
        while t < heal {
            sim.post_comment(t, device_ids[v % devices], video, "chaos bench comment");
            comments += 1;
            t += SimDuration::from_secs(10);
        }
    }

    let meta = ChaosMeta {
        devices,
        videos,
        comments,
        seed,
        plan_start,
        heal,
        end: heal + SimDuration::from_secs(grace_secs),
        kinds: plan.kinds().iter().map(|k| k.to_string()).collect(),
        episodes: plan
            .episodes
            .iter()
            .map(|ep| (ep.kind.label().to_string(), ep.at, ep.heals_at()))
            .collect(),
    };
    set_driver(&mut sim, &meta);
    (sim, meta)
}

impl ChaosMeta {
    /// Availability `(min, mean)` under fault, over `[plan_start, heal)`,
    /// and after healing, over the grace window's second half.
    pub fn availability(&self, metrics: &SystemMetrics) -> [(f64, f64); 2] {
        let grace_secs = self.end.saturating_since(self.heal).as_micros() / 1_000_000;
        let settled = self.heal + SimDuration::from_secs(grace_secs / 2);
        [
            metrics.availability_stats(self.plan_start, self.heal),
            metrics.availability_stats(settled, self.end),
        ]
    }
}

/// The [`flash_crowd_tier`] world's system: a medium shape with the
/// overload model on. Each BRASS update costs 10 ms (100 events/s of
/// per-host capacity); the ingress mailbox holds 200, so queueing delay
/// is bounded at 2 s before arrivals shed; and each device's egress
/// window is 320 bytes — LVC flush batches run 100–400 wire bytes, so it
/// admits one batch and sheds pile-ups behind a slow last mile, enough
/// to exercise Degraded/Recovered.
fn flash_crowd_config() -> SystemConfig {
    let mut config = SystemConfig::medium();
    config.brass_hosts = 8;
    config.proxies = 4;
    config.pops = 4;
    config.device_heartbeats = true;
    config.trace_retention = Retention::Full;
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_mins(10);
    config.brass_service_us = 10_000;
    config.brass_mailbox_capacity = 200;
    config.egress_window_bytes = 320;
    config
}

/// One offered-load tier of the celebrity-goes-live storm on
/// [`flash_crowd_config`], everything scheduled before the clock moves:
/// `viewers` devices pile onto one video over a 2 s ramp from 1 s, 20
/// posters comment at `rate` per second for `storm_secs` from 5 s, one
/// proxy goes dark for 10 s at 15 s, and every 4th viewer's link dies
/// silently over 2 s from 20 s. Returns the sim and its end: the storm
/// plus `grace_secs`.
pub fn flash_crowd_tier(
    rate: f64,
    viewers: usize,
    seed: u64,
    storm_secs: u64,
    grace_secs: u64,
) -> (SystemSim, SimTime) {
    let mut sim = SystemSim::new(flash_crowd_config(), seed);
    let s = SimDuration::from_secs;
    let crowd = FlashCrowd::setup(&mut sim, viewers, 20, SimTime::from_secs(1), s(2));
    let storm_from = SimTime::from_secs(5);
    crowd.drive_storm(&mut sim, storm_from, s(storm_secs), rate);
    crowd.regional_outage(&mut sim, SimTime::from_secs(15), 1, s(10));
    crowd.reconnect_storm(&mut sim, SimTime::from_secs(20), s(2), 4);
    (sim, storm_from + s(storm_secs + grace_secs))
}

/// A diurnal day on `system`: `users` devices over a social graph (drawn
/// from the sim's master stream) with `videos` live videos and `threads`
/// message threads, registered with their block edges, and a whole day
/// scheduled at `scale` times the paper's per-user activity. Nothing has
/// run yet.
pub fn diurnal_day(
    system: SystemConfig,
    seed: u64,
    users: usize,
    videos: usize,
    threads: usize,
    scale: f64,
) -> (SystemSim, DiurnalDay) {
    let mut sim = SystemSim::new(system, seed);
    let graph = social_graph(users, videos, threads, sim.rng_mut());
    let day = DiurnalDay::populate(&mut sim, &graph, true);
    day.schedule_day(&mut sim, &graph, scale);
    (sim, day)
}

/// The fuzz live-video mix over `n` devices: two thirds watch one video
/// from 1 s, the rest comment. With `drive_until`, Poisson comments at a
/// rate drawn from [0.5, 2)/s run from 5 s to then. Returns the device
/// ids, viewers then posters.
pub fn live_video_mix(sim: &mut SystemSim, n: usize, drive_until: Option<SimTime>) -> Vec<u64> {
    let viewers = (n * 2 / 3).max(2);
    let posters = (n - viewers).max(1);
    let lv = LiveVideo::setup(sim, viewers, posters, SimTime::from_secs(1));
    if let Some(until) = drive_until {
        let rate = 0.5 + sim.rng_mut().f64() * 1.5;
        let from = SimTime::from_secs(5);
        lv.drive_comments(sim, from, until.saturating_since(from), rate);
    }
    [lv.viewers, lv.posters].concat()
}

/// The fuzz flash-crowd mix over `n` devices: nine tenths ramp onto one
/// video over 5 s from 2 s, the rest post. With `drive_until`, a storm at
/// a rate drawn from [2, 5)/s runs from 8 s to then. Returns the device
/// ids, viewers then posters.
pub fn flash_crowd_mix(sim: &mut SystemSim, n: usize, drive_until: Option<SimTime>) -> Vec<u64> {
    let posters = (n / 10).max(2);
    let viewers = (n - posters).max(2);
    let s = SimDuration::from_secs;
    let fc = FlashCrowd::setup(sim, viewers, posters, SimTime::from_secs(2), s(5));
    if let Some(until) = drive_until {
        let rate = 2.0 + sim.rng_mut().f64() * 3.0;
        let from = SimTime::from_secs(8);
        fc.drive_storm(sim, from, until.saturating_since(from), rate);
    }
    [fc.viewers, fc.posters].concat()
}

/// The fuzz diurnal-lite mix: a bounded cut of [`DiurnalDay`] over `n`
/// users, whose graph comes from its own stream (seeded by `seed`) so its
/// shape never shifts the sim's arrival draws, registered without block
/// edges. With `drive_until`, mixed subscribes and mutations across five
/// apps arrive at a rate that scales with the fleet from 2 s to then, so
/// a grace window after it stays quiet. Returns the device ids.
pub fn diurnal_lite(
    sim: &mut SystemSim,
    seed: u64,
    n: usize,
    drive_until: Option<SimTime>,
) -> Vec<u64> {
    let mut graph_rng = DetRng::new(seed).fork(0xD1);
    let graph = social_graph(n, (n / 12).max(2), (n / 6).max(2), &mut graph_rng);
    let day = DiurnalDay::populate(sim, &graph, false);
    let Some(until) = drive_until else {
        return day.device_ids;
    };
    let (devices, videos, threads) = (&day.device_ids, &day.video_ids, &day.thread_ids);
    let gap = Exponential::new((n as f64 / 30.0).max(0.5));
    let mut t = SimTime::from_secs(2);
    loop {
        t += SimDuration::from_secs_f64(gap.sample(sim.rng_mut()));
        if t >= until {
            return day.device_ids;
        }
        let idx = sim.rng_mut().index(devices.len());
        let device = devices[idx];
        match sim.rng_mut().below(10) {
            0..=1 => {
                let v = sim.rng_mut().index(videos.len());
                sim.subscribe_lvc(t, device, videos[v]);
            }
            2 => {
                let ti = sim.rng_mut().index(threads.len());
                let other = day.thread_peer(&graph, ti, idx);
                sim.subscribe_typing(t, device, threads[ti], other);
            }
            3 => sim.subscribe_active_status(t, device),
            4 => sim.subscribe_stories(t, device),
            5 => sim.subscribe_mailbox(t, device),
            6..=7 => {
                let v = sim.rng_mut().index(videos.len());
                sim.post_comment(t, device, videos[v], "a perfectly reasonable live comment");
            }
            8 => {
                let ti = sim.rng_mut().index(threads.len());
                sim.send_message(t, device, threads[ti], "a short chat message");
            }
            _ => {
                let ti = sim.rng_mut().index(threads.len());
                sim.set_typing(t, device, threads[ti], true);
            }
        }
    }
}

/// A small world for the bisect harness and the snapshot suites: 24 users
/// (every third speaks Spanish) subscribing to one live video 7 ms apart
/// from 10 ms, and a comment every 740 ms from 500 ms until `horizon`,
/// all scheduled up front so replays need no driver. Returns the sim, the
/// video id and the device ids, so callers can schedule extra events
/// against the same objects.
pub fn chatter(config: &SystemConfig, seed: u64, horizon: SimTime) -> (SystemSim, u64, Vec<u64>) {
    let mut sim = SystemSim::new(config.clone(), seed);
    let video = sim.was_mut().create_video("bisect-fixture");
    let users: Vec<u64> = (0..24)
        .map(|i| sim.create_user_device(&format!("user{i}"), if i % 3 == 0 { "es" } else { "en" }))
        .collect();
    for (i, &u) in users.iter().enumerate() {
        sim.subscribe_lvc(SimTime::from_millis(10 + i as u64 * 7), u, video);
    }
    let mut t = SimTime::from_millis(500);
    let mut i = 0usize;
    while t < horizon {
        sim.post_comment(t, users[i % users.len()], video, "deterministic chatter");
        t += SimDuration::from_millis(740);
        i += 1;
    }
    (sim, video, users)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::ScenarioMix;

    #[test]
    fn live_video_scenario_delivers() {
        let mut sim = SystemSim::new(SystemConfig::small(), 5);
        let lv = LiveVideo::setup(&mut sim, 3, 2, SimTime::ZERO);
        let n = lv.drive_comments(
            &mut sim,
            SimTime::from_secs(5),
            SimDuration::from_secs(20),
            0.5,
        );
        assert!(n > 0, "some comments scheduled");
        sim.run_until(SimTime::from_secs(90));
        assert!(sim.metrics().deliveries.get() > 0);
        assert_eq!(sim.metrics().subscriptions.get(), 3);
    }

    #[test]
    fn flash_crowd_surges_onto_one_topic() {
        let mut sim = SystemSim::new(SystemConfig::small(), 9);
        let fc = FlashCrowd::setup(
            &mut sim,
            8,
            2,
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
        );
        let n = fc.drive_storm(
            &mut sim,
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            2.0,
        );
        assert!(n > 0, "some storm comments scheduled");
        let vanished = fc.reconnect_storm(
            &mut sim,
            SimTime::from_secs(8),
            SimDuration::from_secs(1),
            4,
        );
        assert_eq!(vanished, 2, "every 4th of 8 viewers");
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.metrics().subscriptions.get(), 8 + vanished as u64);
        assert!(sim.metrics().deliveries.get() > 0);
        let report = sim.convergence_report();
        assert!(report.converged(), "{:?}", report.failures());
    }

    #[test]
    fn diurnal_day_generates_bounded_activity() {
        let (mut sim, _day) = diurnal_day(SystemConfig::small(), 6, 20, 3, 5, 0.05);
        sim.run_until(SimTime::from_secs(30 * 60));
        assert!(sim.metrics().subscriptions.get() > 0);
        assert!(sim.metrics().publications.get() > 0);
    }

    /// Every catalog entry at smoke size, built twice and run to a short
    /// horizon: the two worlds must agree on the state fingerprint and on
    /// every snapshot byte.
    #[test]
    fn every_entry_builds_the_same_world_twice() {
        let small = SystemConfig::small();
        let horizon = SimTime::from_secs(12);
        // The fuzz mixes as the fuzzer builds them: the first generated
        // case of each, fault plan and overload knobs included.
        let fuzz_case = |mix: ScenarioMix| {
            (0..)
                .map(|seed| crate::fuzz::gen_case(seed, 12))
                .find(|case| case.scenario == mix)
                .expect("every mix is generated")
        };
        let fuzz = |mix: ScenarioMix| crate::fuzz::materialize(&fuzz_case(mix)).0;
        let entries: [(&str, &dyn Fn() -> SystemSim); 8] = [
            ("scale", &|| {
                let config = scale_config(SimDuration::from_secs(5));
                let (mut sim, mut driver) = scale(config, 120, 2, 6, 30, 42, 0.5);
                driver.run_until(&mut sim, horizon);
                sim
            }),
            ("chaos", &|| chaos(40, 2, 42, 10).0),
            ("flash crowd tier", &|| {
                flash_crowd_tier(25.0, 30, 42, 5, 5).0
            }),
            ("diurnal day", &|| {
                diurnal_day(small.clone(), 6, 20, 3, 5, 0.05).0
            }),
            ("live video mix", &|| fuzz(ScenarioMix::LiveVideo)),
            ("flash crowd mix", &|| fuzz(ScenarioMix::FlashCrowd)),
            ("diurnal lite", &|| fuzz(ScenarioMix::Diurnal)),
            ("chatter", &|| chatter(&small, 7, horizon).0),
        ];
        for (name, build) in entries {
            let (mut a, mut b) = (build(), build());
            a.run_until(horizon);
            b.run_until(horizon);
            assert!(a.event_stats().total > 0, "{name}: nothing ran");
            assert_eq!(a.fingerprint_now(), b.fingerprint_now(), "{name}");
            assert!(
                a.snapshot() == b.snapshot(),
                "{name}: snapshot bytes differ"
            );
        }
    }
}
