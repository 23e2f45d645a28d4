//! The four workloads. Names are fixed: later issues cite them.
//!
//! Each builder returns a [`Fixture`]: the resident world (config, sim,
//! users/devices/videos/threads, compiled fault plan) plus a lazy driver.
//! Nothing is injected at build time, so `setup_s` (process start →
//! fixture built) and the timed section (first inject → last `run_until`)
//! never overlap. Load is open-loop in simulated time: arrivals follow a
//! seeded schedule regardless of how the system is doing.
//!
//! `lvc_fanout` and `chaos_repair` are ports of `crates/bench`'s `scale`
//! and `chaos` drivers; they must make the same calls in the same order
//! (the sim's RNG is shared between fixture and arrivals), which
//! `--verify-port` checks against the original binaries.

use bladerunner::config::SystemConfig;
use bladerunner::fault::{canned_plan, FaultPlan};
use bladerunner::scenario::FlashCrowd;
use bladerunner::sim::SystemSim;
use pylon::PylonConfig;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;
use tao::TaoConfig;
use workload::activity::PoissonArrivals;

/// The driver pumps arrivals one chunk of simulated time ahead of the
/// executor, exactly as `scale.rs` does.
pub const CHUNK: SimDuration = SimDuration::from_millis(250);

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LvcFanout,
    FlashCrowd,
    ChaosRepair,
    MessengerChat,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::LvcFanout,
        Kind::FlashCrowd,
        Kind::ChaosRepair,
        Kind::MessengerChat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LvcFanout => "lvc_fanout",
            Kind::FlashCrowd => "flash_crowd",
            Kind::ChaosRepair => "chaos_repair",
            Kind::MessengerChat => "messenger_chat",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Devices / viewers / users at full size. Sized so one repetition's
    /// timed section is ≈5–6 s on the 2-core sandbox (see README: the
    /// contract's total-time cap does not leave room for 8 s × 3).
    pub fn full_units(self) -> usize {
        match self {
            Kind::LvcFanout => 20_000,
            Kind::FlashCrowd => 2_500,
            Kind::ChaosRepair => 4_000,
            Kind::MessengerChat => 10_000,
        }
    }

    /// ≈1/10 of full size, for `--smoke`.
    pub fn smoke_units(self) -> usize {
        self.full_units() / 10
    }
}

/// A built workload: the world, its driver, and the extents the report
/// needs.
pub struct Fixture {
    pub sim: SystemSim,
    /// The config the sim was built under (needed again by `resume`).
    pub config: SystemConfig,
    /// Fleet size, the denominator of per-device metrics.
    pub devices: usize,
    /// End of the run.
    pub end: SimTime,
    /// The mutation window: before it is *ramp* (subscribes), inside it
    /// *steady*, after it *drain*.
    pub steady: (SimTime, SimTime),
    /// Per-episode heal times (`chaos_repair` only).
    pub heals: Vec<SimTime>,
    /// Mutations the driver has injected so far.
    pub injected_mutations: u64,
    driver: Driver,
}

enum Driver {
    Lvc(LvcDriver),
    Flash { crowd: FlashCrowd, pending: bool },
    Chaos(Option<ChaosDriver>),
    Chat(ChatDriver),
}

impl Fixture {
    /// Schedules every arrival strictly before `upto` that is not yet
    /// scheduled.
    pub fn inject(&mut self, upto: SimTime) {
        let sim = &mut self.sim;
        self.injected_mutations += match &mut self.driver {
            Driver::Lvc(d) => d.inject(sim, upto),
            Driver::Flash { crowd, pending } => {
                if std::mem::take(pending) {
                    let (from, to) = self.steady;
                    crowd.drive_storm(sim, from, to.saturating_since(from), FLASH_RATE) as u64
                } else {
                    0
                }
            }
            Driver::Chaos(d) => d.take().map_or(0, |d| d.inject(sim)),
            Driver::Chat(d) => d.inject(sim, upto),
        };
    }
}

impl Fixture {
    /// Pumps arrivals one [`CHUNK`] ahead of the executor until the end.
    pub fn run_to_end(&mut self) {
        let mut t = SimTime::ZERO;
        while t < self.end {
            t = (t + CHUNK).min(self.end);
            self.inject(t);
            self.sim.run_until(t);
        }
    }
}

pub fn build(kind: Kind, seed: u64, units: usize) -> Fixture {
    match kind {
        Kind::LvcFanout => build_lvc(seed, units, 60),
        Kind::FlashCrowd => build_flash(seed, units),
        Kind::ChaosRepair => build_chaos(seed, units),
        Kind::MessengerChat => build_chat(seed, units),
    }
}

/// The fleet-scale backend `scale` and `chaos` share (and the layer
/// kernels build their stores on).
pub const FLEET_TAO: TaoConfig = TaoConfig {
    shards: 64,
    regions: 3,
    cache_capacity: 1 << 20,
};
pub const FLEET_PYLON: PylonConfig = PylonConfig {
    topic_shards: 65_536,
    servers: 64,
    kv_nodes: 16,
    replicas: 3,
};

fn fleet_shape(config: &mut SystemConfig) {
    config.tao = FLEET_TAO;
    config.pylon = FLEET_PYLON;
    config.brass_hosts = 32;
    config.proxies = 8;
    config.pops = 8;
}

// ---------------------------------------------------------------------
// lvc_fanout: port of `scale.rs` (`scale_config()` + the lazy driver at
// active fraction 1.0, which is what `scale` uses below 500k devices).
// ---------------------------------------------------------------------

struct LvcDriver {
    devices: usize,
    videos: usize,
    video0: u64,
    device0: u64,
    comments: PoissonArrivals,
    next_sub: usize,
    comment_idx: usize,
    churned: bool,
}

pub fn build_lvc(seed: u64, devices: usize, sim_seconds: u64) -> Fixture {
    let mut config = SystemConfig::medium();
    fleet_shape(&mut config);
    config.last_mile_drop = 0.0;
    config.metrics_interval = SimDuration::from_secs(900);

    let mut sim = SystemSim::new(config.clone(), seed);
    let videos = (devices / 500).max(1);
    let video_ids: Vec<u64> = (0..videos)
        .map(|i| sim.was_mut().create_video(&format!("live{i}")))
        .collect();
    let device_ids: Vec<u64> = (0..devices)
        .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
        .collect();
    // The driver rebuilds any id from the first of each range.
    let contiguous = |ids: &[u64]| {
        ids.iter()
            .enumerate()
            .all(|(i, &id)| id == ids[0] + i as u64)
    };
    assert!(contiguous(&video_ids) && contiguous(&device_ids));
    let (video0, device0) = (video_ids[0], device_ids[0]);
    let comment_rate = (videos * 6) as f64 / 30.0;
    let comments = PoissonArrivals::new(comment_rate, SimTime::from_secs(10), sim.rng_mut());
    Fixture {
        sim,
        config,
        devices,
        end: SimTime::from_secs(sim_seconds),
        steady: (SimTime::from_secs(10), SimTime::from_secs(40)),
        heals: Vec::new(),
        injected_mutations: 0,
        driver: Driver::Lvc(LvcDriver {
            devices,
            videos,
            video0,
            device0,
            comments,
            next_sub: 0,
            comment_idx: 0,
            churned: false,
        }),
    }
}

impl LvcDriver {
    fn inject(&mut self, sim: &mut SystemSim, upto: SimTime) -> u64 {
        let (devices, videos) = (self.devices, self.videos);
        // Subscribe ramp over the first five seconds: one video each via a
        // deterministic scatter; every 4th device also opens its
        // notifications topic.
        while self.next_sub < devices {
            let i = self.next_sub;
            let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
            if at >= upto {
                break;
            }
            self.next_sub += 1;
            let d = self.device0 + i as u64;
            let v = self.video0 + (i.wrapping_mul(2_654_435_761) % videos) as u64;
            sim.subscribe_lvc(at, d, v);
            if i.is_multiple_of(4) {
                sim.subscribe_notifications(at + SimDuration::from_millis(10), d);
            }
        }
        // Poisson comments over [10 s, 40 s), round-robined across videos.
        let mut injected = 0;
        let comment_end = SimTime::from_secs(40);
        while self.comments.peek() < upto && self.comments.peek() < comment_end {
            let at = self.comments.pop(sim.rng_mut());
            let v = self.comment_idx % videos;
            self.comment_idx += 1;
            sim.post_comment(
                at,
                self.device0 + (v % devices) as u64,
                self.video0 + v as u64,
                "scale bench comment",
            );
            injected += 1;
        }
        // One device in a thousand drops at 20 s and reconnects.
        let churn_at = SimTime::from_secs(20);
        if !self.churned && churn_at < upto {
            for i in (0..devices).filter(|i| i % 1_000 == 500) {
                sim.schedule_device_drop(churn_at, self.device0 + i as u64);
            }
            self.churned = true;
        }
        injected
    }
}

// ---------------------------------------------------------------------
// flash_crowd: `flashcrowd.rs`'s overload config, ONE video, storm at
// 100 comments/s for 40 s. No outage, no reconnect storm.
// ---------------------------------------------------------------------

const FLASH_RATE: f64 = 100.0;

pub fn build_flash(seed: u64, viewers: usize) -> Fixture {
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

    let mut sim = SystemSim::new(config.clone(), seed);
    // `setup` schedules the subscribe surge over [1 s, 3 s) as it creates
    // the crowd; those queue pushes are part of set-up.
    let crowd = FlashCrowd::setup(
        &mut sim,
        viewers,
        20,
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
    );
    let steady = (SimTime::from_secs(5), SimTime::from_secs(45));
    Fixture {
        sim,
        config,
        devices: viewers + 20,
        end: steady.1 + SimDuration::from_secs(60),
        steady,
        heals: Vec::new(),
        injected_mutations: 0,
        driver: Driver::Flash {
            crowd,
            pending: true,
        },
    }
}

// ---------------------------------------------------------------------
// chaos_repair: port of `chaos.rs` `build_run` (`chaos_config()`, the
// canned plan over all six fault kinds, comments until heal, 60 s grace).
// ---------------------------------------------------------------------

struct ChaosDriver {
    video_ids: Vec<u64>,
    device_ids: Vec<u64>,
    plan: FaultPlan,
}

pub fn build_chaos(seed: u64, devices: usize) -> Fixture {
    let mut config = SystemConfig::medium();
    fleet_shape(&mut config);
    config.device_heartbeats = true;
    config.trace_retention = Retention::Full;
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(2);

    let mut sim = SystemSim::new(config.clone(), seed);
    let videos = (devices / 500).max(1);
    let video_ids: Vec<u64> = (0..videos)
        .map(|i| sim.was_mut().create_video(&format!("chaos{i}")))
        .collect();
    let device_ids: Vec<u64> = (0..devices)
        .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
        .collect();
    let mut plan_rng = sim.rng_mut().fork(0xFA);
    let plan = canned_plan(SimTime::from_secs(30), &config, &device_ids, &mut plan_rng);
    let heal = plan.heal_time();
    Fixture {
        sim,
        config,
        devices,
        end: heal + SimDuration::from_secs(60),
        steady: (SimTime::from_secs(10), heal),
        heals: plan.episodes.iter().map(|ep| ep.heals_at()).collect(),
        injected_mutations: 0,
        driver: Driver::Chaos(Some(ChaosDriver {
            video_ids,
            device_ids,
            plan,
        })),
    }
}

impl ChaosDriver {
    /// Everything is scheduled before the clock moves, as in `chaos.rs`.
    fn inject(self, sim: &mut SystemSim) -> u64 {
        let (devices, videos) = (self.device_ids.len(), self.video_ids.len());
        for (i, &d) in self.device_ids.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
            sim.subscribe_lvc(
                at,
                d,
                self.video_ids[i.wrapping_mul(2_654_435_761) % videos],
            );
        }
        self.plan.apply(sim);
        // One comment per video every ~10 s until the plan heals,
        // phase-offset per video so publishes interleave.
        let heal = self.plan.heal_time();
        let mut comments = 0;
        for (v, &video) in self.video_ids.iter().enumerate() {
            let mut t =
                SimTime::from_secs(10) + SimDuration::from_micros((v as u64 * 7_919) % 10_000_000);
            while t < heal {
                sim.post_comment(
                    t,
                    self.device_ids[v % devices],
                    video,
                    "chaos bench comment",
                );
                comments += 1;
                t += SimDuration::from_secs(10);
            }
        }
        comments
    }
}

// ---------------------------------------------------------------------
// messenger_chat: users paired into two-member threads; write-heavy,
// fan-out 1, lossless.
// ---------------------------------------------------------------------

struct ChatDriver {
    seed: u64,
    /// `(thread id, member a, member b)`.
    threads: Vec<(u64, u64, u64)>,
    /// Turn `n` speaks on thread `(first + n * stride) % threads`; `stride`
    /// is coprime with the thread count, so a thread is not picked again
    /// until every other one has been (25 s of turns at any size).
    first: usize,
    stride: usize,
    next_sub: usize,
    next_turn: u64,
    turns: u64,
    turn_gap_us: u64,
}

const CHAT_FROM: SimTime = SimTime::from_secs(10);
const CHAT_SECS: u64 = 90;

pub fn build_chat(seed: u64, users: usize) -> Fixture {
    let mut config = SystemConfig::medium();
    config.brass_hosts = 32;
    config.proxies = 8;
    config.pops = 8;
    config.last_mile_drop = 0.0;

    let mut sim = SystemSim::new(config.clone(), seed);
    let ids: Vec<u64> = (0..users)
        .map(|i| sim.create_user_device(&format!("m{i}"), "en"))
        .collect();
    let threads: Vec<(u64, u64, u64)> = ids
        .chunks_exact(2)
        .map(|p| (sim.was_mut().create_thread(p), p[0], p[1]))
        .collect();
    // One turn per 50 users per second: 400/s at 20k users.
    let turns_per_sec = (users / 50).max(1) as u64;
    // A seeded walk over the threads that visits each once per lap. Two
    // turns on one thread inside a delivery time would race each other on
    // the same typing object, and the sim then loses track of the earlier
    // update (see README, "seeds"): a hash of the turn index does that at
    // most seeds, a full-period stride at none.
    let pick = mix(seed);
    let first = pick as usize % threads.len();
    let mut stride = threads.len() / 4 + (pick >> 32) as usize % (threads.len() / 2).max(1);
    while gcd(stride, threads.len()) != 1 {
        stride += 1;
    }
    Fixture {
        sim,
        config,
        devices: users,
        end: SimTime::from_secs(120),
        steady: (CHAT_FROM, CHAT_FROM + SimDuration::from_secs(CHAT_SECS)),
        heals: Vec::new(),
        injected_mutations: 0,
        driver: Driver::Chat(ChatDriver {
            seed,
            threads,
            first,
            stride,
            next_sub: 0,
            next_turn: 0,
            turns: turns_per_sec * CHAT_SECS,
            turn_gap_us: 1_000_000 / turns_per_sec,
        }),
    }
}

/// SplitMix64's finalizer: every input bit reaches every output bit.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl ChatDriver {
    fn inject(&mut self, sim: &mut SystemSim, upto: SimTime) -> u64 {
        // Each user opens a mailbox and a typing stream over the first 5 s.
        let users = self.threads.len() * 2;
        while self.next_sub < users {
            let i = self.next_sub;
            let at = SimTime::from_micros(i as u64 * 5_000_000 / users as u64);
            if at >= upto {
                break;
            }
            self.next_sub += 1;
            let (thread, a, b) = self.threads[i / 2];
            let (me, other) = if i.is_multiple_of(2) { (a, b) } else { (b, a) };
            sim.subscribe_mailbox(at, me);
            sim.subscribe_typing(at + SimDuration::from_millis(10), me, thread, other);
        }
        // A turn: `set_typing`, then `send_message` 800 ms later, on the
        // next thread of the seeded walk; which member speaks is a hash
        // bit of the seeded turn index.
        let mut injected = 0;
        while self.next_turn < self.turns {
            let at = CHAT_FROM + SimDuration::from_micros(self.next_turn * self.turn_gap_us);
            if at >= upto {
                break;
            }
            let n = self.next_turn as usize % self.threads.len();
            let (thread, a, b) = self.threads[(self.first + n * self.stride) % self.threads.len()];
            let speaker = if mix(self.next_turn ^ self.seed) >> 63 == 0 {
                a
            } else {
                b
            };
            self.next_turn += 1;
            sim.set_typing(at, speaker, thread, true);
            sim.send_message(
                at + SimDuration::from_millis(800),
                speaker,
                thread,
                "see you at the usual place",
            );
            injected += 2;
        }
        injected
    }
}
