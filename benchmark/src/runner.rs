//! The parent process: spawns repetitions as children, takes medians,
//! runs the output checks, and assembles the named metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::kernels;
use crate::rep::{Rep, RepSpec};
use crate::workloads::Kind;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    /// Host seconds the end-to-end repetitions of one workload measure.
    pub seconds: f64,
    /// ≈1/10 sizes, one repetition, short kernel samples.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Settings {
    pub fn units(&self, kind: Kind) -> usize {
        if self.smoke {
            kind.smoke_units()
        } else {
            kind.full_units()
        }
    }
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// A workload's results from one invocation.
#[derive(Default)]
pub struct WorkloadResult {
    /// End-to-end metrics (medians over repetitions).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// `(max − min) / median` over repetitions, host-time metrics only.
    pub spread: BTreeMap<&'static str, f64>,
    pub repetitions: usize,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    pub ops_attempted: u64,
    /// Updates the system lost track of.
    pub unaccounted: u64,
    /// Median timed-section wall of the untraced repetitions.
    pub wall_s: f64,
    /// One of the repetitions (they agree on every exact value).
    pub sample: Rep,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Lost-track-of updates; every op if an output check broke.
    pub fn ops_failed(&self) -> u64 {
        if self.correct() {
            self.unaccounted
        } else {
            self.ops_attempted
        }
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Folds in the counts of a repetition. Any repetition will do for
    /// these: the checks require all of them to agree.
    fn account(&mut self, rep: &Rep) {
        self.ops_attempted = rep.u("ops_attempted");
        self.unaccounted = rep.u("unaccounted");
    }
}

fn spawn(spec: &RepSpec) -> Rep {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let name = if spec.traced { "bench-traced" } else { "bench" };
    let output = Command::new(exe.with_file_name(name))
        .args(["--child", "--workload", spec.kind.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--units", &spec.units.to_string()])
        .args(["--workers", &spec.workers.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&spec.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} failed on {}: {}",
        spec.kind.name(),
        output.status
    );
    Rep::parse(&String::from_utf8_lossy(&output.stdout))
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The checks every repetition must pass on its own.
fn check_rep(result: &mut WorkloadResult, kind: Kind, label: &str, rep: &Rep) {
    result.check(format!("{label}: converged"), rep.u("converged") == 1);
    result.check(
        format!("{label}: zero unaccounted"),
        rep.u("unaccounted") == 0,
    );
    match kind {
        Kind::MessengerChat => {
            result.check(
                format!("{label}: zero drops"),
                rep.u("simkit.trace.drop_records") == 0,
            );
            result.check(
                format!("{label}: deliveries == publications"),
                rep.u("deliveries") == rep.u("publications"),
            );
        }
        Kind::ChaosRepair => result.check(
            format!("{label}: every episode reconverged"),
            rep.f("fault.sim_reconverge_max_s") >= 0.0,
        ),
        Kind::LvcFanout | Kind::FlashCrowd => {}
    }
}

fn same_outcome(a: &Rep, b: &Rep) -> bool {
    ["fingerprint", "engine.events_total", "deliveries"]
        .into_iter()
        .all(|k| a.raw(k) == b.raw(k))
}

/// The end-to-end pass: untraced single-worker repetitions of identical
/// work in fresh processes until `seconds` of timed section have been
/// measured (one repetition under `--smoke`); medians reported.
pub fn end_to_end(settings: &Settings, kind: Kind) -> WorkloadResult {
    let spec = RepSpec {
        kind,
        seed: settings.seed,
        units: settings.units(kind),
        workers: 1,
        traced: false,
        out_dir: settings.out_dir.clone(),
    };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(spawn(&spec));
        let walls = || reps.iter().map(|r| r.f("raw_run_wall_s"));
        // Another repetition only if it fits the budget better than not.
        if settings.smoke || walls().sum::<f64>() + median(walls()) / 2.0 > settings.seconds {
            break;
        }
    }

    let mut result = WorkloadResult {
        repetitions: reps.len(),
        ..Default::default()
    };
    for (i, rep) in reps.iter().enumerate() {
        check_rep(&mut result, kind, &format!("repetition {i}"), rep);
    }
    result.check(
        "repetitions agree on fingerprint, events and deliveries",
        reps.iter().all(|r| same_outcome(r, &reps[0])),
    );

    let first = &reps[0];
    let deliveries = first.f("deliveries").max(1.0);
    let over_reps = |key: &str, scale: f64| -> (f64, f64) {
        let values: Vec<f64> = reps.iter().map(|r| r.f(key) * scale).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let mid = median(values);
        (mid, (hi - lo) / mid)
    };
    for (name, key, scale) in [
        ("setup_s", "setup_s", 1.0),
        (
            "wall_s_per_sim_s",
            "run_wall_s",
            1.0 / first.f("sim_seconds"),
        ),
        ("wall_us_per_delivery", "run_wall_s", 1e6 / deliveries),
        ("peak_rss_mib", "peak_rss_mib", 1.0),
    ] {
        let (mid, spread) = over_reps(key, scale);
        result.end_to_end.insert(name, mid);
        result.spread.insert(name, spread);
    }
    result.end_to_end.insert(
        "events_per_delivery",
        first.f("engine.events_total") / deliveries,
    );
    for name in [
        "sim_delivery_p50_ms",
        "sim_delivery_p99_ms",
        "delivered_share",
    ] {
        result.end_to_end.insert(name, first.f(name));
    }
    debug_assert!(END_TO_END
        .iter()
        .all(|m| result.end_to_end.contains_key(m.name)));
    result.wall_s = median(reps.iter().map(|r| r.f("run_wall_s")));
    result.account(first);
    result.sample = reps.swap_remove(0);
    result
}

/// The traced pass: one traced repetition (spans, phases, allocation
/// counts, snapshot/resume) and one untraced repetition at two workers,
/// both of which must reproduce the reference fingerprint; plus the layer
/// kernels and the estimated attribution. `reference` is an untraced
/// single-worker pass of the same workload, run here if not supplied.
pub fn traced(
    settings: &Settings,
    kind: Kind,
    reference: Option<&WorkloadResult>,
    kernel_ns: &[(&'static str, f64)],
) -> WorkloadResult {
    let untraced = RepSpec {
        kind,
        seed: settings.seed,
        units: settings.units(kind),
        workers: 1,
        traced: false,
        out_dir: settings.out_dir.clone(),
    };
    let mut result = WorkloadResult::default();
    let own;
    let (reference_wall, reference_rep) = match reference {
        Some(r) => (r.wall_s, &r.sample),
        None => {
            own = spawn(&untraced);
            (own.f("run_wall_s"), &own)
        }
    };
    let traced = spawn(&RepSpec {
        traced: true,
        ..untraced.clone()
    });
    let two_workers = spawn(&RepSpec {
        workers: 2,
        ..untraced
    });
    check_rep(&mut result, kind, "traced", &traced);
    check_rep(&mut result, kind, "workers=2", &two_workers);
    result.check(
        "workers=2 reproduces the traced fingerprint",
        same_outcome(&traced, &two_workers),
    );
    result.check(
        "traced reproduces the untraced fingerprint",
        same_outcome(&traced, reference_rep),
    );
    result.check(
        "resumed snapshot fingerprints the same",
        traced.u("resume_matches") == 1,
    );
    result.repetitions = 1;
    result.wall_s = reference_wall;

    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, bucket) in [
        ("workload.events", "events.workload"),
        ("tao.events", "events.tao"),
        ("pylon.events", "events.pylon"),
        ("brass.events", "events.brass"),
        ("burst.heartbeat_events", "events.heartbeats"),
        ("edge.up_events", "events.transport_up"),
        ("edge.down_events", "events.transport_down"),
        ("edge.churn_events", "events.device_churn"),
        ("fault.events", "events.faults"),
    ] {
        derived.insert(name, traced.f(bucket));
    }
    let run_wall_s = traced.f("engine.run_wall_s");
    derived.insert(
        "engine.wall_ns_per_event",
        run_wall_s * 1e9 / traced.f("engine.events_total").max(1.0),
    );
    derived.insert(
        "engine.trace_overhead_ratio",
        traced.f("run_wall_s") / reference_wall,
    );
    derived.insert(
        "engine.workers2_wall_ratio",
        two_workers.f("run_wall_s") / reference_wall,
    );
    derived.extend(kernel_ns.iter().copied());
    derived.extend(attribution(&traced, kernel_ns));

    for (name, _, _) in PER_LAYER {
        let value = match derived.get(name) {
            Some(v) => *v,
            None => traced.f(name),
        };
        result.per_layer.insert(name, value);
    }
    result.account(&traced);
    result.sample = traced;
    result
}

/// Kernel stopwatch time per sample: ≥ 200 ms when the benchmark runs on
/// its own, a share of the budget when the driver times the run.
pub fn kernel_sample(settings: &Settings, driver_timed: bool) -> Duration {
    if settings.smoke {
        Duration::from_millis(4)
    } else if driver_timed {
        // A third of the run's budget.
        Duration::from_secs_f64(settings.seconds / 3.0 / kernels::STOPWATCH_SAMPLES as f64)
    } else {
        Duration::from_millis(200)
    }
}

/// Estimated share of the engine's wall each layer accounts for:
/// operation count × kernel ns ÷ `engine.run_wall_s`, with the residual
/// so the column sums to 1. An estimate, not a measurement: a kernel runs
/// its call on warm state, outside the event loop.
fn attribution(rep: &Rep, kernel_ns: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| -> f64 {
        kernel_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let count = |key: &str| rep.f(key);
    let wall_ns = rep.f("engine.run_wall_s") * 1e9;

    let fetches = count("was.brass_fetches");
    let subscribes = count("pylon.subscribes");
    // WasExec + WasReply ride in the brass bucket; what is left of it is
    // (almost all) timers that found nothing to send.
    let idle_timers = (count("events.brass") - 2.0 * fetches).max(0.0);
    let brass = count("brass.offers") * ns("brass.on_pylon_event_ns_per_stream")
        + fetches * ns("brass.on_was_response_ns")
        + idle_timers * ns("brass.on_timer_idle_ns")
        + subscribes * ns("brass.on_subscribe_ns");
    // Each transport bucket counts three hops per frame.
    let (up, down) = (
        count("events.transport_up") / 3.0,
        count("events.transport_down") / 3.0,
    );
    let edge = up * (ns("edge.pop.device_frame_ns") + ns("edge.proxy.downstream_frame_ns"))
        + down
            * (ns("edge.proxy.upstream_frame_ns")
                + ns("edge.pop.proxy_frame_ns")
                + ns("edge.device.on_frame_ns"));
    // Publish cost, interpolated between the fan-1 and fan-32 kernels.
    let fan = count("pylon.forwards_per_publish").max(1.0);
    let publish_ns = ns("pylon.publish_fan1_ns")
        + (fan - 1.0) * (ns("pylon.publish_fan32_ns") - ns("pylon.publish_fan1_ns")) / 31.0;
    let pylon = count("pylon.publishes") * publish_ns + subscribes * ns("pylon.subscribe_ns");
    let backend = count("was.mutations") * ns("was.mutation_ns")
        + fetches * ns("was.fetch_for_viewer_ns")
        + count("was.queries") * ns("was.query_ns");
    let queue = count("engine.events_total") * ns("simkit.queue.schedule_pop_ns");
    let record_ns = if rep.u("trace_retention_full") == 1 {
        ns("simkit.trace.record_full_ns")
    } else {
        ns("simkit.trace.record_bounded_ns")
    };
    let trace = count("simkit.trace.records") * record_ns;

    let shares = [
        ("attr.brass.est_wall_share", brass / wall_ns),
        ("attr.edge.est_wall_share", edge / wall_ns),
        ("attr.pylon.est_wall_share", pylon / wall_ns),
        ("attr.backend.est_wall_share", backend / wall_ns),
        ("attr.simkit.queue.est_wall_share", queue / wall_ns),
        ("attr.simkit.trace.est_wall_share", trace / wall_ns),
    ];
    let residual = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    let mut out = shares.to_vec();
    out.push(("attr.residual_wall_share", residual));
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse --short HEAD` of the repo, or `unknown` outside one.
pub fn git_rev(repo: &Path) -> String {
    // The ceiling keeps git from looking for a repository above this one
    // when the benchmark runs in a plain checkout.
    let Some(parent) = repo
        .canonicalize()
        .ok()
        .and_then(|r| Some(r.parent()?.to_owned()))
    else {
        return "unknown".to_owned();
    };
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
