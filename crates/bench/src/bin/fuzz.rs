//! Deterministic fault-plan fuzzing harness (PR 9).
//!
//! Two modes, one binary:
//!
//! * **campaign** (default): run a seed range through the generator +
//!   oracle suite; shrink and persist a `.brfuzz` artifact for every
//!   violation.
//!   `fuzz --seeds 0..200 --devices 60 --budget-secs 900`
//! * **repro**: replay one artifact exactly and report whether its
//!   recorded oracle still fires; `--bisect` hands the case to the PR 8
//!   fingerprint bisector (two materializations of the case) for
//!   event-level localization.
//!   `fuzz --repro corpus/seed-17.brfuzz --bisect`
//!
//! `crates/bladerunner/tests/fuzz.rs` holds the shrinker's own regression
//! test and `corpus_replays_clean`, which replays every artifact under
//! `corpus/` (each a fixed regression) and requires it clean.
//!
//! Exit codes: 0 clean · 1 violations / budget exceeded · 2 unreadable
//! artifact or bad argument.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::{die, emit_summary, parse_seed_range, Args};
use bladerunner::fuzz::{
    decode_artifact, encode_artifact, gen_case, materialize, run_case, shrink, FuzzCase,
    RunOptions, ShrinkResult,
};
use bladerunner::replay::{bisect, RunSpec};
use burst::json::Json;

fn main() {
    println!("== bladerunner fault-plan fuzzer ==");
    let args = Args::from_env();
    match args.opt::<String>("--repro") {
        Some(path) => repro(&args, Path::new(&path)),
        None => campaign(&args),
    }
}

// ----------------------------------------------------------------------
// Campaign.
// ----------------------------------------------------------------------

fn campaign(args: &Args) {
    let out = args.opt::<String>("--out");
    let spec = args.or("--seeds", "0..50".to_string());
    let seeds = parse_seed_range(&spec).unwrap_or_else(|e| die(&format!("--seeds: {e}")));
    let devices = args.or("--devices", 60u32);
    let budget_secs = args.or("--budget-secs", 900u64);
    let shrink_runs = args.or("--shrink-runs", 150u32);
    let artifact_dir = PathBuf::from(args.or("--artifact-dir", "fuzz-artifacts".to_string()));
    args.finish();
    let opts = RunOptions::default();
    println!(
        "seeds {}..{}  devices {}  budget {}s",
        seeds.start, seeds.end, devices, budget_secs
    );

    let started = Instant::now();
    let total = seeds.end - seeds.start;
    let mut ran = 0u64;
    let mut events = 0u64;
    let mut artifacts: Vec<(u64, String, String)> = Vec::new();
    let mut budget_exceeded = false;
    for seed in seeds.clone() {
        if started.elapsed().as_secs() >= budget_secs {
            budget_exceeded = true;
            break;
        }
        let case = gen_case(seed, devices);
        let report = run_case(&case, &opts);
        ran += 1;
        events += report.events;
        if report.violations.is_empty() {
            if ran.is_multiple_of(20) {
                println!(
                    "  seed {seed}: ok  ({ran}/{total} seeds, {:.0}s elapsed)",
                    started.elapsed().as_secs_f64()
                );
            }
            continue;
        }
        println!(
            "  seed {seed} [{}]: {} violation(s):",
            case.scenario.label(),
            report.violations.len()
        );
        for v in &report.violations {
            println!("    - {}", v.render());
        }
        let target = report.violations[0].oracle;
        println!("  shrinking against [{}]...", target.name());
        let minimized = shrink(&case, target, &opts, shrink_runs);
        let path = write_artifact_file(&artifact_dir, seed, &minimized);
        println!(
            "  minimized to {} episode(s) / {} device(s) in {} run(s); wrote {}",
            minimized.case.plan.episodes.len(),
            minimized.case.devices,
            minimized.runs,
            path.display()
        );
        artifacts.push((seed, target.name().to_string(), path.display().to_string()));
    }
    let wall = started.elapsed().as_secs_f64();
    println!(
        "\nran {ran}/{total} seed(s) in {wall:.1}s ({events} sim events); {} violation seed(s)",
        artifacts.len()
    );

    let violation = |(seed, oracle, path): &(u64, String, String)| {
        Json::obj([
            ("seed", Json::from(*seed)),
            ("oracle", Json::from(oracle.as_str())),
            ("artifact", Json::from(path.as_str())),
        ])
    };
    let summary = Json::obj([
        ("bench", Json::from("fuzz")),
        ("mode", Json::from("campaign")),
        ("seeds", Json::from(spec)),
        ("devices", Json::from(devices as u64)),
        ("seeds_run", Json::from(ran)),
        ("seeds_total", Json::from(total)),
        ("events_total", Json::from(events)),
        ("wall_secs", Json::from(wall)),
        ("budget_secs", Json::from(budget_secs)),
        ("budget_exceeded", Json::from(budget_exceeded)),
        (
            "violation_seeds",
            Json::Arr(artifacts.iter().map(violation).collect()),
        ),
    ]);
    emit_summary(out.as_deref(), &summary);

    if budget_exceeded {
        eprintln!(
            "budget EXCEEDED: {ran}/{total} seeds inside {budget_secs}s — shrink the range or raise the budget"
        );
        std::process::exit(1);
    }
    if !artifacts.is_empty() {
        eprintln!(
            "{} seed(s) violated an oracle; artifacts written",
            artifacts.len()
        );
        std::process::exit(1);
    }
    println!("all oracles: OK");
}

fn write_artifact_file(dir: &Path, seed: u64, minimized: &ShrinkResult) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    let path = dir.join(format!(
        "seed-{seed}-{}.brfuzz",
        minimized.violation.oracle.name()
    ));
    let bytes = encode_artifact(&minimized.case, &minimized.violation);
    std::fs::write(&path, bytes).expect("write artifact");
    path
}

// ----------------------------------------------------------------------
// Repro.
// ----------------------------------------------------------------------

fn repro(args: &Args, path: &Path) {
    let out = args.opt::<String>("--out");
    let (explain, bisect) = (args.flag("--explain"), args.flag("--bisect"));
    args.finish();
    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let (case, recorded) = decode_artifact(&bytes)
        .unwrap_or_else(|e| die(&format!("cannot decode {}: {e}", path.display())));
    let opts = RunOptions::default();
    println!(
        "repro {}: seed {}  scenario {}  {} episode(s)  {} device(s)",
        path.display(),
        case.seed,
        case.scenario.label(),
        case.plan.episodes.len(),
        case.devices
    );
    println!(
        "knobs: service_us {}  mailbox {}  egress_window {}",
        case.service_us, case.mailbox_capacity, case.egress_window
    );
    for (i, ep) in case.plan.episodes.iter().enumerate() {
        println!(
            "  episode {i}: at {}s {:?}",
            ep.at.as_micros() / 1_000_000,
            ep.kind
        );
    }
    println!("recorded violation: {}", recorded.render());
    let report = run_case(&case, &opts);
    let reproduced = report
        .violations
        .iter()
        .any(|v| v.oracle == recorded.oracle);
    for v in &report.violations {
        println!("  - {}", v.render());
    }
    println!(
        "fingerprint {:016x}  reproduced: {reproduced}",
        report.fingerprint
    );
    if explain {
        for line in bladerunner::fuzz::explain_unaccounted(&case, 8) {
            println!("  {line}");
        }
    }
    if bisect {
        bisect_case(&case);
    }
    let summary = Json::obj([
        ("bench", Json::from("fuzz")),
        ("mode", Json::from("repro")),
        ("artifact", Json::from(path.display().to_string())),
        ("seed", Json::from(case.seed)),
        ("recorded_oracle", Json::from(recorded.oracle.name())),
        ("violations", Json::from(report.violations.len() as u64)),
        ("reproduced", Json::from(reproduced)),
        (
            "fingerprint",
            Json::from(format!("{:016x}", report.fingerprint)),
        ),
    ]);
    emit_summary(out.as_deref(), &summary);
}

/// Hands a case to the PR 8 bisector as two materializations of itself.
/// For determinism violations this localizes the first diverging event;
/// for everything else it certifies tick-identical executions (the repro
/// itself is the evidence then).
fn bisect_case(case: &FuzzCase) {
    let end = case.end();
    let spec = |label: &str| RunSpec {
        label: label.into(),
        config: case.config(),
        build: Box::new(|| materialize(case).0),
    };
    let report = bisect(&spec("run"), &spec("re-run"), end, 5);
    println!("\n== bisect handoff ==\n{}", report.render());
}
