//! The bench binaries' shared front end.
//!
//! Every table and figure in the paper's evaluation (§5) is an entry of
//! [`paper::CATALOG`], which `bench --bin paper` prints with its claims
//! checked against the paper (see DESIGN.md's experiment index). The rest
//! serves the sim-throughput and chaos bins: argument parsing, the JSON
//! summary they emit, and snapshot/resume plumbing.

use burst::json::Json;

pub mod paper;

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(title, headers, rows));
}

/// An aligned text table: a blank line, `== title ==`, the headers, a
/// rule, then one line per row.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = format!("\n== {title} ==\n{}\n{rule}\n", fmt_row(&headers));
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Renders a summary the way every bin writes one: two-space indent, one
/// member per line, `": "` after keys (CI's gates load these files as JSON;
/// `benchmark/src/port.rs` scans them for `"key": ` followed by digits).
/// Scalars and empty containers print as [`Json`]'s compact form.
fn pretty(value: &Json) -> String {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(value: &Json, depth: usize, out: &mut String) {
    let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Arr(items) if !items.is_empty() => {
            ('[', ']', items.iter().map(|item| (None, item)).collect())
        }
        Json::Obj(pairs) if !pairs.is_empty() => (
            '{',
            '}',
            pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        scalar => return out.push_str(&scalar.to_string()),
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&format!("{}: ", Json::from(key)));
        }
        write_pretty(member, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// A convergence report's machine-readable violations, one
/// `{oracle, entity, detail}` object per breach — the gate summaries embed
/// this so CI can consume breaches without scraping log lines.
pub fn violations_json(violations: &[bladerunner::fault::Violation]) -> Json {
    let row = |v: &bladerunner::fault::Violation| {
        Json::obj([
            ("oracle", Json::from(v.oracle.name())),
            ("entity", Json::from(v.entity.as_str())),
            ("detail", Json::from(v.detail.as_str())),
        ])
    };
    Json::Arr(violations.iter().map(row).collect())
}

/// Parses a `--key value` style argument from the process args, with a
/// default.
pub fn arg_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--key value` argument, `None` when absent.
pub fn arg_opt(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Delivers a bin's JSON summary: into the file `--out` names, or, when
/// there is no `--out`, onto stdout. Nothing is written by default — a
/// number is only comparable with a same-host run of the previous commit,
/// so no bin leaves one behind in the checkout.
pub fn emit_summary(summary: &Json) {
    let json = pretty(summary);
    match arg_opt("--out") {
        Some(out) => {
            std::fs::write(&out, json).expect("write bench summary");
            println!("wrote {out}");
        }
        None => print!("{json}"),
    }
}

/// Returns whether a bare `--flag` argument is present.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

/// Parses a half-open `A..B` seed range ("0..200"); a bare number `N`
/// means `N..N+1`.
pub fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let lo: u64 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad range start {a:?}"))?;
        let hi: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("bad range end {b:?}"))?;
        if hi <= lo {
            return Err(format!("empty seed range {spec:?}"));
        }
        Ok(lo..hi)
    } else {
        let n: u64 = spec
            .trim()
            .parse()
            .map_err(|_| format!("bad seed {spec:?}"))?;
        Ok(n..n + 1)
    }
}

/// Snapshot/resume plumbing shared by the bench binaries: every bin that
/// supports deterministic resume takes the same three flags
/// (`--snapshot-every <ticks>`, `--snapshot-dir <dir>`,
/// `--resume-from <path>`) and emits the same per-tick fingerprint block
/// into its JSON summary.
pub mod snapctl {
    use std::path::{Path, PathBuf};

    use bladerunner::config::SystemConfig;
    use bladerunner::replay;
    use bladerunner::sim::SystemSim;
    use burst::json::Json;
    use simkit::snap::{Snap, SnapReader, SnapResult};
    use simkit::time::SimTime;

    /// Parsed snapshot CLI flags.
    pub struct SnapshotArgs {
        /// Snapshot every N metrics ticks (0: never).
        pub every: u64,
        /// Directory snapshot files land in (`snap-<t_us>.brsnap`).
        pub dir: PathBuf,
        /// Snapshot file to resume from instead of building the run fresh.
        pub resume: Option<PathBuf>,
    }

    /// Reads `--snapshot-every` / `--snapshot-dir` / `--resume-from`.
    pub fn from_args() -> SnapshotArgs {
        SnapshotArgs {
            every: super::arg_or("--snapshot-every", 0u64),
            dir: PathBuf::from(super::arg_or("--snapshot-dir", "snapshots".to_string())),
            resume: super::arg_opt("--resume-from").map(PathBuf::from),
        }
    }

    /// Applies the snapshot policy to a (fresh or resumed) sim: creates
    /// the target directory and arranges a sealed snapshot file every
    /// `every` metrics ticks. No-op when `every` is 0.
    pub fn apply(sim: &mut SystemSim, args: &SnapshotArgs) {
        if args.every == 0 {
            return;
        }
        std::fs::create_dir_all(&args.dir).expect("create snapshot dir");
        sim.set_snapshot_policy(args.every, false, Some(args.dir.clone()));
        println!(
            "snapshots: every {} ticks into {}",
            args.every,
            args.dir.display()
        );
    }

    /// Decodes a driver blob, which must hold exactly one `T`.
    pub(crate) fn driver<T: Snap>(blob: &[u8]) -> SnapResult<T> {
        let mut r = SnapReader::new(blob);
        let state = T::restore(&mut r)?;
        r.finish()?;
        Ok(state)
    }

    /// Resumes a run from a snapshot file: the sim, and the driver state
    /// that rode in its blob. The caller rebuilds the exact `config` the
    /// snapshot was taken under (a mismatch fails closed).
    pub fn resume<T: Snap>(config: SystemConfig, path: &Path) -> (SystemSim, T) {
        let sim = replay::resume_from_file(config, path)
            .unwrap_or_else(|e| panic!("resume from {}: {e}", path.display()));
        let state = driver(sim.driver_blob()).expect("driver blob");
        (sim, state)
    }

    /// The `"fingerprint"` member of a bench summary: the full
    /// `(tick, fingerprint)` series plus the end-of-run state fingerprint.
    /// Two runs of the same `(config, seed, workload)` — resumed or not —
    /// produce equal values; the first differing tick brackets a
    /// divergence.
    pub fn fingerprint_json(sim: &SystemSim) -> Json {
        let hex = |fp: u64| Json::from(format!("{fp:016x}"));
        let tick = |(t, fp): &(SimTime, u64)| {
            Json::obj([("t_us", Json::from(t.as_micros())), ("fp", hex(*fp))])
        };
        Json::obj([
            ("final", hex(sim.fingerprint_now())),
            (
                "ticks",
                Json::Arr(sim.tick_fingerprints().iter().map(tick).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_or_default() {
        assert_eq!(arg_or("--nonexistent", 42u32), 42);
    }

    #[test]
    fn seed_range_forms() {
        assert_eq!(parse_seed_range("0..200"), Ok(0..200));
        assert_eq!(parse_seed_range("7"), Ok(7..8));
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("x..3").is_err());
    }

    #[test]
    fn pretty_output_parses_back_and_puts_each_member_on_its_own_line() {
        let value = Json::obj([
            ("events_total", Json::from(12u64)),
            ("wall_seconds", Json::from(0.25)),
            ("note", Json::from("tab\there, \"quoted\"")),
            ("metrics", Json::obj([("deliveries", Json::from(3u64))])),
            (
                "tiers",
                Json::Arr(vec![Json::from(1u64), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let text = pretty(&value);
        assert_eq!(Json::parse(&text).expect("pretty output is JSON"), value);
        // The shape `benchmark/src/port.rs` scans for.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], "  \"events_total\": 12,");
        assert!(lines.contains(&"  \"metrics\": {"));
        assert!(lines.contains(&"    \"deliveries\": 3"));
        assert!(lines.contains(&"  \"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn driver_blobs_round_trip_and_reject_truncation() {
        use simkit::snap::{Snap, SnapWriter};
        use simkit::time::SimTime;
        fn check<T: Snap + PartialEq + std::fmt::Debug>(state: T) {
            let mut w = SnapWriter::new();
            state.snap(&mut w);
            let blob = w.into_bytes();
            assert_eq!(snapctl::driver::<T>(&blob).expect("round trip"), state);
            for cut in 0..blob.len() {
                assert!(snapctl::driver::<T>(&blob[..cut]).is_err(), "cut at {cut}");
            }
            let mut longer = blob;
            longer.push(0);
            assert!(snapctl::driver::<T>(&longer).is_err(), "trailing byte");
        }
        check(bladerunner::scenario::ScaleDriver {
            devices: 2_000,
            videos: 4,
            sim_seconds: 30,
            seed: 42,
            active_fraction: 0.3,
            video0: 1,
            device0: 5,
            comment_rate: 0.8,
            next_sub: 17,
            next_brief: 3,
            comment_next: SimTime::from_millis(10_250),
            comment_idx: 2,
            churned: true,
            scheduled_through: SimTime::from_secs(11),
        });
        check(bladerunner::scenario::ChaosMeta {
            devices: 2_000,
            videos: 4,
            comments: 90,
            seed: 7,
            plan_start: SimTime::from_secs(30),
            heal: SimTime::from_secs(400),
            end: SimTime::from_secs(460),
            kinds: vec!["brass_crash".into(), "proxy_outage".into()],
            episodes: vec![(
                "brass_crash".into(),
                SimTime::from_secs(40),
                SimTime::from_secs(70),
            )],
        });
    }
}
