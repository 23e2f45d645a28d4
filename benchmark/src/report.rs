//! What an invocation prints and records: the fixed-width tables, the
//! driver's result line, and one record per invocation appended to
//! `benchmark/out/results.jsonl`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::kernels;
use crate::runner::{self, Settings, WorkloadResult};
use crate::workloads::Kind;

/// One run as the driver makes it: one workload, end-to-end (`--trace 0`)
/// or per-layer (`--trace 1`) metrics, the result object on the last line.
pub fn driver_run(settings: &Settings, kind: Kind, traced: bool) -> bool {
    let result = if traced {
        let kernel_ns = kernels::run_all(runner::kernel_sample(settings, true));
        runner::traced(settings, kind, None, &kernel_ns)
    } else {
        runner::end_to_end(settings, kind)
    };
    print_checks(kind, &result);
    let (catalog, values): (Vec<(&str, &str)>, _) = if traced {
        (
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
            &result.per_layer,
        )
    } else {
        print_end_to_end(&[(kind, &result)]);
        (
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            &result.end_to_end,
        )
    };
    append_record(settings, &[(kind, &result)]);
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(values[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.ops_attempted.max(1),
        result.ops_failed(),
        metrics.join(", ")
    );
    result.correct()
}

/// Every workload: the end-to-end pass, then the traced pass against it,
/// the kernels once, both tables, one record.
pub fn full_run(settings: &Settings) -> bool {
    println!(
        "benchmark: seed {} on {} cores, {} s of repetitions per workload{}",
        settings.seed,
        runner::nproc(),
        settings.seconds,
        if settings.smoke { " (smoke sizes)" } else { "" }
    );
    let kernel_ns = kernels::run_all(runner::kernel_sample(settings, false));
    let mut results: Vec<(Kind, WorkloadResult)> = Vec::new();
    for kind in Kind::ALL {
        let mut result = runner::end_to_end(settings, kind);
        let traced = runner::traced(settings, kind, Some(&result), &kernel_ns);
        result.per_layer = traced.per_layer;
        result.checks.extend(traced.checks);
        print_checks(kind, &result);
        results.push((kind, result));
    }
    let view: Vec<(Kind, &WorkloadResult)> = results.iter().map(|(k, r)| (*k, r)).collect();
    print_end_to_end(&view);
    print_per_layer(&view);
    append_record(settings, &view);
    view.iter().all(|(_, r)| r.correct())
}

fn print_checks(kind: Kind, result: &WorkloadResult) {
    let failed: Vec<&str> = result
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.what.as_str())
        .collect();
    println!(
        "{}: {} of {} output checks passed, {} ops attempted, {} failed",
        kind.name(),
        result.checks.len() - failed.len(),
        result.checks.len(),
        result.ops_attempted,
        result.ops_failed(),
    );
    for what in failed {
        println!("  FAILED {what}");
    }
}

/// `workload × end-to-end metric`, medians with `(max − min) / median`
/// over the repetitions beside each host-time value.
fn print_end_to_end(results: &[(Kind, &WorkloadResult)]) {
    println!("\nend to end (median of n repetitions, ±spread = (max-min)/median)");
    print!("{:<24}{:>8}", "metric", "unit");
    for (kind, r) in results {
        print!("{:>26}", format!("{} n={}", kind.name(), r.repetitions));
    }
    println!();
    for m in &END_TO_END {
        print!("{:<24}{:>8}", m.name, m.unit);
        for (_, r) in results {
            let value = format_value(r.end_to_end[m.name]);
            match r.spread.get(m.name) {
                Some(s) => print!("{:>26}", format!("{value} ±{:.1}%", s * 100.0)),
                None => print!("{value:>26}"),
            }
        }
        println!();
    }
}

fn print_per_layer(results: &[(Kind, &WorkloadResult)]) {
    println!(
        "\nper layer (one traced repetition; kernels and attr.* are estimates' inputs and outputs)"
    );
    print!("{:<40}{:>8}", "metric", "unit");
    for (kind, _) in results {
        print!("{:>16}", kind.name());
    }
    println!();
    for (name, unit, _) in PER_LAYER {
        print!("{name:<40}{unit:>8}");
        for (_, r) in results {
            print!("{:>16}", format_value(r.per_layer[name]));
        }
        println!();
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A number as measured, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_map(values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Appends this invocation's record: where and what it ran, every metric,
/// every check.
fn append_record(settings: &Settings, results: &[(Kind, &WorkloadResult)]) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let workloads: Vec<String> = results
        .iter()
        .map(|(kind, r)| {
            let checks: Vec<String> = r
                .checks
                .iter()
                .map(|c| format!("{{\"what\": \"{}\", \"ok\": {}}}", c.what, c.ok))
                .collect();
            format!(
                "\"{}\": {{\"units\": {}, \"repetitions\": {}, \"ops_attempted\": {}, \
                 \"ops_failed\": {}, \"end_to_end\": {}, \"spread\": {}, \"per_layer\": {}, \
                 \"checks\": [{}]}}",
                kind.name(),
                settings.units(*kind),
                r.repetitions,
                r.ops_attempted,
                r.ops_failed(),
                json_map(&r.end_to_end),
                json_map(&r.spread),
                json_map(&r.per_layer),
                checks.join(", ")
            )
        })
        .collect();
    let record = format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"workloads\": {{{}}}}}\n",
        runner::git_rev(&repo),
        runner::nproc(),
        settings.seed,
        json_number(settings.seconds),
        settings.smoke,
        workloads.join(", ")
    );
    std::fs::create_dir_all(&settings.out_dir).expect("create the benchmark's out directory");
    let path = settings.out_dir.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    file.write_all(record.as_bytes())
        .unwrap_or_else(|e| panic!("append to {}: {e}", path.display()));
}
