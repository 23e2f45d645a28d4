//! The repo's one perf ledger. See `benchmark/README.md` for the tables
//! (workloads, metric definitions, how they interact) and `BENCHMARK.json`
//! at the repo root for the contract the driver checks.
//!
//! Everything here measures from outside: `SystemSim`'s public surface
//! for the system runs, each crate's public sans-io entry points for the
//! layer kernels. Nothing under `crates/` knows this package exists.

pub mod alloc;
pub mod catalog;
mod kernels;
mod port;
mod probe;
mod rep;
mod report;
mod runner;
mod spans;
mod workloads;

use std::path::PathBuf;

use rep::RepSpec;
use runner::Settings;
use workloads::Kind;

const USAGE: &str = "\
usage: bench [--seed N] [--seconds S] [--smoke]      every workload, end-to-end then traced
       bench --workload NAME --trace 0|1 [--seed N] [--seconds S]
                                                   one run as the driver makes it
       bench --verify-port                         ported drivers == crates/bench scale, chaos
workloads: lvc_fanout flash_crowd chaos_repair messenger_chat";

/// Command-line arguments as `--key value` pairs and bare `--flag`s.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let i = self.0.iter().position(|a| a == key)?;
        match self.0.get(i + 1).map(|v| v.parse()) {
            Some(Ok(v)) => Some(v),
            _ => fail(&format!("{key} needs a value")),
        }
    }

    fn workload(&self) -> Option<Kind> {
        let name: String = self.value("--workload")?;
        Some(Kind::parse(&name).unwrap_or_else(|| fail(&format!("no workload named {name}"))))
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") {
        println!("{USAGE}");
        return;
    }
    let seed = args.value("--seed").unwrap_or(42);

    if args.flag("--child") {
        let spec = RepSpec {
            kind: args
                .workload()
                .unwrap_or_else(|| fail("--child needs --workload")),
            seed,
            units: args
                .value("--units")
                .unwrap_or_else(|| fail("--child needs --units")),
            workers: args.value("--workers").unwrap_or(1),
            traced: args.value::<u8>("--trace") == Some(1),
            out_dir: args.value("--out").unwrap_or_else(out_dir),
        };
        rep::run_child(&spec);
        return;
    }
    if args.flag("--verify-port") {
        std::process::exit(if port::verify() { 0 } else { 1 });
    }

    let settings = Settings {
        seed,
        seconds: args
            .value("--seconds")
            .unwrap_or(catalog::RUN_SECONDS as f64),
        smoke: args.flag("--smoke"),
        out_dir: out_dir(),
    };
    let ok = match args.workload() {
        Some(kind) => {
            let traced = args.value::<u8>("--trace") == Some(1);
            report::driver_run(&settings, kind, traced)
        }
        None => report::full_run(&settings),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
