//! The paper's evaluation (§5) and §2's ablations: every table and figure,
//! each printed with its claims checked against the paper.
//!
//! Run: `cargo run --release -p bench --bin paper [id ...]` — no id runs
//! the whole catalog (`paper::CATALOG`), each entry under a separator
//! line. Exits 1 naming every claim that fails, 2 on an unknown id.

use bench::paper::{self, Run, CATALOG};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let figures: Vec<(&str, Run)> = if ids.is_empty() {
        CATALOG.to_vec()
    } else {
        ids.iter()
            .map(|id| match paper::figure(id) {
                Some(run) => (id.as_str(), run),
                None => {
                    let known: Vec<&str> = CATALOG.iter().map(|&(name, _)| name).collect();
                    eprintln!("unknown figure {id:?}; known: {}", known.join(" "));
                    std::process::exit(2)
                }
            })
            .collect()
    };
    let separate = figures.len() > 1;
    let mut failed = Vec::new();
    for (id, run) in figures {
        if separate {
            println!("================== {id} ==================");
        }
        let report = run();
        print!("{report}");
        if separate {
            println!();
        }
        let failures = report.claims.iter().filter(|c| !c.holds);
        failed.extend(failures.map(|c| format!("{id}: {c}")));
    }
    if !failed.is_empty() {
        eprintln!("paper claims FAILED:");
        for line in &failed {
            eprintln!("  - {line}");
        }
        std::process::exit(1);
    }
}
