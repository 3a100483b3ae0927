//! `determinism` — the double-run determinism harness (CI gate).
//!
//! Runs every wall `array_*` workload shape plus a 1000-client server round
//! three times each — a run, a repeat, and a run with the §3.3 auditor
//! armed — and demands bit-identical trace digests, data digests, and
//! simulated elapsed time, with no audit violation. Exits nonzero on any
//! divergence. Each leg sets the auditor itself, so `ALTO_AUDIT` does not
//! change the result:
//!
//! ```text
//! cargo run --release -p alto-bench --bin determinism
//! cargo run --release -p alto-bench --bin determinism -- --json
//! ```

use std::process::ExitCode;

use alto_bench::determinism::standard_suite;

const ARMS: usize = 4;
const CLIENTS: usize = 1000;

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    if !json {
        println!("determinism: {ARMS}-arm arrays, {CLIENTS}-client fleet, legs run/repeat/audited");
    }
    let reports = standard_suite(ARMS, CLIENTS);
    let mut clean = true;
    if json {
        println!("{{");
        println!("  \"legs\": [\"run\", \"repeat\", \"audited\"],");
        println!("  \"workloads\": [");
        for (i, r) in reports.iter().enumerate() {
            let comma = if i + 1 < reports.len() { "," } else { "" };
            println!("{}{comma}", r.json());
            clean &= r.identical();
        }
        println!("  ]");
        println!("}}");
    } else {
        for r in &reports {
            println!("{}", r.describe());
            clean &= r.identical();
        }
    }
    if clean {
        if !json {
            println!(
                "determinism: all {} workloads bit-identical across 3 runs",
                reports.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("determinism: DIVERGENCE detected — see report above");
        ExitCode::FAILURE
    }
}
