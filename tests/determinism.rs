//! Double-run determinism pins (tier-1 companion to the `determinism` bin).
//!
//! Every workload here is executed three times — a run, a repeat, and a run
//! with the §3.3 auditor armed — and must produce bit-identical trace
//! digests, data digests, and simulated elapsed time. The full-size harness
//! (4 arms, 1000 clients) runs in CI via
//! `cargo run --release -p alto-bench --bin determinism`; these are smaller
//! shapes sized for debug-mode `cargo test`.

use alto_bench::determinism::{array_random, array_scavenge, array_seq, server_round, triple_run};

#[test]
fn array_seq_is_bit_identical_across_runs_and_threading() {
    let r = triple_run("array_seq", |t| array_seq(2, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_random_is_bit_identical_across_runs_and_threading() {
    let r = triple_run("array_random", |t| array_random(3, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_scavenge_is_bit_identical_across_runs_and_threading() {
    let r = triple_run("array_scavenge", |t| array_scavenge(2, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn server_round_is_bit_identical_across_runs_and_threading() {
    let r = triple_run("server_round", |t| server_round(120, 2, t));
    assert!(r.identical(), "{}", r.describe());
}

/// The auditor only watches: arming it must not shift a single simulated
/// nanosecond, even where the page server's reply sends spend shared-clock
/// time inside a zero-copy batch read.
#[test]
fn audit_never_moves_simulated_time() {
    let on = server_round(120, 2, true);
    let off = server_round(120, 2, false);
    assert_eq!(on.sim_ns, off.sim_ns);
    assert_eq!(on, off);
}
