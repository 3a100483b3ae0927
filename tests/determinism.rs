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
fn array_seq_is_bit_identical_across_run_repeat_and_audited_legs() {
    let r = triple_run("array_seq", |t| array_seq(2, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_random_is_bit_identical_across_run_repeat_and_audited_legs() {
    let r = triple_run("array_random", |t| array_random(3, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_scavenge_is_bit_identical_across_run_repeat_and_audited_legs() {
    let r = triple_run("array_scavenge", |t| array_scavenge(2, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn server_round_is_bit_identical_across_run_repeat_and_audited_legs() {
    let r = triple_run("server_round", |t| server_round(120, 2, t));
    assert!(r.identical(), "{}", r.describe());
}

/// The auditor only watches: arming it must not shift a single simulated
/// nanosecond of the server round, whose zero-copy batch reads the audited
/// leg stages through a buffer on the same instants. The page server posts
/// its replies, so its visits no longer move the clock; the case of a
/// visitor that spends shared-clock time inside a batch read is kept by
/// `crates/disk/tests/audit_observer.rs`.
#[test]
fn audit_never_moves_simulated_time() {
    let on = server_round(120, 2, true);
    let off = server_round(120, 2, false);
    assert_eq!(on.sim_ns, off.sim_ns);
    assert_eq!(on, off);
}
