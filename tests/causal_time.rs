//! Causal simulated time on the determinism harness's fleet shape: 1,000
//! diskless clients paging 16 files of 8 pages from a page server on 4
//! Trident arms.
//!
//! The shared clock only moves forward, every cost is charged where it
//! happens, and a reply leaves no earlier than its sector left the platter.
//! So a server tick can never be shorter than the wire time of what it
//! sent, no arm can be busy longer than the round lasted, and the served
//! rate stays under what one 3 Mb/s wire can carry.

use alto::net::ether::WORD_TIME;
use alto::net::packet::HEADER_WORDS;
use alto::sim::SimTime;
use alto_bench::determinism::server_round_timed;

const CLIENTS: usize = 1000;
const ARMS: usize = 4;

/// Words on the wire for a packet with `payload` words.
fn wire_words(payload: u64) -> u64 {
    HEADER_WORDS as u64 + payload + 1
}

/// A page reply, and the read request it answers.
fn page_words() -> u64 {
    wire_words(256) + wire_words(2)
}

/// `Ether::post` asserts, in debug builds, that arrival stamps never
/// decrease along an inbox; every leg of the fleet round must keep it.
#[cfg(debug_assertions)]
#[test]
fn every_inbox_fills_in_arrival_order_on_the_fleet_shape() {
    use alto_bench::determinism::{server_round, triple_run};
    let r = triple_run("server_round", |t| server_round(CLIENTS, ARMS, t));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn the_fleet_round_is_bound_by_its_wire_and_its_arms() {
    let (_, timing) = server_round_timed(CLIENTS, ARMS, false);
    assert_eq!(timing.served, CLIENTS as u64 * 8);
    // Every server tick lasts at least the wire time of the replies it
    // sent: a 4-word open reply or a 256-word page.
    for (n, t) in timing.ticks.iter().enumerate() {
        assert_eq!(t.errors, 0, "tick {n} answered with an error");
        let words = t.opens * wire_words(4) + t.served * wire_words(256);
        let wire = WORD_TIME.scaled(words);
        assert!(
            t.elapsed >= wire,
            "tick {n} lasted {} but sent {} of replies",
            t.elapsed,
            wire
        );
    }
    // No arm is busy longer than the round.
    assert_eq!(timing.arm_busy.len(), ARMS);
    for (arm, &busy) in timing.arm_busy.iter().enumerate() {
        assert!(busy > SimTime::ZERO, "arm {arm} served nothing");
        assert!(
            busy <= timing.elapsed,
            "arm {arm} was busy {busy} in a {} round",
            timing.elapsed
        );
    }
    // One wire carries at most one page reply and its request per
    // `page_words()` word times: 689.4 pages per simulated second.
    let ceiling = 1e9 / WORD_TIME.scaled(page_words()).as_nanos() as f64;
    assert!((ceiling - 689.4).abs() < 0.05, "ceiling {ceiling}");
    let rate = timing.served as f64 / timing.elapsed.as_secs_f64();
    assert!(
        rate <= ceiling,
        "served {rate:.1} pages per simulated second, over the {ceiling:.1} one wire carries"
    );
}
