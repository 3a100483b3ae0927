//! The §3.3 auditor only watches. Arming it must not change what a batch
//! does — elapsed time, results, delivered words, trace events — even when
//! the visitor of a batch spends time on the shared clock, as a blocking
//! send on the Ether from inside a visit would. (The page server posts its
//! replies, so its visits no longer move the clock; this file keeps the
//! case.) The write batch goes through the trait's staged `do_batch_write`,
//! whose visits come after the batch; the read batch lends each sector at
//! its instant.

use alto_disk::{
    Disk, DiskAddress, DiskDrive, DiskError, DiskModel, DriveArray, Placement, WriteSource,
    DATA_WORDS, LABEL_WORDS,
};
use alto_sim::{SimClock, SimTime, Trace, TraceEvent};

/// A damaged sector inside the batch: odd, so hash placement over two arms
/// puts it on arm 1 at local address `DAMAGED / 2`.
const DAMAGED: u16 = 301;

/// Shared-clock time each visit spends, like a blocking send on the Ether.
const VISIT_COST: SimTime = SimTime::from_micros(700);

/// Everything a write batch and a read batch show their caller.
#[derive(Debug, PartialEq)]
struct Outcome {
    elapsed: SimTime,
    results: Vec<Result<(), DiskError>>,
    delivered: Vec<(usize, [u16; 2], [u16; LABEL_WORDS], u16)>,
    events: Vec<TraceEvent>,
}

fn round(mut disk: impl Disk, audit: bool) -> Outcome {
    disk.set_audit_enabled(audit);
    let clock = disk.clock().clone();
    let t0 = clock.now();
    // Spread over many cylinders so both batches seek, chain and replan.
    let mut das: Vec<DiskAddress> = (0..240u16).map(|i| DiskAddress(i * 37 % 4800)).collect();
    das.push(DiskAddress(DAMAGED));
    let datas: Vec<[u16; DATA_WORDS]> =
        (0..das.len()).map(|i| [i as u16 + 1; DATA_WORDS]).collect();
    let mut delivered = Vec::new();
    let mut results = disk.do_batch_write(
        &das,
        |i| WriteSource {
            header: [0, 0],
            label: [0; LABEL_WORDS],
            data: &datas[i],
        },
        |i, view| {
            delivered.push((i, *view.header(), *view.label().words(), view.data()[0]));
            clock.advance(VISIT_COST);
        },
    );
    das.push(DiskAddress(u16::MAX));
    results.extend(disk.do_batch_read(&das, |i, view| {
        delivered.push((i, *view.header(), *view.label().words(), view.data()[0]));
        clock.advance(VISIT_COST);
    }));
    assert_eq!(disk.audit_violations(), 0, "audit={audit}");
    Outcome {
        elapsed: clock.now() - t0,
        results,
        delivered,
        events: disk.trace().events(),
    }
}

fn lone_drive(audit: bool) -> Outcome {
    let mut d =
        DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
    d.pack_mut().expect("pack").damage(DiskAddress(DAMAGED));
    round(d, audit)
}

fn two_arms(audit: bool) -> Outcome {
    let mut a = DriveArray::with_arms(
        2,
        Placement::Hash,
        SimClock::new(),
        Trace::new(),
        DiskModel::Diablo31,
    );
    a.arm_mut(1)
        .pack_mut()
        .expect("pack")
        .damage(DiskAddress(DAMAGED / 2));
    round(a, audit)
}

#[test]
fn auditor_is_an_observer_of_batches_on_a_lone_drive_and_across_arms() {
    for (name, run) in [
        ("lone drive", lone_drive as fn(bool) -> Outcome),
        ("two arms", two_arms),
    ] {
        let plain = run(false);
        let audited = run(true);
        // The batch really exercised the failure paths it claims to.
        assert!(matches!(
            plain.results[plain.results.len() - 2],
            Err(DiskError::HardError { .. })
        ));
        assert!(matches!(
            plain.results.last(),
            Some(Err(DiskError::InvalidAddress(_)))
        ));
        assert_eq!(plain.elapsed, audited.elapsed, "{name}: elapsed");
        assert_eq!(plain.results, audited.results, "{name}: results");
        assert_eq!(plain.delivered, audited.delivered, "{name}: delivered");
        assert_eq!(plain.events, audited.events, "{name}: trace events");
    }
}
