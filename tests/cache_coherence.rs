//! Coherence and payoff tests for the in-core hint cache (§3.6).
//!
//! The cache is a bundle of *hints*: a directory name index, a leader-page
//! cache and placement-aware allocation. These tests pin the two promises
//! that make hints safe and worthwhile:
//!
//! * **coherence** — nothing cached is ever believed over the disk: writes
//!   behind the cache's back (through raw file writes or a byte stream)
//!   retire the snapshots, and every answer agrees with an uncached scan;
//! * **payoff** — a warm open-by-name beats the uncached ablation by the
//!   margin the design claims (≥ 5× in simulated time), and fresh files
//!   come out of the placement-aware allocator close enough to consecutive
//!   that no compaction pass is needed to read them fast.

use alto::prelude::*;
use alto_bench::fresh_fs;

/// Builds a root directory with `n` files named `f000..`, returning the
/// last name created.
fn populate(fs: &mut FileSystem<DiskDrive>, n: usize) -> String {
    let root = fs.root_dir();
    let mut last = String::new();
    for i in 0..n {
        last = format!("f{i:03}");
        dir::create_named_file(fs, root, &last).unwrap();
    }
    last
}

/// Acceptance: a warm open-by-name (index hit, verified against the leader
/// label, leader served from the cache) is at least 5× faster in simulated
/// time than the uncached ablation's linear scan of the same directory.
#[test]
fn warm_open_by_name_beats_uncached_ablation_5x() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let root = fs.root_dir();
    let name = populate(&mut fs, 300);

    // Warm up: one lookup verifies the entry and fills the leader cache.
    let f = dir::lookup(&mut fs, root, &name).unwrap().unwrap();

    let t0 = clock.now();
    let w = dir::lookup(&mut fs, root, &name).unwrap().unwrap();
    let leader_w = fs.open_leader(w).unwrap().1;
    let warm = clock.now() - t0;

    fs.set_hint_cache_enabled(false);
    let t0 = clock.now();
    let u = dir::lookup(&mut fs, root, &name).unwrap().unwrap();
    let leader_u = fs.open_leader(u).unwrap().1;
    let uncached = clock.now() - t0;
    fs.set_hint_cache_enabled(true);

    // Same answer either way; the cache only changes the cost.
    assert_eq!(w, f);
    assert_eq!(u, f);
    assert_eq!(leader_w.encode(), leader_u.encode());
    let ratio = uncached.as_nanos() as f64 / warm.as_nanos() as f64;
    assert!(
        ratio >= 5.0,
        "warm open only {ratio:.1}x faster ({warm} vs {uncached})"
    );
}

/// A directory rewritten *behind the directory package's back* — here
/// through a byte stream straight onto the directory file — must retire the
/// name index: the next lookup sees the on-disk truth, never the snapshot.
#[test]
fn directory_rewrite_through_a_stream_invalidates_the_index() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let victim = dir::create_named_file(&mut fs, root, "victim.txt").unwrap();
    fs.write_file(victim, b"payload").unwrap();

    // Snapshot the directory bytes with the victim present, then remove the
    // entry through the package. The index now (correctly) says "gone".
    let with_victim = fs.read_file(root).unwrap();
    dir::remove(&mut fs, root, "victim.txt").unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "victim.txt").unwrap(), None);

    // Resurrect the entry by streaming the old bytes over the directory
    // file — a legitimate §3.4 move (directories are ordinary files), and
    // one the cache only learns about through the disk's write epoch.
    let invalidations = fs.cache_stats().invalidations;
    let mut s = DiskByteStream::open(&mut fs, root).unwrap();
    for &b in &with_victim {
        s.put_byte(&mut fs, b).unwrap();
    }
    s.close(&mut fs).unwrap();

    assert_eq!(
        dir::lookup(&mut fs, root, "victim.txt").unwrap(),
        Some(victim),
        "lookup served the stale index, not the rewritten directory"
    );
    assert!(
        fs.cache_stats().invalidations > invalidations,
        "the stale snapshot was never retired"
    );

    // And the warm path agrees with the uncached scan afterwards.
    let warm = dir::lookup(&mut fs, root, "victim.txt").unwrap();
    fs.set_hint_cache_enabled(false);
    let cold = dir::lookup(&mut fs, root, "victim.txt").unwrap();
    assert_eq!(warm, cold);
}

/// The same staleness discipline for raw `write_file` on the directory —
/// the other behind-the-back path (no stream involved).
#[test]
fn directory_rewrite_through_write_file_invalidates_the_index() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let a = dir::create_named_file(&mut fs, root, "keep.txt").unwrap();
    let bytes_with_a_only = fs.read_file(root).unwrap();
    let b = dir::create_named_file(&mut fs, root, "drop.txt").unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "drop.txt").unwrap(), Some(b));

    // Roll the directory file back to the earlier contents directly.
    fs.write_file(root, &bytes_with_a_only).unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "drop.txt").unwrap(), None);
    assert_eq!(dir::lookup(&mut fs, root, "keep.txt").unwrap(), Some(a));
}

/// The leader cache never serves a leader that disagrees with the disk:
/// after any rewrite, the cached copy matches an uncached read exactly.
#[test]
fn leader_cache_stays_coherent_across_rewrites() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "doc.dat").unwrap();
    fs.write_file(f, &vec![1u8; 3 * 512]).unwrap();

    // Second read is a hit, and identical to the first.
    let first = fs.open_leader(f).unwrap().1;
    let hits = fs.cache_stats().leader_hits;
    let second = fs.open_leader(f).unwrap().1;
    assert!(fs.cache_stats().leader_hits > hits, "repeat open missed");
    assert_eq!(first.encode(), second.encode());

    // Grow the file: the last-page hints change on disk, and the cached
    // leader must follow.
    fs.write_file(f, &vec![2u8; 6 * 512]).unwrap();
    let cached = fs.open_leader(f).unwrap().1;
    fs.set_hint_cache_enabled(false);
    let fresh = fs.read_leader(f).unwrap();
    fs.set_hint_cache_enabled(true);
    assert_eq!(cached.encode(), fresh.encode());
    assert_eq!(cached.last_page, 6);
}

/// Acceptance: on a fragmented disk, a freshly written file placed by the
/// allocator reads back sequentially within 2× of the same file after a
/// compaction pass — locality without the compactor.
#[test]
fn fresh_write_on_fragmented_disk_reads_within_2x_of_compacted() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let root = fs.root_dir();

    // Punch 4-page holes into the front of the disk: create 30 small files
    // back to back, then delete every other one.
    for i in 0..30 {
        let f = dir::create_named_file(&mut fs, root, &format!("fill-{i:02}")).unwrap();
        fs.write_file(f, &vec![0u8; 3 * 512]).unwrap();
    }
    for i in (0..30).step_by(2) {
        let f = dir::remove(&mut fs, root, &format!("fill-{i:02}"))
            .unwrap()
            .unwrap();
        fs.delete_file(f).unwrap();
    }
    // Remount so the next-fit rotor resets: a freshly booted system is now
    // writing onto an aged disk whose front is riddled with holes.
    let mut fs = FileSystem::mount(fs.unmount().unwrap()).unwrap();
    let root = fs.root_dir();

    // A fresh 40-page file does not fit any hole: the placement-aware
    // allocator must skip the fragments and lay the data out in one run.
    let f = dir::create_named_file(&mut fs, root, "fresh.dat").unwrap();
    fs.write_file(f, &vec![7u8; 40 * 512]).unwrap();
    let t0 = clock.now();
    let fresh_bytes = fs.read_file(f).unwrap();
    let fresh = clock.now() - t0;

    Compactor::run(&mut fs).unwrap();
    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "fresh.dat").unwrap().unwrap();
    let t0 = clock.now();
    let compacted_bytes = fs.read_file(f).unwrap();
    let compacted = clock.now() - t0;

    assert_eq!(fresh_bytes, compacted_bytes);
    let ratio = fresh.as_nanos() as f64 / compacted.as_nanos() as f64;
    assert!(
        ratio <= 2.0,
        "fresh layout read {ratio:.2}x the compacted read ({fresh} vs {compacted})"
    );
}

/// The ablation switch really reverts to the uncached system: no counters
/// move while it is off, answers stay correct, and re-enabling works.
#[test]
fn ablation_switch_disables_counting_and_stays_correct() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "a.txt").unwrap();
    dir::lookup(&mut fs, root, "a.txt").unwrap();

    fs.set_hint_cache_enabled(false);
    assert!(!fs.hint_cache_enabled());
    let frozen = fs.cache_stats();
    assert_eq!(dir::lookup(&mut fs, root, "a.txt").unwrap(), Some(f));
    assert_eq!(dir::lookup(&mut fs, root, "A.TXT").unwrap(), Some(f));
    assert_eq!(dir::lookup(&mut fs, root, "missing").unwrap(), None);
    fs.read_leader(f).unwrap();
    assert_eq!(fs.cache_stats(), frozen, "counters moved while disabled");

    fs.set_hint_cache_enabled(true);
    assert_eq!(dir::lookup(&mut fs, root, "a.txt").unwrap(), Some(f));
}

/// Cache traffic shows up in the trace: warm lookups record `fs.cache_hit`,
/// cold ones `fs.cache_miss`.
#[test]
fn cache_events_are_traced() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    dir::create_named_file(&mut fs, root, "t.txt").unwrap();

    let hits = fs.disk().trace().count("fs.cache_hit");
    dir::lookup(&mut fs, root, "t.txt").unwrap();
    assert!(fs.disk().trace().count("fs.cache_hit") > hits);

    // A rewrite behind the cache's back forces a miss on the next lookup.
    let bytes = fs.read_file(root).unwrap();
    fs.write_file(root, &bytes).unwrap();
    let misses = fs.disk().trace().count("fs.cache_miss");
    dir::lookup(&mut fs, root, "t.txt").unwrap();
    assert!(fs.disk().trace().count("fs.cache_miss") > misses);
}

/// The model test in `fs_model.rs` interleaves random operations; this is
/// the directed version: create, remove and re-create the *same* name and
/// check the index tracks every transition.
#[test]
fn recreate_same_name_tracks_through_the_index() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    for round in 0..3 {
        let f = dir::create_named_file(&mut fs, root, "phoenix").unwrap();
        fs.write_file(f, format!("round {round}").as_bytes())
            .unwrap();
        assert_eq!(dir::lookup(&mut fs, root, "phoenix").unwrap(), Some(f));
        assert_eq!(
            fs.read_file(f).unwrap(),
            format!("round {round}").as_bytes()
        );
        let g = dir::remove(&mut fs, root, "phoenix").unwrap().unwrap();
        assert_eq!(g, f);
        fs.delete_file(g).unwrap();
        assert_eq!(dir::lookup(&mut fs, root, "phoenix").unwrap(), None);
    }
}

/// Disk commands issued so far: each operation issued on its own, plus
/// each chained batch.
fn commands(fs: &FileSystem<DiskDrive>) -> u64 {
    let s = fs.disk().stats();
    s.ops - s.batched_ops + s.batches
}

/// A file system's own verified writes of a plain file's data pages keep
/// the hint cache: after a same-length stream rewrite and `close`, a
/// lookup of another name is an index hit that costs one command, its
/// leader check, and the `open` after it costs none.
#[test]
fn a_plain_files_stream_rewrite_keeps_the_index_warm() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let edited = dir::create_named_file(&mut fs, root, "edited.dat").unwrap();
    let other = dir::create_named_file(&mut fs, root, "other.dat").unwrap();
    let len = 5 * 512 + 100;
    fs.write_file(edited, &vec![1u8; len]).unwrap();
    fs.write_file(other, b"other").unwrap();
    assert_eq!(
        dir::lookup(&mut fs, root, "edited.dat").unwrap(),
        Some(edited)
    );

    // The bulk write's chain sends pages 1..5 without reading them and
    // reads the partial tail; `close` writes the tail back.
    let mut s = DiskByteStream::open(&mut fs, edited).unwrap();
    s.write_bytes(&mut fs, &vec![2u8; len]).unwrap();
    s.close(&mut fs).unwrap();

    let stats = fs.cache_stats();
    let before = commands(&fs);
    assert_eq!(
        dir::lookup(&mut fs, root, "other.dat").unwrap(),
        Some(other)
    );
    assert_eq!(
        commands(&fs) - before,
        1,
        "the lookup scanned the directory"
    );
    let after = fs.cache_stats();
    assert_eq!(after.name_hits, stats.name_hits + 1);
    assert_eq!(after.name_misses, stats.name_misses);
    assert_eq!(after.invalidations, stats.invalidations);
    let before = commands(&fs);
    let mut s = DiskByteStream::open(&mut fs, other).unwrap();
    assert_eq!(commands(&fs), before, "the open went to the disk");
    s.close(&mut fs).unwrap();
    assert_eq!(fs.read_file(edited).unwrap(), vec![2u8; len]);
}

/// A same-length rewrite of a *directory* through a stream is made of
/// ordinary data writes that all verify, yet they change what the name
/// index holds: the directory flag in the serial keeps them from carrying
/// the cache, so the next lookup sees the new entry.
#[test]
fn a_same_length_directory_rewrite_through_a_stream_retires_the_index() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let a = dir::create_named_file(&mut fs, root, "apple.txt").unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "apple.txt").unwrap(), Some(a));
    assert_eq!(dir::lookup(&mut fs, root, "mango.txt").unwrap(), None);

    // Rename the entry in place, same length, straight onto the disk.
    let bytes = fs.read_file(root).unwrap();
    let at = bytes
        .windows(9)
        .position(|w| w == b"apple.txt")
        .expect("the entry's name");
    let mut renamed = bytes.clone();
    renamed[at..at + 9].copy_from_slice(b"mango.txt");
    let mut s = DiskByteStream::open(&mut fs, root).unwrap();
    s.write_bytes(&mut fs, &renamed).unwrap();
    s.close(&mut fs).unwrap();
    assert_eq!(fs.read_file(root).unwrap(), renamed);

    assert_eq!(dir::lookup(&mut fs, root, "mango.txt").unwrap(), Some(a));
    assert_eq!(dir::lookup(&mut fs, root, "apple.txt").unwrap(), None);
}

/// A raw data write through `disk_mut()`, between two of the file
/// system's own, still retires the index: the carry moves the cache's
/// epoch only from the value it held just before the file system's own
/// write, so a write it did not make stays visible. Later answers agree
/// with an uncached scan.
#[test]
fn a_raw_data_write_between_the_file_systems_own_retires_the_index() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "data.dat").unwrap();
    let g = dir::create_named_file(&mut fs, root, "more.dat").unwrap();
    fs.write_file(f, &vec![1u8; 2 * 512]).unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "data.dat").unwrap(), Some(f));

    let page1 = alto::fs::PageName::new(f.fv, 1, fs.open_leader(f).unwrap().0.next);
    fs.write_page(page1, &[3; 256]).unwrap();
    alto::fs::page::write_page(fs.disk_mut(), page1, &[4; 256]).unwrap();
    fs.write_page(page1, &[5; 256]).unwrap();

    let stats = fs.cache_stats();
    assert_eq!(dir::lookup(&mut fs, root, "more.dat").unwrap(), Some(g));
    let after = fs.cache_stats();
    assert_eq!(
        after.name_misses,
        stats.name_misses + 1,
        "served from the index"
    );
    assert!(after.invalidations > stats.invalidations, "nothing retired");

    for name in ["data.dat", "more.dat", "missing"] {
        let warm = dir::lookup(&mut fs, root, name).unwrap();
        fs.set_hint_cache_enabled(false);
        let cold = dir::lookup(&mut fs, root, name).unwrap();
        fs.set_hint_cache_enabled(true);
        assert_eq!(warm, cold, "{name}");
    }
    assert_eq!(&fs.read_file(f).unwrap()[..2], &[0, 5]);
}

/// A leader written as an ordinary page (page 0 through `write_page`, not
/// the leader install) retires the leader cache: the next open reads the
/// leader the disk now holds.
#[test]
fn a_leader_written_as_a_page_retires_the_leader_cache() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "lead.dat").unwrap();
    let mut leader = fs.read_leader(f).unwrap();
    leader.properties[0] = 0x1234;
    fs.write_page(f.leader_page(), &leader.encode()).unwrap();
    assert_eq!(fs.read_leader(f).unwrap().properties[0], 0x1234);
}

/// A write that fails retires the index even when it was the file
/// system's own data write: here a parked page's drain that ends in a hard
/// error. The drive counted the attempt as a write, and a failed entry
/// proves nothing about the sector.
#[test]
fn a_failed_drain_retires_the_index() {
    use alto::disk::FaultKind;
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "park.dat").unwrap();
    let g = dir::create_named_file(&mut fs, root, "watch.dat").unwrap();
    fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
    assert_eq!(dir::lookup(&mut fs, root, "park.dat").unwrap(), Some(f));

    // Byte writes into page 3: page 1 drains with the refill into page 2,
    // and page 2 is left parked.
    let page1 = fs.open_leader(f).unwrap().0.next;
    let page2 = fs
        .read_page(alto::fs::PageName::new(f.fv, 1, page1))
        .unwrap()
        .0
        .next;
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    for _ in 0..2 * 512 + 10 {
        s.put_byte(&mut fs, 9).unwrap();
    }
    fs.disk_mut()
        .injector_mut()
        .arm(page2, FaultKind::NotReady { attempts: 100 });
    assert!(s.flush(&mut fs).is_err(), "the drain must fail");

    let stats = fs.cache_stats();
    assert_eq!(dir::lookup(&mut fs, root, "watch.dat").unwrap(), Some(g));
    let after = fs.cache_stats();
    assert_eq!(
        after.name_misses,
        stats.name_misses + 1,
        "served from the index"
    );
    assert!(after.invalidations > stats.invalidations, "nothing retired");

    fs.disk_mut().injector_mut().disarm(page2);
    s.close(&mut fs).unwrap();
    for name in ["park.dat", "watch.dat"] {
        let warm = dir::lookup(&mut fs, root, name).unwrap();
        fs.set_hint_cache_enabled(false);
        let cold = dir::lookup(&mut fs, root, name).unwrap();
        fs.set_hint_cache_enabled(true);
        assert_eq!(warm, cold, "{name}");
    }
    assert_eq!(
        &fs.read_file(f).unwrap()[..2 * 512 + 10],
        &[9u8; 2 * 512 + 10][..]
    );
}
