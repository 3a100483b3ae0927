//! Timing regression tests: the paper's headline numbers, asserted.
//!
//! `EXPERIMENTS.md` records the exact values; these tests pin the *bands*
//! so a change to the device models or the I/O paths that silently breaks
//! a reproduced claim fails `cargo test`, not just the write-up.

use alto::prelude::*;
use alto_bench::{consecutive_file, filled_fs, fresh_fs, scatter_file};

/// E1 — 64K words through the file system in "about one second".
#[test]
fn e1_band_64k_words_in_about_a_second() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "rate.dat", 256);
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let dt = (clock.now() - t0).as_secs_f64();
    assert!((0.8..1.8).contains(&dt), "64K words took {dt:.2} s");
}

/// Simulated seconds `op` takes on `fs`'s clock.
fn timed(fs: &mut FileSystem<DiskDrive>, op: impl FnOnce(&mut FileSystem<DiskDrive>)) -> f64 {
    let clock = fs.disk().clock().clone();
    let t0 = clock.now();
    op(fs);
    (clock.now() - t0).as_secs_f64()
}

/// E1, stream path — a whole-file `read_bytes` through the §2 disk stream
/// chains its pages end to end, so it moves E1's 64K words no slower than
/// `read_file` does.
#[test]
fn e1_band_stream_read_keeps_up_with_read_file() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = consecutive_file(&mut fs, "rate.dat", 256);
    let file = timed(&mut fs, |fs| {
        fs.read_file(f).unwrap();
    });
    let mut buf = vec![0u8; 256 * 512];
    let stream = timed(&mut fs, |fs| {
        let mut s = DiskByteStream::open(fs, f).unwrap();
        assert_eq!(s.read_bytes(fs, &mut buf).unwrap(), buf.len());
        s.close(fs).unwrap();
    });
    assert!(
        stream <= file,
        "stream read {stream:.3} s vs read_file {file:.3} s"
    );
}

/// E1, stream path — a same-length whole-file `write_bytes` plus `close`
/// overwrites its whole pages without reading them, the last page
/// included, in one chain, so it moves E1's 64K words no slower than
/// `write_file` does.
#[test]
fn e1_band_stream_rewrite_keeps_up_with_write_file() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = consecutive_file(&mut fs, "rate.dat", 256);
    let bytes = vec![0x3Cu8; 256 * 512];
    let file = timed(&mut fs, |fs| fs.write_file(f, &bytes).unwrap());
    let stream = timed(&mut fs, |fs| {
        let mut s = DiskByteStream::open(fs, f).unwrap();
        s.write_bytes(fs, &bytes).unwrap();
        s.close(fs).unwrap();
    });
    assert!(
        stream <= file,
        "stream rewrite {stream:.3} s vs write_file {file:.3} s"
    );
    assert_eq!(fs.read_file(f).unwrap(), bytes);
}

/// A file op right after another file's rewrite: the rewrite is the file
/// system's own verified data writes, so the name index and the leader
/// cache stay warm, and `open` reads no page. Lookup, open and a whole
/// read of a consecutive 64-page file cost exactly two commands: the
/// lookup's leader check and one chain that starts at page 1.
#[test]
fn a_file_op_after_a_rewrite_costs_two_commands() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let read = consecutive_file(&mut fs, "read.dat", 64);
    let edited = consecutive_file(&mut fs, "edited.dat", 8);
    let root = fs.root_dir();
    assert_eq!(dir::lookup(&mut fs, root, "read.dat").unwrap(), Some(read));
    let mut s = DiskByteStream::open(&mut fs, edited).unwrap();
    s.write_bytes(&mut fs, &[0x5Au8; 8 * 512]).unwrap();
    s.close(&mut fs).unwrap();

    let commands = |fs: &FileSystem<DiskDrive>| {
        let s = fs.disk().stats();
        s.ops - s.batched_ops + s.batches
    };
    let before = commands(&fs);
    let mut buf = vec![0u8; 64 * 512];
    let secs = timed(&mut fs, |fs| {
        let f = dir::lookup(fs, root, "read.dat").unwrap().unwrap();
        let mut s = DiskByteStream::open(fs, f).unwrap();
        assert_eq!(s.read_bytes(fs, &mut buf).unwrap(), buf.len());
        s.close(fs).unwrap();
    });
    assert_eq!(commands(&fs) - before, 2, "in {secs:.3} s");
    assert_eq!(buf, vec![0xA5u8; 64 * 512]);
}

/// E2 — scavenging a 2.5 MB disk takes tens of seconds ("about a minute",
/// §3.5). Two sweeps: the full label scan (flat) plus the link-check pass
/// over live sectors (grows mildly with utilization).
#[test]
fn e2_band_scavenge_about_a_minute() {
    let mut times = Vec::new();
    for percent in [10u32, 90] {
        let fs = filled_fs(percent, 42);
        let disk = fs.unmount().unwrap();
        let (_, report) = Scavenger::rebuild(disk).unwrap();
        let secs = report.elapsed.as_secs_f64();
        assert!((15.0..120.0).contains(&secs), "{percent}%: {secs:.1} s");
        times.push(secs);
    }
    // Sub-linear in utilization: the scan is flat; only the link-check
    // pass grows, and it streams.
    assert!(
        times[1] / times[0] < 3.0,
        "90% took {:.1}x the 10% scavenge",
        times[1] / times[0]
    );
}

/// E3 — compaction buys an order of magnitude on scattered files.
#[test]
fn e3_band_compaction_speedup_order_of_magnitude() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "doc.dat", 40);
    scatter_file(&mut fs, f, 77);
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let scattered = clock.now() - t0;
    Compactor::run(&mut fs).unwrap();
    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "doc.dat").unwrap().unwrap();
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let compacted = clock.now() - t0;
    let speedup = scattered.as_nanos() as f64 / compacted.as_nanos() as f64;
    assert!(speedup > 8.0, "speedup only {speedup:.1}x");
}

/// E4 — raw page allocate/free pay the §3.3 label discipline: the check
/// and the write are separate commands, and each command's set-up time
/// makes it miss the next slot, so every allocate/free costs about two
/// revolutions. In-place overwrites, which chain, cost far less per page.
#[test]
fn e4_band_label_discipline_revolutions() {
    use alto::fs::names::{Fv, PageName, SerialNumber};
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let rev = fs.disk().timing().unwrap().revolution().as_nanos() as f64;
    let fv = Fv::new(SerialNumber::new(0x2FFF, false), 1);
    let n = 32u64;

    let t0 = clock.now();
    let mut pages = Vec::new();
    for i in 0..n as u16 {
        let label = Label {
            fid: fv.serial.words(),
            version: 1,
            page_number: i,
            length: 512,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        };
        pages.push((i, fs.allocate_page(None, label, &[0; 256]).unwrap()));
    }
    let alloc_revs = (clock.now() - t0).as_nanos() as f64 / rev / n as f64;
    assert!(
        (1.9..2.6).contains(&alloc_revs),
        "allocate: {alloc_revs:.2} revs/page"
    );

    let t0 = clock.now();
    for (i, da) in &pages {
        fs.free_page(PageName::new(fv, *i, *da)).unwrap();
    }
    let free_revs = (clock.now() - t0).as_nanos() as f64 / rev / n as f64;
    assert!(
        (1.9..2.6).contains(&free_revs),
        "free: {free_revs:.2} revs/page"
    );

    // Ordinary overwrites: well under a revolution per page.
    let f = consecutive_file(&mut fs, "w.dat", 32);
    let t0 = clock.now();
    fs.write_file(f, &vec![9u8; 32 * 512]).unwrap();
    let write_revs = (clock.now() - t0).as_nanos() as f64 / rev / n as f64;
    assert!(write_revs < 0.5, "overwrite: {write_revs:.2} revs/page");
}

/// E6 — a world swap streams in about a second once the state file exists.
#[test]
fn e6_band_world_swap_about_a_second() {
    let mut os = alto::fresh_alto();
    let clock = os.machine.clock().clone();
    let file = os.create_state_file("W.state").unwrap();
    let t0 = clock.now();
    os.out_load(file).unwrap();
    let out = (clock.now() - t0).as_secs_f64();
    let t0 = clock.now();
    os.in_load(file, &[0; MESSAGE_WORDS]).unwrap();
    let inl = (clock.now() - t0).as_secs_f64();
    assert!((0.7..2.5).contains(&out), "OutLoad {out:.2} s");
    assert!((0.7..2.5).contains(&inl), "InLoad {inl:.2} s");
}

/// E10 adjunct — the network is fast relative to the disk: a page-sized
/// packet beats one disk revolution.
#[test]
fn network_page_beats_a_disk_revolution() {
    let clock = SimClock::new();
    let mut ether = Ether::new(clock.clone(), Trace::new());
    ether.attach(1).unwrap();
    ether.attach(2).unwrap();
    let words = vec![0u16; 256];
    let t0 = clock.now();
    alto::net::receive_file(&mut ether, 1, 2, 0x30, 0x31, &words).unwrap();
    let transfer = clock.now() - t0;
    let rev = alto::disk::TimingModel::for_model(DiskModel::Diablo31).revolution();
    assert!(
        transfer < rev,
        "page transfer {transfer} vs revolution {rev}"
    );
}

/// Invariants of the rotational timing model the scheduler builds on.
#[test]
fn disk_timing_model_invariants() {
    use alto::disk::TimingModel;
    for model in [DiskModel::Diablo31, DiskModel::Trident] {
        let t = TimingModel::for_model(model);
        // Seek cost is monotone in distance, and staying put is free.
        assert_eq!(t.seek(0), SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for d in 1..=202 {
            let s = t.seek(d);
            assert!(s >= last, "seek({d}) < seek({})", d - 1);
            last = s;
        }
        // Rotational position is a pure function of time. At a slot
        // boundary, the slot under the head needs no wait; from anywhere,
        // the wait never reaches a full revolution and always lands
        // exactly on the target slot's boundary.
        for k in [0u64, 1, 5, 23, 144] {
            let now = t.sector_time.scaled(k);
            assert_eq!(t.rotational_wait(now, t.slot_at(now)), SimTime::ZERO);
        }
        for ns in [0u64, 1, 12_345_678, 99_999_999] {
            let now = SimTime::from_nanos(ns);
            for target in 0..12u16.min(t.sectors_per_track) {
                let wait = t.rotational_wait(now, target);
                assert!(wait < t.revolution());
                let arrival = now + wait;
                assert_eq!(t.slot_at(arrival), target);
                assert!(arrival.as_nanos().is_multiple_of(t.sector_time.as_nanos()));
            }
        }
    }
}

/// E3 — the scheduler ablation: a 100-page sequential read through the
/// rotational-position-aware scheduler is at least 3× faster than the same
/// read with every sector op issued on its own (each separate command pays
/// the issue overhead and misses the next slot — the pre-chaining Alto
/// behaviour, §4).
#[test]
fn e3_band_scheduled_seq_read_at_least_3x_unscheduled() {
    use alto::disk::UnscheduledDisk;
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "big.dat", 100);
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let scheduled = clock.now() - t0;
    let disk = fs.unmount().unwrap();
    let mut fs = FileSystem::mount(UnscheduledDisk::new(disk)).unwrap();
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let unscheduled = clock.now() - t0;
    assert!(
        unscheduled.as_nanos() >= 3 * scheduled.as_nanos(),
        "scheduled {scheduled} vs unscheduled {unscheduled}: under 3x"
    );
}

/// E2 — the Scavenger's label sweep: one chained batch per cylinder is
/// more than 3× faster than one separately issued `READ_ALL` per sector
/// (the pre-scheduler path).
#[test]
fn e2_band_label_sweep_batched_per_cylinder_over_3x() {
    use alto::disk::{BatchRequest, SectorBuf, SectorOp};
    let mut disk = filled_fs(50, 7).unmount().unwrap();
    let clock = disk.clock().clone();
    let g = disk.geometry().unwrap();
    let total = g.sector_count();
    let per_cyl = (g.heads * g.sectors) as u32;
    let mut live = [0u32; 2];
    let t0 = clock.now();
    let mut cyl_start = 0u32;
    while cyl_start < total {
        let end = (cyl_start + per_cyl).min(total);
        let mut batch: Vec<BatchRequest> = (cyl_start..end)
            .map(|i| {
                BatchRequest::new(
                    DiskAddress(i as u16),
                    SectorOp::READ_ALL,
                    SectorBuf::zeroed(),
                )
            })
            .collect();
        let results = disk.do_batch(&mut batch);
        for (req, r) in batch.iter().zip(results) {
            if r.is_ok() && req.buf.decoded_label().is_in_use() {
                live[0] += 1;
            }
        }
        cyl_start = end;
    }
    let batched = clock.now() - t0;
    let t0 = clock.now();
    for i in 0..total {
        let mut buf = SectorBuf::zeroed();
        if disk
            .do_op(DiskAddress(i as u16), SectorOp::READ_ALL, &mut buf)
            .is_ok()
            && buf.decoded_label().is_in_use()
        {
            live[1] += 1;
        }
    }
    let single = clock.now() - t0;
    assert_eq!(live[0], live[1], "both sweeps must see the same pages");
    assert!(
        single.as_nanos() > 3 * batched.as_nanos(),
        "batched {batched} vs one op at a time {single}: not over 3x"
    );
}

/// A batched track read streams in about a revolution; the same sectors
/// issued one command at a time pay a revolution *each* — the §4 chaining
/// claim, end to end through the drive.
#[test]
fn chained_track_read_beats_unscheduled_by_an_order() {
    use alto::disk::{BatchRequest, SectorBuf, SectorOp};
    let n = 12u64; // one full track
    let batched = {
        let mut d =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        let t0 = d.clock().now();
        let mut batch: Vec<BatchRequest> = (0..n as u16)
            .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        for r in d.do_batch(&mut batch) {
            r.unwrap();
        }
        d.clock().now() - t0
    };
    let unscheduled = {
        let mut d =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        let t0 = d.clock().now();
        for i in 0..n as u16 {
            let mut buf = SectorBuf::zeroed();
            d.do_op(DiskAddress(i), SectorOp::READ_ALL, &mut buf)
                .unwrap();
        }
        d.clock().now() - t0
    };
    let t = alto::disk::TimingModel::for_model(DiskModel::Diablo31);
    assert!(
        batched < t.revolution().scaled(2),
        "batched track read took {batched}"
    );
    assert!(
        unscheduled >= t.revolution().scaled(n),
        "unscheduled track read took only {unscheduled}"
    );
}

/// The CPU model: 800 ns per memory cycle makes instruction timing exact.
#[test]
fn cpu_timing_is_exact() {
    let clock = SimClock::new();
    let mut m = Machine::new(clock.clone(), Trace::new());
    let code = alto::machine::assemble(
        "
        lda 0, k     ; 2 cycles
        add 0, 0     ; 1 cycle
        sta 0, k     ; 2 cycles
        halt         ; 1 cycle
k:      .word 3
        ",
    )
    .unwrap();
    m.load_program(0o400, &code.words).unwrap();
    let t0 = clock.now();
    m.run(100).unwrap();
    let cycles = (clock.now() - t0).as_nanos() / 800;
    assert_eq!(cycles, 6);
}
