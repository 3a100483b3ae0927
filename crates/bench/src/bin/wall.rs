//! Wall-clock benchmark: how fast does the *simulator itself* run?
//!
//! Every other bench in this repository reports simulated time — exact and
//! deterministic. This one reports **host** throughput: operations per
//! wall-clock second, simulated seconds per wall second, and heap
//! allocations per operation, for the workload shapes that dominate
//! the ROADMAP scale scenarios: chained sequential batches at the disk
//! layer (§4 command chaining, the headline before/after trajectory),
//! sequential streaming through the byte-stream and fs layers, random
//! batches, scavenge sweeps, fault campaigns, and a two-arm spanning
//! batch that exercises the overlapped drive timelines.
//!
//! Run with:
//!
//! ```text
//! cargo run -p alto-bench --release --bin wall -- --json BENCH_wall.json
//! ```
//!
//! An operation is a sector operation for the rows that drive the disk
//! layer, and a page moved for the stream rows: a stream call that does
//! its work in fewer sector operations should read as faster, not slower.
//! Each row names its op. Every workload runs the shipping configuration
//! with program tracing gated off.
//!
//! A row's measured time (`--ms`) is split into five windows after one
//! untimed warm-up call, and each window's ops per host second is kept:
//! the row reports the median window as its rate, with the quartiles
//! beside it, so one noisy stretch of a shared host moves a quartile, not
//! the rate, and a parent/change pair shows how far its rows spread. The
//! emitted JSON holds one trajectory point. See `docs/PERFORMANCE.md`.

use std::time::Instant;

use alto_bench::fresh_fs;
use alto_disk::{
    BatchRequest, Disk, DiskAddress, DiskDrive, DiskError, DiskModel, DriveArray, Placement,
    SectorBuf, SectorOp,
};
use alto_fs::dir;
use alto_fs::scavenge::Scavenger;
use alto_fs::{FileSystem, FsError};
use alto_sim::{SimClock, SplitMix64, Trace};
use alto_streams::{DiskByteStream, Stream};

// Counts heap allocations, so the bench can report allocations per sector
// operation.
#[path = "../alloc_count.rs"]
mod alloc_count;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// What a sector-level row counts.
const SECTOR_OP: &str = "sector op";
/// What a stream row counts.
const PAGE_OP: &str = "page";

/// Windows a row's measured time is split into.
const WINDOWS: usize = 5;

/// One measured workload.
struct Measurement {
    workload: &'static str,
    /// What one of `ops` is: [`SECTOR_OP`] or [`PAGE_OP`].
    op: &'static str,
    /// Operations done during the measured window.
    ops: u64,
    /// Wall-clock nanoseconds for the measured window.
    wall_ns: u128,
    /// Simulated nanoseconds elapsed during the measured window.
    sim_ns: u64,
    /// Heap allocation events during the measured window.
    allocs: u64,
    /// Operations per wall-clock second in each of the [`WINDOWS`]
    /// windows, ascending.
    window_rates: [f64; WINDOWS],
}

impl Measurement {
    /// The median window's operations per wall-clock second.
    fn ops_per_sec(&self) -> f64 {
        self.window_rates[WINDOWS / 2]
    }
    /// The lower quartile of the windows' rates: with five windows, the
    /// second slowest (the inclusive method's quartile).
    fn ops_per_sec_q1(&self) -> f64 {
        self.window_rates[1]
    }
    /// The upper quartile: the second fastest window.
    fn ops_per_sec_q3(&self) -> f64 {
        self.window_rates[WINDOWS - 2]
    }
    /// Simulated seconds that pass per wall-clock second.
    fn sim_per_wall(&self) -> f64 {
        self.sim_ns as f64 / self.wall_ns as f64
    }
    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}

/// Runs `f` until it has consumed at least `min_wall_ms` of wall time, in
/// [`WINDOWS`] windows of equal length, then returns the measurement. `f`
/// must return the number of sector operations it did (its workload is
/// fixed per call).
fn measure(
    workload: &'static str,
    clock: &SimClock,
    min_wall_ms: u64,
    f: impl FnMut() -> u64,
) -> Measurement {
    measure_in(workload, SECTOR_OP, clock, min_wall_ms, f)
}

/// [`measure`] for a workload whose `f` returns how many `op`s it did.
fn measure_in(
    workload: &'static str,
    op: &'static str,
    clock: &SimClock,
    min_wall_ms: u64,
    mut f: impl FnMut() -> u64,
) -> Measurement {
    // Warmup: one call, untimed (fills caches and scratch vectors).
    f();
    let window_ms = min_wall_ms.div_ceil(WINDOWS as u64);
    let allocs0 = alloc_count::allocs();
    let sim0 = clock.now();
    let (mut ops, mut wall_ns) = (0u64, 0u128);
    let mut window_rates = [0.0; WINDOWS];
    for rate in &mut window_rates {
        let wall0 = Instant::now();
        let mut window_ops = 0u64;
        let elapsed = loop {
            window_ops += std::hint::black_box(f());
            let elapsed = wall0.elapsed();
            if elapsed.as_millis() as u64 >= window_ms {
                break elapsed;
            }
        };
        *rate = window_ops as f64 / elapsed.as_secs_f64();
        ops += window_ops;
        wall_ns += elapsed.as_nanos();
    }
    window_rates.sort_by(f64::total_cmp);
    Measurement {
        workload,
        op,
        ops,
        wall_ns,
        sim_ns: (clock.now() - sim0).as_nanos(),
        allocs: alloc_count::allocs() - allocs0,
        window_rates,
    }
}

const PAGES: usize = 100;
const FILE_BYTES: usize = PAGES * 512;

/// Sectors per chained batch in the disk-layer sequential workloads: most
/// of a pack in one command chain, large enough that per-batch planning
/// cost shows up as per-op cost.
const SEQ_BATCH: u16 = 4096;

/// Chained sequential read of [`SEQ_BATCH`] consecutive sectors in one
/// batch at the disk layer, folding a checksum over every delivered data
/// word — the §4 command-chaining shape underneath every streaming
/// workload, and the headline workload for the host-throughput trajectory.
/// The sectors are consumed through zero-copy views (`do_batch_read`).
fn seq_read(min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let mut drive =
        DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
    trace.set_enabled(false);
    let das: Vec<DiskAddress> = (0..SEQ_BATCH).map(DiskAddress).collect();
    let fold = |data: &[u16; 256]| {
        let mut s = 0u16;
        for &w in data {
            s ^= w;
        }
        s
    };
    measure("seq_read", &clock, min_wall_ms, || {
        let before = drive.io_stats().ops;
        let mut sum = 0u16;
        let results = drive.do_batch_read(&das, |_, v| sum ^= fold(v.data()));
        for r in &results {
            assert!(r.is_ok());
        }
        alto_disk::pool::recycle_results(results);
        std::hint::black_box(sum);
        drive.io_stats().ops - before
    })
}

/// Chained sequential §3.3 write (check header and label, write data) of
/// [`SEQ_BATCH`] consecutive sectors in one batch. The all-zero memory
/// words pattern-match whatever the labels hold, so the workload is
/// repeatable while still paying the full check-before-write path.
fn seq_write(min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let mut drive =
        DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
    trace.set_enabled(false);
    let mut batch: Vec<BatchRequest> = (0..SEQ_BATCH)
        .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::WRITE, SectorBuf::zeroed()))
        .collect();
    measure("seq_write", &clock, min_wall_ms, || {
        let before = drive.io_stats().ops;
        for r in drive.do_batch(&mut batch) {
            assert!(r.is_ok());
        }
        drive.io_stats().ops - before
    })
}

/// Sequential stream read of a 100-page file into a reusable buffer; an op
/// is a page read.
fn stream_read(min_wall_ms: u64) -> Measurement {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "seq.dat").expect("create");
    fs.write_file(f, &vec![0xA5u8; FILE_BYTES]).expect("write");
    let clock = fs.disk().clock().clone();
    let mut buf = vec![0u8; FILE_BYTES];
    measure_in("stream_read", PAGE_OP, &clock, min_wall_ms, || {
        let mut s = DiskByteStream::open(&mut fs, f).expect("open");
        let n = s.read_bytes(&mut fs, &mut buf).expect("read");
        assert_eq!(n, FILE_BYTES);
        PAGES as u64
    })
}

/// Sequential stream overwrite of a 100-page file (write-behind on); an op
/// is a page written.
fn stream_write(min_wall_ms: u64) -> Measurement {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "seq.dat").expect("create");
    fs.write_file(f, &vec![0xA5u8; FILE_BYTES]).expect("write");
    let clock = fs.disk().clock().clone();
    let bytes = vec![0x5Au8; FILE_BYTES];
    measure_in("stream_write", PAGE_OP, &clock, min_wall_ms, || {
        let mut s = DiskByteStream::open(&mut fs, f).expect("open");
        s.write_bytes(&mut fs, &bytes).expect("write");
        s.close(&mut fs).expect("close");
        PAGES as u64
    })
}

/// Random 16-request read batches over a populated pack.
fn random_batch(min_wall_ms: u64) -> Measurement {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    for i in 0..8 {
        let f = dir::create_named_file(&mut fs, root, &format!("r{i}.dat")).expect("create");
        fs.write_file(f, &vec![i as u8; 50 * 512]).expect("write");
    }
    let clock = fs.disk().clock().clone();
    let sectors = fs.disk().geometry().expect("geometry").sector_count() as u64;
    let mut rng = SplitMix64::new(0xBA7C4);
    measure("random_batch", &clock, min_wall_ms, || {
        let before = fs.disk().io_stats().ops;
        let das: Vec<DiskAddress> = (0..16)
            .map(|_| DiskAddress((rng.next_u64() % sectors) as u16))
            .collect();
        let results = alto_fs::page::read_raw_batch(fs.disk_mut(), &das);
        std::hint::black_box(&results);
        fs.disk().io_stats().ops - before
    })
}

/// A full scavenger sweep over a populated pack.
fn scavenge(min_wall_ms: u64) -> Measurement {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    for i in 0..10 {
        let f = dir::create_named_file(&mut fs, root, &format!("s{i}.dat")).expect("create");
        fs.write_file(f, &vec![i as u8; 40 * 512]).expect("write");
    }
    let clock = fs.disk().clock().clone();
    measure("scavenge", &clock, min_wall_ms, || {
        let before = fs.disk().io_stats().ops;
        let report = Scavenger::run(&mut fs).expect("scavenge");
        std::hint::black_box(&report);
        fs.disk().io_stats().ops - before
    })
}

/// Rewrite campaign under a 1e-3 transient fault rate with bounded retry.
fn campaign(min_wall_ms: u64) -> Measurement {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "c.dat").expect("create");
    let bytes = vec![0xC3u8; 20 * 512];
    fs.write_file(f, &bytes).expect("write");
    fs.disk_mut().injector_mut().set_campaign(0xFA17, 1, 1000);
    let clock = fs.disk().clock().clone();
    measure("campaign", &clock, min_wall_ms, || {
        let before = fs.disk().io_stats().ops;
        // A fault the campaign rolls again inside a retry window can
        // outlast the bounded budget. The rewrite then fails with a hard
        // error, as bounded retry means it to, and the next one goes on.
        match fs.write_file(f, &bytes) {
            Ok(()) | Err(FsError::Disk(DiskError::HardError { .. })) => {}
            Err(e) => panic!("campaign write: {e}"),
        }
        fs.disk().io_stats().ops - before
    })
}

/// A 96-request batch spanning both arms of a two-arm Range array (the
/// §2 two-drive layout) — 48 requests per arm, served on overlapped
/// timelines.
fn dual_batch(min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let mut dual = DriveArray::with_arms(
        2,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    trace.set_enabled(false);
    let per = DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 9)
        .geometry()
        .expect("geometry")
        .sector_count() as u16;
    let mut rng = SplitMix64::new(0xD0A1);
    measure("dual_batch", &clock, min_wall_ms, || {
        let before = dual.io_stats().ops;
        let mut batch: Vec<BatchRequest> = (0..96)
            .map(|i| {
                let local = (rng.next_u64() % per as u64) as u16;
                let da = if i % 2 == 0 { local } else { per + local };
                BatchRequest::new(DiskAddress(da), SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let results = dual.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok());
        }
        dual.io_stats().ops - before
    })
}

/// Random read batches through a *mixed-geometry* two-arm array — one
/// Diablo 31 plus one Trident under range placement, the composite-shape
/// fallback path (the capacities do not stack evenly in this order, so the
/// presented geometry degenerates to one sector per track). Addresses span
/// the full global space, so every batch straddles the arm seam and the
/// split/translate/reassemble path runs on both drives each iteration.
fn array_mixed(min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let d0 = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Trident, 1);
    let d1 = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 2);
    let mut arr = DriveArray::new(vec![d0, d1], Placement::Range).expect("mixed range array");
    trace.set_enabled(false);
    let total = arr.geometry().expect("geometry").sector_count() as u64;
    let mut rng = SplitMix64::new(0xD1AB10);
    measure("array_mixed", &clock, min_wall_ms, || {
        let before = arr.io_stats().ops;
        let mut batch: Vec<BatchRequest> = (0..ARRAY_RANDOM_BATCH)
            .map(|_| {
                let da = DiskAddress((rng.next_u64() % total) as u16);
                BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok());
        }
        alto_disk::pool::recycle_results(results);
        arr.io_stats().ops - before
    })
}

/// Arm counts measured by the drive-array workloads. `k = 1` is the
/// single-arm control every K-scaling ratio in `docs/PERFORMANCE.md` is
/// quoted against.
const ARRAY_KS: [usize; 4] = [1, 2, 4, 8];

/// Requests per array batch in `array_random` — large enough that every
/// arm of the widest array still receives a schedulable share.
const ARRAY_RANDOM_BATCH: usize = 256;

fn array_workload_name(shape: &str, k: usize) -> &'static str {
    match (shape, k) {
        ("seq", 1) => "array_seq_k1",
        ("seq", 2) => "array_seq_k2",
        ("seq", 4) => "array_seq_k4",
        ("seq", 8) => "array_seq_k8",
        ("random", 1) => "array_random_k1",
        ("random", 2) => "array_random_k2",
        ("random", 4) => "array_random_k4",
        ("random", 8) => "array_random_k8",
        ("scavenge", 1) => "array_scavenge_k1",
        ("scavenge", 2) => "array_scavenge_k2",
        ("scavenge", 4) => "array_scavenge_k4",
        ("scavenge", 8) => "array_scavenge_k8",
        _ => unreachable!("unmeasured array workload shape"),
    }
}

/// Chained sequential read of [`SEQ_BATCH`] consecutive *global* sectors
/// through a K-arm [`DriveArray`] under hash placement: consecutive
/// addresses interleave across all arms, so one sequential chain becomes K
/// overlapped per-arm chains and the batch elapses in max-of-arms
/// simulated time. `k = 1` degenerates to a single drive — the control the
/// K× simulated-time ratios are measured against.
fn array_seq(k: usize, min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let mut arr = DriveArray::with_arms(
        k,
        Placement::Hash,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    trace.set_enabled(false);
    let mut batch: Vec<BatchRequest> = (0..SEQ_BATCH)
        .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::READ_ALL, SectorBuf::zeroed()))
        .collect();
    measure(array_workload_name("seq", k), &clock, min_wall_ms, || {
        let before = arr.io_stats().ops;
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok());
        }
        alto_disk::pool::recycle_results(results);
        arr.io_stats().ops - before
    })
}

/// Random [`ARRAY_RANDOM_BATCH`]-request read batches over the whole K-arm
/// global address space (hash placement). Random addresses scatter across
/// the arms on their own; the scheduler sorts each arm's share and the
/// timelines overlap.
fn array_random(k: usize, min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let mut arr = DriveArray::with_arms(
        k,
        Placement::Hash,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    trace.set_enabled(false);
    let total = arr.geometry().expect("geometry").sector_count() as u64;
    let mut rng = SplitMix64::new(0xA44A1);
    measure(
        array_workload_name("random", k),
        &clock,
        min_wall_ms,
        || {
            let before = arr.io_stats().ops;
            let mut batch: Vec<BatchRequest> = (0..ARRAY_RANDOM_BATCH)
                .map(|_| {
                    let da = DiskAddress((rng.next_u64() % total) as u16);
                    BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
                })
                .collect();
            let results = arr.do_batch(&mut batch);
            for r in &results {
                assert!(r.is_ok());
            }
            alto_disk::pool::recycle_results(results);
            arr.io_stats().ops - before
        },
    )
}

/// A full scavenger sweep over a populated K-pack array (range placement,
/// the file-system layout): phase 1 and phase 3 read every pack's sectors
/// in interleaved per-arm batches, so the K sweeps ride overlapped
/// timelines.
fn array_scavenge(k: usize, min_wall_ms: u64) -> Measurement {
    let clock = SimClock::new();
    let trace = Trace::new();
    let arr = DriveArray::with_arms(
        k,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    trace.set_enabled(false);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    for i in 0..10 {
        let f = dir::create_named_file(&mut fs, root, &format!("a{i}.dat")).expect("create");
        fs.write_file(f, &vec![i as u8; 40 * 512]).expect("write");
    }
    measure(
        array_workload_name("scavenge", k),
        &clock,
        min_wall_ms,
        || {
            let before = fs.disk().io_stats().ops;
            let report = Scavenger::run(&mut fs).expect("scavenge");
            std::hint::black_box(&report);
            fs.disk().io_stats().ops - before
        },
    )
}

/// A flat workload: one measurement.
type FlatWorkload = fn(u64) -> Measurement;
/// An array workload: one measurement per arm count.
type ArrayWorkload = fn(usize, u64) -> Measurement;

fn run_all(min_wall_ms: u64, only: Option<&str>) -> Vec<Measurement> {
    let keep = |name: &str| only.is_none_or(|pat| name.contains(pat));
    let flat: [(&str, FlatWorkload); 9] = [
        ("seq_read", seq_read),
        ("seq_write", seq_write),
        ("stream_read", stream_read),
        ("stream_write", stream_write),
        ("random_batch", random_batch),
        ("scavenge", scavenge),
        ("campaign", campaign),
        ("dual_batch", dual_batch),
        ("array_mixed", array_mixed),
    ];
    let mut rows = Vec::new();
    for (name, f) in flat {
        if keep(name) {
            rows.push(f(min_wall_ms));
        }
    }
    let arrays: [(&str, ArrayWorkload); 3] = [
        ("seq", array_seq),
        ("random", array_random),
        ("scavenge", array_scavenge),
    ];
    for (shape, f) in arrays {
        for k in ARRAY_KS {
            if keep(array_workload_name(shape, k)) {
                rows.push(f(k, min_wall_ms));
            }
        }
    }
    rows
}

fn print_point(rows: &[Measurement]) {
    println!("\n== wall-clock throughput");
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "workload",
        "op",
        "ops/s q1",
        "ops/s median",
        "ops/s q3",
        "sim-s/wall-s",
        "allocs/op",
        "ops"
    );
    for m in rows {
        println!(
            "{:<14} {:>10} {:>14.0} {:>14.0} {:>14.0} {:>14.1} {:>12.3} {:>12}",
            m.workload,
            m.op,
            m.ops_per_sec_q1(),
            m.ops_per_sec(),
            m.ops_per_sec_q3(),
            m.sim_per_wall(),
            m.allocs_per_op(),
            m.ops
        );
    }
}

fn json_point(rows: &[Measurement]) -> String {
    // The point keeps the `config` key of the historic points in
    // `BENCH_wall.json`, so the trajectory reads as one series. Historic
    // rows count sector operations under `sector_ops_per_sec`; these name
    // their op. `ops_per_sec` is the median window's rate, and the
    // quartiles of the windows' rates stand beside it.
    let mut out = "    {\n      \"config\": \"optimized\",\n".to_string();
    out.push_str("      \"workloads\": {\n");
    let inner: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "        \"{}\": {{ \"op\": \"{}\", \"ops_per_sec\": {:.1}, \"ops_per_sec_q1\": {:.1}, \"ops_per_sec_q3\": {:.1}, \"sim_sec_per_wall_sec\": {:.2}, \"allocs_per_op\": {:.4}, \"ops\": {}, \"wall_ns\": {}, \"sim_ns\": {} }}",
                m.workload,
                m.op,
                m.ops_per_sec(),
                m.ops_per_sec_q1(),
                m.ops_per_sec_q3(),
                m.sim_per_wall(),
                m.allocs_per_op(),
                m.ops,
                m.wall_ns,
                m.sim_ns
            )
        })
        .collect();
    out.push_str(&inner.join(",\n"));
    out.push_str("\n      }\n    }");
    out
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut min_wall_ms = 300u64;
    let mut only: Option<String> = None;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(raw.next().unwrap_or_else(|| "BENCH_wall.json".to_string()));
            }
            "--ms" => {
                min_wall_ms = raw
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(min_wall_ms);
            }
            "--only" => {
                only = raw.next();
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: wall [--json PATH] [--ms N] [--only SUBSTR]"
                );
                std::process::exit(2);
            }
        }
    }
    // `--only SUBSTR` runs just the matching workloads — for quick A/B
    // sampling of one shape on a noisy host. Workloads are mutually
    // independent (each builds its own drive and file system), so skipping
    // the rest changes nothing about the ones measured.
    let rows = run_all(min_wall_ms, only.as_deref());
    print_point(&rows);
    // Simulated-time K-scaling of the drive-array workloads: sim-ns per
    // sector op, single-arm control divided by the K-arm figure.
    let sim_per_op = |name: &str| {
        rows.iter()
            .find(|m| m.workload == name)
            .map(|m| m.sim_ns as f64 / m.ops.max(1) as f64)
    };
    println!("\n== drive-array simulated-time scaling (vs one arm)");
    for shape in ["seq", "random", "scavenge"] {
        let base = sim_per_op(array_workload_name(shape, 1)).unwrap_or(f64::NAN);
        let mut line = format!("array_{shape:<9}");
        for k in ARRAY_KS {
            let v = sim_per_op(array_workload_name(shape, k)).unwrap_or(f64::NAN);
            line.push_str(&format!("  k{k}: {:>5.2}x", base / v));
        }
        println!("{line}");
    }
    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"wall\",\n  \"unit\": \"ops per wall-clock second; each row names its op\",\n  \"points\": [\n{}\n  ]\n}}\n",
            json_point(&rows)
        );
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
