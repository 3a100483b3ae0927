//! The double-run determinism harness.
//!
//! The simulator's core promise is that simulated time and every observable
//! it derives — trace streams, served bytes, scavenge verdicts — are a pure
//! function of the workload: bit-identical run to run, with the shadow
//! auditor armed or not. The static side of that promise is
//! `cargo xtask analyze` (no hash-order iteration, no host threads, no
//! undisciplined clocks); this module is the runtime side.
//!
//! Each workload is executed **three times**: a run, a repeat, and an
//! audited run. Every leg sets the auditor explicitly, so the comparison
//! holds whatever `ALTO_AUDIT` says. The repeat catches in-process
//! nondeterminism (every `HashMap` draws fresh hasher keys per instance, so
//! hash-order leaks diverge even within one process); the audited leg
//! catches any way the auditor could move the simulation, and must record
//! no violation. All three runs must produce the same [`RunDigest`]: a fold
//! of the full trace stream, a fold of every data word the workload
//! observed, and the final simulated elapsed time.

use alto_disk::{
    BatchRequest, Disk, DiskAddress, DiskModel, DriveArray, Placement, SectorBuf, SectorOp,
};
use alto_fs::{dir, FileSystem, Scavenger};
use alto_net::{ClientConfig, ClientFleet, Ether, PageServer, PAGE_SERVICE_SOCKET};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, SplitMix64, Trace};

/// FNV-1a over everything a run observes.
#[derive(Debug, Clone, Copy)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub fn word(&mut self, w: u16) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[u16]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The observables one run produces. Two runs of the same workload must
/// compare equal on every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Fold of every trace event (time, tag, detail), in stream order.
    pub trace: u64,
    /// Fold of every data word the workload observed (sector reads, served
    /// pages, scavenge verdicts).
    pub data: u64,
    /// Simulated time elapsed over the run, in nanoseconds.
    pub sim_ns: u64,
}

fn digest_trace(trace: &Trace) -> u64 {
    let mut f = Fold::default();
    for ev in trace.events() {
        f.u64(ev.at.as_nanos());
        f.bytes(ev.tag.as_bytes());
        f.bytes(ev.detail.as_bytes());
    }
    f.value()
}

/// One workload's three runs.
#[derive(Debug)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub run: RunDigest,
    pub repeat: RunDigest,
    pub audited: RunDigest,
}

impl WorkloadReport {
    pub fn identical(&self) -> bool {
        self.run == self.repeat && self.run == self.audited
    }

    /// A compact one-line summary, flagging the first divergence if any.
    pub fn describe(&self) -> String {
        if self.identical() {
            format!(
                "{:<16} ok  trace {:016x}  data {:016x}  sim {} ns",
                self.name, self.run.trace, self.run.data, self.run.sim_ns
            )
        } else {
            format!(
                "{:<16} DIVERGED  run {:?}  repeat {:?}  audited {:?}",
                self.name, self.run, self.repeat, self.audited
            )
        }
    }

    pub fn json(&self) -> String {
        format!(
            "    {{ \"workload\": \"{}\", \"identical\": {}, \"trace\": \"{:016x}\", \"data\": \"{:016x}\", \"sim_ns\": {} }}",
            self.name,
            self.identical(),
            self.run.trace,
            self.run.data,
            self.run.sim_ns
        )
    }
}

/// Runs `f` with the auditor off, off again, and armed (`f`'s argument).
pub fn triple_run(name: &'static str, f: impl Fn(bool) -> RunDigest) -> WorkloadReport {
    WorkloadReport {
        name,
        run: f(false),
        repeat: f(false),
        audited: f(true),
    }
}

/// Requests per array batch; the digests in EXPERIMENTS.md E12 were taken
/// with this shape.
const ARRAY_BATCH: u16 = 1024;
const ARRAY_ROUNDS: usize = 12;

/// Panics if the auditor recorded a §3.3 violation against `disk` (an
/// unaudited disk has none).
fn assert_audit_clean(disk: &impl Disk) {
    assert_eq!(disk.audit_violations(), 0, "audit violations recorded");
}

fn array(k: usize, placement: Placement, audit: bool) -> (SimClock, Trace, DriveArray) {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(true);
    let mut arr = DriveArray::with_arms(
        k,
        placement,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    arr.set_audit_enabled(audit);
    (clock, trace, arr)
}

/// Chained sequential reads across all K arms (hash placement interleaves
/// consecutive addresses onto every arm).
pub fn array_seq(k: usize, audit: bool) -> RunDigest {
    let (clock, trace, mut arr) = array(k, Placement::Hash, audit);
    let mut data = Fold::default();
    for _ in 0..ARRAY_ROUNDS {
        let mut batch: Vec<BatchRequest> = (0..ARRAY_BATCH)
            .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok(), "array_seq read failed: {r:?}");
        }
        alto_disk::pool::recycle_results(results);
        for req in &batch {
            data.words(&req.buf.data);
        }
    }
    assert_audit_clean(&arr);
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// Seeded-random read batches over the whole K-arm address space.
pub fn array_random(k: usize, audit: bool) -> RunDigest {
    let (clock, trace, mut arr) = array(k, Placement::Hash, audit);
    let total = arr.geometry().expect("geometry").sector_count() as u64;
    let mut rng = SplitMix64::new(0xDE7E);
    let mut data = Fold::default();
    for _ in 0..ARRAY_ROUNDS {
        let mut batch: Vec<BatchRequest> = (0..ARRAY_BATCH)
            .map(|_| {
                let da = DiskAddress((rng.next_u64() % total) as u16);
                BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok(), "array_random read failed: {r:?}");
        }
        alto_disk::pool::recycle_results(results);
        for req in &batch {
            data.words(&req.buf.data);
        }
    }
    assert_audit_clean(&arr);
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// Populate a K-pack file system, then run a full scavenger rebuild —
/// phases 1 and 3 sweep every pack in interleaved per-arm batches.
pub fn array_scavenge(k: usize, audit: bool) -> RunDigest {
    let (clock, trace, arr) = array(k, Placement::Range, audit);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    for i in 0..12 {
        let f = dir::create_named_file(&mut fs, root, &format!("det-{i}.dat")).expect("create");
        fs.write_file(f, &vec![(i * 17 % 251) as u8; (i + 3) * 512 - 9])
            .expect("write");
    }
    let disk = fs.unmount().expect("unmount");
    let (mut fs, report) = Scavenger::rebuild(disk).expect("scavenge");
    let mut data = Fold::default();
    data.u64(u64::from(report.sectors_scanned));
    data.u64(u64::from(report.live_pages));
    data.u64(u64::from(report.free_pages));
    data.u64(u64::from(report.links_repaired));
    let root = fs.root_dir();
    for i in 0..12 {
        let f = dir::lookup(&mut fs, root, &format!("det-{i}.dat"))
            .expect("lookup")
            .expect("present");
        data.bytes(&fs.read_file(f).expect("read back"));
    }
    assert_audit_clean(fs.disk());
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// One server tick of a fleet round: how long it took and what it
/// answered, from the server's counters.
#[derive(Debug, Clone, Copy)]
pub struct ServerTick {
    /// Simulated time the tick took.
    pub elapsed: SimTime,
    /// Opens answered.
    pub opens: u64,
    /// Page replies sent.
    pub served: u64,
    /// Error replies sent.
    pub errors: u64,
}

/// What a fleet round spent its simulated time on, for the timing pins.
#[derive(Debug, Clone, Default)]
pub struct FleetTiming {
    /// From the fleet's first tick until its last client finished.
    pub elapsed: SimTime,
    /// Pages served.
    pub served: u64,
    /// Every server tick, in order.
    pub ticks: Vec<ServerTick>,
    /// Each arm's busy time over the round: its seek, rotational wait,
    /// transfer and command set-up time.
    pub arm_busy: Vec<SimTime>,
}

/// A full scripted-fleet server round: `clients` diskless clients open and
/// page in files served by a `PageServer` over a K-arm Trident store. The
/// data digest folds the fleet's order-independent served-word digest with
/// the server's counters, so a lost, reordered, or double-served page
/// diverges it.
pub fn server_round(clients: usize, drives: usize, audit: bool) -> RunDigest {
    server_round_timed(clients, drives, audit).0
}

/// [`server_round`], also reporting where the round's simulated time went.
pub fn server_round_timed(clients: usize, drives: usize, audit: bool) -> (RunDigest, FleetTiming) {
    const FILES: usize = 16;
    const PAGES: u16 = 8;
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(true);
    let mut arr = DriveArray::with_arms(
        drives,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Trident,
    );
    arr.set_audit_enabled(audit);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    let names: Vec<String> = (0..FILES).map(|f| format!("det{f}.dat")).collect();
    let bytes = vec![0x5Eu8; PAGES as usize * 512 - 64];
    for name in &names {
        let file = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(file, &bytes).expect("write");
    }

    let mut ether = Ether::new(clock.clone(), trace.clone());
    ether.attach(1).expect("server host");
    let mut server = PageServer::new(1);
    let cfg = ClientConfig::new(1, PAGE_SERVICE_SOCKET);
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, clients, |i| names[i % FILES].clone()).expect("fleet");
    let busy = |fs: &FileSystem<DriveArray>| -> Vec<SimTime> {
        (0..drives)
            .map(|k| fs.disk().arm(k).stats().busy_time())
            .collect()
    };
    let busy0 = busy(&fs);
    let mut timing = FleetTiming::default();
    let start = clock.now();
    let mut service = FsPageService::new(&mut fs);
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let (t0, before) = (clock.now(), server.stats);
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        let after = server.stats;
        timing.ticks.push(ServerTick {
            elapsed: clock.now() - t0,
            opens: after.opens - before.opens,
            served: after.served - before.served,
            errors: after.errors - before.errors,
        });
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
    }
    timing.elapsed = clock.now() - start;
    timing.served = server.stats.served;
    timing.arm_busy = busy(&fs)
        .iter()
        .zip(&busy0)
        .map(|(&after, &before)| after - before)
        .collect();
    let mut data = Fold::default();
    data.u64(fleet.digest());
    data.u64(server.stats.served);
    data.u64(server.stats.errors);
    data.u64(server.stats.send_failures);
    assert_audit_clean(fs.disk());
    let digest = RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    };
    (digest, timing)
}

/// The standard suite: every `array_*` wall workload shape plus a fleet
/// round, each triple-run. `clients` sizes the fleet (the CI harness uses
/// 1000; the in-tree regression test uses a smaller fleet to stay fast).
pub fn standard_suite(k: usize, clients: usize) -> Vec<WorkloadReport> {
    vec![
        triple_run("array_seq", |t| array_seq(k, t)),
        triple_run("array_random", |t| array_random(k, t)),
        triple_run("array_scavenge", |t| array_scavenge(k, t)),
        triple_run("server_round", |t| server_round(clients, k, t)),
    ]
}
