//! The four workloads. Every input (file sizes and contents, which client
//! reads which file, the edit sequence, the loss pattern) is drawn from the
//! seed; the program only ever sees the generated inputs. Each workload
//! checks what it observed against what the seed says it must see.

use std::time::Instant;

use alto_disk::{Disk, DiskDrive, DiskModel, DriveArray, DriveStats, Placement, DATA_WORDS};
use alto_fs::file::PAGE_BYTES;
use alto_fs::{dir, CacheStats, FileSystem, ScavengeReport, Scavenger};
use alto_net::{
    ClientConfig, ClientFleet, ClientPhase, Ether, PageServer, ServerStats, PAGE_SERVICE_SOCKET,
};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, SplitMix64, Trace};
use alto_streams::{DiskByteStream, Stream};

use crate::probe::{DiskCalls, DiskInfo, Layer, Probe, StoreCalls, TimedStore, Totals};
use crate::stats::Histogram;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeFleet,
    ServePaging,
    FileEdit,
    ScavengeArray,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeFleet,
        Workload::ServePaging,
        Workload::FileEdit,
        Workload::ScavengeArray,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFleet => "serve_fleet",
            Workload::ServePaging => "serve_paging",
            Workload::FileEdit => "file_edit",
            Workload::ScavengeArray => "scavenge_array",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What an op is, for the reports.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ServeFleet | Workload::ServePaging => "page delivered to a client",
            Workload::FileEdit => "page streamed",
            Workload::ScavengeArray => "sector scanned",
        }
    }

    /// The inputs and fixed work of a measured run.
    pub fn shape(self) -> Shape {
        match self {
            // §5.2's boot storm: 1000 diskless clients with 8 requests
            // each outstanding share 32 files, so every tick's batch holds
            // ~8,000 requests for ~256 distinct pages — cross-client
            // chaining, the address sort and the hints all work.
            Workload::ServeFleet => Shape {
                files: 32,
                pages: (64, 64),
                jitter: 0,
                clients: 1000,
                window: 8,
                loss: 0,
                ops_per_round: 0,
                prefix_rounds: 120,
            },
            // The light-load end of the latency curve: one outstanding
            // page fault per client, no shared pages, 1-in-100 loss, so
            // per-request cost, retransmission and idle waits dominate.
            Workload::ServePaging => Shape {
                files: 64,
                pages: (32, 255),
                jitter: 0,
                clients: 64,
                window: 1,
                loss: 100,
                ops_per_round: 0,
                prefix_rounds: 600,
            },
            // The workstation's primary use: look a file up, open it,
            // read it whole (70%) or rewrite it in place (30%).
            Workload::FileEdit => Shape {
                files: 48,
                pages: (1, 128),
                jitter: 0,
                clients: 0,
                window: 0,
                loss: 0,
                ops_per_round: 100,
                prefix_rounds: 2000,
            },
            // §3.5 recovery, swept again and again over a half-full
            // four-arm array.
            Workload::ScavengeArray => Shape {
                files: 150,
                pages: (1, 128),
                jitter: 2,
                clients: 0,
                window: 0,
                loss: 0,
                ops_per_round: 0,
                prefix_rounds: 1000,
            },
        }
    }
}

/// The inputs and fixed work of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Files on the disk.
    pub files: usize,
    /// File sizes in data pages spread over `pages.0 ..= pages.1`...
    pub pages: (u16, u16),
    /// ...each moved by up to this many pages by the seed.
    pub jitter: u16,
    /// Page-service clients per round, and each one's request window.
    pub clients: usize,
    pub window: usize,
    /// One packet in `loss` is lost; 0 is a lossless ether.
    pub loss: u64,
    /// File operations per round (`file_edit`).
    pub ops_per_round: usize,
    /// Rounds whose simulated results are reported. Fixed, so that the
    /// simulated metrics of a seed repeat exactly; the wall-clock metrics
    /// cover every round of the timed window.
    pub prefix_rounds: u64,
}

/// How long to set up and to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Host seconds the measured phase lasts at least.
    pub seconds: f64,
    /// Host seconds spent setting up again and again (at least once);
    /// only the last set-up is measured.
    pub setup_seconds: f64,
}

/// What a span of rounds observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub rounds: u64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sim_ns: u64,
    pub wall_ns: u64,
    /// Heap allocations made.
    pub allocs: u64,
    /// Ops per host second, one value per round.
    pub rates: Vec<f64>,
    pub latency: Histogram,
    /// Fold of every latency sample in order.
    pub lat_fold: u64,
    /// Fold of what the workload observed: client digests, file reads,
    /// scavenge reports.
    pub data_fold: u64,
}

/// Raw counters behind the per-layer metrics, over the prefix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub drive_before: DriveStats,
    pub drive_after: DriveStats,
    pub threaded_batches: u64,
    pub disk_calls: DiskCalls,
    pub store: StoreCalls,
    pub fast_served: u64,
    pub slow_served: u64,
    pub server: ServerStats,
    pub retransmits: u64,
    pub duplicates: u64,
    pub ether_sent: u64,
    pub ether_lost: u64,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    pub repairs: u64,
}

/// One measured run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds of each set-up (format, populate, warm-up round).
    pub setup_s: Vec<f64>,
    /// The fixed prefix of rounds: simulated metrics and latency.
    pub prefix: Phase,
    /// Every round: wall-clock rate, attempted and failed ops.
    pub all: Phase,
    pub counts: Counts,
    /// Per-layer totals of the traced prefix (zero when untraced).
    pub layers: Totals,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

/// One round's results.
#[derive(Debug, Default)]
struct Round {
    ops: u64,
    attempted: u64,
    failed: u64,
    data: u64,
}

fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A generator for one purpose within a seed's run.
fn stream(seed: u64, purpose: u64, index: u64) -> SplitMix64 {
    let a = SplitMix64::new(seed ^ purpose.rotate_left(32)).next_u64();
    SplitMix64::new(a ^ SplitMix64::new(index).next_u64())
}

const SETUP: u64 = 1;
const ROUND: u64 = 2;
const START: u64 = 3;
const LAYOUT: u64 = 0x1A70;
const WARM_UP: u64 = u64::MAX;

/// `files` page counts spread evenly over `lo ..= hi`, each moved by up
/// to `jitter` pages either way, in one fixed order. The simulated times
/// depend most on where files sit, so the order is the same for every
/// seed.
fn sizes(rng: &mut SplitMix64, files: usize, (lo, hi): (u16, u16), jitter: u16) -> Vec<u16> {
    let span = u64::from(hi - lo) + 1;
    let n = files as u64;
    let mut v: Vec<u16> = (0..n)
        .map(|i| {
            let mid = lo + ((2 * i + 1) * span / (2 * n)) as u16;
            let moved = mid + rng.next_below(2 * u64::from(jitter) + 1) as u16;
            moved.saturating_sub(jitter).clamp(lo, hi)
        })
        .collect();
    SplitMix64::new(LAYOUT).shuffle(&mut v);
    v
}

/// Seeded file contents: `pages` data pages, the last one partial.
fn contents(rng: &mut SplitMix64, pages: u16) -> Vec<u8> {
    let len = (usize::from(pages) - 1) * PAGE_BYTES + 1 + rng.next_below(511) as usize;
    let mut bytes = vec![0; len];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    bytes
}

/// A fresh timeline with the program's event trace off.
fn timeline() -> (SimClock, Trace) {
    let trace = Trace::new();
    trace.set_enabled(false);
    (SimClock::new(), trace)
}

impl Phase {
    fn add(&mut self, out: &Round, wall_ns: u64, sim_ns: u64, allocs: u64) {
        self.rounds += 1;
        self.allocs += allocs;
        self.ops += out.ops;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.sim_ns += sim_ns;
        self.wall_ns += wall_ns;
        self.rates
            .push(out.ops as f64 / (wall_ns.max(1) as f64 / 1e9));
        self.data_fold = fold(self.data_fold, out.data);
    }
}

/// Runs `round` over the fixed prefix, then on until `seconds` have passed
/// since the first round began. Latency samples pushed by prefix rounds are
/// kept; later rounds' are dropped.
fn drive<P: Probe>(
    probe: &P,
    shape: &Shape,
    seconds: f64,
    clock: &SimClock,
    mut round: impl FnMut(u64, &mut Vec<u64>) -> Result<Round, String>,
) -> (Phase, Phase, Vec<String>) {
    let mut prefix = Phase::default();
    let mut all = Phase::default();
    let mut errors = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut r = 0;
    while r < shape.prefix_rounds || start.elapsed().as_secs_f64() < seconds {
        samples.clear();
        let (wall0, sim0, allocs0) = (Instant::now(), clock.now(), crate::allocs());
        let out = round(r, &mut samples);
        let wall_ns = wall0.elapsed().as_nanos() as u64;
        let sim_ns = (clock.now() - sim0).as_nanos();
        let allocs = crate::allocs() - allocs0;
        let out = out.unwrap_or_else(|e| {
            errors.push(format!("round {r}: {e}"));
            Round::default()
        });
        all.add(&out, wall_ns, sim_ns, allocs);
        if r < shape.prefix_rounds {
            prefix.add(&out, wall_ns, sim_ns, allocs);
            for &s in &samples {
                prefix.latency.record(s);
                prefix.lat_fold = fold(prefix.lat_fold, s);
            }
        }
        if r == 0 {
            probe.first_round_done();
        }
        r += 1;
    }
    (prefix, all, errors)
}

/// Checks that two runs of one workload simulated the same thing: the same
/// simulated time, latency samples, observed data and drive counters.
pub fn same_simulation(a: &Outcome, b: &Outcome) -> Result<(), String> {
    let key = |o: &Outcome| {
        (
            o.prefix.sim_ns,
            o.prefix.lat_fold,
            o.prefix.data_fold,
            o.prefix.ops,
            o.prefix.attempted,
            o.prefix.failed,
        )
    };
    if key(a) != key(b) {
        return Err(format!(
            "(sim ns, latency fold, data fold, ops, attempted, failed) {:?} vs {:?}",
            key(a),
            key(b)
        ));
    }
    if a.counts.drive_after != b.counts.drive_after {
        return Err(format!(
            "drive counters {:?} vs {:?}",
            a.counts.drive_after, b.counts.drive_after
        ));
    }
    Ok(())
}

/// Runs one workload: timed set-ups for `plan.setup_seconds`, then the
/// measured phase on the last one.
pub fn run<P: Probe>(w: Workload, shape: &Shape, seed: u64, plan: &Plan, probe: &P) -> Outcome {
    match w {
        Workload::ServeFleet | Workload::ServePaging => serve(shape, seed, plan, probe),
        Workload::FileEdit => file_edit(shape, seed, plan, probe),
        Workload::ScavengeArray => scavenge_array(shape, seed, plan, probe),
    }
}

/// Sets up again and again until `plan.setup_seconds` have passed, timing
/// each set-up, and returns the last, ready to measure. A window of host
/// time rather than a count of set-ups: a set-up of a few milliseconds
/// would otherwise sample one passing phase of a shared host.
fn set_up<T>(plan: &Plan, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= plan.setup_seconds {
            return (times, built);
        }
    }
}

// ---------------------------------------------------------------- serve_*

const SERVER_HOST: u8 = 1;

/// One revolution of the Diablo 31 and the Trident alike.
const REVOLUTION: SimTime = SimTime::from_millis(40);

/// The served files: names, page counts and, per file, the digest the
/// client fold must reach for a complete read.
struct Library {
    names: Vec<String>,
    pages: Vec<u16>,
    digests: Vec<u64>,
}

/// The client-side digest of one served page (see `ScriptedClient`): an
/// order-independent sum over the page's words and positions.
fn page_digest(page: u16, bytes: &[u8]) -> u64 {
    let mut words = [0u16; DATA_WORDS];
    alto_fs::file::pack_bytes(bytes, &mut words);
    words.iter().enumerate().fold(0u64, |d, (i, &w)| {
        d.wrapping_add((u64::from(page) << 32) ^ ((i as u64) << 16) ^ u64::from(w))
    })
}

/// The digest a client's fold reaches after reading all of `bytes`.
fn file_digest(bytes: &[u8]) -> u64 {
    bytes
        .chunks(PAGE_BYTES)
        .enumerate()
        .fold(0u64, |d, (p, chunk)| {
            d.wrapping_add(page_digest(p as u16 + 1, chunk))
        })
}

fn populate<D: Disk>(fs: &mut FileSystem<D>, rng: &mut SplitMix64, shape: &Shape) -> Library {
    let mut lib = Library {
        names: Vec::new(),
        pages: Vec::new(),
        digests: Vec::new(),
    };
    for (f, pages) in sizes(rng, shape.files, shape.pages, shape.jitter)
        .into_iter()
        .enumerate()
    {
        lib.store(fs, format!("file{f:03}.dat"), &contents(rng, pages));
    }
    lib
}

impl Library {
    fn store<D: Disk>(&mut self, fs: &mut FileSystem<D>, name: String, bytes: &[u8]) {
        let root = fs.root_dir();
        let file = dir::create_named_file(fs, root, &name).expect("create a seeded file");
        fs.write_file(file, bytes).expect("write a seeded file");
        self.names.push(name);
        self.pages.push(bytes.len().div_ceil(PAGE_BYTES) as u16);
        self.digests.push(file_digest(bytes));
    }
}

/// Which file each client reads in round `r`: a file of its own, drawn
/// afresh each round, when there are files enough; otherwise any file.
fn assignment(seed: u64, r: u64, shape: &Shape) -> Vec<usize> {
    let mut rng = stream(seed, ROUND, r);
    if shape.files >= shape.clients {
        let mut v: Vec<usize> = (0..shape.files).collect();
        rng.shuffle(&mut v);
        v.truncate(shape.clients);
        v
    } else {
        (0..shape.clients)
            .map(|_| rng.next_below(shape.files as u64) as usize)
            .collect()
    }
}

/// The server side that persists across rounds: the request loop, its
/// store, and the network counters summed over the rounds.
struct Service<S> {
    server: PageServer,
    store: S,
    retransmits: u64,
    duplicates: u64,
    sent: u64,
    lost: u64,
}

impl<S> Service<S> {
    fn new(store: S) -> Self {
        Service {
            server: PageServer::new(SERVER_HOST),
            store,
            retransmits: 0,
            duplicates: 0,
            sent: 0,
            lost: 0,
        }
    }
}

/// One round: a fresh ether and a fresh fleet, run to completion against
/// the persistent server.
fn serve_round<S: alto_net::PageStore, P: Probe>(
    probe: &P,
    shape: &Shape,
    seed: u64,
    r: u64,
    (lib, clock, trace): (&Library, &SimClock, &Trace),
    svc: &mut Service<S>,
    samples: &mut Vec<u64>,
) -> Result<Round, String> {
    let Service { server, store, .. } = svc;
    let mut start = stream(seed, START, r);
    let mut ether = Ether::new(clock.clone(), trace.clone());
    ether.attach(SERVER_HOST).map_err(|e| e.to_string())?;
    if shape.loss > 0 {
        ether.set_loss(1, shape.loss, start.next_u64());
    }
    let assign = assignment(seed, r, shape);
    let cfg = ClientConfig {
        window: shape.window,
        ..ClientConfig::new(SERVER_HOST, PAGE_SERVICE_SOCKET)
    };
    let mut fleet = ClientFleet::new(&mut ether, cfg, shape.clients, |i| {
        lib.names[assign[i]].clone()
    })
    .map_err(|e| e.to_string())?;
    // The clients power on at a seeded instant within one revolution, so
    // each round meets the platters at its own rotational phase.
    let power_on = SimTime::from_nanos(start.next_below(REVOLUTION.as_nanos()));
    probe.span(Layer::NetIdle, || ether.idle_wait(power_on));
    while !fleet.all_done() {
        let a = probe
            .span(Layer::NetClient, || fleet.tick(&mut ether))
            .map_err(|e| e.to_string())?;
        let b = probe
            .span(Layer::NetServer, || server.tick(&mut ether, store))
            .map_err(|e| e.to_string())?;
        if a + b == 0 {
            probe.span(Layer::NetIdle, || ether.idle_wait(SimTime::from_millis(1)));
        }
    }
    samples.extend(fleet.samples.iter().map(|t| t.as_nanos()));

    let mut out = Round::default();
    for (i, &f) in assign.iter().enumerate() {
        let c = fleet.client(i);
        out.attempted += u64::from(lib.pages[f]);
        out.ops += c.received;
        if c.phase() == ClientPhase::Done && c.digest != lib.digests[f] {
            return Err(format!(
                "client {i} read {} with digest {:016x}, the seed gives {:016x}",
                lib.names[f], c.digest, lib.digests[f]
            ));
        }
    }
    out.failed = out.attempted - out.ops;
    if shape.loss == 0 && out.failed > 0 {
        return Err(format!("{} pages failed on a lossless ether", out.failed));
    }
    out.data = fleet.digest();
    let stats = fleet.stats();
    svc.retransmits += stats.retransmits;
    svc.duplicates += stats.duplicates;
    svc.sent += ether.sent;
    svc.lost += ether.lost;
    Ok(out)
}

/// The page-server machine after set-up: a formatted two-arm array holding
/// the seeded library.
struct Machine<D: Disk> {
    fs: FileSystem<D>,
    lib: Library,
    clock: SimClock,
    trace: Trace,
}

/// Formats and populates the server's array, then runs one warm-up round.
fn serve_setup<P: Probe>(shape: &Shape, seed: u64, probe: &P) -> Machine<P::Disk<DriveArray>> {
    let (clock, trace) = timeline();
    let array = DriveArray::with_arms(
        2,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Trident,
    );
    let mut fs = FileSystem::format(probe.disk(array)).expect("format the server array");
    let lib = populate(&mut fs, &mut stream(seed, SETUP, 0), shape);
    let mut m = Machine {
        fs,
        lib,
        clock,
        trace,
    };
    let env = (&m.lib, &m.clock, &m.trace);
    let mut svc = Service::new(FsPageService::new(&mut m.fs));
    serve_round(probe, shape, seed, WARM_UP, env, &mut svc, &mut Vec::new())
        .expect("warm-up round");
    drop(svc);
    m
}

fn serve<P: Probe>(shape: &Shape, seed: u64, plan: &Plan, probe: &P) -> Outcome {
    let (setup_s, mut m) = set_up(plan, || serve_setup(shape, seed, probe));
    let mut counts = Counts {
        drive_before: m.fs.disk().io_stats(),
        cache_before: m.fs.cache_stats(),
        ..Counts::default()
    };
    let threaded0 = m.fs.disk().threaded_batches();
    let calls0 = m.fs.disk().calls();
    let env = (&m.lib, &m.clock, &m.trace);
    let mut svc = Service::new(TimedStore::new(FsPageService::new(&mut m.fs), probe));
    let ((prefix, all, errors), layers) = probe.phase(|| {
        drive(probe, shape, plan.seconds, env.1, |r, samples| {
            serve_round(probe, shape, seed, r, env, &mut svc, samples)
        })
    });
    counts.store = svc.store.calls;
    counts.fast_served = svc.store.inner.fast_served;
    counts.slow_served = svc.store.inner.slow_served;
    counts.server = svc.server.stats;
    counts.retransmits = svc.retransmits;
    counts.duplicates = svc.duplicates;
    counts.ether_sent = svc.sent;
    counts.ether_lost = svc.lost;
    drop(svc);
    counts.drive_after = m.fs.disk().io_stats();
    counts.cache_after = m.fs.cache_stats();
    counts.threaded_batches = m.fs.disk().threaded_batches() - threaded0;
    counts.disk_calls = m.fs.disk().calls().since(&calls0);
    Outcome {
        setup_s,
        prefix,
        all,
        counts,
        layers,
        errors,
    }
}

// ---------------------------------------------------------------- file_edit

/// The workstation after set-up.
struct Desk<D: Disk> {
    fs: FileSystem<D>,
    names: Vec<String>,
    /// What each file must hold now: its seeded contents, rewritten by
    /// every seeded edit.
    model: Vec<Vec<u8>>,
    buf: Vec<u8>,
}

/// Formats the workstation disk, writes the seeded documents and runs one
/// warm-up round.
fn desk_setup<P: Probe>(shape: &Shape, seed: u64, probe: &P) -> Desk<P::Disk<DiskDrive>> {
    let (clock, trace) = timeline();
    let drive = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(probe.disk(drive)).expect("format the workstation disk");
    let mut rng = stream(seed, SETUP, 0);
    let root = fs.root_dir();
    let mut names = Vec::new();
    let mut model = Vec::new();
    for (f, pages) in sizes(&mut rng, shape.files, shape.pages, shape.jitter)
        .into_iter()
        .enumerate()
    {
        let name = format!("doc{f:02}.txt");
        let bytes = contents(&mut rng, pages);
        let file = dir::create_named_file(&mut fs, root, &name).expect("create a document");
        fs.write_file(file, &bytes).expect("write a document");
        names.push(name);
        model.push(bytes);
    }
    let mut desk = Desk {
        fs,
        names,
        model,
        buf: Vec::new(),
    };
    edit_round(
        probe,
        &mut desk,
        shape,
        &mut stream(seed, ROUND, WARM_UP),
        &mut Vec::new(),
    )
    .expect("warm-up round");
    desk
}

/// One round of seeded file operations: look the file up, open it, then
/// read it whole and compare with its current version, or rewrite it in
/// place with new seeded contents of the same length.
fn edit_round<D: Disk, P: Probe>(
    probe: &P,
    desk: &mut Desk<D>,
    shape: &Shape,
    rng: &mut SplitMix64,
    samples: &mut Vec<u64>,
) -> Result<Round, String> {
    let Desk {
        fs,
        names,
        model,
        buf,
    } = desk;
    let root = fs.root_dir();
    let clock = fs.disk().clock().clone();
    let mut out = Round::default();
    for _ in 0..shape.ops_per_round {
        let f = rng.next_below(names.len() as u64) as usize;
        let edit = rng.chance(30, 100);
        let pages = model[f].len().div_ceil(PAGE_BYTES) as u64;
        out.attempted += pages;
        let t0 = clock.now();
        let file = probe
            .span(Layer::FsDir, || dir::lookup(fs, root, &names[f]))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{} vanished from the directory", names[f]))?;
        let mut s = probe
            .span(Layer::Streams, || DiskByteStream::open(fs, file))
            .map_err(|e| e.to_string())?;
        if edit {
            // A new seeded version of the same length.
            let key = rng.next_u64();
            for word in model[f].chunks_mut(8) {
                for (b, k) in word.iter_mut().zip(key.to_le_bytes()) {
                    *b ^= k;
                }
            }
            probe
                .span(Layer::Streams, || s.write_bytes(fs, &model[f]))
                .map_err(|e| e.to_string())?;
        } else {
            buf.resize(model[f].len() + 1, 0);
            let n = probe
                .span(Layer::Streams, || s.read_bytes(fs, buf))
                .map_err(|e| e.to_string())?;
            if buf[..n] != model[f][..] {
                return Err(format!(
                    "{} read back {n} bytes that differ from its current version",
                    names[f]
                ));
            }
            out.data = fold(out.data, (f as u64) << 32 | n as u64);
        }
        probe
            .span(Layer::Streams, || s.close(fs))
            .map_err(|e| e.to_string())?;
        samples.push((clock.now() - t0).as_nanos());
        out.ops += pages;
    }
    Ok(out)
}

/// Reads every file cold through the file system and names those that do
/// not hold their last written version.
fn check_desk<D: Disk>(desk: &mut Desk<D>) -> Vec<String> {
    let root = desk.fs.root_dir();
    let mut errors = Vec::new();
    for (name, want) in desk.names.iter().zip(&desk.model) {
        let got = dir::lookup(&mut desk.fs, root, name)
            .ok()
            .flatten()
            .and_then(|f| desk.fs.read_file(f).ok());
        if got.as_ref() != Some(want) {
            errors.push(format!("{name} does not hold its last written version"));
        }
    }
    errors
}

fn file_edit<P: Probe>(shape: &Shape, seed: u64, plan: &Plan, probe: &P) -> Outcome {
    let (setup_s, mut desk) = set_up(plan, || desk_setup(shape, seed, probe));
    let clock = desk.fs.disk().clock().clone();
    let mut counts = Counts {
        drive_before: desk.fs.disk().io_stats(),
        cache_before: desk.fs.cache_stats(),
        ..Counts::default()
    };
    let calls0 = desk.fs.disk().calls();
    let ((prefix, all, mut errors), layers) = probe.phase(|| {
        drive(probe, shape, plan.seconds, &clock, |r, samples| {
            edit_round(
                probe,
                &mut desk,
                shape,
                &mut stream(seed, ROUND, r),
                samples,
            )
        })
    });
    counts.drive_after = desk.fs.disk().io_stats();
    counts.cache_after = desk.fs.cache_stats();
    counts.disk_calls = desk.fs.disk().calls().since(&calls0);
    errors.extend(check_desk(&mut desk));
    Outcome {
        setup_s,
        prefix,
        all,
        counts,
        layers,
        errors,
    }
}

// ---------------------------------------------------------- scavenge_array

/// Everything a sweep may change on a healthy disk; all must stay zero.
fn repairs(r: &ScavengeReport) -> u64 {
    [
        r.bad_pages,
        r.duplicate_pages_freed,
        r.headless_pages_freed,
        r.truncated_pages_freed,
        r.links_repaired,
        r.lengths_normalized,
        r.entries_fixed,
        r.entries_dropped,
        r.orphans_adopted,
    ]
    .into_iter()
    .map(u64::from)
    .sum()
}

fn listing<D: Disk>(fs: &mut FileSystem<D>) -> Result<Vec<(String, u16)>, String> {
    let root = fs.root_dir();
    let mut v: Vec<(String, u16)> = dir::list(fs, root)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|e| (e.name, e.file.leader_da.0))
        .collect();
    v.sort();
    Ok(v)
}

fn scavenge_array<P: Probe>(shape: &Shape, seed: u64, plan: &Plan, probe: &P) -> Outcome {
    let sweep = |fs: &mut FileSystem<P::Disk<DriveArray>>| -> Result<ScavengeReport, String> {
        probe
            .span(Layer::FsScavenge, || Scavenger::run(fs))
            .map_err(|e| e.to_string())
    };
    let (setup_s, (mut fs, lib, first)) = set_up(plan, || {
        let (clock, trace) = timeline();
        let array = DriveArray::with_arms(4, Placement::Range, clock, trace, DiskModel::Diablo31);
        let mut fs = FileSystem::format(probe.disk(array)).expect("format the array");
        let lib = populate(&mut fs, &mut stream(seed, SETUP, 0), shape);
        let first = sweep(&mut fs).expect("warm-up sweep");
        (fs, lib, first)
    });
    let before = listing(&mut fs);

    let clock = fs.disk().clock().clone();
    let mut counts = Counts {
        drive_before: fs.disk().io_stats(),
        cache_before: fs.cache_stats(),
        ..Counts::default()
    };
    let threaded0 = fs.disk().threaded_batches();
    let calls0 = fs.disk().calls();
    let mut repaired = 0;
    let ((prefix, all, mut errors), layers) = probe.phase(|| {
        drive(probe, shape, plan.seconds, &clock, |_, samples| {
            let t0 = clock.now();
            let report = sweep(&mut fs)?;
            samples.push((clock.now() - t0).as_nanos());
            repaired += repairs(&report);
            if repairs(&report) != 0
                || (report.files, report.live_pages) != (first.files, first.live_pages)
            {
                return Err(format!("a healthy array was repaired: {report:?}"));
            }
            let ops = u64::from(report.sectors_scanned);
            Ok(Round {
                ops,
                attempted: ops,
                failed: 0,
                data: [report.files, report.live_pages, report.free_pages]
                    .into_iter()
                    .fold(0, |d, v| fold(d, u64::from(v))),
            })
        })
    });
    counts.drive_after = fs.disk().io_stats();
    counts.cache_after = fs.cache_stats();
    counts.threaded_batches = fs.disk().threaded_batches() - threaded0;
    counts.disk_calls = fs.disk().calls().since(&calls0);
    counts.repairs = repaired;
    if before.is_err() || before != listing(&mut fs) {
        errors.push("the directory listing changed across the sweeps".to_string());
    }
    // Every file still holds what the seed wrote.
    let root = fs.root_dir();
    for (name, &want) in lib.names.iter().zip(&lib.digests) {
        let got = dir::lookup(&mut fs, root, name)
            .ok()
            .flatten()
            .and_then(|f| fs.read_file(f).ok())
            .map(|bytes| file_digest(&bytes));
        if got != Some(want) {
            errors.push(format!("{name} changed across the sweeps"));
        }
    }
    Outcome {
        setup_s,
        prefix,
        all,
        counts,
        layers,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Off, Tracer};

    /// Shapes small enough for a debug build; same code paths.
    fn smoke(w: Workload) -> Shape {
        let full = w.shape();
        match w {
            Workload::ServeFleet => Shape {
                files: 4,
                pages: (8, 8),
                clients: 32,
                prefix_rounds: 2,
                ..full
            },
            Workload::ServePaging => Shape {
                files: 8,
                pages: (4, 12),
                clients: 8,
                prefix_rounds: 2,
                ..full
            },
            Workload::FileEdit => Shape {
                files: 8,
                pages: (1, 16),
                ops_per_round: 20,
                prefix_rounds: 2,
                ..full
            },
            Workload::ScavengeArray => Shape {
                files: 20,
                pages: (1, 16),
                prefix_rounds: 2,
                ..full
            },
        }
    }

    const PLAN: Plan = Plan {
        seconds: 0.0,
        setup_seconds: 0.0,
    };

    #[test]
    fn tracing_is_transparent_on_every_workload() {
        for w in Workload::ALL {
            let shape = smoke(w);
            let plain = run(w, &shape, 7, &PLAN, &Off);
            let tracer = Tracer::new();
            let traced = run(w, &shape, 7, &PLAN, &tracer);
            for o in [&plain, &traced] {
                assert!(o.errors.is_empty(), "{}: {:?}", w.name(), o.errors);
                assert_eq!(o.prefix.failed, 0, "{}", w.name());
                assert!(o.prefix.latency.count() > 0, "{}", w.name());
            }
            same_simulation(&plain, &traced).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let self_sim: u64 = Layer::ALL
                .iter()
                .map(|&l| traced.layers.get(l).sim_self_ns)
                .sum();
            assert_eq!(self_sim, traced.prefix.sim_ns, "{}", w.name());
            assert_eq!(
                traced.layers.get(Layer::Bench).sim_self_ns,
                0,
                "{}",
                w.name()
            );
            assert!(!tracer.raw().is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let w = Workload::FileEdit;
        let a = run(w, &smoke(w), 1, &PLAN, &Off);
        let b = run(w, &smoke(w), 2, &PLAN, &Off);
        assert!(same_simulation(&a, &b).is_err());
    }

    #[test]
    fn a_wrong_word_in_a_served_page_fails_the_check() {
        let shape = smoke(Workload::ServeFleet);
        let mut m = serve_setup(&shape, 7, &Off);
        // Flip one word of the file the first client of round 0 reads.
        let f = assignment(7, 0, &shape)[0];
        let root = m.fs.root_dir();
        let file = dir::lookup(&mut m.fs, root, &m.lib.names[f])
            .unwrap()
            .unwrap();
        let mut bytes = m.fs.read_file(file).unwrap();
        bytes[700] ^= 0x01;
        m.fs.write_file(file, &bytes).unwrap();
        let env = (&m.lib, &m.clock, &m.trace);
        let mut svc = Service::new(FsPageService::new(&mut m.fs));
        let err = serve_round(&Off, &shape, 7, 0, env, &mut svc, &mut Vec::new()).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn a_stale_version_fails_the_desk_check() {
        let shape = smoke(Workload::FileEdit);
        let mut desk = desk_setup(&shape, 7, &Off);
        assert!(check_desk(&mut desk).is_empty());
        desk.model[3][0] ^= 0x80;
        assert_eq!(
            check_desk(&mut desk),
            vec!["doc03.txt does not hold its last written version".to_string()]
        );
    }

    #[test]
    fn sizes_spread_evenly_over_the_range() {
        let v = sizes(&mut SplitMix64::new(3), 64, (32, 255), 0);
        assert!(v.iter().all(|&p| (32..=255).contains(&p)));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!((sorted[0], sorted[63]), (33, 254));
        assert_ne!(v, sorted, "the layout interleaves sizes");
        assert_eq!(
            sizes(&mut SplitMix64::new(3), 32, (64, 64), 0),
            vec![64; 32]
        );
        let moved = sizes(&mut SplitMix64::new(3), 64, (32, 255), 2);
        assert!(v.iter().zip(&moved).all(|(a, b)| a.abs_diff(*b) <= 2));
        assert_ne!(v, moved);
    }
}
