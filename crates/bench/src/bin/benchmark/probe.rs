//! Outside-in tracing: spans around the benchmark's own calls into each
//! layer, plus two forwarding wrappers ([`TimedDisk`], [`TimedStore`]) that
//! time the calls the program makes across the disk and page-store
//! boundaries. Nothing inside the program is instrumented.
//!
//! A span's *self* time is its duration minus the durations of the spans
//! it encloses. Spans nest on a stack and fold into per-layer totals as
//! they close, so a run of any length keeps O(depth) live state; the raw
//! spans of the first round are kept as well, for writing out as JSONL.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use alto_disk::{
    BatchRequest, Disk, DiskAddress, DiskDrive, DiskError, DiskGeometry, DriveArray, DriveStats,
    SectorBuf, SectorOp, SectorView, UnparkOutcome, WriteSource,
};
use alto_net::{OpenInfo, PageRequest, PageStore};
use alto_sim::{SimClock, SimTime, Trace};

/// The layers spans are charged to, named after the program's modules.
/// `Bench` is the residual: the benchmark's own work between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    NetClient,
    NetServer,
    CoreDiskless,
    Streams,
    FsDir,
    FsScavenge,
    Disk,
    NetIdle,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::NetClient,
        Layer::NetServer,
        Layer::CoreDiskless,
        Layer::Streams,
        Layer::FsDir,
        Layer::FsScavenge,
        Layer::Disk,
        Layer::NetIdle,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::NetClient => "net.client",
            Layer::NetServer => "net.server",
            Layer::CoreDiskless => "core.diskless",
            Layer::Streams => "streams",
            Layer::FsDir => "fs.dir",
            Layer::FsScavenge => "fs.scavenge",
            Layer::Disk => "disk",
            Layer::NetIdle => "net.idle",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// How the workloads reach the tracer. The untraced run uses [`Off`], whose
/// spans compile to plain calls and whose disks are the program's own types,
/// so the end-to-end numbers measure the program exactly as it ships.
pub trait Probe {
    /// The disk a workload formats: the bare disk, or a timed wrapper.
    type Disk<D: Disk + DiskInfo>: Disk + DiskInfo;

    fn disk<D: Disk + DiskInfo>(&self, inner: D) -> Self::Disk<D>;

    /// Runs the measured phase `f` as the root `bench` span over fresh
    /// totals, and returns the per-layer totals it folded.
    fn phase<R>(&self, f: impl FnOnce() -> R) -> (R, Totals);

    /// Stops keeping raw spans once the first measured round is over.
    fn first_round_done(&self);

    /// Runs `f` as one call into `layer`.
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;

    /// Runs `f` as a callback that re-enters `layer` from below (a visitor
    /// the disk lends sectors to, a reply the store hands back). Charged to
    /// `layer` but not counted as a call.
    fn resume<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Counters a disk keeps outside [`DriveStats`].
pub trait DiskInfo {
    /// Batches a drive array ran on host threads.
    fn threaded_batches(&self) -> u64 {
        0
    }

    /// Calls into each sector-operation entry point (timed disks only).
    fn calls(&self) -> DiskCalls {
        DiskCalls::default()
    }
}

impl DiskInfo for DriveArray {
    fn threaded_batches(&self) -> u64 {
        DriveArray::threaded_batches(self)
    }
}

impl DiskInfo for DiskDrive {}

/// No tracing.
pub struct Off;

impl Probe for Off {
    type Disk<D: Disk + DiskInfo> = D;

    fn disk<D: Disk + DiskInfo>(&self, inner: D) -> D {
        inner
    }

    fn phase<R>(&self, f: impl FnOnce() -> R) -> (R, Totals) {
        (f(), Totals::default())
    }

    fn first_round_done(&self) {}

    #[inline(always)]
    fn span<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn resume<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Per-layer totals folded from closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    pub wall_self_ns: u64,
    pub sim_self_ns: u64,
}

/// Totals for every layer, indexed by [`Layer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals([LayerTotals; 9]);

impl Totals {
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.0[layer.index()]
    }
}

/// One closed span, kept raw for the JSONL dump.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub id: u64,
    pub parent: u64,
    pub layer: Layer,
    pub callback: bool,
    pub wall_start_ns: u64,
    pub wall_ns: u64,
    pub sim_start_ns: u64,
    pub sim_ns: u64,
}

#[derive(Debug)]
struct Frame {
    id: u64,
    layer: Layer,
    callback: bool,
    wall0: u64,
    sim0: u64,
    child_wall: u64,
    child_sim: u64,
}

#[derive(Debug)]
struct TracerState {
    clock: SimClock,
    epoch: Instant,
    stack: Vec<Frame>,
    totals: Totals,
    next_id: u64,
    raw: Vec<RawSpan>,
    keep_raw: bool,
}

/// Raw spans kept at most, so a long first round cannot exhaust memory.
const RAW_SPAN_CAP: usize = 100_000;

/// The tracer: a shared handle, cloned into the wrappers.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<TracerState>>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Rc::new(RefCell::new(TracerState {
            clock: SimClock::new(),
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            totals: Totals::default(),
            next_id: 1,
            raw: Vec::new(),
            keep_raw: false,
        })))
    }

    /// The raw spans of the last phase's first round.
    pub fn raw(&self) -> Vec<RawSpan> {
        self.0.borrow().raw.clone()
    }

    /// The layer of the innermost open span.
    pub fn current(&self) -> Layer {
        self.0
            .borrow()
            .stack
            .last()
            .map_or(Layer::Bench, |f| f.layer)
    }

    fn enter(&self, layer: Layer, callback: bool) {
        let mut s = self.0.borrow_mut();
        let wall0 = s.epoch.elapsed().as_nanos() as u64;
        let sim0 = s.clock.now().as_nanos();
        let id = s.next_id;
        s.next_id += 1;
        s.stack.push(Frame {
            id,
            layer,
            callback,
            wall0,
            sim0,
            child_wall: 0,
            child_sim: 0,
        });
    }

    fn exit(&self) {
        let mut s = self.0.borrow_mut();
        let wall1 = s.epoch.elapsed().as_nanos() as u64;
        let sim1 = s.clock.now().as_nanos();
        let f = s.stack.pop().expect("span exit without a matching enter");
        let wall = wall1 - f.wall0;
        let sim = sim1 - f.sim0;
        let t = &mut s.totals.0[f.layer.index()];
        t.calls += u64::from(!f.callback);
        t.wall_self_ns += wall - f.child_wall;
        t.sim_self_ns += sim - f.child_sim;
        let parent = match s.stack.last_mut() {
            Some(p) => {
                p.child_wall += wall;
                p.child_sim += sim;
                p.id
            }
            None => 0,
        };
        if s.keep_raw && s.raw.len() < RAW_SPAN_CAP {
            s.raw.push(RawSpan {
                id: f.id,
                parent,
                layer: f.layer,
                callback: f.callback,
                wall_start_ns: f.wall0,
                wall_ns: wall,
                sim_start_ns: f.sim0,
                sim_ns: sim,
            });
        }
    }
}

impl Probe for Tracer {
    type Disk<D: Disk + DiskInfo> = TimedDisk<D>;

    /// Wraps the disk a set-up formats; spans read that disk's clock.
    fn disk<D: Disk + DiskInfo>(&self, inner: D) -> TimedDisk<D> {
        self.0.borrow_mut().clock = inner.clock().clone();
        TimedDisk {
            inner,
            tracer: self.clone(),
            calls: DiskCalls::default(),
        }
    }

    fn phase<R>(&self, f: impl FnOnce() -> R) -> (R, Totals) {
        {
            let mut s = self.0.borrow_mut();
            s.totals = Totals::default();
            s.raw.clear();
            s.keep_raw = true;
        }
        let out = self.span(Layer::Bench, f);
        (out, self.0.borrow().totals)
    }

    fn first_round_done(&self) {
        self.0.borrow_mut().keep_raw = false;
    }

    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer, false);
        let out = f();
        self.exit();
        out
    }

    fn resume<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer, true);
        let out = f();
        self.exit();
        out
    }
}

/// Calls the program made into each sector-operation entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCalls {
    pub do_op: u64,
    pub do_batch: u64,
    pub do_batch_read: u64,
    pub do_batch_write: u64,
}

impl DiskCalls {
    pub fn since(&self, before: &DiskCalls) -> DiskCalls {
        DiskCalls {
            do_op: self.do_op - before.do_op,
            do_batch: self.do_batch - before.do_batch,
            do_batch_read: self.do_batch_read - before.do_batch_read,
            do_batch_write: self.do_batch_write - before.do_batch_write,
        }
    }
}

/// A disk that times every sector operation as a `disk` span. It forwards
/// *every* trait method, the defaulted ones included: a missed forward would
/// silently route batches through the trait's buffered defaults, or report
/// a constant write epoch, and the traced run would measure another program.
#[derive(Debug)]
pub struct TimedDisk<D> {
    inner: D,
    tracer: Tracer,
    calls: DiskCalls,
}

impl<D: Disk> TimedDisk<D> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut D, Layer, &Tracer) -> R) -> R {
        let caller = self.tracer.current();
        let tracer = &self.tracer;
        let inner = &mut self.inner;
        tracer.span(Layer::Disk, || f(inner, caller, tracer))
    }
}

impl<D: DiskInfo> DiskInfo for TimedDisk<D> {
    fn threaded_batches(&self) -> u64 {
        self.inner.threaded_batches()
    }

    fn calls(&self) -> DiskCalls {
        self.calls
    }
}

impl<D: Disk> Disk for TimedDisk<D> {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        self.inner.geometry()
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        self.inner.pack_number()
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        self.calls.do_op += 1;
        self.timed(|d, _, _| d.do_op(da, op, buf))
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        self.calls.do_batch += 1;
        self.timed(|d, _, _| d.do_batch(batch))
    }

    fn do_batch_read<F>(&mut self, das: &[DiskAddress], mut visit: F) -> Vec<Result<(), DiskError>>
    where
        F: FnMut(usize, SectorView<'_>),
    {
        self.calls.do_batch_read += 1;
        self.timed(|d, caller, t| {
            d.do_batch_read(das, |i, view| t.resume(caller, || visit(i, view)))
        })
    }

    fn do_batch_write<'a, S, V>(
        &mut self,
        das: &[DiskAddress],
        mut source: S,
        mut visit: V,
    ) -> Vec<Result<(), DiskError>>
    where
        S: FnMut(usize) -> WriteSource<'a>,
        V: FnMut(usize, SectorView<'_>),
    {
        self.calls.do_batch_write += 1;
        self.timed(|d, caller, t| {
            d.do_batch_write(
                das,
                |i| t.resume(caller, || source(i)),
                |i, view| t.resume(caller, || visit(i, view)),
            )
        })
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.inner.note_readahead(hits, prefetched);
    }

    fn write_epoch(&self) -> u64 {
        self.inner.write_epoch()
    }

    fn io_stats(&self) -> DriveStats {
        self.inner.io_stats()
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.inner.note_write_behind(pages);
    }

    fn retry_limit(&self) -> u32 {
        self.inner.retry_limit()
    }

    fn retry_backoff(&self) -> SimTime {
        self.inner.retry_backoff()
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.inner.note_retry(retries, recovered);
    }

    fn note_park(&mut self, da: DiskAddress, page: u16) {
        self.inner.note_park(da, page);
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: UnparkOutcome) {
        self.inner.note_unpark(da, page, outcome);
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        self.inner.set_audit_enabled(enabled);
    }

    fn audit_violations(&self) -> u64 {
        self.inner.audit_violations()
    }

    fn arm_count(&self) -> usize {
        self.inner.arm_count()
    }

    fn arm_of(&self, da: DiskAddress) -> usize {
        self.inner.arm_of(da)
    }

    fn arm_origin(&self, arm: usize) -> Option<DiskAddress> {
        self.inner.arm_origin(arm)
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }
}

/// Store-side counters the page-service workloads report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCalls {
    pub opens: u64,
    pub serves: u64,
    pub requests: u64,
}

/// A page store whose calls are `core.diskless` spans; each page it hands
/// back to the server re-enters `net.server`, where the reply is sent.
pub struct TimedStore<'p, S, P> {
    pub inner: S,
    probe: &'p P,
    pub calls: StoreCalls,
}

impl<'p, S, P> TimedStore<'p, S, P> {
    pub fn new(inner: S, probe: &'p P) -> Self {
        TimedStore {
            inner,
            probe,
            calls: StoreCalls::default(),
        }
    }
}

impl<S: PageStore, P: Probe> PageStore for TimedStore<'_, S, P> {
    fn open(&mut self, name: &str) -> Result<OpenInfo, u16> {
        self.calls.opens += 1;
        let inner = &mut self.inner;
        self.probe.span(Layer::CoreDiskless, || inner.open(name))
    }

    fn serve<F>(&mut self, reqs: &[PageRequest], failed: &mut Vec<(u32, u16)>, mut deliver: F)
    where
        F: FnMut(u32, &[u16; alto_disk::DATA_WORDS]),
    {
        self.calls.serves += 1;
        self.calls.requests += reqs.len() as u64;
        let inner = &mut self.inner;
        let probe = self.probe;
        probe.span(Layer::CoreDiskless, || {
            inner.serve(reqs, failed, |tag, data| {
                probe.resume(Layer::NetServer, || deliver(tag, data));
            });
        });
    }
}
