//! The simulated disk drive: geometry + timing + check semantics.
//!
//! A [`DiskDrive`] holds at most one removable [`DiskPack`]; every sector
//! operation charges seek time, rotational latency and one sector transfer
//! time to the shared [`SimClock`], then applies the operation with full
//! check semantics ([`crate::sector::apply`]).
//!
//! The drive has one mechanism, the §4 chained command: a per-sector step
//! (seek, rotational wait, transfer, check-then-act) inside one chain
//! routine (precheck, command set-up, plan, service in plan order, halt and
//! replan on failure). [`Disk::do_op`], [`Disk::do_batch`],
//! [`Disk::do_batch_read`] and [`Disk::do_batch_write`] differ only in how a
//! request meets its sector: an owned buffer, a lent view, or a borrowed
//! write source checked in place. With the §3.3 auditor or a fault armed,
//! every request is staged through a buffer inside the same step.
//!
//! A chain runs on a local timeline: the drive keeps its instants in the
//! chain's head and writes no shared clock while it runs. The `Disk`
//! methods start it at the shared clock's `now`, move the clock forward to
//! each lent sector's instant ([`SectorView::at`]) just before its visitor
//! runs, and forward to the batch's end when it returns. Whatever a visitor
//! spends on the shared clock (a reply on the wire) overlaps the platter
//! and is never erased; a [`crate::DriveArray`] runs its arms' shares
//! through the same local entry and merges their lends in time order.
//!
//! [`Disk`] is the *abstract disk object* of §2/§5.2: the file system is
//! generic over it, so "a program using a large non-standard disk" can
//! provide its own implementation and still use the standard disk-stream
//! package — the openness property the paper emphasizes.

use alto_sim::{SimClock, SimTime, Trace};

use crate::audit::{Auditor, Observed, Provenance, UnparkOutcome};
use crate::errors::{DiskError, SectorPart};
use crate::geometry::{Chs, DiskAddress, DiskGeometry};
use crate::inject::FaultInjector;
use crate::pack::DiskPack;
use crate::pool;
use crate::sched::{self, BatchRequest};
use crate::sector::{apply, check_part, Action, Sector, SectorBuf, SectorOp};
use crate::timing::TimingModel;
use crate::view::{SectorView, WriteSource};

/// The abstract disk object.
///
/// Implementations must provide sector operations with §3.3 semantics; the
/// file system relies on check actions aborting before any write.
pub trait Disk {
    /// The geometry of the loaded pack.
    fn geometry(&self) -> Result<DiskGeometry, DiskError>;

    /// The pack number of the loaded pack (sector headers carry it).
    fn pack_number(&self) -> Result<u16, DiskError>;

    /// Performs one sector operation, charging simulated time.
    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError>;

    /// Performs a batch of sector operations, returning one result per
    /// request in the batch's original order.
    ///
    /// Implementations are free to service the batch in any order and to
    /// chain transfers (§4), but every request keeps the full per-sector
    /// check semantics of [`Disk::do_op`] — see [`crate::sched`]. The
    /// default just issues the requests one at a time.
    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        batch
            .iter_mut()
            .map(|r| {
                let op = r.op;
                let da = r.da;
                self.do_op(da, op, &mut r.buf)
            })
            .collect()
    }

    /// Chained batch read with zero-copy delivery: services every address
    /// in `das` exactly like [`Disk::do_batch`] given [`SectorOp::READ_ALL`]
    /// requests — same timing, stats and traces — but lends each serviced
    /// sector to `visit` as a borrowed [`SectorView`] instead of copying its
    /// 532 bytes into a caller-owned buffer. `visit` runs at most once per
    /// request (never for a failed one) with the request's index in `das`;
    /// the visit order is implementation-defined (service order on a real
    /// drive, time order across a drive array's arms, index order for the
    /// staged default). Each visit runs with the shared clock at the view's
    /// [`SectorView::at`]: time the visitor spends there overlaps the rest
    /// of the batch, and the batch ends at the later of the two.
    ///
    /// The default stages through [`Disk::do_batch`] — bit-identical
    /// results, timing, stats and traces, just with the 512-byte copy in —
    /// and lends every view after the batch, stamped with its end.
    /// [`DiskDrive`] overrides it with a genuinely zero-copy chain and
    /// [`crate::DriveArray`] splits it across arms on overlapped
    /// sub-timelines.
    fn do_batch_read<F>(&mut self, das: &[DiskAddress], mut visit: F) -> Vec<Result<(), DiskError>>
    where
        Self: Sized,
        F: FnMut(usize, SectorView<'_>),
    {
        let mut batch = pool::batch_vec();
        batch.extend(
            das.iter()
                .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())),
        );
        let results = self.do_batch(&mut batch);
        let at = self.clock().now();
        for (i, (req, res)) in batch.iter().zip(results.iter()).enumerate() {
            if res.is_ok() {
                visit(i, SectorView::of_buf(&req.buf).stamped(at));
            }
        }
        pool::recycle_batch(batch);
        results
    }

    /// Performs a batch of ordinary data writes ([`SectorOp::WRITE`]: header
    /// and label checked, value written) with borrowed buffers: `source`
    /// supplies request `i`'s check patterns and a borrow of its data words,
    /// and `visit` is lent the serviced sector (post-write, so the label a
    /// passed check captured is exactly what the view shows) at most once
    /// per request, never for a failed one, with the shared clock at the
    /// view's instant. The write-side twin of [`Disk::do_batch_read`].
    ///
    /// The default stages through [`Disk::do_batch`] — bit-identical
    /// results, timing, stats and traces, just with the 256-word copy in —
    /// which is also how the composite [`crate::DriveArray`] inherits its
    /// splitting, header translation and overlapped timelines for free.
    /// [`DiskDrive`] overrides it with a genuinely zero-copy chain.
    fn do_batch_write<'a, S, V>(
        &mut self,
        das: &[DiskAddress],
        mut source: S,
        mut visit: V,
    ) -> Vec<Result<(), DiskError>>
    where
        Self: Sized,
        S: FnMut(usize) -> WriteSource<'a>,
        V: FnMut(usize, SectorView<'_>),
    {
        let mut batch = pool::batch_vec();
        for (i, &da) in das.iter().enumerate() {
            let ws = source(i);
            let mut buf = SectorBuf::zeroed();
            buf.header = ws.header;
            buf.label = ws.label;
            buf.data = *ws.data;
            batch.push(BatchRequest::new(da, SectorOp::WRITE, buf));
        }
        let results = self.do_batch(&mut batch);
        let at = self.clock().now();
        for (i, (req, res)) in batch.iter().zip(results.iter()).enumerate() {
            if res.is_ok() {
                visit(i, SectorView::of_buf(&req.buf).stamped(at));
            }
        }
        pool::recycle_batch(batch);
        results
    }

    /// Records that `hits` pages were served from a readahead buffer above
    /// this disk, out of `prefetched` newly prefetched pages. Purely
    /// statistical; the default ignores it.
    fn note_readahead(&mut self, _hits: u64, _prefetched: u64) {}

    /// A value that changes whenever any write action reaches the medium.
    /// Caching layers (stream readahead) compare epochs to notice writes
    /// that bypassed them and drop their copies. The default — a constant —
    /// is only suitable for disks that are never written behind a cache's
    /// back.
    fn write_epoch(&self) -> u64 {
        0
    }

    /// A snapshot of this disk's cumulative I/O counters, for the
    /// Executive's `iostat` command and the benches. Composite disks
    /// (e.g. [`crate::DriveArray`]) merge their members' counters. The
    /// default — all zeros — is for disks that keep none.
    fn io_stats(&self) -> DriveStats {
        DriveStats::default()
    }

    /// Records that a write-behind buffer above this disk drained `pages`
    /// dirty pages as one coalesced batch. Purely statistical; the default
    /// ignores it.
    fn note_write_behind(&mut self, _pages: u64) {}

    /// How many times the retry layer above this disk may re-issue an
    /// operation that failed with [`DiskError::Transient`] before
    /// escalating to [`DiskError::HardError`]. Zero means abort
    /// immediately (the ablation that recovers pre-retry behavior).
    fn retry_limit(&self) -> u32 {
        3
    }

    /// Simulated time the retry layer waits before each re-issue — on a
    /// real drive the sector has to come around again, so one revolution.
    /// The default — zero — is for disks with no timing model.
    fn retry_backoff(&self) -> SimTime {
        SimTime::ZERO
    }

    /// Records the outcome of one retry sequence: `retries` re-issues were
    /// spent, ending in recovery (`recovered`) or escalation to a hard
    /// failure. Purely statistical; the default ignores it.
    fn note_retry(&mut self, _retries: u64, _recovered: bool) {}

    /// Records that a write-behind buffer above this disk parked the dirty
    /// page `page` destined for `da`. The §3.3 auditor uses park/unpark
    /// pairs to prove no dirty page is ever dropped; the default ignores it.
    fn note_park(&mut self, _da: DiskAddress, _page: u16) {}

    /// Records that a write-behind buffer disposed of the page parked for
    /// `da`: drained to the medium, parked again after a failed drain, or
    /// discarded. The default ignores it.
    fn note_unpark(&mut self, _da: DiskAddress, _page: u16, _outcome: UnparkOutcome) {}

    /// Turns the runtime §3.3 auditor on or off, if this disk has one. The
    /// default ignores it (a disk with no auditor has nothing to toggle);
    /// ablation wrappers that *deliberately* break the discipline call
    /// `set_audit_enabled(false)` on the disk they wrap.
    fn set_audit_enabled(&mut self, _enabled: bool) {}

    /// Number of §3.3 audit violations recorded against this disk so far
    /// (zero when no auditor is attached).
    fn audit_violations(&self) -> u64 {
        0
    }

    /// How many independent arms (head assemblies) serve this disk's
    /// address space. Single drives have one; composite disks
    /// (e.g. [`crate::DriveArray`]) report their member count so layers
    /// above can spread work across arms.
    fn arm_count(&self) -> usize {
        1
    }

    /// Which arm serves `da`. Out-of-range addresses answer arm 0; the
    /// default — everything on arm 0 — matches a single drive.
    fn arm_of(&self, _da: DiskAddress) -> usize {
        0
    }

    /// A disk address near the start of `arm`'s contiguous span, if this
    /// disk has per-arm contiguous spans worth steering allocation toward.
    /// `None` (the default) means the caller should not bias placement —
    /// either there is one arm, or consecutive addresses already interleave
    /// across arms.
    fn arm_origin(&self, _arm: usize) -> Option<DiskAddress> {
        None
    }

    /// The clock this disk charges time to.
    fn clock(&self) -> &SimClock;

    /// The trace this disk records events to.
    fn trace(&self) -> &Trace;
}

/// Cumulative drive statistics, used by the experiments to report mechanism
/// (e.g. "allocation cost exactly one extra revolution").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Sector operations issued.
    pub ops: u64,
    /// Operations that performed any write action.
    pub write_ops: u64,
    /// Operations that wrote the label part (allocation, free, length
    /// change, format).
    pub label_writes: u64,
    /// Check actions that failed (aborted operations).
    pub failed_checks: u64,
    /// Arm movements.
    pub seeks: u64,
    /// Total time spent seeking.
    pub seek_time: SimTime,
    /// Total time spent waiting for the target sector to come around.
    pub rotational_wait: SimTime,
    /// Total time spent transferring sectors under the head.
    pub transfer_time: SimTime,
    /// Total command set-up / interrupt-service time charged.
    pub command_time: SimTime,
    /// Batches submitted through [`Disk::do_batch`].
    pub batches: u64,
    /// Sector operations that arrived inside a batch.
    pub batched_ops: u64,
    /// Transfers that followed their predecessor with no seek and no
    /// rotational wait (the §4 "consecutive sectors" case).
    pub chained_transfers: u64,
    /// Prefetched pages served from a readahead buffer (a stream's, or the
    /// page server's window) instead of the platter, each counted once.
    pub readahead_hits: u64,
    /// Pages prefetched into readahead buffers.
    pub readahead_prefetched: u64,
    /// Operations whose value part was read (data sectors transferred in).
    pub sectors_read: u64,
    /// Operations whose value part was written (data sectors transferred
    /// out). Unlike [`DriveStats::write_ops`] this excludes label-only
    /// writes (free, quarantine).
    pub sectors_written: u64,
    /// Coalesced drains of a write-behind buffer (see
    /// [`Disk::note_write_behind`]).
    pub wb_drains: u64,
    /// Dirty pages written by those drains.
    pub wb_coalesced: u64,
    /// Batches that a drive array executed with two or more arms
    /// overlapped.
    pub overlap_batches: u64,
    /// Simulated time saved by overlapping, versus serial execution (the
    /// shorter arms' elapsed time, summed over overlapped batches).
    pub overlap_saved: SimTime,
    /// Transient failures observed (each failed attempt counts once).
    pub soft_errors: u64,
    /// Operations re-issued by the retry layer.
    pub retries: u64,
    /// Retry sequences that ended in success (the transient cleared).
    pub recovered: u64,
    /// Retry sequences that exhausted the limit and escalated to
    /// [`DiskError::HardError`].
    pub hard_failures: u64,
}

impl DriveStats {
    /// Total disk-busy time accounted so far.
    pub fn busy_time(&self) -> SimTime {
        self.seek_time + self.rotational_wait + self.transfer_time + self.command_time
    }

    /// Field-wise sum of two snapshots; composite disks report the merge
    /// of their members.
    pub fn merged(&self, other: &DriveStats) -> DriveStats {
        DriveStats {
            ops: self.ops + other.ops,
            write_ops: self.write_ops + other.write_ops,
            label_writes: self.label_writes + other.label_writes,
            failed_checks: self.failed_checks + other.failed_checks,
            seeks: self.seeks + other.seeks,
            seek_time: self.seek_time + other.seek_time,
            rotational_wait: self.rotational_wait + other.rotational_wait,
            transfer_time: self.transfer_time + other.transfer_time,
            command_time: self.command_time + other.command_time,
            batches: self.batches + other.batches,
            batched_ops: self.batched_ops + other.batched_ops,
            chained_transfers: self.chained_transfers + other.chained_transfers,
            readahead_hits: self.readahead_hits + other.readahead_hits,
            readahead_prefetched: self.readahead_prefetched + other.readahead_prefetched,
            sectors_read: self.sectors_read + other.sectors_read,
            sectors_written: self.sectors_written + other.sectors_written,
            wb_drains: self.wb_drains + other.wb_drains,
            wb_coalesced: self.wb_coalesced + other.wb_coalesced,
            overlap_batches: self.overlap_batches + other.overlap_batches,
            overlap_saved: self.overlap_saved + other.overlap_saved,
            soft_errors: self.soft_errors + other.soft_errors,
            retries: self.retries + other.retries,
            recovered: self.recovered + other.recovered,
            hard_failures: self.hard_failures + other.hard_failures,
        }
    }
}

/// A simulated moving-head drive with one removable pack.
#[derive(Debug)]
pub struct DiskDrive {
    clock: SimClock,
    trace: Trace,
    pack: Option<Loaded>,
    stats: DriveStats,
    injector: FaultInjector,
    retries: u32,
    audit: Option<Auditor>,
    scratch: BatchScratch,
}

/// Per-drive working storage for the chain routine, kept across batches so
/// the steady state replans and reschedules without heap allocation.
#[derive(Debug, Default)]
struct BatchScratch {
    pending: Vec<usize>,
    remaining: Vec<usize>,
    next_remaining: Vec<usize>,
    das: Vec<DiskAddress>,
    chs: Vec<Chs>,
    order: Vec<usize>,
    waits: Vec<SimTime>,
    plan: sched::PlanScratch,
}

#[derive(Debug)]
struct Loaded {
    pack: DiskPack,
    timing: TimingModel,
    cylinder: u16,
}

/// How a request meets its sector: the one thing the batch forms differ
/// in. The chain routine is generic over it, so each form compiles to its
/// own loop.
trait Meet {
    /// Request `i`'s address.
    fn da(&self, i: usize) -> DiskAddress;

    /// Request `i`'s operation.
    fn op(&self, i: usize) -> SectorOp;

    /// Runs `serve` on request `i` staged in a memory buffer (its own, or
    /// one loaded from its source), then lends that buffer, stamped `at`,
    /// to the visitor if `serve` succeeded.
    fn staged(
        &mut self,
        i: usize,
        at: SimTime,
        serve: impl FnOnce(&mut SectorBuf) -> Result<(), DiskError>,
    ) -> Result<(), DiskError>;

    /// Performs request `i` directly on its platter sector. Called only
    /// with no auditor or fault armed and sound media; the default stages
    /// (the forms that keep it own their buffers and lend nothing, so the
    /// stamp is moot).
    fn in_place(
        &mut self,
        i: usize,
        da: DiskAddress,
        sector: &mut Sector,
    ) -> Result<(), DiskError> {
        let op = self.op(i);
        self.staged(i, SimTime::ZERO, |buf| apply(op, da, sector, buf))
    }

    /// Lends request `i`'s sector, just served in place and stamped with
    /// the end of its transfer, to the visitor.
    fn lend(&mut self, _i: usize, _view: SectorView<'_>) {}
}

/// [`Disk::do_batch`]: every request owns its buffer and any operation.
impl Meet for [BatchRequest] {
    fn da(&self, i: usize) -> DiskAddress {
        self[i].da
    }

    fn op(&self, i: usize) -> SectorOp {
        self[i].op
    }

    fn staged(
        &mut self,
        i: usize,
        _: SimTime,
        serve: impl FnOnce(&mut SectorBuf) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        serve(&mut self[i].buf)
    }
}

/// [`Disk::do_op`]: one request in the caller's buffer.
struct One<'b> {
    da: DiskAddress,
    op: SectorOp,
    buf: &'b mut SectorBuf,
}

impl Meet for One<'_> {
    fn da(&self, _: usize) -> DiskAddress {
        self.da
    }

    fn op(&self, _: usize) -> SectorOp {
        self.op
    }

    fn staged(
        &mut self,
        _: usize,
        _: SimTime,
        serve: impl FnOnce(&mut SectorBuf) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        serve(self.buf)
    }
}

/// [`Disk::do_batch_read`]: `READ_ALL`, each served sector lent to
/// `visit` — the platter sector itself when served in place, else `buf`.
struct Lend<'d, F> {
    das: &'d [DiskAddress],
    visit: F,
    buf: SectorBuf,
}

impl<F: FnMut(usize, SectorView<'_>)> Meet for Lend<'_, F> {
    fn da(&self, i: usize) -> DiskAddress {
        self.das[i]
    }

    fn op(&self, _: usize) -> SectorOp {
        SectorOp::READ_ALL
    }

    fn staged(
        &mut self,
        i: usize,
        at: SimTime,
        serve: impl FnOnce(&mut SectorBuf) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        let result = serve(&mut self.buf);
        if result.is_ok() {
            (self.visit)(i, SectorView::of_buf(&self.buf).stamped(at));
        }
        result
    }

    // Reading every part checks nothing: the transfer is the lend.
    fn in_place(&mut self, _: usize, _: DiskAddress, _: &mut Sector) -> Result<(), DiskError> {
        Ok(())
    }

    fn lend(&mut self, i: usize, view: SectorView<'_>) {
        (self.visit)(i, view);
    }
}

/// [`Disk::do_batch_write`]: `WRITE` from borrowed sources. In place, the
/// header and label patterns are matched against the platter words and the
/// borrowed data lands only when both pass. A passed check's captured label
/// is bit-identical to the sector's own (every non-wildcard word matched,
/// every wildcard captured the disk word), so the lent post-write sector
/// shows exactly what a staged buffer would.
struct Borrowed<'d, S, V> {
    source: S,
    lend: Lend<'d, V>,
}

impl<'a, S, V> Meet for Borrowed<'_, S, V>
where
    S: FnMut(usize) -> WriteSource<'a>,
    V: FnMut(usize, SectorView<'_>),
{
    fn da(&self, i: usize) -> DiskAddress {
        self.lend.da(i)
    }

    fn op(&self, _: usize) -> SectorOp {
        SectorOp::WRITE
    }

    fn staged(
        &mut self,
        i: usize,
        at: SimTime,
        serve: impl FnOnce(&mut SectorBuf) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        let ws = (self.source)(i);
        let buf = &mut self.lend.buf;
        buf.header = ws.header;
        buf.label = ws.label;
        buf.data = *ws.data;
        self.lend.staged(i, at, serve)
    }

    fn in_place(
        &mut self,
        i: usize,
        da: DiskAddress,
        sector: &mut Sector,
    ) -> Result<(), DiskError> {
        let ws = (self.source)(i);
        let (mut header, mut label) = (ws.header, ws.label);
        check_part(&sector.header, &mut header, da, SectorPart::Header)
            .and_then(|()| check_part(&sector.label, &mut label, da, SectorPart::Label))
            .map_err(DiskError::Check)?;
        sector.data = *ws.data;
        Ok(())
    }

    fn lend(&mut self, i: usize, view: SectorView<'_>) {
        self.lend.lend(i, view);
    }
}

/// The drive state one chain pass works on, split out of [`DiskDrive`] so
/// serving a sector touches no shared cell: the pack and arm, the trace,
/// simulated time in a local, and counters in a local accumulator.
struct Head<'d> {
    loaded: &'d mut Loaded,
    trace: &'d Trace,
    injector: &'d mut FaultInjector,
    audit: Option<&'d Auditor>,
    /// Every request stages through a buffer and [`apply`]: the auditor
    /// mirrors a buffered op, and an armed fault transforms one.
    staged: bool,
    /// Write ops already flushed into the drive's stats; the auditor's
    /// epoch adds the accumulator's.
    epoch: u64,
    now: SimTime,
    acc: &'d mut DriveStats,
}

impl Head<'_> {
    /// The per-sector step: seek, rotational wait and one sector transfer
    /// on the local timeline, then the operation with full check semantics.
    /// `planned` is the wait the batch planner derived on this same
    /// timeline (checked in debug builds); `None` derives it here. Returns
    /// whether the arm moved, and the result.
    fn step<M: Meet + ?Sized>(
        &mut self,
        meet: &mut M,
        i: usize,
        chs: Chs,
        planned: Option<SimTime>,
    ) -> (bool, Result<(), DiskError>) {
        let timing = self.loaded.timing;
        let seeked = chs.cylinder != self.loaded.cylinder;
        if seeked {
            let from = self.loaded.cylinder;
            let t = timing.seek(chs.cylinder.abs_diff(from));
            self.now += t;
            self.acc.seeks += 1;
            self.acc.seek_time += t;
            self.trace.record_with(self.now, "disk.seek", || {
                format!("cyl {from} -> {} ({t})", chs.cylinder)
            });
            self.loaded.cylinder = chs.cylinder;
        }
        let wait = match planned {
            Some(w) => {
                debug_assert_eq!(
                    w,
                    timing.rotational_wait(self.now, chs.sector),
                    "planned wait diverged from the drive's timeline"
                );
                w
            }
            None => timing.rotational_wait(self.now, chs.sector),
        };
        self.now += wait;
        self.acc.rotational_wait += wait;
        // The transfer itself: one sector time regardless of actions.
        self.now += timing.sector_time;
        self.acc.transfer_time += timing.sector_time;
        let (da, op) = (meet.da(i), meet.op(i));
        self.acc.ops += 1;
        self.acc.write_ops += u64::from(op.writes());
        self.acc.label_writes += u64::from(op.label == Action::Write);
        self.acc.sectors_read += u64::from(op.value == Action::Read);
        self.acc.sectors_written += u64::from(op.value == Action::Write);

        // Unrecoverable media damage surfaces when the value part is read.
        let damaged =
            matches!(op.value, Action::Read | Action::Check) && self.loaded.pack.is_damaged(da);
        let at = self.now;
        let result = if damaged || self.staged {
            meet.staged(i, at, |buf| self.buffered(da, op, damaged, buf))
        } else {
            let sector = self
                .loaded
                .pack
                .sector_mut(da)
                .expect("address validated against geometry");
            let result = meet.in_place(i, da, sector);
            note(self.acc, self.trace, self.now, da, op, &result);
            if result.is_ok() {
                meet.lend(i, SectorView::new(sector).stamped(at));
            }
            result
        };
        (seeked, result)
    }

    /// The operation on a memory buffer: what the auditor mirrors and an
    /// armed fault transforms. On damaged media the header and label
    /// actions still complete (they precede the value on the platter), so
    /// the Scavenger can learn *which* page was lost before quarantining
    /// the sector; the value part then fails.
    fn buffered(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        damaged: bool,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        let now = self.now;
        let sector = self
            .loaded
            .pack
            .sector_mut(da)
            .expect("address validated against geometry");
        let before = self.audit.map(|_| (sector.clone(), buf.clone()));
        let (result, provenance) = if damaged {
            let stripped = SectorOp {
                value: Action::Read,
                ..op
            };
            let mut scratch = buf.clone();
            let result = match apply(stripped, da, sector, &mut scratch) {
                Err(e) => {
                    if matches!(e, DiskError::Check(_)) {
                        self.acc.failed_checks += 1;
                    }
                    Err(e)
                }
                Ok(()) => {
                    buf.header = scratch.header;
                    buf.label = scratch.label;
                    self.trace.record_with(now, "disk.hard_error", || {
                        format!("{da} value part unreadable")
                    });
                    Err(DiskError::HardError {
                        da,
                        part: SectorPart::Value,
                    })
                }
            };
            (result, Provenance::Damaged)
        } else {
            match self.injector.apply(da, op, sector, buf) {
                Some(r) => (r, Provenance::Injected),
                None => (apply(op, da, sector, buf), Provenance::Clean),
            }
        };
        if let (Some(aud), Some((sector_before, buf_before))) = (self.audit, before) {
            aud.observe(
                &Observed {
                    da,
                    op,
                    sector_before: &sector_before,
                    buf_before: &buf_before,
                    sector_after: sector,
                    buf_after: buf,
                    result: &result,
                    provenance,
                    epoch: self.epoch + self.acc.write_ops,
                },
                self.trace,
                now,
            );
        }
        if !damaged {
            note(self.acc, self.trace, now, da, op, &result);
        }
        result
    }

    /// Ends a chained run: counts the `followers` transfers that chained
    /// onto the run's head and emits `disk.chain` if there were any.
    fn close_run(&mut self, followers: u64) {
        self.acc.chained_transfers += followers;
        if followers >= 1 {
            self.trace.record_with(self.now, "disk.chain", || {
                format!("{}-sector chained transfer", followers + 1)
            });
        }
    }
}

/// Counts and traces one operation's outcome.
fn note(
    acc: &mut DriveStats,
    trace: &Trace,
    now: SimTime,
    da: DiskAddress,
    op: SectorOp,
    result: &Result<(), DiskError>,
) {
    match result {
        Ok(()) => trace.record_with(now, "disk.op", || format!("{op:?} at {da}")),
        Err(DiskError::Check(c)) => {
            acc.failed_checks += 1;
            trace.record_with(now, "disk.check_fail", || c.to_string());
        }
        Err(e @ DiskError::Transient { .. }) => {
            acc.soft_errors += 1;
            trace.record_with(now, "disk.retry.soft_error", || e.to_string());
        }
        Err(e) => trace.record_with(now, "disk.error", || e.to_string()),
    }
}

impl DiskDrive {
    /// Creates an empty drive on the given timeline. With `ALTO_AUDIT=1` in
    /// the environment the drive starts with a strict §3.3 auditor attached
    /// (see [`crate::audit`]); otherwise auditing is off.
    pub fn new(clock: SimClock, trace: Trace) -> DiskDrive {
        DiskDrive {
            clock,
            trace,
            pack: None,
            stats: DriveStats::default(),
            injector: FaultInjector::new(),
            retries: 3,
            audit: Auditor::from_env(),
            scratch: BatchScratch::default(),
        }
    }

    /// Attaches a fresh non-strict §3.3 auditor (replacing any existing one,
    /// including an environment-configured strict one) and returns a handle
    /// to query its findings. Tests that deliberately violate the discipline
    /// use this so violations are collected rather than panicking.
    pub fn enable_audit(&mut self) -> Auditor {
        let auditor = Auditor::new(false);
        self.audit = Some(auditor.clone());
        auditor
    }

    /// The attached §3.3 auditor, if any.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.audit.as_ref()
    }

    /// Convenience: a drive with a freshly formatted pack loaded.
    pub fn with_formatted_pack(
        clock: SimClock,
        trace: Trace,
        model: crate::geometry::DiskModel,
        pack_number: u16,
    ) -> DiskDrive {
        let mut d = DiskDrive::new(clock, trace);
        d.load_pack(DiskPack::formatted(model, pack_number));
        d
    }

    /// Loads a pack into the drive (arm returns to cylinder 0).
    pub fn load_pack(&mut self, pack: DiskPack) {
        let timing = pack.model().timing();
        self.pack = Some(Loaded {
            pack,
            timing,
            cylinder: 0,
        });
    }

    /// Removes and returns the pack, if any.
    pub fn unload_pack(&mut self) -> Option<DiskPack> {
        self.pack.take().map(|l| l.pack)
    }

    /// Shared access to the loaded pack (tests and the fault campaign use
    /// this to corrupt the medium directly; software uses [`Disk::do_op`]).
    pub fn pack(&self) -> Option<&DiskPack> {
        self.pack.as_ref().map(|l| &l.pack)
    }

    /// Mutable access to the loaded pack.
    pub fn pack_mut(&mut self) -> Option<&mut DiskPack> {
        self.pack.as_mut().map(|l| &mut l.pack)
    }

    /// The fault injector for this drive.
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Sets how many times the retry layer may re-issue a transiently
    /// failed operation against this drive. `set_retries(0)` is the
    /// ablation: transients escalate immediately, recovering the
    /// abort-on-first-error behavior the retry layer replaced.
    pub fn set_retries(&mut self, retries: u32) {
        self.retries = retries;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DriveStats {
        self.stats
    }

    /// Resets the statistics counters (the clock is unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = DriveStats::default();
        // The write epoch is derived from the counters, so the auditor's
        // monotonicity baseline must rewind with it.
        if let Some(aud) = &self.audit {
            aud.note_epoch_reset();
        }
    }

    /// The timing model of the loaded pack.
    pub fn timing(&self) -> Result<TimingModel, DiskError> {
        Ok(self.pack.as_ref().ok_or(DiskError::NoPack)?.timing)
    }

    /// The arm's current cylinder.
    pub fn current_cylinder(&self) -> u16 {
        self.pack.as_ref().map_or(0, |l| l.cylinder)
    }

    /// Validates an operation without charging any time.
    fn precheck(&self, da: DiskAddress, op: SectorOp) -> Result<(), DiskError> {
        op.validate()?;
        let loaded = self.pack.as_ref().ok_or(DiskError::NoPack)?;
        if !loaded.pack.geometry().contains(da) {
            return Err(DiskError::InvalidAddress(da));
        }
        Ok(())
    }

    /// Charges one command set-up (issued once per [`Disk::do_op`] call and
    /// once per batch — which is the entire point of batching, §4) on the
    /// local timeline at `now`, and returns the instant it ends.
    fn charge_command(&mut self, now: SimTime) -> SimTime {
        let overhead = self
            .pack
            .as_ref()
            .expect("prechecked: pack is loaded")
            .timing
            .command_overhead;
        self.stats.command_time += overhead;
        now + overhead
    }

    /// Splits the drive into a [`Head`] whose local timeline starts at
    /// `now`.
    fn head<'d>(&'d mut self, now: SimTime, acc: &'d mut DriveStats) -> Head<'d> {
        Head {
            loaded: self.pack.as_mut().expect("prechecked: pack is loaded"),
            trace: &self.trace,
            staged: self.audit.is_some() || !self.injector.is_idle(),
            injector: &mut self.injector,
            audit: self.audit.as_ref(),
            epoch: self.stats.write_ops,
            now,
            acc,
        }
    }

    /// The chained command (§4) behind every batch form: precheck, one
    /// command set-up, a plan, service in plan order, `disk.io.batch`.
    ///
    /// The schedule is computable up front only while the chain runs clean:
    /// every serviced request costs seek + wait + one sector regardless of
    /// its check outcome, but a *failure* halts command chaining at the
    /// failing sector (the controller stops; software must restart). The
    /// failing request keeps its slot; the unserved remainder is replanned
    /// from the arm's new position under a fresh command set-up.
    ///
    /// The batch runs on a local timeline from `start`: every pass keeps
    /// time in its [`Head`], no shared clock is written, and the instant
    /// the batch ends is returned with the results. Each lent view carries
    /// its own instant, so the caller decides when the shared clock gets
    /// there — identically with the auditor armed or not.
    fn chain<M: Meet + ?Sized>(
        &mut self,
        start: SimTime,
        n: usize,
        meet: &mut M,
    ) -> (Vec<Result<(), DiskError>>, SimTime) {
        // The result vector and all planning storage come out of per-thread
        // free lists / the drive's own scratch, so a steady-state batch
        // costs no heap allocation (see `crate::pool`).
        let mut results = pool::results_vec();
        results.extend((0..n).map(|_| Ok(())));
        let mut scratch = std::mem::take(&mut self.scratch);
        // Malformed requests are rejected up front and never scheduled.
        scratch.pending.clear();
        for (i, slot) in results.iter_mut().enumerate() {
            match self.precheck(meet.da(i), meet.op(i)) {
                Ok(()) => scratch.pending.push(i),
                Err(e) => *slot = Err(e),
            }
        }
        if scratch.pending.is_empty() {
            self.scratch = scratch;
            return (results, start);
        }
        let loaded = self.pack.as_ref().expect("prechecked: pack is loaded");
        let (geometry, timing) = (loaded.pack.geometry(), loaded.timing);

        let mut now = self.charge_command(start);
        let pending = scratch.pending.len();
        self.stats.batches += 1;
        self.stats.batched_ops += pending as u64;
        self.trace
            .record_with(now, "disk.batch", || format!("{pending} requests"));
        let mut acc = DriveStats::default();
        scratch.remaining.clear();
        scratch.remaining.extend_from_slice(&scratch.pending);
        let mut first_pass = true;
        while !scratch.remaining.is_empty() {
            if !first_pass {
                now = self.charge_command(now);
            }
            first_pass = false;
            scratch.das.clear();
            scratch
                .das
                .extend(scratch.remaining.iter().map(|&i| meet.da(i)));
            geometry.to_chs_batch(&scratch.das, &mut scratch.chs);
            sched::plan_into(
                timing,
                self.current_cylinder(),
                now,
                &scratch.chs,
                &mut scratch.plan,
                &mut scratch.order,
                &mut scratch.waits,
            );
            let mut head = self.head(now, &mut acc);
            let mut followers = 0u64;
            let mut halted_at = None;
            for (k, (&j, &wait)) in scratch.order.iter().zip(&scratch.waits).enumerate() {
                let i = scratch.remaining[j];
                let (seeked, result) = head.step(meet, i, scratch.chs[j], Some(wait));
                let failed = result.is_err();
                results[i] = result;
                if k > 0 && !seeked && wait == SimTime::ZERO {
                    followers += 1;
                } else {
                    head.close_run(followers);
                    followers = 0;
                }
                if failed {
                    halted_at = Some(k);
                    break;
                }
            }
            head.close_run(followers);
            now = head.now;
            match halted_at {
                // Requests the halted chain never reached go around again.
                Some(k) => {
                    scratch.next_remaining.clear();
                    scratch
                        .next_remaining
                        .extend(scratch.order[k + 1..].iter().map(|&j| scratch.remaining[j]));
                    std::mem::swap(&mut scratch.remaining, &mut scratch.next_remaining);
                }
                None => scratch.remaining.clear(),
            }
        }
        let (read, written) = (acc.sectors_read, acc.sectors_written);
        self.stats = self.stats.merged(&acc);
        self.trace.record_with(now, "disk.io.batch", || {
            format!("{pending} serviced ({read} read, {written} written)")
        });
        self.scratch = scratch;
        (results, now)
    }

    /// [`Disk::do_batch`] on the local timeline from `start`: writes no
    /// shared clock and returns the results and the batch's end.
    pub(crate) fn batch_from(
        &mut self,
        start: SimTime,
        batch: &mut [BatchRequest],
    ) -> (Vec<Result<(), DiskError>>, SimTime) {
        self.chain(start, batch.len(), batch)
    }

    /// [`Disk::do_batch_read`] on the local timeline from `start`: lends
    /// each sector stamped with its instant, moves no shared clock (not
    /// even to a view's instant — that is the caller's business) and
    /// returns the results and the batch's end.
    pub(crate) fn read_from<F>(
        &mut self,
        start: SimTime,
        das: &[DiskAddress],
        visit: F,
    ) -> (Vec<Result<(), DiskError>>, SimTime)
    where
        F: FnMut(usize, SectorView<'_>),
    {
        let mut lend = Lend {
            das,
            visit,
            buf: SectorBuf::zeroed(),
        };
        self.chain(start, das.len(), &mut lend)
    }
}

impl Disk for DiskDrive {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        Ok(self.pack.as_ref().ok_or(DiskError::NoPack)?.pack.geometry())
    }

    // Counted when the write is *attempted* (before the check), so even an
    // aborted write invalidates caches — the safe direction.
    fn write_epoch(&self) -> u64 {
        self.stats.write_ops
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        Ok(self
            .pack
            .as_ref()
            .ok_or(DiskError::NoPack)?
            .pack
            .pack_number())
    }

    // The per-sector step under one command set-up, with no plan.
    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        self.precheck(da, op)?;
        let chs = self
            .pack
            .as_ref()
            .expect("prechecked: pack is loaded")
            .pack
            .geometry()
            .to_chs(da);
        let now = self.charge_command(self.clock.now());
        let mut acc = DriveStats::default();
        let mut head = self.head(now, &mut acc);
        let (_, result) = head.step(&mut One { da, op, buf }, 0, chs, None);
        let end = head.now;
        self.clock.advance_to(end);
        self.stats = self.stats.merged(&acc);
        result
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        let (results, end) = self.batch_from(self.clock.now(), batch);
        self.clock.advance_to(end);
        results
    }

    /// The chain with each `READ_ALL` sector lent in place: one sector time
    /// and full rotational accounting per request, no 532-byte copy out.
    /// Visits run in service order, each with the shared clock moved
    /// forward to its sector's instant. With the auditor or a fault armed,
    /// each sector is staged through a buffer instead and the view shows
    /// that buffer.
    fn do_batch_read<F>(&mut self, das: &[DiskAddress], mut visit: F) -> Vec<Result<(), DiskError>>
    where
        F: FnMut(usize, SectorView<'_>),
    {
        let clock = self.clock.clone();
        let (results, end) = self.read_from(clock.now(), das, |i, view| {
            clock.advance_to(view.at());
            visit(i, view);
        });
        clock.advance_to(end);
        results
    }

    /// The chain with each `WRITE` checked in place against the platter and
    /// its data words taken straight from `source`'s borrow. Visits run in
    /// service order, each with the shared clock moved forward to its
    /// sector's instant. With the auditor or a fault armed, each request is
    /// staged through a buffer instead and the view shows that buffer.
    fn do_batch_write<'a, S, V>(
        &mut self,
        das: &[DiskAddress],
        source: S,
        mut visit: V,
    ) -> Vec<Result<(), DiskError>>
    where
        S: FnMut(usize) -> WriteSource<'a>,
        V: FnMut(usize, SectorView<'_>),
    {
        let clock = self.clock.clone();
        let mut borrowed = Borrowed {
            source,
            lend: Lend {
                das,
                visit: |i, view: SectorView<'_>| {
                    clock.advance_to(view.at());
                    visit(i, view);
                },
                buf: SectorBuf::zeroed(),
            },
        };
        let (results, end) = self.chain(clock.now(), das.len(), &mut borrowed);
        clock.advance_to(end);
        results
    }

    fn io_stats(&self) -> DriveStats {
        self.stats
    }

    fn retry_limit(&self) -> u32 {
        self.retries
    }

    // One revolution: the mis-read sector has to come all the way around
    // before the controller can try it again.
    fn retry_backoff(&self) -> SimTime {
        self.pack
            .as_ref()
            .map_or(SimTime::ZERO, |l| l.timing.revolution())
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.stats.retries += retries;
        if recovered {
            self.stats.recovered += 1;
            self.trace
                .record_with(self.clock.now(), "disk.retry.recovered", || {
                    format!(
                        "recovered after {retries} retr{}",
                        if retries == 1 { "y" } else { "ies" }
                    )
                });
        } else {
            self.stats.hard_failures += 1;
            self.trace
                .record_with(self.clock.now(), "disk.retry.hard_failure", || {
                    format!("{retries} retries exhausted, escalating")
                });
        }
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.stats.wb_drains += 1;
        self.stats.wb_coalesced += pages;
        self.trace
            .record_with(self.clock.now(), "disk.io.write_behind", || {
                format!("{pages}-page coalesced drain")
            });
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.stats.readahead_hits += hits;
        self.stats.readahead_prefetched += prefetched;
        if hits > 0 {
            self.trace
                .record_with(self.clock.now(), "disk.readahead_hit", || {
                    format!("{hits} page(s) served from readahead")
                });
        }
    }

    fn note_park(&mut self, da: DiskAddress, page: u16) {
        if let Some(aud) = &self.audit {
            aud.note_park(da, page);
        }
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: UnparkOutcome) {
        if let Some(aud) = &self.audit {
            aud.note_unpark(da, page, outcome, &self.trace, self.clock.now());
        }
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.audit.is_none() {
                self.audit = Some(Auditor::new(false));
            }
        } else {
            self.audit = None;
        }
    }

    fn audit_violations(&self) -> u64 {
        self.audit
            .as_ref()
            .map_or(0, |a| a.violation_count() as u64)
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskModel;
    use crate::label::Label;

    fn drive() -> DiskDrive {
        DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1)
    }

    fn live_label(page: u16) -> Label {
        Label {
            fid: [3, 4],
            version: 1,
            page_number: page,
            length: 512,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        }
    }

    /// Allocate a sector the §3.3 way: check free, then write label+data.
    fn allocate(drive: &mut DiskDrive, da: DiskAddress, label: Label) {
        let mut buf = SectorBuf::with_label(Label::FREE);
        drive.do_op(da, SectorOp::CHECK_LABEL, &mut buf).unwrap();
        let mut buf = SectorBuf::with_label(label);
        buf.data = [7; crate::sector::DATA_WORDS];
        drive.do_op(da, SectorOp::WRITE_LABEL, &mut buf).unwrap();
    }

    #[test]
    fn no_pack_errors() {
        let mut d = DiskDrive::new(SimClock::new(), Trace::new());
        let mut buf = SectorBuf::zeroed();
        assert_eq!(
            d.do_op(DiskAddress(0), SectorOp::READ_ALL, &mut buf),
            Err(DiskError::NoPack)
        );
        assert!(d.geometry().is_err());
        assert!(d.pack_number().is_err());
    }

    #[test]
    fn invalid_address_rejected() {
        let mut d = drive();
        let mut buf = SectorBuf::zeroed();
        assert_eq!(
            d.do_op(DiskAddress(9999), SectorOp::READ_ALL, &mut buf),
            Err(DiskError::InvalidAddress(DiskAddress(9999)))
        );
        assert_eq!(
            d.do_op(DiskAddress::NIL, SectorOp::READ_ALL, &mut buf),
            Err(DiskError::InvalidAddress(DiskAddress::NIL))
        );
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut d = drive();
        allocate(&mut d, DiskAddress(30), live_label(0));
        let mut buf = SectorBuf::with_label(live_label(0));
        d.do_op(DiskAddress(30), SectorOp::READ, &mut buf).unwrap();
        assert_eq!(buf.data[0], 7);
    }

    #[test]
    fn allocation_costs_about_a_revolution() {
        // §3.3: "This scheme costs a disk revolution each time a page is
        // allocated or freed." The check pass and the label-write pass visit
        // the same sector, so the write pass — command set-up, then waiting
        // for the just-passed sector to come around again, then the
        // transfer — costs exactly one revolution on top of the check.
        let mut d = drive();
        let rev = d.timing().unwrap().revolution();
        let mut buf = SectorBuf::with_label(Label::FREE);
        d.do_op(DiskAddress(0), SectorOp::CHECK_LABEL, &mut buf)
            .unwrap();
        let after_check = d.clock().now();
        let mut buf = SectorBuf::with_label(live_label(0));
        buf.data = [7; crate::sector::DATA_WORDS];
        d.do_op(DiskAddress(0), SectorOp::WRITE_LABEL, &mut buf)
            .unwrap();
        assert_eq!(d.clock().now() - after_check, rev);
    }

    #[test]
    fn ordinary_write_costs_no_extra_revolution() {
        // "On any other write the label is checked, at no cost in time."
        let mut d = drive();
        allocate(&mut d, DiskAddress(0), live_label(0));
        let sector = d.timing().unwrap().sector_time;
        let rev = d.timing().unwrap().revolution();
        // Overwrite the data of a *different* sector on the same track so
        // there is no self-interference from just having passed it.
        allocate(&mut d, DiskAddress(6), live_label(1));
        let mut buf = SectorBuf::with_label(live_label(1));
        buf.data = [9; crate::sector::DATA_WORDS];
        let start = d.clock().now();
        d.do_op(DiskAddress(6), SectorOp::WRITE, &mut buf).unwrap();
        let dt = d.clock().now() - start;
        // A single pass: rotational wait (< one revolution) + one sector.
        assert!(dt < rev + sector);
        assert!(dt >= sector);
    }

    #[test]
    fn streaming_consecutive_sectors_has_no_rotational_loss() {
        let mut d = drive();
        // Pre-allocate sectors 0..12 (one full track).
        for i in 0..12u16 {
            allocate(&mut d, DiskAddress(i), live_label(i));
        }
        d.reset_stats();
        // Align to the slot-0 boundary and stream the track as one batch.
        let t = d.timing().unwrap();
        let wait = t.rotational_wait(d.clock().now(), 0);
        d.clock().advance(wait);
        let start = d.clock().now();
        let mut batch: Vec<crate::sched::BatchRequest> = (0..12u16)
            .map(|i| {
                crate::sched::BatchRequest::new(
                    DiskAddress(i),
                    SectorOp::READ,
                    SectorBuf::with_label(live_label(i)),
                )
            })
            .collect();
        for r in d.do_batch(&mut batch) {
            r.unwrap();
        }
        let elapsed = d.clock().now() - start;
        // Command set-up eats into slot 0, so the chain starts at slot 1
        // and wraps: one sector of alignment plus one revolution, with 11
        // of the 12 transfers chained at full disk rate.
        assert_eq!(elapsed, t.revolution() + t.sector_time);
        assert_eq!(d.stats().chained_transfers, 11);
        assert_eq!(d.stats().batches, 1);
        assert_eq!(d.stats().batched_ops, 12);
        // The only rotational loss is the initial alignment to slot 1.
        assert_eq!(
            d.stats().rotational_wait,
            t.sector_time - t.command_overhead
        );
    }

    #[test]
    fn issued_one_at_a_time_consecutive_sectors_lose_a_revolution_each() {
        // The ablation the batch path is measured against: each separately
        // issued command pays its own set-up, misses the next slot, and
        // waits out almost a full revolution (§4's motivation for command
        // chaining).
        let mut d = drive();
        for i in 0..12u16 {
            allocate(&mut d, DiskAddress(i), live_label(i));
        }
        let t = d.timing().unwrap();
        let wait = t.rotational_wait(d.clock().now(), 0);
        d.clock().advance(wait);
        let start = d.clock().now();
        for i in 0..12u16 {
            let mut buf = SectorBuf::with_label(live_label(i));
            d.do_op(DiskAddress(i), SectorOp::READ, &mut buf).unwrap();
        }
        let elapsed = d.clock().now() - start;
        // First op: overhead + (rev - overhead) wait + sector. Each later
        // op likewise lands just after its slot: rev + sector per sector.
        assert_eq!(elapsed, (t.revolution() + t.sector_time).scaled(12));
    }

    #[test]
    fn chained_write_still_aborts_on_label_mismatch() {
        // The chaining invariant: batching changes when sectors transfer,
        // never whether their checks run. A wild write in the middle of a
        // chain bounces off the label check; its neighbours proceed.
        let mut d = drive();
        for i in 0..3u16 {
            allocate(&mut d, DiskAddress(i), live_label(i));
        }
        let mut batch = Vec::new();
        for i in 0..3u16 {
            // Request 1 carries the wrong label (page number off by ten).
            let claimed = if i == 1 {
                live_label(11)
            } else {
                live_label(i)
            };
            let mut buf = SectorBuf::with_label(claimed);
            buf.data = [0xBEEF; crate::sector::DATA_WORDS];
            batch.push(crate::sched::BatchRequest::new(
                DiskAddress(i),
                SectorOp::WRITE,
                buf,
            ));
        }
        let results = d.do_batch(&mut batch);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DiskError::Check(_))));
        assert!(results[2].is_ok());
        assert_eq!(d.stats().failed_checks, 1);
        // Sector 1's data survived untouched; its neighbours were written.
        let pack = d.pack().unwrap();
        assert_eq!(pack.sector(DiskAddress(0)).unwrap().data[0], 0xBEEF);
        assert_eq!(pack.sector(DiskAddress(1)).unwrap().data[0], 7);
        assert_eq!(pack.sector(DiskAddress(2)).unwrap().data[0], 0xBEEF);
    }

    #[test]
    fn mid_chain_failure_reschedules_the_remainder() {
        // Regression: the scheduled path used to compute the rotational
        // schedule once and keep charging chain members on it after a
        // mid-chain failure. A failure halts the chain, so the unserved
        // remainder must be replanned under a fresh command set-up.
        let mut d = drive();
        for i in 0..3u16 {
            allocate(&mut d, DiskAddress(i), live_label(i));
        }
        let t = d.timing().unwrap();
        let wait = t.rotational_wait(d.clock().now(), 0);
        d.clock().advance(wait);
        let start = d.clock().now();
        let command_before = d.stats().command_time;
        let mut batch = Vec::new();
        for i in 0..3u16 {
            // Sector 1 is served first (set-up eats into slot 0) and its
            // request carries the wrong label, so the chain halts at once.
            let claimed = if i == 1 {
                live_label(11)
            } else {
                live_label(i)
            };
            batch.push(crate::sched::BatchRequest::new(
                DiskAddress(i),
                SectorOp::READ,
                SectorBuf::with_label(claimed),
            ));
        }
        let results = d.do_batch(&mut batch);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DiskError::Check(_))));
        assert!(results[2].is_ok());
        // Failing pass: set-up + align to slot 1 + one sector = 2 slots.
        // Fresh command for the remainder {0, 2}: its set-up eats into
        // slot 2, so sector 0 is soonest (10 slots away), then sector 2
        // lands 2 slots later. Total: 15 slots = one revolution + 3.
        assert_eq!(
            d.clock().now() - start,
            t.revolution() + t.sector_time.scaled(3)
        );
        // And the remainder paid a second command set-up.
        assert_eq!(
            d.stats().command_time - command_before,
            t.command_overhead.scaled(2)
        );
    }

    #[test]
    fn seek_charged_once_per_cylinder_move() {
        let mut d = drive();
        let g = d.geometry().unwrap();
        let far = g.from_chs(crate::geometry::Chs {
            cylinder: 100,
            head: 0,
            sector: 0,
        });
        let mut buf = SectorBuf::zeroed();
        d.do_op(far, SectorOp::READ_ALL, &mut buf).unwrap();
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.current_cylinder(), 100);
        // Same cylinder again: no seek.
        d.do_op(far, SectorOp::READ_ALL, &mut buf).unwrap();
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn failed_check_counted_and_costs_the_pass() {
        let mut d = drive();
        let mut buf = SectorBuf::with_label(live_label(0));
        let before = d.clock().now();
        let err = d.do_op(DiskAddress(50), SectorOp::READ, &mut buf);
        assert!(matches!(err, Err(DiskError::Check(_))));
        assert_eq!(d.stats().failed_checks, 1);
        // Time was still charged (the sector had to pass under the head).
        assert!(d.clock().now() > before);
    }

    #[test]
    fn damaged_sector_hard_errors_on_read() {
        let mut d = drive();
        allocate(&mut d, DiskAddress(70), live_label(0));
        d.pack_mut().unwrap().damage(DiskAddress(70));
        let mut buf = SectorBuf::with_label(live_label(0));
        let err = d.do_op(DiskAddress(70), SectorOp::READ, &mut buf);
        assert_eq!(
            err,
            Err(DiskError::HardError {
                da: DiskAddress(70),
                part: SectorPart::Value
            })
        );
        // The label was still readable, so the caller knows which page died.
        assert_eq!(buf.decoded_label(), live_label(0));
        // Label-only operations still work, so the Scavenger can quarantine.
        let mut buf = SectorBuf::with_label(Label::BAD);
        buf.data = [u16::MAX; crate::sector::DATA_WORDS];
        d.do_op(DiskAddress(70), SectorOp::WRITE_LABEL, &mut buf)
            .unwrap();
        assert!(d
            .pack()
            .unwrap()
            .sector(DiskAddress(70))
            .unwrap()
            .decoded_label()
            .is_bad());
    }

    #[test]
    fn transient_fault_counts_a_soft_error_and_clears() {
        let mut d = drive();
        allocate(&mut d, DiskAddress(20), live_label(0));
        d.injector_mut().arm_read(
            DiskAddress(20),
            crate::inject::FaultKind::SoftRead { attempts: 1 },
        );
        let mut buf = SectorBuf::with_label(live_label(0));
        let err = d.do_op(DiskAddress(20), SectorOp::READ, &mut buf);
        assert!(matches!(err, Err(DiskError::Transient { attempt: 1, .. })));
        assert_eq!(d.stats().soft_errors, 1);
        // Time was charged — the sector passed under the head — and the
        // fault cleared, so a plain re-issue succeeds.
        let mut buf = SectorBuf::with_label(live_label(0));
        d.do_op(DiskAddress(20), SectorOp::READ, &mut buf).unwrap();
        assert_eq!(buf.data[0], 7);
    }

    #[test]
    fn unload_and_reload_pack_preserves_contents() {
        let mut d = drive();
        allocate(&mut d, DiskAddress(10), live_label(0));
        let pack = d.unload_pack().unwrap();
        assert!(d.pack().is_none());
        let mut d2 = DiskDrive::new(d.clock.clone(), Trace::new());
        d2.load_pack(pack);
        let mut buf = SectorBuf::with_label(live_label(0));
        d2.do_op(DiskAddress(10), SectorOp::READ, &mut buf).unwrap();
        assert_eq!(buf.data[0], 7);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut d = drive();
        allocate(&mut d, DiskAddress(0), live_label(0));
        let s = d.stats();
        assert_eq!(s.ops, 2);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.label_writes, 1);
        assert!(s.busy_time() > SimTime::ZERO);
        d.reset_stats();
        assert_eq!(d.stats(), DriveStats::default());
    }

    /// `do_batch_read` must be `do_batch`-with-`READ_ALL` in every
    /// observable way except the missing copy-out: same simulated elapsed
    /// time, same stats, same results, same trace, same delivered words.
    #[test]
    fn batch_read_views_match_buffered_batch_exactly() {
        let das: Vec<DiskAddress> = (0..300).map(DiskAddress).collect();

        let mut buffered = drive();
        buffered.trace().set_enabled(true);
        buffered.pack_mut().unwrap().damage(DiskAddress(70));
        buffered.pack_mut().unwrap().damage(DiskAddress(200));
        let t0 = buffered.clock().now();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        let buffered_results = buffered.do_batch(&mut batch);
        let buffered_elapsed = buffered.clock().now() - t0;

        let mut viewed = drive();
        viewed.trace().set_enabled(true);
        viewed.pack_mut().unwrap().damage(DiskAddress(70));
        viewed.pack_mut().unwrap().damage(DiskAddress(200));
        let t0 = viewed.clock().now();
        let mut seen: Vec<(usize, [u16; 2], u16)> = Vec::new();
        let view_results = viewed.do_batch_read(&das, |i, v| {
            seen.push((i, *v.header(), v.data()[0]));
        });
        let view_elapsed = viewed.clock().now() - t0;

        assert_eq!(buffered_elapsed, view_elapsed);
        assert_eq!(buffered_results, view_results);
        assert_eq!(buffered.stats(), viewed.stats());
        assert_eq!(buffered.trace().events(), viewed.trace().events());
        // Every successful request was visited exactly once, with the same
        // words the buffered form copied out.
        assert_eq!(seen.len(), das.len() - 2);
        for &(i, header, word0) in &seen {
            assert!(buffered_results[i].is_ok());
            assert_eq!(header, batch[i].buf.header);
            assert_eq!(word0, batch[i].buf.data[0]);
        }
        for (i, r) in view_results.iter().enumerate() {
            if r.is_err() {
                assert!(!seen.iter().any(|&(j, _, _)| j == i), "visited failed {i}");
            }
        }
    }

    /// Each view reaches its visitor with the shared clock at the instant
    /// its sector left the platter, and what a visitor spends on the shared
    /// clock overlaps the rest of the chain instead of being erased.
    #[test]
    fn batch_read_lends_each_view_at_its_instant() {
        let das: Vec<DiskAddress> = (0..30).map(DiskAddress).collect();
        let mut quiet = drive();
        let t0 = quiet.clock().now();
        let mut instants = Vec::new();
        quiet.do_batch_read(&das, |_, v| instants.push(v.at()));
        let disk_end = quiet.clock().now();
        assert_eq!(instants.len(), das.len());
        assert!(instants[0] > t0);
        assert!(instants.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(instants.last().copied(), Some(disk_end));

        // Each visit spends two sector times on the shared clock, so the
        // visits fall behind the platter; the platter does not wait.
        let mut busy = drive();
        let spend = busy.timing().unwrap().sector_time.scaled(2);
        let clock = busy.clock().clone();
        let mut free_at = t0;
        let mut k = 0;
        busy.do_batch_read(&das, |_, v| {
            assert_eq!(v.at(), instants[k]);
            assert_eq!(clock.now(), v.at().max(free_at));
            clock.advance(spend);
            free_at = clock.now();
            k += 1;
        });
        assert!(free_at > disk_end, "the visits should outlast the platter");
        assert_eq!(busy.clock().now(), free_at);
        assert_eq!(busy.stats(), quiet.stats());
    }

    /// With the auditor attached the view read stages every request
    /// through a buffer — timing and stats must still match `do_batch`, and
    /// the auditor must observe a §3.3-clean run.
    #[test]
    fn batch_read_views_under_audit_match_and_stay_clean() {
        let das: Vec<DiskAddress> = (0..100).map(DiskAddress).collect();

        let mut buffered = drive();
        buffered.enable_audit();
        let t0 = buffered.clock().now();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        buffered.do_batch(&mut batch);
        let buffered_elapsed = buffered.clock().now() - t0;

        let mut viewed = drive();
        let auditor = viewed.enable_audit();
        let t0 = viewed.clock().now();
        let mut visits = 0usize;
        let results = viewed.do_batch_read(&das, |_, v| {
            std::hint::black_box(v.data()[0]);
            visits += 1;
        });
        let view_elapsed = viewed.clock().now() - t0;

        assert_eq!(buffered_elapsed, view_elapsed);
        assert_eq!(buffered.stats(), viewed.stats());
        assert_eq!(visits, das.len());
        assert!(results.iter().all(Result::is_ok));
        assert!(auditor.violations().is_empty());
    }

    /// Malformed addresses are rejected up front and never visited, like
    /// `do_batch`'s prechecks.
    #[test]
    fn batch_read_prechecks_out_of_range_addresses() {
        let mut d = drive();
        let das = vec![DiskAddress(0), DiskAddress(u16::MAX), DiskAddress(1)];
        let results = d.do_batch_read(&das, |i, _| assert_ne!(i, 1));
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DiskError::InvalidAddress(_))));
        assert!(results[2].is_ok());
    }

    /// `do_batch_write` must be `do_batch`-with-`WRITE` in every observable
    /// way except the staging copy: same simulated elapsed time, same stats,
    /// same results (including mid-batch check failures and the
    /// halt-and-replan that follows them), same trace, same platter words.
    #[test]
    fn batch_write_views_match_buffered_batch_exactly() {
        let das: Vec<DiskAddress> = (0..300).map(DiskAddress).collect();
        let datas: Vec<[u16; crate::sector::DATA_WORDS]> = (0..300)
            .map(|i| [i as u16; crate::sector::DATA_WORDS])
            .collect();
        // Two requests carry a label pattern that cannot match the free
        // label on the platter — a §3.3 check failure mid-chain.
        let bad_label: [u16; crate::label::LABEL_WORDS] = [5, 0, 0, 0, 0, 0, 0];
        let label_for = |i: usize| {
            if i == 70 || i == 200 {
                bad_label
            } else {
                [0; crate::label::LABEL_WORDS]
            }
        };

        let mut buffered = drive();
        buffered.trace().set_enabled(true);
        let t0 = buffered.clock().now();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .enumerate()
            .map(|(i, &da)| {
                let mut buf = SectorBuf::zeroed();
                buf.label = label_for(i);
                buf.data = datas[i];
                BatchRequest::new(da, SectorOp::WRITE, buf)
            })
            .collect();
        let buffered_results = buffered.do_batch(&mut batch);
        let buffered_elapsed = buffered.clock().now() - t0;

        let mut viewed = drive();
        viewed.trace().set_enabled(true);
        let t0 = viewed.clock().now();
        let mut seen: Vec<(usize, [u16; 2], [u16; crate::label::LABEL_WORDS], u16)> = Vec::new();
        let view_results = viewed.do_batch_write(
            &das,
            |i| WriteSource {
                header: [0, 0],
                label: label_for(i),
                data: &datas[i],
            },
            |i, v| seen.push((i, *v.header(), *v.label().words(), v.data()[0])),
        );
        let view_elapsed = viewed.clock().now() - t0;

        assert_eq!(buffered_elapsed, view_elapsed);
        assert_eq!(buffered_results, view_results);
        assert_eq!(buffered.stats(), viewed.stats());
        assert_eq!(buffered.trace().events(), viewed.trace().events());
        assert!(matches!(view_results[70], Err(DiskError::Check(_))));
        assert!(matches!(view_results[200], Err(DiskError::Check(_))));
        // Every successful request was visited exactly once, with the same
        // words the buffered form captured into its staging buffer.
        assert_eq!(seen.len(), das.len() - 2);
        for &(i, header, label, word0) in &seen {
            assert!(buffered_results[i].is_ok());
            assert_eq!(header, batch[i].buf.header);
            assert_eq!(label, batch[i].buf.label);
            assert_eq!(word0, batch[i].buf.data[0]);
        }
        // And the platters agree word for word.
        for &da in &das {
            let b = buffered.pack().unwrap().sector(da).unwrap();
            let v = viewed.pack().unwrap().sector(da).unwrap();
            assert_eq!(b.header, v.header);
            assert_eq!(b.label, v.label);
            assert_eq!(b.data, v.data, "data diverged at {da}");
        }
    }

    /// With the auditor attached the view write stages every request
    /// through a buffer — timing and stats must still match `do_batch`, and
    /// the auditor must observe a §3.3-clean run.
    #[test]
    fn batch_write_views_under_audit_match_and_stay_clean() {
        let das: Vec<DiskAddress> = (0..100).map(DiskAddress).collect();
        let datas: Vec<[u16; crate::sector::DATA_WORDS]> = (0..100)
            .map(|i| [i as u16; crate::sector::DATA_WORDS])
            .collect();

        let mut buffered = drive();
        buffered.enable_audit();
        let t0 = buffered.clock().now();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .enumerate()
            .map(|(i, &da)| {
                let mut buf = SectorBuf::zeroed();
                buf.data = datas[i];
                BatchRequest::new(da, SectorOp::WRITE, buf)
            })
            .collect();
        buffered.do_batch(&mut batch);
        let buffered_elapsed = buffered.clock().now() - t0;

        let mut viewed = drive();
        let auditor = viewed.enable_audit();
        let t0 = viewed.clock().now();
        let mut visits = 0usize;
        let results = viewed.do_batch_write(
            &das,
            |i| WriteSource {
                header: [0, 0],
                label: [0; crate::label::LABEL_WORDS],
                data: &datas[i],
            },
            |_, v| {
                std::hint::black_box(v.data()[0]);
                visits += 1;
            },
        );
        let view_elapsed = viewed.clock().now() - t0;

        assert_eq!(buffered_elapsed, view_elapsed);
        assert_eq!(buffered.stats(), viewed.stats());
        assert_eq!(visits, das.len());
        assert!(results.iter().all(Result::is_ok));
        assert!(auditor.violations().is_empty());
    }

    /// An armed fault injector stages every request through a buffer: the
    /// injected fault's semantics (here a silently dropped write) must land
    /// exactly as they do on the `do_batch` path.
    #[test]
    fn batch_write_views_with_armed_injector_match_buffered() {
        let das: Vec<DiskAddress> = (0..20).map(DiskAddress).collect();
        let datas: Vec<[u16; crate::sector::DATA_WORDS]> = (0..20)
            .map(|i| [i as u16 + 1; crate::sector::DATA_WORDS])
            .collect();

        let mut buffered = drive();
        buffered
            .injector_mut()
            .arm(DiskAddress(10), crate::inject::FaultKind::DropWrite);
        let t0 = buffered.clock().now();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .enumerate()
            .map(|(i, &da)| {
                let mut buf = SectorBuf::zeroed();
                buf.data = datas[i];
                BatchRequest::new(da, SectorOp::WRITE, buf)
            })
            .collect();
        let buffered_results = buffered.do_batch(&mut batch);
        let buffered_elapsed = buffered.clock().now() - t0;

        let mut viewed = drive();
        viewed
            .injector_mut()
            .arm(DiskAddress(10), crate::inject::FaultKind::DropWrite);
        let t0 = viewed.clock().now();
        let view_results = viewed.do_batch_write(
            &das,
            |i| WriteSource {
                header: [0, 0],
                label: [0; crate::label::LABEL_WORDS],
                data: &datas[i],
            },
            |_, _| {},
        );
        let view_elapsed = viewed.clock().now() - t0;

        assert_eq!(buffered_elapsed, view_elapsed);
        assert_eq!(buffered_results, view_results);
        assert_eq!(buffered.stats(), viewed.stats());
        for &da in &das {
            let b = buffered.pack().unwrap().sector(da).unwrap();
            let v = viewed.pack().unwrap().sector(da).unwrap();
            assert_eq!(b.data, v.data, "data diverged at {da}");
        }
        // The dropped write really dropped on both paths: the intended
        // words never landed.
        assert_ne!(
            viewed.pack().unwrap().sector(DiskAddress(10)).unwrap().data,
            datas[10]
        );
        assert_eq!(
            viewed.pack().unwrap().sector(DiskAddress(11)).unwrap().data,
            datas[11]
        );
    }

    /// Malformed addresses are rejected up front and never written or
    /// visited, like `do_batch`'s prechecks.
    #[test]
    fn batch_write_prechecks_out_of_range_addresses() {
        let mut d = drive();
        let das = vec![DiskAddress(0), DiskAddress(u16::MAX), DiskAddress(1)];
        let data = [9u16; crate::sector::DATA_WORDS];
        let results = d.do_batch_write(
            &das,
            |_| WriteSource {
                header: [0, 0],
                label: [0; crate::label::LABEL_WORDS],
                data: &data,
            },
            |i, _| assert_ne!(i, 1),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DiskError::InvalidAddress(_))));
        assert!(results[2].is_ok());
        assert_eq!(d.pack().unwrap().sector(DiskAddress(0)).unwrap().data[0], 9);
    }
}
