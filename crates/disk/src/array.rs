//! N-arm drive arrays (§2, generalized).
//!
//! The paper's machine room grows one drive at a time: "one or two
//! moving-head disk drives", each an independent arm over its own pack.
//! [`DriveArray`] generalizes the two-drive adapter to N arms behind the
//! same abstract disk object (§2/§5.2): a *sharding layer* maps every
//! global disk address to exactly one arm and a local address on it, a
//! spanning batch is split into per-arm sub-batches, and the sub-batches
//! run on *overlapped simulated timelines* — every arm starts at the same
//! instant and the batch's elapsed time is the maximum over the arms, not
//! the sum, because each arm seeks and transfers independently.
//!
//! Two placement policies are selectable:
//!
//! * [`Placement::Range`] — arm `k` owns one contiguous span of the global
//!   address space (the two-drive layout, generalized; mixed geometries
//!   allowed). Consecutive addresses stay on one arm, so a single file
//!   streams from a single arm and *different* files parallelize.
//! * [`Placement::Hash`] — global address `a` lives on arm `a mod N` at
//!   local address `a div N` (uniform geometries required). Consecutive
//!   addresses interleave across all arms, so even one sequential chain
//!   parallelizes N ways.
//!
//! One routine routes, splits and overlaps both the buffered and the
//! zero-copy batch forms. The arms' shares run one after another on the
//! caller's thread, each from the batch's start instant on the shared
//! clock, and the clock then moves to the latest finish.
//! `set_overlap_enabled(false)` serializes the arms on the shared timeline
//! (the ablation), and a one-arm array degenerates to a plain pass-through.

use alto_sim::{SimClock, SimTime, Trace};

use crate::drive::{Disk, DiskDrive, DriveStats};
use crate::errors::DiskError;
use crate::geometry::{DiskAddress, DiskGeometry};
use crate::pool;
use crate::sched::BatchRequest;
use crate::sector::{SectorBuf, SectorOp};
use crate::view::SectorView;

/// How a global disk address is assigned to an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Arm `k` owns one contiguous range of the global address space, in
    /// arm order — the two-drive layout generalized. Mixed geometries are
    /// allowed; each arm's span is its own pack's sector count.
    Range,
    /// Global address `a` maps to arm `a mod N`, local address `a div N`.
    /// Consecutive global addresses interleave across all arms (so one
    /// sequential chain engages every arm); requires uniform geometries.
    Hash,
}

/// N drives presented as one disk whose address space is the union of the
/// member packs, with batches that span arms served on overlapped
/// simulated timelines (elapsed = max over the arms).
#[derive(Debug)]
pub struct DriveArray {
    arms: Vec<DiskDrive>,
    placement: Placement,
    /// Cumulative span starts for [`Placement::Range`]: arm `k` owns global
    /// addresses `starts[k] .. starts[k + 1]`; `starts[N] == total`.
    starts: Vec<u32>,
    total: u32,
    shape: DiskGeometry,
    overlap: bool,
    overlap_batches: u64,
    overlap_saved: SimTime,
    /// Per-arm `(original indices, local addresses)` split storage, kept
    /// across batches so the steady state allocates nothing.
    split: Vec<(Vec<usize>, Vec<DiskAddress>)>,
    /// One arm's translated share of a buffered batch, likewise recycled.
    share: Vec<BatchRequest>,
}

/// How a batch form hands an arm its share: the one thing `do_batch` and
/// `do_batch_read` differ in.
trait Form {
    /// Request `i`'s global address.
    fn da(&self, i: usize) -> DiskAddress;

    /// Serves requests `idxs` (indices into the batch) at the arm-local
    /// addresses `locals` on `arm`, one result per request.
    fn serve(
        &mut self,
        arm: &mut DiskDrive,
        idxs: &[usize],
        locals: &[DiskAddress],
    ) -> Vec<Result<(), DiskError>>;
}

/// Buffered requests, translated to each arm's physical view on the way in
/// and back to the caller's global view on the way out.
struct Buffered<'b> {
    batch: &'b mut [BatchRequest],
    share: &'b mut Vec<BatchRequest>,
    pack0: Option<u16>,
}

impl Form for Buffered<'_> {
    fn da(&self, i: usize) -> DiskAddress {
        self.batch[i].da
    }

    fn serve(
        &mut self,
        arm: &mut DiskDrive,
        idxs: &[usize],
        locals: &[DiskAddress],
    ) -> Vec<Result<(), DiskError>> {
        let packs = self.pack0.zip(arm.pack_number().ok());
        self.share.clear();
        for (&i, &local) in idxs.iter().zip(locals) {
            let req = &mut self.batch[i];
            let mut buf = std::mem::take(&mut req.buf);
            localize(&mut buf, packs, req.da, local);
            self.share.push(BatchRequest::new(local, req.op, buf));
        }
        let results = arm.do_batch(self.share);
        for ((&i, done), result) in idxs.iter().zip(self.share.iter_mut()).zip(&results) {
            let req = &mut self.batch[i];
            globalize(&mut done.buf, result, done.da, req.da);
            req.buf = std::mem::take(&mut done.buf);
        }
        results
    }
}

/// Zero-copy reads: each arm lends its own platter sectors, so a view's
/// header carries the arm-local address — callers verify pages by *label*
/// (fid, page number), which is position-independent.
struct Lent<'d, F> {
    das: &'d [DiskAddress],
    visit: F,
}

impl<F: FnMut(usize, SectorView<'_>)> Form for Lent<'_, F> {
    fn da(&self, i: usize) -> DiskAddress {
        self.das[i]
    }

    fn serve(
        &mut self,
        arm: &mut DiskDrive,
        idxs: &[usize],
        locals: &[DiskAddress],
    ) -> Vec<Result<(), DiskError>> {
        let visit = &mut self.visit;
        arm.do_batch_read(locals, |j, view| visit(idxs[j], view))
    }
}

/// Translates a request's header pattern from the caller's global view to
/// the physical sector's: each sector self-identifies with its own pack's
/// number (`packs` is arm 0's and the serving arm's) and its local address.
/// Zero stays zero: it is the check wildcard.
fn localize(buf: &mut SectorBuf, packs: Option<(u16, u16)>, da: DiskAddress, local: DiskAddress) {
    if let Some((pack0, unit)) = packs {
        if buf.header[0] == pack0 {
            buf.header[0] = unit;
        }
    }
    if buf.header[1] == da.0 && da.0 != 0 {
        buf.header[1] = local.0;
    }
}

/// Translates a served sector's local self-address back to the global one.
fn globalize(
    buf: &mut SectorBuf,
    result: &Result<(), DiskError>,
    local: DiskAddress,
    da: DiskAddress,
) {
    if result.is_ok() && buf.header[1] == local.0 {
        buf.header[1] = da.0;
    }
}

impl DriveArray {
    /// Combines the given loaded drives into one array.
    ///
    /// Returns an error if there are no arms, any arm is empty, the
    /// combined address space does not fit 16-bit disk addresses, the
    /// member shapes cannot be presented as one composite geometry, or
    /// [`Placement::Hash`] is requested over mixed geometries.
    pub fn new(arms: Vec<DiskDrive>, placement: Placement) -> Result<DriveArray, DiskError> {
        if arms.is_empty() {
            return Err(DiskError::MalformedOp("drive array needs at least one arm"));
        }
        let mut starts = Vec::with_capacity(arms.len() + 1);
        let mut total = 0u32;
        let g0 = arms[0].geometry()?;
        for arm in &arms {
            let g = arm.geometry()?;
            if placement == Placement::Hash && g != g0 {
                return Err(DiskError::MalformedOp(
                    "hash placement requires uniform arm geometries",
                ));
            }
            starts.push(total);
            total += g.sector_count();
        }
        starts.push(total);
        if total >= u16::MAX as u32 {
            return Err(DiskError::MalformedOp(
                "drive-array address space exceeds 16-bit disk addresses",
            ));
        }
        // The composite shape keeps arm 0's track layout and stacks the
        // union as extra cylinders when the capacities divide evenly, so
        // CHS locality stays meaningful within each arm's span; otherwise
        // (mixed geometries that do not stack) the shape degenerates to one
        // sector per track — only the exact sector count matters to the
        // layers above.
        let per_cyl = g0.heads as u32 * g0.sectors as u32;
        let shape = if per_cyl > 0 && total.is_multiple_of(per_cyl) {
            DiskGeometry {
                cylinders: (total / per_cyl) as u16,
                heads: g0.heads,
                sectors: g0.sectors,
            }
        } else {
            DiskGeometry {
                cylinders: total as u16,
                heads: 1,
                sectors: 1,
            }
        };
        let count = arms.len();
        Ok(DriveArray {
            arms,
            placement,
            starts,
            total,
            shape,
            overlap: true,
            overlap_batches: 0,
            overlap_saved: SimTime::ZERO,
            split: (0..count).map(|_| Default::default()).collect(),
            share: Vec::new(),
        })
    }

    /// Convenience: `count` freshly formatted packs of one model on a
    /// shared timeline, pack numbers `1 ..= count`.
    pub fn with_arms(
        count: usize,
        placement: Placement,
        clock: SimClock,
        trace: Trace,
        model: crate::geometry::DiskModel,
    ) -> DriveArray {
        let arms = (1..=count as u16)
            .map(|pack| DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), model, pack))
            .collect();
        DriveArray::new(arms, placement).expect("identical fresh packs")
    }

    /// The arm and local address for a global address (prechecked to be in
    /// range).
    fn route(&self, da: DiskAddress) -> (usize, DiskAddress) {
        let v = da.0 as u32;
        match self.placement {
            Placement::Hash => {
                let n = self.arms.len() as u32;
                ((v % n) as usize, DiskAddress((v / n) as u16))
            }
            Placement::Range => {
                let mut arm = self.arms.len() - 1;
                for k in 0..self.arms.len() {
                    if v < self.starts[k + 1] {
                        arm = k;
                        break;
                    }
                }
                (arm, DiskAddress((v - self.starts[arm]) as u16))
            }
        }
    }

    /// The global address of `local` on `arm` — [`DriveArray::route`]'s
    /// inverse.
    #[cfg(test)]
    fn unroute(&self, arm: usize, local: DiskAddress) -> DiskAddress {
        match self.placement {
            Placement::Hash => {
                DiskAddress((local.0 as u32 * self.arms.len() as u32 + arm as u32) as u16)
            }
            Placement::Range => DiskAddress((self.starts[arm] + local.0 as u32) as u16),
        }
    }

    /// The placement policy in effect.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Access to one of the member drives.
    pub fn arm(&self, arm: usize) -> &DiskDrive {
        &self.arms[arm]
    }

    /// Mutable access to one of the member drives.
    pub fn arm_mut(&mut self, arm: usize) -> &mut DiskDrive {
        &mut self.arms[arm]
    }

    /// Enables or disables overlapped execution of batches that span two or
    /// more arms (enabled by default). Disabled, the arms run one after the
    /// other on the shared timeline — the serialized ablation.
    pub fn set_overlap_enabled(&mut self, enabled: bool) {
        self.overlap = enabled;
    }

    /// Batches run on host threads: always 0, since every arm's share runs
    /// on the caller's thread. Kept for reports that still print the count.
    pub fn threaded_batches(&self) -> u64 {
        0
    }

    /// Sets the retry limit on every arm (see [`DiskDrive::set_retries`]).
    pub fn set_retries(&mut self, retries: u32) {
        for d in &mut self.arms {
            d.set_retries(retries);
        }
    }

    /// The one route/split/overlap routine. Requests are split by arm
    /// (stable within each arm, so per-arm chaining still sees sorted runs)
    /// and results land back in the batch's original order. Every arm has
    /// its own head assembly and data path, so a batch that spans arms runs
    /// each share from the same start instant and the clock ends at the
    /// *last* finish (elapsed = max over the arms, not the sum). `what`
    /// names the requests in the `disk.io.overlap` event.
    fn spread<F: Form>(
        &mut self,
        n: usize,
        form: &mut F,
        what: &str,
    ) -> Vec<Result<(), DiskError>> {
        // The result vector comes from the free lists and the split storage
        // is kept on the adapter, so the steady state allocates nothing.
        let mut results = pool::results_vec();
        results.extend((0..n).map(|_| Ok(())));
        let mut split = std::mem::take(&mut self.split);
        for (idxs, locals) in &mut split {
            idxs.clear();
            locals.clear();
        }
        for (i, slot) in results.iter_mut().enumerate() {
            let da = form.da(i);
            if da.is_nil() || (da.0 as u32) >= self.total {
                *slot = Err(DiskError::InvalidAddress(da));
                continue;
            }
            let (arm, local) = self.route(da);
            split[arm].0.push(i);
            split[arm].1.push(local);
        }
        let occupied = split.iter().filter(|(idxs, _)| !idxs.is_empty()).count();
        let overlapped = self.overlap && occupied >= 2;
        let clock = self.arms[0].clock().clone();
        let t0 = clock.now();
        let (mut longest, mut total) = (SimTime::ZERO, SimTime::ZERO);
        for (drive, (idxs, locals)) in self.arms.iter_mut().zip(&split) {
            if idxs.is_empty() {
                continue;
            }
            if overlapped {
                clock.set(t0);
            }
            let sub = form.serve(drive, idxs, locals);
            let elapsed = clock.now() - t0;
            longest = longest.max(elapsed);
            total += elapsed;
            for (&i, &result) in idxs.iter().zip(sub.iter()) {
                results[i] = result;
            }
            pool::recycle_results(sub);
        }
        if overlapped {
            let saved = total - longest;
            clock.set(t0 + longest);
            self.overlap_batches += 1;
            self.overlap_saved += saved;
            self.arms[0]
                .trace()
                .record_with(clock.now(), "disk.io.overlap", || {
                    let counts = split
                        .iter()
                        .map(|(idxs, _)| idxs.len().to_string())
                        .collect::<Vec<_>>()
                        .join("+");
                    format!("{counts} {what}requests overlapped, {saved} saved")
                });
        }
        self.split = split;
        results
    }
}

impl Disk for DriveArray {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        Ok(self.shape)
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        self.arms[0].pack_number()
    }

    fn arm_count(&self) -> usize {
        self.arms.len()
    }

    fn arm_of(&self, da: DiskAddress) -> usize {
        if da.is_nil() || (da.0 as u32) >= self.total {
            0
        } else {
            self.route(da).0
        }
    }

    fn arm_origin(&self, arm: usize) -> Option<DiskAddress> {
        // Only range placement has per-arm contiguous spans worth steering
        // allocation toward; hash placement interleaves consecutive
        // addresses across arms by construction.
        if self.placement == Placement::Range && self.arms.len() > 1 && arm < self.arms.len() {
            Some(DiskAddress(self.starts[arm] as u16))
        } else {
            None
        }
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        if da.is_nil() || (da.0 as u32) >= self.total {
            return Err(DiskError::InvalidAddress(da));
        }
        let (arm, local) = self.route(da);
        let packs = (self.arms[0].pack_number()?, self.arms[arm].pack_number()?);
        localize(buf, Some(packs), da, local);
        let result = self.arms[arm].do_op(local, op, buf);
        globalize(buf, &result, local, da);
        result
    }

    fn do_batch_read<F>(&mut self, das: &[DiskAddress], visit: F) -> Vec<Result<(), DiskError>>
    where
        F: FnMut(usize, SectorView<'_>),
    {
        self.spread(das.len(), &mut Lent { das, visit }, "read ")
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        let mut share = std::mem::take(&mut self.share);
        let mut form = Buffered {
            pack0: self.arms[0].pack_number().ok(),
            batch,
            share: &mut share,
        };
        let results = self.spread(form.batch.len(), &mut form, "");
        self.share = share;
        results
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.arms[0].note_readahead(hits, prefetched);
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.arms[0].note_write_behind(pages);
    }

    fn io_stats(&self) -> DriveStats {
        // Per-arm counters merge; the overlap accounting lives here, on
        // the adapter that does the overlapping.
        let mut s = self
            .arms
            .iter()
            .fold(DriveStats::default(), |acc, d| acc.merged(&d.stats()));
        s.overlap_batches = self.overlap_batches;
        s.overlap_saved = self.overlap_saved;
        s
    }

    fn write_epoch(&self) -> u64 {
        self.arms.iter().map(super::drive::Disk::write_epoch).sum()
    }

    // Every arm shares one retry policy (set via `set_retries`); arm 0
    // answers for it and collects the sequence outcomes.
    fn retry_limit(&self) -> u32 {
        self.arms[0].retry_limit()
    }

    fn retry_backoff(&self) -> SimTime {
        self.arms[0].retry_backoff()
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.arms[0].note_retry(retries, recovered);
    }

    // Park/drain accounting routes to the arm that owns the address, in
    // that arm's local address space — the same translation its sector
    // operations get, so its auditor sees consistent addresses.
    fn note_park(&mut self, da: DiskAddress, page: u16) {
        let (arm, local) = self.route(da);
        self.arms[arm].note_park(local, page);
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: crate::audit::UnparkOutcome) {
        let (arm, local) = self.route(da);
        self.arms[arm].note_unpark(local, page, outcome);
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        for d in &mut self.arms {
            d.set_audit_enabled(enabled);
        }
    }

    fn audit_violations(&self) -> u64 {
        self.arms
            .iter()
            .map(super::drive::Disk::audit_violations)
            .sum()
    }

    fn clock(&self) -> &SimClock {
        self.arms[0].clock()
    }

    fn trace(&self) -> &Trace {
        self.arms[0].trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskModel;
    use crate::label::Label;
    use crate::sector::DATA_WORDS;

    fn array(count: usize, placement: Placement) -> DriveArray {
        DriveArray::with_arms(
            count,
            placement,
            SimClock::new(),
            Trace::new(),
            DiskModel::Diablo31,
        )
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

    fn allocate(d: &mut DriveArray, da: DiskAddress, label: Label) {
        let mut buf = SectorBuf::with_label(Label::FREE);
        d.do_op(da, SectorOp::CHECK_LABEL, &mut buf).unwrap();
        let mut buf = SectorBuf::with_label(label);
        buf.data = [da.0; DATA_WORDS];
        d.do_op(da, SectorOp::WRITE_LABEL, &mut buf).unwrap();
    }

    #[test]
    fn every_address_routes_to_exactly_one_arm() {
        // The sharding invariant, both policies, K ∈ {1, 2, 4, 8}: routing
        // is total, the local address is in the arm's range, and unroute
        // inverts route — so each global address has exactly one home.
        for placement in [Placement::Range, Placement::Hash] {
            for k in [1usize, 2, 4, 8] {
                let d = array(k, placement);
                let total = d.geometry().unwrap().sector_count();
                assert_eq!(total, 4872 * k as u32);
                let mut per_arm = vec![0u32; k];
                for a in 0..total as u16 {
                    let (arm, local) = d.route(DiskAddress(a));
                    assert!(arm < k);
                    assert!(
                        (local.0 as u32) < d.arms[arm].geometry().unwrap().sector_count(),
                        "{placement:?} K={k} addr {a}"
                    );
                    assert_eq!(d.unroute(arm, local), DiskAddress(a));
                    assert_eq!(d.arm_of(DiskAddress(a)), arm);
                    per_arm[arm] += 1;
                }
                // Exact partition: the shares cover the space with no
                // overlap and no gap.
                assert_eq!(per_arm.iter().sum::<u32>(), total);
                for (arm, &n) in per_arm.iter().enumerate() {
                    assert_eq!(n, 4872, "{placement:?} K={k} arm {arm}");
                }
            }
        }
    }

    #[test]
    fn round_trip_across_arm_boundaries_is_bit_identical() {
        // Writes then reads spanning every arm, K ∈ {1, 2, 4, 8}, both
        // policies, with the §3.3 auditor armed on every arm: the data and
        // labels come back bit-identical through the global address space
        // and the audit stays clean.
        for placement in [Placement::Range, Placement::Hash] {
            for k in [1usize, 2, 4, 8] {
                let mut d = array(k, placement);
                d.set_audit_enabled(true);
                let total = d.geometry().unwrap().sector_count();
                // Addresses straddling each arm boundary plus a spread.
                let mut das: Vec<DiskAddress> = Vec::new();
                for arm in 1..k {
                    let boundary = (total as usize * arm / k) as u16;
                    das.push(DiskAddress(boundary - 1));
                    das.push(DiskAddress(boundary));
                }
                das.push(DiskAddress(1));
                das.push(DiskAddress(total as u16 - 1));
                for (i, &da) in das.iter().enumerate() {
                    allocate(&mut d, da, live_label(i as u16));
                }
                let mut batch: Vec<BatchRequest> = das
                    .iter()
                    .enumerate()
                    .map(|(i, &da)| {
                        BatchRequest::new(
                            da,
                            SectorOp::READ,
                            SectorBuf::with_label(live_label(i as u16)),
                        )
                    })
                    .collect();
                for r in d.do_batch(&mut batch) {
                    r.unwrap();
                }
                for (req, &da) in batch.iter().zip(&das) {
                    assert_eq!(req.buf.data, [da.0; DATA_WORDS], "{placement:?} K={k}");
                    assert_eq!(req.buf.header[1], da.0, "{placement:?} K={k}");
                }
                assert_eq!(d.audit_violations(), 0, "{placement:?} K={k}");
            }
        }
    }

    #[test]
    fn mixed_geometries_stack_under_range_placement() {
        // §2's "disk with about twice the size and performance" joins the
        // array: a Diablo arm and a Trident arm present one address space,
        // split at the Diablo's capacity.
        let clock = SimClock::new();
        let trace = Trace::new();
        let d0 =
            DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Trident, 2);
        let mut d = DriveArray::new(vec![d0, d1], Placement::Range).unwrap();
        assert_eq!(d.geometry().unwrap().sector_count(), 4872 + 9744);
        assert_eq!(d.arm_of(DiskAddress(4871)), 0);
        assert_eq!(d.arm_of(DiskAddress(4872)), 1);
        allocate(&mut d, DiskAddress(4871), live_label(0));
        allocate(&mut d, DiskAddress(4872 + 9000), live_label(1));
        let mut buf = SectorBuf::with_label(live_label(1));
        d.do_op(DiskAddress(4872 + 9000), SectorOp::READ, &mut buf)
            .unwrap();
        assert_eq!(buf.data, [(4872 + 9000) as u16; DATA_WORDS]);
        // The physical sector self-identifies with its pack and local
        // address.
        let s = d.arm(1).pack().unwrap().sector(DiskAddress(9000)).unwrap();
        assert_eq!(s.header, [2, 9000]);
    }

    #[test]
    fn hash_placement_requires_uniform_geometries() {
        let clock = SimClock::new();
        let d0 =
            DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Trident, 2);
        assert!(DriveArray::new(vec![d0, d1], Placement::Hash).is_err());
    }

    #[test]
    fn one_arm_array_degenerates_to_a_plain_drive() {
        // The ablation knob "arm-count = 1": routing is the identity, no
        // batch is ever overlapped, and placement hints vanish.
        for placement in [Placement::Range, Placement::Hash] {
            let mut d = array(1, placement);
            assert_eq!(d.arm_count(), 1);
            assert_eq!(d.arm_origin(0), None);
            assert_eq!(d.route(DiskAddress(123)), (0, DiskAddress(123)));
            let mut batch: Vec<BatchRequest> = (0..8u16)
                .map(|i| {
                    BatchRequest::new(DiskAddress(40 + i), SectorOp::READ_ALL, SectorBuf::zeroed())
                })
                .collect();
            for r in d.do_batch(&mut batch) {
                r.unwrap();
            }
            let s = d.io_stats();
            assert_eq!(s.overlap_batches, 0);
            assert_eq!(d.threaded_batches(), 0);
        }
    }

    #[test]
    fn four_arms_overlap_a_spanning_batch() {
        use alto_sim::SimTime;
        // Hash placement interleaves consecutive addresses over all four
        // arms, so a sequential batch engages every arm at once: elapsed is
        // the longest arm's share, well under the serialized sum.
        let run = |overlap: bool| -> SimTime {
            let mut d = array(4, Placement::Hash);
            d.set_overlap_enabled(overlap);
            let mut batch: Vec<BatchRequest> = (0..64u16)
                .map(|a| BatchRequest::new(DiskAddress(a), SectorOp::READ_ALL, SectorBuf::zeroed()))
                .collect();
            let t0 = d.clock().now();
            for r in d.do_batch(&mut batch) {
                r.unwrap();
            }
            if overlap {
                let s = d.io_stats();
                assert_eq!(s.overlap_batches, 1);
                assert!(s.overlap_saved > SimTime::ZERO);
            }
            d.clock().now() - t0
        };
        let serial = run(false);
        let overlapped = run(true);
        // Four equal shares: at least 2.5× out of the ideal 4×.
        assert!(
            overlapped.as_nanos() * 10 <= serial.as_nanos() * 4,
            "overlapped {overlapped} vs serialized {serial}"
        );
    }

    #[test]
    fn hard_error_on_one_arm_still_charges_max_of_arms() {
        use alto_sim::SimTime;
        // Mid-batch media failure on one arm of four: the failed arm
        // reschedules its own remainder (every other request still
        // succeeds, exactly once) and the batch's elapsed time is still
        // the max over the arms — the error must not shear the merged
        // timeline.
        let damaged_global = DiskAddress(4 * 100 + 2); // arm 2, local 100
        let share = |d: &mut DriveArray, arm: u16| -> Vec<BatchRequest> {
            // Eight requests per arm, spread over cylinders; arm 2's share
            // contains the damaged sector in the middle.
            (0..8u16)
                .map(|i| {
                    let local = if arm == 2 && i == 3 {
                        100
                    } else {
                        200 + 37 * i
                    };
                    BatchRequest::new(
                        d.unroute(arm as usize, DiskAddress(local)),
                        SectorOp::READ_ALL,
                        SectorBuf::zeroed(),
                    )
                })
                .collect()
        };
        let elapsed = |which: Option<u16>| -> SimTime {
            let mut d = array(4, Placement::Hash);
            d.set_retries(0);
            d.arm_mut(2).pack_mut().unwrap().damage(DiskAddress(100));
            let mut batch = Vec::new();
            for arm in 0..4u16 {
                if which.is_none() || which == Some(arm) {
                    batch.extend(share(&mut d, arm));
                }
            }
            let t0 = d.clock().now();
            let results = d.do_batch(&mut batch);
            for (req, res) in batch.iter().zip(&results) {
                if req.da == damaged_global {
                    assert!(matches!(res, Err(DiskError::HardError { .. })), "{res:?}");
                } else {
                    assert!(res.is_ok(), "{:?}: {res:?}", req.da);
                }
            }
            if which.is_none() {
                // Each arm serviced its own share exactly once — the
                // failure rescheduled only arm 2's remainder, on arm 2.
                for arm in 0..4 {
                    assert_eq!(d.arm(arm).stats().ops, 8, "arm {arm}");
                }
            }
            d.clock().now() - t0
        };
        let all = elapsed(None);
        let singles: Vec<SimTime> = (0..4).map(|arm| elapsed(Some(arm))).collect();
        let longest = singles.iter().copied().max().unwrap();
        assert!(
            singles[2] > singles[0],
            "the replanned arm pays for its rescheduling"
        );
        assert_eq!(all, longest);
    }

    #[test]
    fn range_placement_exposes_arm_origins() {
        let d = array(4, Placement::Range);
        for arm in 0..4u16 {
            assert_eq!(
                d.arm_origin(arm as usize),
                Some(DiskAddress(4872 * arm)),
                "arm {arm}"
            );
        }
        // Hash placement interleaves by construction: no origin hints.
        let h = array(4, Placement::Hash);
        for arm in 0..4 {
            assert_eq!(h.arm_origin(arm), None);
        }
    }

    /// A mixed two-arm array: a Diablo 31 plus a Trident on one timeline.
    fn mixed(first: DiskModel, second: DiskModel) -> DriveArray {
        let clock = SimClock::new();
        let trace = Trace::new();
        let d0 = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), first, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, trace, second, 2);
        DriveArray::new(vec![d0, d1], Placement::Range).expect("range placement takes mixed arms")
    }

    #[test]
    fn mixed_geometries_stack_or_degenerate() {
        // Diablo first: 14616 total sectors divide arm 0's 24-sector
        // cylinders evenly, so the composite keeps the Diablo track layout
        // and stacks the union as extra cylinders.
        let a = mixed(DiskModel::Diablo31, DiskModel::Trident);
        let g = a.geometry().expect("geometry");
        assert_eq!(g.sector_count(), 4872 + 9744);
        assert_eq!((g.heads, g.sectors), (2, 12));
        assert_eq!(g.cylinders, 609);
        // Trident first: the same total does not divide its 48-sector
        // cylinders, so the shape degenerates to one sector per track. Only
        // the exact sector count is promised to the layers above.
        let b = mixed(DiskModel::Trident, DiskModel::Diablo31);
        let g = b.geometry().expect("geometry");
        assert_eq!(g.sector_count(), 4872 + 9744);
        assert_eq!((g.heads, g.sectors), (1, 1));
        assert_eq!(g.cylinders, 14616);
    }

    #[test]
    fn mixed_route_unroute_cover_every_sector_in_both_stackings() {
        for (first, second) in [
            (DiskModel::Diablo31, DiskModel::Trident),
            (DiskModel::Trident, DiskModel::Diablo31),
        ] {
            let a = mixed(first, second);
            let total = a.geometry().expect("geometry").sector_count();
            let cap0 = a.arm(0).geometry().expect("arm 0").sector_count();
            let cap1 = a.arm(1).geometry().expect("arm 1").sector_count();
            let mut per_arm = [0u32; 2];
            for v in 0..total {
                let (arm, local) = a.route(DiskAddress(v as u16));
                let cap = if arm == 0 { cap0 } else { cap1 };
                assert!((local.0 as u32) < cap, "local {local} out of arm {arm}");
                assert_eq!(a.unroute(arm, local), DiskAddress(v as u16));
                per_arm[arm] += 1;
            }
            // Exhaustive and exact: every global address maps into exactly
            // one arm, and each arm receives exactly its capacity.
            assert_eq!(per_arm, [cap0, cap1]);
        }
    }

    #[test]
    fn mixed_batches_straddling_the_arm_boundary_are_served() {
        // Requests on both sides of the Diablo/Trident seam, interleaved so
        // the split-and-reassemble path has to preserve request order, in
        // both the buffered and the zero-copy read form.
        let mut a = mixed(DiskModel::Diablo31, DiskModel::Trident);
        let seam = a.arm(0).geometry().expect("arm 0").sector_count() as u16;
        let das: Vec<DiskAddress> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    DiskAddress(seam - 8 + i)
                } else {
                    DiskAddress(seam + 40 + i)
                }
            })
            .collect();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        for r in a.do_batch(&mut batch) {
            r.unwrap();
        }
        // Headers prove each request reached the right physical arm (pack 1
        // below the seam, pack 2 above it) — and that the buffered path
        // translated the sector's local self-address back to the caller's
        // global view on the way out.
        for (req, &da) in batch.iter().zip(&das) {
            let (arm, _) = a.route(da);
            assert_eq!(req.buf.header, [arm as u16 + 1, da.0]);
        }
        // The zero-copy form lends each arm's platter sector directly, so
        // its header keeps the *arm-local* self-address (callers verify by
        // label, which is position-independent).
        let mut seen = vec![false; das.len()];
        let results = a.do_batch_read(&das, |i, view| {
            seen[i] = true;
            let (arm, local) = a_route(&das, i, seam);
            assert_eq!(*view.header(), [arm + 1, local]);
        });
        for r in &results {
            r.as_ref().unwrap();
        }
        assert!(seen.iter().all(|&s| s), "zero-copy visit missed a member");
        // Both arms actually serviced their four members of each batch.
        assert!(a.arm(0).io_stats().sectors_read >= 8);
        assert!(a.arm(1).io_stats().sectors_read >= 8);
    }

    /// Route recomputed from first principles for the straddle test's
    /// visitor (which cannot borrow the array while it is being driven).
    fn a_route(das: &[DiskAddress], i: usize, seam: u16) -> (u16, u16) {
        let v = das[i].0;
        if v < seam {
            (0, v)
        } else {
            (1, v - seam)
        }
    }
}
