//! Two-drive configurations (§2).
//!
//! "…one or two moving-head disk drives, each of which can store 2.5
//! megabytes on a single removable pack." The Alto OS treated a two-drive
//! system as one file system twice the size: the top of the disk-address
//! space selects the drive. [`DualDrive`] is that adapter — historically
//! its own implementation, now a thin shim over a two-arm
//! [`DriveArray`] with [`Placement::Range`]: addresses `0 .. n` map to
//! drive 0, `n .. 2n` to drive 1, and batches that span the boundary run
//! the two shares on overlapped simulated timelines (elapsed = max of the
//! arms), one after the other on the caller's thread. See [`crate::array`]
//! for the general machinery.

use alto_sim::{SimClock, SimTime, Trace};

use crate::array::{DriveArray, Placement};
use crate::drive::{Disk, DiskDrive, DriveStats};
use crate::errors::DiskError;
use crate::geometry::{DiskAddress, DiskGeometry};
use crate::sched::BatchRequest;
use crate::sector::{SectorBuf, SectorOp};

/// Two drives presented as one disk with twice the sectors.
///
/// Disk addresses `0 .. n` map to drive 0, `n .. 2n` to drive 1, where `n`
/// is the per-drive sector count. Both packs must share a geometry, and
/// the pack number reported is drive 0's (headers still self-identify per
/// pack, so the Scavenger works unchanged).
///
/// A batch that spans both halves of the address space executes the two
/// units' shares *overlapped*: each drive has its own arm and can seek and
/// transfer independently, so the batch's elapsed time is the maximum of
/// the two units' times, not the sum. [`DualDrive::set_overlap_enabled`]
/// restores the serialized one-unit-at-a-time execution as an ablation.
#[derive(Debug)]
pub struct DualDrive {
    array: DriveArray,
}

impl DualDrive {
    /// Combines two loaded drives.
    ///
    /// Returns an error if either drive is empty or the geometries differ.
    pub fn new(drive0: DiskDrive, drive1: DiskDrive) -> Result<DualDrive, DiskError> {
        let g0 = drive0.geometry()?;
        let g1 = drive1.geometry()?;
        if g0 != g1 {
            return Err(DiskError::MalformedOp(
                "dual-drive packs must share a geometry",
            ));
        }
        if g0.sector_count() * 2 >= u16::MAX as u32 {
            return Err(DiskError::MalformedOp(
                "dual-drive address space exceeds 16-bit disk addresses",
            ));
        }
        Ok(DualDrive {
            array: DriveArray::new(vec![drive0, drive1], Placement::Range)?,
        })
    }

    /// Convenience: two freshly formatted packs on a shared timeline.
    pub fn with_formatted_packs(
        clock: SimClock,
        trace: Trace,
        model: crate::geometry::DiskModel,
    ) -> DualDrive {
        let d0 = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), model, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, trace, model, 2);
        DualDrive::new(d0, d1).expect("identical fresh packs")
    }

    /// Access to one of the underlying drives (unit 0 or 1).
    pub fn unit(&self, unit: usize) -> &DiskDrive {
        self.array.arm(unit)
    }

    /// Mutable access to one of the underlying drives.
    pub fn unit_mut(&mut self, unit: usize) -> &mut DiskDrive {
        self.array.arm_mut(unit)
    }

    /// Enables or disables overlapped execution of batches that span both
    /// units (enabled by default). Disabled, the units run one after the
    /// other on the shared timeline — the pre-overlap behaviour, kept
    /// runnable as an ablation like `UnscheduledDisk`.
    pub fn set_overlap_enabled(&mut self, enabled: bool) {
        self.array.set_overlap_enabled(enabled);
    }

    /// Sets the retry limit on both units (see [`DiskDrive::set_retries`]).
    pub fn set_retries(&mut self, retries: u32) {
        self.array.set_retries(retries);
    }
}

impl Disk for DualDrive {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        self.array.geometry()
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        self.array.pack_number()
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        self.array.do_op(da, op, buf)
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        self.array.do_batch(batch)
    }

    fn do_batch_read<F>(&mut self, das: &[DiskAddress], visit: F) -> Vec<Result<(), DiskError>>
    where
        F: FnMut(usize, crate::view::SectorView<'_>),
    {
        self.array.do_batch_read(das, visit)
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.array.note_readahead(hits, prefetched);
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.array.note_write_behind(pages);
    }

    fn io_stats(&self) -> DriveStats {
        self.array.io_stats()
    }

    fn write_epoch(&self) -> u64 {
        self.array.write_epoch()
    }

    fn retry_limit(&self) -> u32 {
        self.array.retry_limit()
    }

    fn retry_backoff(&self) -> SimTime {
        self.array.retry_backoff()
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.array.note_retry(retries, recovered);
    }

    fn note_park(&mut self, da: DiskAddress, page: u16) {
        self.array.note_park(da, page);
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: crate::audit::UnparkOutcome) {
        self.array.note_unpark(da, page, outcome);
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        self.array.set_audit_enabled(enabled);
    }

    fn audit_violations(&self) -> u64 {
        self.array.audit_violations()
    }

    fn arm_count(&self) -> usize {
        self.array.arm_count()
    }

    fn arm_of(&self, da: DiskAddress) -> usize {
        self.array.arm_of(da)
    }

    fn arm_origin(&self, arm: usize) -> Option<DiskAddress> {
        self.array.arm_origin(arm)
    }

    fn clock(&self) -> &SimClock {
        self.array.clock()
    }

    fn trace(&self) -> &Trace {
        self.array.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskModel;
    use crate::label::Label;
    use crate::sector::DATA_WORDS;

    fn dual() -> DualDrive {
        DualDrive::with_formatted_packs(SimClock::new(), Trace::new(), DiskModel::Diablo31)
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

    fn allocate(d: &mut DualDrive, da: DiskAddress, label: Label) {
        let mut buf = SectorBuf::with_label(Label::FREE);
        d.do_op(da, SectorOp::CHECK_LABEL, &mut buf).unwrap();
        let mut buf = SectorBuf::with_label(label);
        buf.data = [7; DATA_WORDS];
        d.do_op(da, SectorOp::WRITE_LABEL, &mut buf).unwrap();
    }

    #[test]
    fn double_the_address_space() {
        let d = dual();
        let g = d.geometry().unwrap();
        assert_eq!(g.sector_count(), 2 * 4872);
    }

    #[test]
    fn two_range_arms() {
        let d = dual();
        assert_eq!(d.arm_count(), 2);
        assert_eq!(d.arm_of(DiskAddress(0)), 0);
        assert_eq!(d.arm_of(DiskAddress(4871)), 0);
        assert_eq!(d.arm_of(DiskAddress(4872)), 1);
        assert_eq!(d.arm_origin(0), Some(DiskAddress(0)));
        assert_eq!(d.arm_origin(1), Some(DiskAddress(4872)));
    }

    #[test]
    fn low_addresses_hit_unit_0_high_hit_unit_1() {
        let mut d = dual();
        allocate(&mut d, DiskAddress(10), live_label(0));
        allocate(&mut d, DiskAddress(4872 + 10), live_label(1));
        // The physical sectors landed on the right packs, self-identified
        // with their local addresses.
        let s0 = d.unit(0).pack().unwrap().sector(DiskAddress(10)).unwrap();
        assert_eq!(s0.decoded_label().page_number, 0);
        assert_eq!(s0.header, [1, 10]);
        let s1 = d.unit(1).pack().unwrap().sector(DiskAddress(10)).unwrap();
        assert_eq!(s1.decoded_label().page_number, 1);
        assert_eq!(s1.header, [2, 10]);
    }

    #[test]
    fn reads_come_back_through_global_addresses() {
        let mut d = dual();
        let global = DiskAddress(4872 + 99);
        allocate(&mut d, global, live_label(3));
        let mut buf = SectorBuf::with_label(live_label(3));
        d.do_op(global, SectorOp::READ, &mut buf).unwrap();
        assert_eq!(buf.data, [7; DATA_WORDS]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dual();
        let mut buf = SectorBuf::zeroed();
        assert!(matches!(
            d.do_op(DiskAddress(2 * 4872), SectorOp::READ_ALL, &mut buf),
            Err(DiskError::InvalidAddress(_))
        ));
        assert!(matches!(
            d.do_op(DiskAddress::NIL, SectorOp::READ_ALL, &mut buf),
            Err(DiskError::InvalidAddress(_))
        ));
    }

    #[test]
    fn mismatched_geometries_rejected() {
        let clock = SimClock::new();
        let d0 =
            DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Trident, 2);
        assert!(DualDrive::new(d0, d1).is_err());
    }

    #[test]
    fn check_semantics_survive_routing() {
        let mut d = dual();
        let global = DiskAddress(4872 + 50);
        allocate(&mut d, global, live_label(5));
        // Wrong label bounces, on the far drive too.
        let mut buf = SectorBuf::with_label(live_label(6));
        assert!(matches!(
            d.do_op(global, SectorOp::READ, &mut buf),
            Err(DiskError::Check(_))
        ));
    }

    #[test]
    fn straddling_batch_splits_at_the_drive_boundary() {
        // Regression: a single batch touching both halves of the address
        // space must execute every request exactly once, each on its own
        // drive in that drive's local geometry, with results (and header
        // translation) back in the batch's original order.
        let mut d = dual();
        let das: Vec<DiskAddress> = (0..8u16)
            .map(|i| {
                // Interleave the units request by request.
                if i % 2 == 0 {
                    DiskAddress(4868 + i / 2) // unit 0, near the top
                } else {
                    DiskAddress(4872 + i / 2) // unit 1, near the bottom
                }
            })
            .collect();
        for (i, &da) in das.iter().enumerate() {
            allocate(&mut d, da, live_label(i as u16));
        }
        let ops_before = [d.unit(0).stats().ops, d.unit(1).stats().ops];
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
        batch.push(BatchRequest::new(
            DiskAddress::NIL,
            SectorOp::READ,
            SectorBuf::zeroed(),
        ));
        let results = d.do_batch(&mut batch);
        for r in &results[..8] {
            assert!(r.is_ok());
        }
        assert!(matches!(results[8], Err(DiskError::InvalidAddress(_))));
        // Every valid request ran exactly once, 4 on each drive.
        assert_eq!(d.unit(0).stats().ops - ops_before[0], 4);
        assert_eq!(d.unit(1).stats().ops - ops_before[1], 4);
        for (i, req) in batch[..8].iter().enumerate() {
            // The data came back to the right slot, and the header was
            // translated back to the caller's global address.
            assert_eq!(req.buf.data, [7; DATA_WORDS], "request {i}");
            assert_eq!(req.buf.header[1], das[i].0, "request {i}");
        }
        // On the medium the sectors self-identify with *local* addresses.
        let s = d.unit(1).pack().unwrap().sector(DiskAddress(0)).unwrap();
        assert_eq!(s.header, [2, 0]);
    }

    #[test]
    fn spanning_batch_overlaps_the_two_arms() {
        use alto_sim::SimTime;
        // With one share per unit, both arms seek and transfer on their own
        // timelines: the batch takes max(d0, d1), not d0 + d1 — comfortably
        // under the 0.6× acceptance bound for a symmetric split.
        let run = |overlap: bool| -> SimTime {
            let mut d = dual();
            d.set_overlap_enabled(overlap);
            let mut batch: Vec<BatchRequest> = (0..24u16)
                .map(|i| {
                    let local = 200 + 37 * (i / 2); // spread over cylinders
                    let da = if i % 2 == 0 { local } else { 4872 + local };
                    BatchRequest::new(DiskAddress(da), SectorOp::READ_ALL, SectorBuf::zeroed())
                })
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
        assert!(
            overlapped.as_nanos() * 10 <= serial.as_nanos() * 6,
            "overlapped {overlapped} vs serialized {serial}"
        );
    }

    #[test]
    fn overlap_restores_the_longer_arm_when_one_arm_errors() {
        use alto_sim::SimTime;
        // Regression for the overlap error path: when one arm's share ends
        // in an error, `SimClock::set` must still restore elapsed =
        // max(arms), not the failing (shorter) arm's timeline. Run the same
        // spanning batch three ways — both shares, unit 0's share alone,
        // unit 1's share alone — from identical allocation histories and
        // pin the equality.
        let elapsed = |which: Option<usize>| -> SimTime {
            let mut d = dual();
            for i in 0..6u16 {
                allocate(&mut d, DiskAddress(200 + 37 * i), live_label(i));
            }
            allocate(&mut d, DiskAddress(4872 + 300), live_label(9));
            let mut batch = Vec::new();
            if which != Some(1) {
                // Unit 0's share: six requests spread over cylinders (the
                // long arm).
                for i in 0..6u16 {
                    batch.push(BatchRequest::new(
                        DiskAddress(200 + 37 * i),
                        SectorOp::READ,
                        SectorBuf::with_label(live_label(i)),
                    ));
                }
            }
            if which != Some(0) {
                // Unit 1's share: one request whose label claim is wrong,
                // so the short arm finishes in an error.
                batch.push(BatchRequest::new(
                    DiskAddress(4872 + 300),
                    SectorOp::READ,
                    SectorBuf::with_label(live_label(5)),
                ));
            }
            let t0 = d.clock().now();
            let results = d.do_batch(&mut batch);
            if which != Some(0) {
                assert!(matches!(results.last(), Some(Err(DiskError::Check(_)))));
            }
            d.clock().now() - t0
        };
        let both = elapsed(None);
        let unit0 = elapsed(Some(0));
        let unit1 = elapsed(Some(1));
        assert!(unit1 < unit0, "the failing arm must be the shorter one");
        assert_eq!(both, unit0.max(unit1));
    }

    #[test]
    fn single_unit_batch_keeps_the_plain_timeline() {
        // No span, nothing to overlap: the clock only moves forward by the
        // one drive's elapsed time and no overlap is recorded.
        let mut d = dual();
        let mut batch: Vec<BatchRequest> = (0..4u16)
            .map(|i| {
                BatchRequest::new(DiskAddress(50 + i), SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        for r in d.do_batch(&mut batch) {
            r.unwrap();
        }
        assert_eq!(d.io_stats().overlap_batches, 0);
    }

    #[test]
    fn both_drives_share_the_timeline() {
        let mut d = dual();
        let t0 = d.clock().now();
        allocate(&mut d, DiskAddress(0), live_label(0));
        allocate(&mut d, DiskAddress(4872), live_label(1));
        assert!(d.clock().now() > t0);
        // Seeks on unit 1 do not move unit 0's arm.
        assert_eq!(d.unit(0).current_cylinder(), 0);
    }
}
