//! Page-level operations (§3.1, §3.3).
//!
//! "Disk pages are always accessed by their full names": every operation
//! here takes a [`PageName`] — absolute name plus hint address — builds the
//! check pattern from the absolutes, and issues a sector operation whose
//! label check guarantees the hint actually leads to the named page.
//!
//! One hardware subtlety is handled in software: a memory word of 0 is a
//! *wildcard* in a check action, so absolute fields that happen to encode as
//! 0 (a page number of 0, a serial low word of 0) are not checked by the
//! hardware. After every successful check we verify the captured words
//! against the intended absolutes and synthesize the same check error the
//! hardware would have produced. This closes the check, at zero simulated
//! cost, without weakening the §3.3 discipline.
//!
//! A file's chain is followed page at a time in one place: [`follow`]
//! reads along the links from a known page until its caller's predicate
//! or a nil link stops it, under the one cycle budget. Every link chase —
//! deleting a file, locating its last page, the tail of a whole-file read,
//! a directory scan, the hint ladder's first rung, a stream's seek and its
//! search for the last page on close, and the page server's recovery walk
//! — goes through it.
//!
//! Chained batches come in three request forms, one function each:
//!
//! * [`transfer`] moves a file's pages: writes at given addresses plus
//!   reads guessed consecutive from a start page (§3.6), in one chain. It
//!   serves whole-file reads and rewrites, the boot loader and the disk
//!   stream's readahead and write-behind; [`confirmed_run`] tells a reader
//!   how much of a guessed read to trust, and [`confirmed_write_run`]
//!   tells a writer how much of a guessed write. Every write to the drive
//!   that carries a file page's data in a chain goes through it, staged in
//!   a buffer: one [`Disk::do_batch`] per call.
//! * [`read_raw_batch`] scans raw sectors, with no name to check them
//!   against — the Scavenger's sweep.
//! * [`read_pages_zero_copy`] lends named pages of many files to a visitor
//!   — the page server's hot path, and the one form that borrows sectors
//!   instead of staging them ([`Disk::do_batch_read`]).
//!
//! All of them retry a transient failure sector-at-a-time under
//! [`retry_op`]'s bounded discipline, except a guessed follower in
//! [`transfer`] and a speculative entry in [`read_pages_zero_copy`]: a
//! guess is speculation, so its failure only ends the confirmed run or
//! leaves the page unread.

use alto_disk::{
    pool, BatchRequest, CheckFailure, Disk, DiskAddress, DiskError, Label, LabelView, SectorBuf,
    SectorOp, SectorPart, SectorView, DATA_WORDS,
};

use crate::errors::FsError;
use crate::file::PAGE_BYTES;
use crate::names::{Fv, PageName};

/// Verifies that a captured label carries exactly the intended absolutes.
fn verify_absolutes(da: DiskAddress, fv: Fv, page: u16, got: &Label) -> Result<(), FsError> {
    let intended = fv.check_label(page);
    let fields = [
        (0usize, intended.fid[0], got.fid[0]),
        (1, intended.fid[1], got.fid[1]),
        (2, intended.version, got.version),
        (3, intended.page_number, got.page_number),
    ];
    for (word_index, expected, found) in fields {
        if expected != found {
            return Err(FsError::Disk(DiskError::Check(CheckFailure {
                da,
                part: SectorPart::Label,
                word_index,
                expected,
                found,
            })));
        }
    }
    Ok(())
}

/// Captures and verifies the label of a checked access in one step: the
/// absolutes are compared in place through a [`LabelView`] — of a staged
/// buffer or of a sector the disk lent — before anything is decoded; a
/// mismatch falls back to [`verify_absolutes`] so the error is exactly the
/// one the hardware check would have produced.
fn verified_label(
    da: DiskAddress,
    fv: Fv,
    page: u16,
    label: LabelView<'_>,
) -> Result<Label, FsError> {
    let intended = fv.check_label(page);
    if label.absolutes_match(&intended) {
        return Ok(label.decode());
    }
    let got = label.decode();
    verify_absolutes(da, fv, page, &got)?;
    Ok(got)
}

/// Builds the memory buffer for a checked access to `pn`.
fn checked_buf<D: Disk>(disk: &D, pn: PageName) -> Result<SectorBuf, FsError> {
    let mut buf = SectorBuf::with_label(pn.fv.check_label(pn.page));
    buf.header = [disk.pack_number()?, pn.da.0];
    Ok(buf)
}

/// Issues one sector operation under the bounded-retry discipline: a
/// [`DiskError::Transient`] failure is re-issued up to
/// [`Disk::retry_limit`] times, waiting out [`Disk::retry_backoff`] (one
/// revolution on a real drive — the sector has to come around again)
/// before each attempt, and escalates to [`DiskError::HardError`] if it
/// never clears. Every other result passes through untouched, so a zero
/// retry limit recovers the old abort-on-first-error behavior.
pub fn retry_op<D: Disk>(
    disk: &mut D,
    da: DiskAddress,
    op: SectorOp,
    buf: &mut SectorBuf,
) -> Result<(), DiskError> {
    match disk.do_op(da, op, buf) {
        Err(e @ DiskError::Transient { .. }) => complete_with_retry(disk, da, op, buf, e),
        other => other,
    }
}

/// Finishes an operation whose first issue just failed with `first`, a
/// transient error — the retry half of [`retry_op`], shared with the batch
/// paths so a failed chain member can be retried sector-at-a-time without
/// re-running the members that already completed.
pub fn complete_with_retry<D: Disk>(
    disk: &mut D,
    da: DiskAddress,
    op: SectorOp,
    buf: &mut SectorBuf,
    first: DiskError,
) -> Result<(), DiskError> {
    let DiskError::Transient { mut part, .. } = first else {
        return Err(first);
    };
    let limit = u64::from(disk.retry_limit());
    let mut retries: u64 = 0;
    loop {
        if retries >= limit {
            disk.note_retry(retries, false);
            return Err(DiskError::HardError { da, part });
        }
        // lint: allow(clock-discipline) — the bounded-retry layer charges the
        // one-revolution backoff the hardware burns between attempts (§3.3);
        // this is the single sanctioned clock mutation in the fs crate
        disk.clock().advance(disk.retry_backoff());
        retries += 1;
        disk.trace()
            .record_with(disk.clock().now(), "disk.retry.attempt", || {
                format!("{op:?} at {da}, retry {retries} of {limit}")
            });
        match disk.do_op(da, op, buf) {
            Err(DiskError::Transient { part: p, .. }) => part = p,
            other => {
                disk.note_retry(retries, other.is_ok());
                return other;
            }
        }
    }
}

/// Reads the data and label of the page named `pn`, using its hint address.
///
/// Fails with a check error if the sector at the hint address is not the
/// named page — the caller then climbs the hint ladder (§3.6).
pub fn read_page<D: Disk>(
    disk: &mut D,
    pn: PageName,
) -> Result<(Label, [u16; DATA_WORDS]), FsError> {
    let mut buf = checked_buf(disk, pn)?;
    retry_op(disk, pn.da, SectorOp::READ, &mut buf)?;
    let label = verified_label(pn.da, pn.fv, pn.page, buf.label_view())?;
    Ok((label, buf.data))
}

/// Follows a file's links one label-checked page at a time, reading
/// `from` first: the §3.6 ladder's first rung, "follow links from another
/// known-good portion of the file", and every page-at-a-time chase in the
/// system. `stop` sees each page read; the walk ends on the page where it
/// says so or where the link is nil, and returns that page.
///
/// A page that fails its check ends the walk with the check's error: a
/// stale link never yields another file's page. A well-formed chain is no
/// longer than the disk has sectors, so a walk that exceeds that many
/// links is a cycle, reported as [`FsError::Corrupt`] instead of spinning;
/// so is a link out of page `u16::MAX`, which no page can follow.
pub fn follow<D, S>(
    disk: &mut D,
    from: PageName,
    mut stop: S,
) -> Result<(PageName, Label, [u16; DATA_WORDS]), FsError>
where
    D: Disk,
    S: FnMut(PageName, &Label, &[u16; DATA_WORDS]) -> bool,
{
    let mut budget = disk.geometry()?.sector_count() + 2;
    let mut pn = from;
    loop {
        let (label, data) = read_page(disk, pn)?;
        if stop(pn, &label, &data) || label.next.is_nil() {
            return Ok((pn, label, data));
        }
        let corrupt = |what| FsError::Corrupt { da: pn.da, what };
        budget = budget.checked_sub(1).ok_or(corrupt("link cycle"))?;
        let page = pn.page.checked_add(1);
        let page = page.ok_or(corrupt("link past the last page number"))?;
        pn = PageName::new(pn.fv, page, label.next);
    }
}

/// Writes the data of the page named `pn` (an ordinary data write: the
/// label is checked "at no cost in time" but not modified, §3.3).
///
/// Returns the page's label as captured by the check.
pub fn write_page<D: Disk>(
    disk: &mut D,
    pn: PageName,
    data: &[u16; DATA_WORDS],
) -> Result<Label, FsError> {
    let mut buf = checked_buf(disk, pn)?;
    buf.data = *data;
    retry_op(disk, pn.da, SectorOp::WRITE, &mut buf)?;
    verified_label(pn.da, pn.fv, pn.page, buf.label_view())
}

/// Reads the raw header, label and data of an arbitrary sector with no
/// checking at all — the Scavenger's scan primitive.
pub fn read_raw<D: Disk>(
    disk: &mut D,
    da: DiskAddress,
) -> Result<(Label, [u16; DATA_WORDS]), FsError> {
    let mut buf = SectorBuf::zeroed();
    retry_op(disk, da, SectorOp::READ_ALL, &mut buf)?;
    Ok((buf.decoded_label(), buf.data))
}

/// One page's outcome within a batch: its verified label and data.
pub type PageResult = Result<(Label, [u16; DATA_WORDS]), FsError>;

/// Reads many raw sectors as one chained batch — the Scavenger's sweep
/// primitive. Passing a whole cylinder's sectors lets the drive service
/// them in rotational order, in about two revolutions instead of one
/// revolution per sector. A transiently failed member is retried
/// sector-at-a-time: the drive halted its chain there and already serviced
/// (or rescheduled) every other member, so completed members never re-run.
pub fn read_raw_batch<D: Disk>(disk: &mut D, das: &[DiskAddress]) -> Vec<PageResult> {
    let mut batch = pool::batch_vec();
    batch.extend(
        das.iter()
            .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())),
    );
    let mut results = disk.do_batch(&mut batch);
    for (req, res) in batch.iter_mut().zip(results.iter_mut()) {
        if let Err(e @ DiskError::Transient { .. }) = *res {
            *res = complete_with_retry(disk, req.da, req.op, &mut req.buf, e);
        }
    }
    let out = results
        .drain(..)
        .zip(batch.drain(..))
        .map(|(res, req)| {
            res.map_err(FsError::from)
                .map(|()| (req.buf.decoded_label(), req.buf.data))
        })
        .collect();
    pool::recycle_results(results);
    pool::recycle_batch(batch);
    out
}

/// Reads a set of named pages — possibly belonging to many files — as one
/// chained zero-copy batch at their hinted addresses, lending each page's
/// platter sector to `visit` instead of copying it into a staging buffer.
///
/// This is the §3.6 hint discipline on the view path: every page's label
/// is *software re-verified* against its full name `(fv, page)` straight
/// off the borrowed sector words before `visit` sees it, so a stale hint
/// yields a check error for that entry (never someone else's data) and the
/// caller climbs the hint ladder. `visit(i, label, view)` runs at most
/// once per entry, only for pages that verified.
///
/// Entries from `speculative` on are reads nobody asked for yet (the page
/// server's readahead). The rule for them is [`transfer`]'s rule for a
/// guessed follower: a transient failure is left in place. Every earlier
/// entry's transient is retried sector-at-a-time under the bounded-retry
/// discipline (the drive halted its chain there and rescheduled the rest,
/// so only the failed member re-issues, through a private staging buffer).
///
/// Clears `out` and fills it with one verified label (or error) per
/// entry, in entry order, so a caller that serves batch after batch can
/// reuse the same vector. This is the page-service hot path: the
/// Alto-as-file-server request loop feeds every client's reads into one
/// call, sorted by disk address.
pub fn read_pages_zero_copy<D, V>(
    disk: &mut D,
    reads: &[PageName],
    speculative: usize,
    out: &mut Vec<Result<Label, FsError>>,
    mut visit: V,
) where
    D: Disk,
    V: FnMut(usize, Label, SectorView<'_>),
{
    let mut das = pool::da_vec();
    das.extend(reads.iter().map(|r| r.da));
    out.clear();
    // Placeholder, overwritten below: the visitor fills verified entries
    // and the result pass fills every failed one.
    out.resize_with(reads.len(), || Err(FsError::Disk(DiskError::NoPack)));
    let results = disk.do_batch_read(&das, |i, view| {
        let r = &reads[i];
        out[i] = verified_label(r.da, r.fv, r.page, view.label()).inspect(|&label| {
            visit(i, label, view);
        });
    });
    for (i, res) in results.iter().enumerate() {
        match res {
            Ok(()) => {}
            Err(e @ DiskError::Transient { .. }) if i < speculative => {
                let r = &reads[i];
                let mut buf = SectorBuf::zeroed();
                out[i] = complete_with_retry(disk, r.da, SectorOp::READ_ALL, &mut buf, *e)
                    .map_err(FsError::from)
                    .and_then(|()| {
                        let label = verified_label(r.da, r.fv, r.page, buf.label_view())?;
                        visit(i, label, SectorView::of_buf(&buf));
                        Ok(label)
                    });
            }
            Err(e) => out[i] = Err(FsError::from(*e)),
        }
    }
    pool::recycle_results(results);
    pool::recycle_das(das);
}

/// Transfers pages of the file `fv` as one chained batch: an ordinary data
/// write for each of `writes` at its given address, then `read_count`
/// reads of the pages from `read_start` on, *guessed* to sit at the
/// consecutive addresses after it (§3.6: transfers start with a guessed
/// address; the label check catches a wrong guess before any harm is
/// done). One command set-up and one rotational schedule cover both
/// directions. Each write's label check must pass before its value is
/// touched, and every label a member captures is verified against the
/// full name (§3.3), so a wrong address costs an error entry, never
/// another file's page.
///
/// The retry rule: a transient failure on a write or on the first read —
/// `read_start`'s own address, which the caller took from a real link —
/// is retried sector-at-a-time under [`retry_op`]'s bounded discipline.
/// The drive halted its chain there and rescheduled the rest, so completed
/// members never re-run. A transient on a guessed follower is left in
/// place: the guess was speculation, and its failure only ends the
/// confirmed run that [`confirmed_run`] counts.
///
/// Clears `write_out` and fills it with the writes' captured labels, in
/// `writes` order, and clears `read_out` and fills it with the reads'
/// results, in page order, so a caller can reuse the same vectors batch
/// after batch. Every member, write or read, is staged through a buffer
/// and the whole batch is one [`Disk::do_batch`], whichever directions it
/// carries.
///
/// A write address may be a guess too, as long as the check has teeth: a
/// file serial low word of 0 is a check wildcard, so callers guess write
/// addresses only for files whose low word is not 0, and
/// [`confirmed_write_run`] counts how far the guesses held.
#[allow(clippy::too_many_arguments)]
pub fn transfer<D: Disk>(
    disk: &mut D,
    fv: Fv,
    writes: &[(u16, DiskAddress, [u16; DATA_WORDS])],
    read_start: Option<PageName>,
    read_count: u16,
    write_out: &mut Vec<Result<Label, FsError>>,
    read_out: &mut Vec<PageResult>,
) -> Result<(), FsError> {
    write_out.clear();
    read_out.clear();
    let pack = disk.pack_number()?;
    let mut batch = pool::batch_vec();
    for &(page, da, ref data) in writes {
        let mut buf = SectorBuf::with_label(fv.check_label(page));
        buf.header = [pack, da.0];
        buf.data = *data;
        batch.push(BatchRequest::new(da, SectorOp::WRITE, buf));
    }
    if let Some(start) = read_start {
        for j in 0..read_count {
            let da = DiskAddress(start.da.0.wrapping_add(j));
            let mut buf = SectorBuf::with_label(fv.check_label(start.page + j));
            buf.header = [pack, da.0];
            batch.push(BatchRequest::new(da, SectorOp::READ, buf));
        }
    }
    let mut results = disk.do_batch(&mut batch);
    for (req, res) in batch
        .iter_mut()
        .zip(results.iter_mut())
        .take(writes.len() + 1)
    {
        if let Err(e @ DiskError::Transient { .. }) = *res {
            *res = complete_with_retry(disk, req.da, req.op, &mut req.buf, e);
        }
    }
    // Read in place: draining would move every request out of the batch.
    let mut members = results.iter().zip(&batch);
    for (&(page, ..), (&res, req)) in writes.iter().zip(members.by_ref()) {
        write_out.push(
            res.map_err(FsError::from)
                .and_then(|()| verified_label(req.da, fv, page, req.buf.label_view())),
        );
    }
    if let Some(start) = read_start {
        for (j, (&res, req)) in (0..read_count).zip(members) {
            read_out.push(res.map_err(FsError::from).and_then(|()| {
                let label = verified_label(req.da, fv, start.page + j, req.buf.label_view())?;
                Ok((label, req.buf.data))
            }));
        }
    }
    pool::recycle_results(results);
    pool::recycle_batch(batch);
    Ok(())
}

/// Counts the confirmed run of a guessed read that [`transfer`] issued
/// from `start`: the first entry, verified at its real address, then each
/// follower verified at the address its predecessor's link names. The run
/// ends at the first failed entry, at the first link that departs from the
/// guess (a nil link included) or at the end of `reads`, so 0 means the
/// first entry itself failed. What a reader does once its run ends is its
/// own business.
pub fn confirmed_run(start: PageName, reads: &[PageResult]) -> usize {
    let mut link = start.da;
    for (j, res) in reads.iter().enumerate() {
        match res {
            Ok((label, _)) if link == DiskAddress(start.da.0.wrapping_add(j as u16)) => {
                link = label.next;
            }
            _ => return j,
        }
    }
    reads.len()
}

/// Counts the confirmed run of guessed writes that [`transfer`] issued at
/// the consecutive addresses from `first`, a real link, given their
/// captured labels: each entry verified against its full name, captured a
/// full page's length and a `next` link naming the following guess. The
/// run ends at the first entry that fails any of the three.
///
/// That entry is the only one past the run a writer may act on, and it
/// sits at a link-confirmed address: `first`, or where its predecessor's
/// link points. So a failure there is the file's failure, with the retry
/// budget already spent, not a wrong guess. If it verified, its data
/// landed: a short length marks a file's old tail, whose label must
/// change; a nil link marks the file's end; any other link is a jump to
/// follow. Every entry after it was a guess nobody confirmed. A guess
/// that failed its check wrote nothing (§3.3).
pub fn confirmed_write_run(first: DiskAddress, labels: &[Result<Label, FsError>]) -> usize {
    for (j, res) in labels.iter().enumerate() {
        let guess = DiskAddress(first.0.wrapping_add(j as u16 + 1));
        match res {
            Ok(label)
                if usize::from(label.length) == PAGE_BYTES
                    && !label.next.is_nil()
                    && label.next == guess => {}
            _ => return j,
        }
    }
    labels.len()
}

/// Allocates the free sector `da` as the page with `label`, writing `data`.
///
/// Two passes, as §3.3 prescribes: first the label is checked to be free,
/// then the proper label (and the first data) is written — costing one
/// disk revolution. Fails with a check error if the sector is not actually
/// free (a stale allocation map); the allocator then retries elsewhere.
pub fn allocate_at<D: Disk>(
    disk: &mut D,
    da: DiskAddress,
    label: Label,
    data: &[u16; DATA_WORDS],
) -> Result<(), FsError> {
    let mut buf = SectorBuf::with_label(Label::FREE);
    buf.header = [disk.pack_number()?, da.0];
    retry_op(disk, da, SectorOp::CHECK_LABEL, &mut buf)?;
    let mut buf = SectorBuf::with_label(label);
    buf.header = [disk.pack_number()?, da.0];
    buf.data = *data;
    retry_op(disk, da, SectorOp::WRITE_LABEL, &mut buf)?;
    Ok(())
}

/// Rewrites the label (and data) of the existing page `pn` — the length
/// change of §3.3: "the label of the last page is read and checked. Then it
/// is rewritten, possibly with new values of L and NL."
///
/// Returns the old label. Costs one disk revolution (check pass + write
/// pass on the same sector).
pub fn rewrite_label<D: Disk>(
    disk: &mut D,
    pn: PageName,
    new_label: Label,
    data: &[u16; DATA_WORDS],
) -> Result<Label, FsError> {
    let mut buf = checked_buf(disk, pn)?;
    retry_op(disk, pn.da, SectorOp::CHECK_LABEL, &mut buf)?;
    let old = buf.decoded_label();
    verify_absolutes(pn.da, pn.fv, pn.page, &old)?;
    let mut buf = SectorBuf::with_label(new_label);
    buf.header = [disk.pack_number()?, pn.da.0];
    buf.data = *data;
    retry_op(disk, pn.da, SectorOp::WRITE_LABEL, &mut buf)?;
    Ok(old)
}

/// Frees the page named `pn`: checks its label, then writes ones into label
/// and value "to ensure that any attempt to treat the page as part of a
/// file will fail with a label check error" (§3.3).
///
/// Returns the old label (whose links the caller may need). Costs one disk
/// revolution.
pub fn free_page<D: Disk>(disk: &mut D, pn: PageName) -> Result<Label, FsError> {
    rewrite_label(disk, pn, Label::FREE, &[u16::MAX; DATA_WORDS])
}

/// Quarantines a permanently bad sector with the special bad label (§3.5).
///
/// No check pass: the sector may be unreadable; the label is simply
/// overwritten.
pub fn mark_bad<D: Disk>(disk: &mut D, da: DiskAddress) -> Result<(), FsError> {
    let mut buf = SectorBuf::with_label(Label::BAD);
    buf.header = [disk.pack_number()?, da.0];
    buf.data = [u16::MAX; DATA_WORDS];
    retry_op(disk, da, SectorOp::WRITE_ALL, &mut buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::SerialNumber;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    fn drive() -> DiskDrive {
        DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1)
    }

    fn fv() -> Fv {
        Fv::new(SerialNumber::new(0x20, false), 1)
    }

    fn label_for(page: u16, next: DiskAddress, prev: DiskAddress) -> Label {
        Label {
            fid: fv().serial.words(),
            version: 1,
            page_number: page,
            length: 512,
            next,
            prev,
        }
    }

    /// Lays pages `1..=count` of the test file at DAs 40.., linked in
    /// address order, each page's data words all equal to its index from 0.
    fn consecutive_pages(d: &mut DiskDrive, count: u16) {
        for i in 0..count {
            let next = if i + 1 == count {
                DiskAddress::NIL
            } else {
                DiskAddress(41 + i)
            };
            let prev = if i == 0 {
                DiskAddress::NIL
            } else {
                DiskAddress(39 + i)
            };
            allocate_at(
                d,
                DiskAddress(40 + i),
                label_for(i + 1, next, prev),
                &[i; DATA_WORDS],
            )
            .unwrap();
        }
    }

    /// [`transfer`] into fresh vectors: the writes' labels and the reads.
    fn transferred(
        d: &mut DiskDrive,
        writes: &[(u16, DiskAddress, [u16; DATA_WORDS])],
        read_start: Option<PageName>,
        read_count: u16,
    ) -> (Vec<Result<Label, FsError>>, Vec<PageResult>) {
        let (mut wrote, mut read) = (Vec::new(), Vec::new());
        transfer(
            d,
            fv(),
            writes,
            read_start,
            read_count,
            &mut wrote,
            &mut read,
        )
        .unwrap();
        (wrote, read)
    }

    #[test]
    fn allocate_read_write_cycle() {
        let mut d = drive();
        let da = DiskAddress(40);
        let label = label_for(1, DiskAddress::NIL, DiskAddress(39));
        allocate_at(&mut d, da, label, &[3; DATA_WORDS]).unwrap();

        let pn = PageName::new(fv(), 1, da);
        let (l, data) = read_page(&mut d, pn).unwrap();
        assert_eq!(l, label);
        assert_eq!(data, [3; DATA_WORDS]);

        write_page(&mut d, pn, &[4; DATA_WORDS]).unwrap();
        let (_, data) = read_page(&mut d, pn).unwrap();
        assert_eq!(data, [4; DATA_WORDS]);
    }

    #[test]
    fn read_with_wrong_hint_fails_without_damage() {
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[3; DATA_WORDS],
        )
        .unwrap();
        // Hint points at a different (free) sector.
        let stale = PageName::new(fv(), 1, DiskAddress(41));
        assert!(matches!(
            read_page(&mut d, stale),
            Err(FsError::Disk(DiskError::Check(_)))
        ));
        // The real page is untouched.
        let (l, _) = read_page(&mut d, PageName::new(fv(), 1, da)).unwrap();
        assert_eq!(l.page_number, 1);
    }

    #[test]
    fn software_verify_catches_zero_wildcard_page_number() {
        // Allocate page 5 at `da`; then ask for page 0 (leader) at the same
        // address. The hardware check pattern carries page_number = 0,
        // a wildcard — only the software verification can catch this.
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(5, DiskAddress::NIL, DiskAddress::NIL),
            &[3; DATA_WORDS],
        )
        .unwrap();
        let wrong = PageName::new(fv(), 0, da);
        let err = read_page(&mut d, wrong).unwrap_err();
        match err {
            FsError::Disk(DiskError::Check(c)) => {
                assert_eq!(c.word_index, 3); // page number
                assert_eq!(c.expected, 0);
                assert_eq!(c.found, 5);
            }
            other => panic!("expected check failure, got {other:?}"),
        }
    }

    #[test]
    fn allocate_refuses_busy_sector() {
        let mut d = drive();
        let da = DiskAddress(40);
        let label = label_for(1, DiskAddress::NIL, DiskAddress::NIL);
        allocate_at(&mut d, da, label, &[1; DATA_WORDS]).unwrap();
        let err = allocate_at(&mut d, da, label, &[2; DATA_WORDS]).unwrap_err();
        assert!(matches!(err, FsError::Disk(DiskError::Check(_))));
        // Original data intact.
        let (_, data) = read_page(&mut d, PageName::new(fv(), 1, da)).unwrap();
        assert_eq!(data, [1; DATA_WORDS]);
    }

    #[test]
    fn free_page_writes_ones_and_blocks_reads() {
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[1; DATA_WORDS],
        )
        .unwrap();
        let pn = PageName::new(fv(), 1, da);
        let old = free_page(&mut d, pn).unwrap();
        assert_eq!(old.page_number, 1);
        // Any attempt to treat the page as part of a file fails.
        assert!(read_page(&mut d, pn).is_err());
        // The sector really is all ones.
        let (l, data) = read_raw(&mut d, da).unwrap();
        assert!(l.is_free());
        assert!(data.iter().all(|&w| w == u16::MAX));
    }

    #[test]
    fn free_requires_the_right_full_name() {
        // "When the page is freed — its full name must be given, and the
        // check is that the label is the right one."
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[1; DATA_WORDS],
        )
        .unwrap();
        let wrong_fv = Fv::new(SerialNumber::new(0x21, false), 1);
        let err = free_page(&mut d, PageName::new(wrong_fv, 1, da)).unwrap_err();
        assert!(matches!(err, FsError::Disk(DiskError::Check(_))));
        // Page survives.
        assert!(read_page(&mut d, PageName::new(fv(), 1, da)).is_ok());
    }

    #[test]
    fn rewrite_label_changes_length_and_links() {
        let mut d = drive();
        let da = DiskAddress(40);
        let label = label_for(1, DiskAddress::NIL, DiskAddress::NIL);
        allocate_at(&mut d, da, label, &[1; DATA_WORDS]).unwrap();
        let mut new_label = label;
        new_label.length = 100;
        new_label.next = DiskAddress(41);
        let pn = PageName::new(fv(), 1, da);
        let old = rewrite_label(&mut d, pn, new_label, &[1; DATA_WORDS]).unwrap();
        assert_eq!(old, label);
        let (l, _) = read_page(&mut d, pn).unwrap();
        assert_eq!(l, new_label);
    }

    #[test]
    fn rewrite_label_costs_a_revolution() {
        let mut d = drive();
        let da = DiskAddress(40);
        let label = label_for(1, DiskAddress::NIL, DiskAddress::NIL);
        allocate_at(&mut d, da, label, &[1; DATA_WORDS]).unwrap();
        let timing = d.timing().unwrap();
        let start = d.clock().now();
        rewrite_label(&mut d, PageName::new(fv(), 1, da), label, &[1; DATA_WORDS]).unwrap();
        let elapsed = d.clock().now() - start;
        // Check pass + one-revolution wait + write pass: at least a full
        // revolution, at most a revolution plus the initial rotational wait.
        assert!(elapsed >= timing.revolution());
        assert!(elapsed < timing.revolution().scaled(2) + timing.sector_time);
    }

    #[test]
    fn drain_and_prefetch_is_one_batch_both_directions() {
        let mut d = drive();
        consecutive_pages(&mut d, 4);
        d.reset_stats();
        // Write back pages 1-2 and prefetch pages 3-4, all as one batch.
        let writes = [
            (1u16, DiskAddress(40), [0xAAu16; DATA_WORDS]),
            (2u16, DiskAddress(41), [0xBBu16; DATA_WORDS]),
        ];
        let start = PageName::new(fv(), 3, DiskAddress(42));
        let (wrote, read) = transferred(&mut d, &writes, Some(start), 2);
        assert!(wrote.iter().all(std::result::Result::is_ok));
        let (l3, d3) = read[0].as_ref().unwrap();
        assert_eq!(l3.page_number, 3);
        assert_eq!(d3[0], 2);
        assert!(read[1].is_ok());
        assert_eq!(confirmed_run(start, &read), 2);
        assert_eq!(d.stats().batches, 1);
        assert_eq!(d.stats().batched_ops, 4);
        // The writes landed.
        let (_, data) = read_page(&mut d, PageName::new(fv(), 1, DiskAddress(40))).unwrap();
        assert_eq!(data, [0xAA; DATA_WORDS]);
    }

    #[test]
    fn pure_drain_is_one_staged_batch_and_matches_the_audited_run() {
        // A drain with no prefetch is one staged `do_batch` of writes, like
        // any other transfer. Run it twin against a drive with the §3.3
        // auditor attached (which mirrors each buffered op in the drive's
        // step): outcomes, platter words and simulated elapsed time must be
        // identical, and the audited run must observe a clean §3.3
        // protocol.
        let run = |audit: bool| {
            let mut d = drive();
            for i in 0..3u16 {
                allocate_at(
                    &mut d,
                    DiskAddress(40 + i),
                    label_for(i + 1, DiskAddress::NIL, DiskAddress::NIL),
                    &[i; DATA_WORDS],
                )
                .unwrap();
            }
            let auditor = if audit { Some(d.enable_audit()) } else { None };
            d.reset_stats();
            let t0 = d.clock().now();
            let writes = [
                (1u16, DiskAddress(40), [0xA1u16; DATA_WORDS]),
                (2u16, DiskAddress(41), [0xA2u16; DATA_WORDS]),
                (3u16, DiskAddress(42), [0xA3u16; DATA_WORDS]),
            ];
            let (wrote, read) = transferred(&mut d, &writes, None, 0);
            let elapsed = d.clock().now() - t0;
            assert!(read.is_empty());
            let labels: Vec<Label> = wrote.into_iter().map(std::result::Result::unwrap).collect();
            let violations = auditor.map_or(0, |a| a.violations().len());
            assert_eq!(d.stats().batches, 1);
            assert_eq!(d.stats().batched_ops, 3);
            let mut words = Vec::new();
            for i in 0..3u16 {
                let pn = PageName::new(fv(), i + 1, DiskAddress(40 + i));
                let (_, data) = read_page(&mut d, pn).unwrap();
                words.push(data[0]);
            }
            (elapsed, labels, words, violations)
        };
        let (dt0, labels0, words0, v0) = run(false);
        let (dt1, labels1, words1, v1) = run(true);
        assert_eq!(dt0, dt1);
        assert_eq!(labels0, labels1);
        assert_eq!(words0, [0xA1, 0xA2, 0xA3]);
        assert_eq!(words0, words1);
        assert_eq!(v0, 0);
        assert_eq!(v1, 0);
        assert_eq!(labels0[1].page_number, 2);
    }

    #[test]
    fn pure_drain_retries_a_transient_write_sector_at_a_time() {
        use alto_disk::FaultKind;
        let mut d = drive();
        for i in 0..2u16 {
            allocate_at(
                &mut d,
                DiskAddress(40 + i),
                label_for(i + 1, DiskAddress::NIL, DiskAddress::NIL),
                &[i; DATA_WORDS],
            )
            .unwrap();
        }
        d.reset_stats();
        d.injector_mut()
            .arm(DiskAddress(41), FaultKind::NotReady { attempts: 1 });
        let writes = [
            (1u16, DiskAddress(40), [0xB1u16; DATA_WORDS]),
            (2u16, DiskAddress(41), [0xB2u16; DATA_WORDS]),
        ];
        let (wrote, _) = transferred(&mut d, &writes, None, 0);
        assert!(wrote.iter().all(std::result::Result::is_ok));
        assert_eq!(wrote[1].as_ref().unwrap().page_number, 2);
        let s = d.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 1);
        let (_, data) = read_page(&mut d, PageName::new(fv(), 2, DiskAddress(41))).unwrap();
        assert_eq!(data, [0xB2; DATA_WORDS]);
    }

    #[test]
    fn retry_recovers_a_transient_with_one_revolution_backoff() {
        use alto_disk::FaultKind;
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[3; DATA_WORDS],
        )
        .unwrap();
        d.reset_stats();
        d.injector_mut()
            .arm_read(da, FaultKind::SoftRead { attempts: 2 });
        let rev = d.timing().unwrap().revolution();
        let start = d.clock().now();
        let (_, data) = read_page(&mut d, PageName::new(fv(), 1, da)).unwrap();
        assert_eq!(data, [3; DATA_WORDS]);
        let s = d.stats();
        assert_eq!(s.soft_errors, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.hard_failures, 0);
        // Each retry waited out a full revolution before re-issuing.
        assert!(d.clock().now() - start >= rev.scaled(2));
    }

    #[test]
    fn retry_exhaustion_escalates_to_a_hard_error() {
        use alto_disk::FaultKind;
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[3; DATA_WORDS],
        )
        .unwrap();
        d.reset_stats();
        d.injector_mut()
            .arm_read(da, FaultKind::SoftRead { attempts: 100 });
        let err = read_page(&mut d, PageName::new(fv(), 1, da)).unwrap_err();
        assert!(matches!(
            err,
            FsError::Disk(DiskError::HardError {
                part: SectorPart::Value,
                ..
            })
        ));
        let s = d.stats();
        assert_eq!(s.retries, 3, "default limit is three re-issues");
        assert_eq!(s.soft_errors, 4, "first issue plus three retries");
        assert_eq!(s.hard_failures, 1);
        assert_eq!(s.recovered, 0);
    }

    #[test]
    fn set_retries_zero_is_the_abort_immediately_ablation() {
        use alto_disk::FaultKind;
        let mut d = drive();
        let da = DiskAddress(40);
        allocate_at(
            &mut d,
            da,
            label_for(1, DiskAddress::NIL, DiskAddress::NIL),
            &[3; DATA_WORDS],
        )
        .unwrap();
        d.set_retries(0);
        d.reset_stats();
        d.injector_mut()
            .arm_read(da, FaultKind::SoftRead { attempts: 1 });
        let err = read_page(&mut d, PageName::new(fv(), 1, da)).unwrap_err();
        assert!(matches!(err, FsError::Disk(DiskError::HardError { .. })));
        let s = d.stats();
        assert_eq!(s.retries, 0, "no re-issue happened");
        assert_eq!(s.soft_errors, 1);
        assert_eq!(s.hard_failures, 1);
        // The one-attempt fault fired and cleared, so a re-read succeeds.
        assert!(read_page(&mut d, PageName::new(fv(), 1, da)).is_ok());
    }

    #[test]
    fn batch_retry_completes_only_the_failed_member() {
        use alto_disk::FaultKind;
        // One chain of two writes and three guessed reads, with a transient
        // on the second write, on the first read and on the first guessed
        // follower. The drive halts at each failure and reschedules the
        // rest; the retry layer then re-issues the write and the first
        // read alone — completed members never re-run — and leaves the
        // follower failed, which ends the confirmed run after page 3.
        let mut d = drive();
        consecutive_pages(&mut d, 5);
        d.reset_stats();
        let inj = d.injector_mut();
        inj.arm(DiskAddress(41), FaultKind::NotReady { attempts: 1 });
        inj.arm_read(DiskAddress(42), FaultKind::SoftRead { attempts: 1 });
        inj.arm_read(DiskAddress(43), FaultKind::SoftRead { attempts: 1 });
        let writes = [
            (1u16, DiskAddress(40), [0xA1u16; DATA_WORDS]),
            (2u16, DiskAddress(41), [0xA2u16; DATA_WORDS]),
        ];
        let start = PageName::new(fv(), 3, DiskAddress(42));
        let (wrote, read) = transferred(&mut d, &writes, Some(start), 3);
        assert!(wrote.iter().all(std::result::Result::is_ok));
        assert!(read[0].is_ok(), "the first read is retried");
        assert!(
            matches!(read[1], Err(FsError::Disk(DiskError::Transient { .. }))),
            "a guessed follower is not retried, got {:?}",
            read[1].as_ref().map(|(label, _)| label)
        );
        assert!(read[2].is_ok(), "the chain went on past the follower");
        assert_eq!(confirmed_run(start, &read), 1);
        let s = d.stats();
        // 5 batched services + exactly 2 retry re-issues.
        assert_eq!(s.ops, 7);
        assert_eq!(s.retries, 2);
        assert_eq!(s.recovered, 2);
        assert_eq!(s.hard_failures, 0);
        for i in 0..2u16 {
            let (_, data) =
                read_page(&mut d, PageName::new(fv(), i + 1, DiskAddress(40 + i))).unwrap();
            assert_eq!(data[0], 0xA1 + i);
        }
    }

    #[test]
    fn confirmed_run_ends_where_the_links_leave_the_guess() {
        let mut d = drive();
        consecutive_pages(&mut d, 3);
        let start = PageName::new(fv(), 1, DiskAddress(40));
        // Past page 3 the chain ends: the guessed page 4 fails its check,
        // and the run is the whole file.
        let (_, read) = transferred(&mut d, &[], Some(start), 5);
        assert!(read[3].is_err());
        assert_eq!(confirmed_run(start, &read), 3);
        // A page that verifies where its predecessor's link does not point
        // still ends the run: page 2 now links elsewhere.
        let moved = label_for(2, DiskAddress(90), DiskAddress(40));
        rewrite_label(
            &mut d,
            PageName::new(fv(), 2, DiskAddress(41)),
            moved,
            &[1; DATA_WORDS],
        )
        .unwrap();
        let (_, read) = transferred(&mut d, &[], Some(start), 3);
        assert!(read.iter().all(std::result::Result::is_ok));
        assert_eq!(confirmed_run(start, &read), 2);
        // A failed page 0 leaves no run at all.
        let stale = PageName::new(fv(), 1, DiskAddress(41));
        let (_, read) = transferred(&mut d, &[], Some(stale), 2);
        assert_eq!(confirmed_run(stale, &read), 0);
    }

    #[test]
    fn confirmed_write_run_ends_at_a_short_page_a_nil_link_or_a_jump() {
        let mut d = drive();
        consecutive_pages(&mut d, 4);
        let writes: Vec<_> = (0..5u16)
            .map(|j| (j + 1, DiskAddress(40 + j), [7u16; DATA_WORDS]))
            .collect();
        let first = DiskAddress(40);
        // Page 4 ends the file, and the guess for page 5 wrote nothing.
        let (wrote, _) = transferred(&mut d, &writes, None, 0);
        assert!(wrote[4].is_err());
        assert_eq!(confirmed_write_run(first, &wrote), 3);
        // Page 2 as a short page, then as a page that links elsewhere:
        // either ends the run there.
        let pn = PageName::new(fv(), 2, DiskAddress(41));
        for (length, next) in [(100, DiskAddress(42)), (512, DiskAddress(90))] {
            let label = Label {
                length,
                next,
                ..label_for(2, DiskAddress(42), DiskAddress(40))
            };
            rewrite_label(&mut d, pn, label, &[7; DATA_WORDS]).unwrap();
            let (wrote, _) = transferred(&mut d, &writes[..4], None, 0);
            assert!(wrote[1].is_ok());
            assert_eq!(confirmed_write_run(first, &wrote), 1, "{length} {next}");
        }
        // A first write that fails leaves no run at all.
        let (wrote, _) = transferred(&mut d, &writes[4..], None, 0);
        assert_eq!(confirmed_write_run(DiskAddress(44), &wrote), 0);
    }

    #[test]
    fn follow_stops_where_the_predicate_says() {
        let mut d = drive();
        consecutive_pages(&mut d, 4);
        let start = PageName::new(fv(), 1, DiskAddress(40));
        let mut seen = Vec::new();
        let (pn, label, data) = follow(&mut d, start, |pn, _, data| {
            seen.push((pn.page, pn.da, data[0]));
            pn.page == 3
        })
        .unwrap();
        assert_eq!(pn, PageName::new(fv(), 3, DiskAddress(42)));
        assert_eq!(label.next, DiskAddress(43));
        assert_eq!(data, [2; DATA_WORDS]);
        let want: Vec<_> = (0..3u16).map(|i| (i + 1, DiskAddress(40 + i), i)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn follow_stops_at_a_nil_link() {
        let mut d = drive();
        consecutive_pages(&mut d, 4);
        let start = PageName::new(fv(), 2, DiskAddress(41));
        let (pn, label, data) = follow(&mut d, start, |_, _, _| false).unwrap();
        assert_eq!(pn, PageName::new(fv(), 4, DiskAddress(43)));
        assert!(label.next.is_nil());
        assert_eq!(data, [3; DATA_WORDS]);
        // No page can follow page 65535: its link is corruption, not a
        // page the walk could number.
        let top = label_for(u16::MAX, DiskAddress(41), DiskAddress::NIL);
        allocate_at(&mut d, DiskAddress(50), top, &[0; DATA_WORDS]).unwrap();
        let start = PageName::new(fv(), u16::MAX, DiskAddress(50));
        assert!(matches!(
            follow(&mut d, start, |_, _, _| false),
            Err(FsError::Corrupt {
                da: DiskAddress(50),
                ..
            })
        ));
    }

    #[test]
    fn follow_stops_at_a_stale_address_with_its_check_error() {
        let mut d = drive();
        consecutive_pages(&mut d, 4);
        // Page 2's link now names a free sector.
        let stale = label_for(2, DiskAddress(90), DiskAddress(40));
        let pn = PageName::new(fv(), 2, DiskAddress(41));
        rewrite_label(&mut d, pn, stale, &[1; DATA_WORDS]).unwrap();
        let start = PageName::new(fv(), 1, DiskAddress(40));
        let mut pages = 0;
        let err = follow(&mut d, start, |_, _, _| {
            pages += 1;
            false
        })
        .unwrap_err();
        assert_eq!(pages, 2, "the stale page reached the predicate");
        match err {
            FsError::Disk(DiskError::Check(c)) => {
                assert_eq!((c.da, c.part), (DiskAddress(90), SectorPart::Label));
            }
            other => panic!("expected a check failure, got {other:?}"),
        }
    }

    #[test]
    fn mark_bad_quarantines() {
        let mut d = drive();
        let da = DiskAddress(40);
        d.pack_mut().unwrap().damage(da);
        mark_bad(&mut d, da).unwrap();
        let label = d.pack().unwrap().sector(da).unwrap().decoded_label();
        assert!(label.is_bad());
        assert!(!label.is_free());
    }

    #[test]
    fn read_raw_reads_anything() {
        let mut d = drive();
        let (l, data) = read_raw(&mut d, DiskAddress(0)).unwrap();
        assert!(l.is_free());
        assert!(data.iter().all(|&w| w == u16::MAX));
    }
}
