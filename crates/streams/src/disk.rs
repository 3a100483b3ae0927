//! Disk file streams (§2, §5).
//!
//! The standard way to read and write files: a buffered cursor over a
//! file's pages. Ordinary data traffic costs ordinary reads and writes;
//! the §3.3 label discipline shows through exactly where the paper says it
//! must — growing a page's byte count or extending the file rewrites a
//! label (one disk revolution), while overwriting in place does not.
//!
//! `position`/`set_position` are the paper's "non-standard operations"
//! (§2): they are inherent methods, not part of the abstract [`Stream`]
//! interface, and a program that uses them only works with disk streams.
//!
//! **Opening reads no page.** [`DiskByteStream::open`] takes the leader
//! from the file system's leader cache and rests the cursor at the end of
//! page 0, the leader. The leader's label names page 1 in its `next` link,
//! as every label names its successor, so the first crossing reads page 1
//! through the same paths as every other page: a bulk call's first chain
//! holds it, and a byte call reads it alone. An open straight after a
//! verified name lookup therefore issues no command, and a whole-file
//! read is one chain.
//!
//! Sequential readers get **readahead**: when the stream crosses into the
//! next page of a file whose leader hints at consecutive layout, it reads
//! the following pages in one chained batch (§3.6 guessed transfers) and
//! serves later crossings from memory. The caller's buffer sets how far the
//! guess reaches. A bulk call ([`DiskByteStream::read_bytes`],
//! [`DiskByteStream::write_bytes`]) refills with every page it still has to
//! fill, capped by the leader's last-page hints, so a whole-file call is one
//! chain; a byte call, a bulk call spanning few pages, or a refill whose
//! hinted last page does not lie straight ahead reads the floor of
//! `READAHEAD_PAGES`. The buffered pages are guarded by the disk's
//! [`Disk::write_epoch`] — any write to the medium behind the stream's back
//! drops them — so a reader never observes stale prefetched data. Every
//! chain goes through [`FileSystem::transfer`], so a chain whose writes
//! are all a plain file's data pages and all verify keeps the file
//! system's hint cache warm.
//!
//! Sequential writers get the symmetric **write-behind**: a page crossing
//! parks the dirty page in a delayed-write buffer instead of flushing it,
//! and a drain writes all parked pages as one chained batch — combined
//! with the next readahead refill when possible, so the writes behind the
//! cursor and the reads ahead of it ride on a single command set-up. Byte
//! writes drain at the floor of `WRITE_BEHIND_PAGES` parked pages; a bulk
//! write holds every page it parks until the call ends and then drains
//! them as one chain, so either way a call returns with at most
//! `WRITE_BEHIND_PAGES` pages parked. Every parked page keeps the full
//! §3.3 check-before-write discipline when it finally transfers. Explicit
//! `flush`/`close`, seeks, epoch conflicts (a foreign write to the medium)
//! and buffer pressure all drain. The stream re-stamps its epoch after its
//! *own* drain — the drain bumps the epoch once for the whole batch and
//! must not poison the stream's own readahead — while foreign writes still
//! invalidate. Label-changing pages (length growth, extension) never park:
//! a label rewrite is a check pass plus a write pass on one sector and
//! cannot chain.
//!
//! A bulk write does not read the pages it **overwrites whole**. Crossing
//! into them, it writes them at guessed consecutive addresses from the
//! current page's real `next` link, in one chain with the parked pages and
//! a guessed read of the page the call ends in. An overwrite in place is
//! an ordinary data write (§3.3): its label check refuses a wrong guess
//! before the value transfers, and the check's wildcards capture the
//! page's label. [`alto_fs::page::confirmed_write_run`], the rule
//! `FileSystem::write_file` follows too, says how far the guesses held.
//! The path applies where a refill would reach the same run: write-behind
//! on, and a maybe-consecutive leader whose hinted last page lies straight
//! ahead. It reaches that page too when the call overwrites it whole. Byte
//! calls, partial pages and files with a seam keep the read-then-write
//! path, so a same-length rewrite of a straight file makes one pass over
//! its sectors instead of two.

use std::ops::Range;

use alto_disk::{Disk, DiskAddress, DiskError, Label, UnparkOutcome, DATA_WORDS};
use alto_fs::file::{data_length, pack_bytes, PAGE_BYTES};
use alto_fs::names::FileFullName;
use alto_fs::page::{confirmed_run, confirmed_write_run, follow};
use alto_fs::{FileSystem, FsError, PageName};

use crate::errors::StreamError;
use crate::Stream;

/// A byte-granularity stream over a disk file.
///
/// # Examples
///
/// ```
/// use alto_disk::{DiskDrive, DiskModel};
/// use alto_fs::{dir, FileSystem};
/// use alto_sim::{SimClock, Trace};
/// use alto_streams::{DiskByteStream, Stream};
///
/// let drive = DiskDrive::with_formatted_pack(
///     SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
/// let mut fs = FileSystem::format(drive).unwrap();
/// let root = fs.root_dir();
/// let f = dir::create_named_file(&mut fs, root, "log").unwrap();
///
/// let mut s = DiskByteStream::open(&mut fs, f).unwrap();
/// for b in b"stream me" {
///     s.put_byte(&mut fs, *b).unwrap();
/// }
/// s.close(&mut fs).unwrap();
/// assert_eq!(fs.read_file(f).unwrap(), b"stream me");
/// ```
#[derive(Debug)]
pub struct DiskByteStream<D: Disk> {
    file: FileFullName,
    /// Current data page (1-based).
    page: u16,
    /// Hint address of the current page.
    da: DiskAddress,
    /// The current page's label (fresh from the last read).
    label: Label,
    buffer: [u16; DATA_WORDS],
    /// Byte offset within the current page.
    offset: usize,
    dirty: bool,
    /// The label (length or links) changed: flush must rewrite it.
    label_changed: bool,
    /// The stream extended or shrank the file: close must refresh the
    /// leader hints.
    resized: bool,
    closed: bool,
    /// Leader hint: the file's pages may sit at consecutive addresses, so
    /// guessed readahead batches are worth issuing.
    consecutive_hint: bool,
    /// Leader hints: the file's last page and its address. They cap how
    /// far a bulk call's guessed refill reaches; a stale value only changes
    /// the guess, since every follower is label-checked.
    last_page_hint: PageName,
    /// The disk's [`Disk::write_epoch`] as of this stream's own last drain
    /// or refill; a different value means a *foreign* write reached the
    /// medium, so prefetched copies may be stale and parked pages should
    /// meet their label checks promptly.
    medium_epoch: u64,
    /// Dirty pages parked for a delayed write: `(page, da, data)`. Only
    /// pages whose labels are unchanged park here; they are genuinely
    /// absent from the medium until a drain writes them back.
    write_behind: Vec<(u16, DiskAddress, [u16; DATA_WORDS])>,
    /// The ablation switch: off restores one synchronous flush per page
    /// crossing.
    write_behind_enabled: bool,
    /// Reusable output storage for the write half of a batch.
    write_results: Vec<Result<Label, FsError>>,
    /// The read half of the last refill batch, kept as the readahead:
    /// entry `j` holds page `refill_start.page + j`, guessed at address
    /// `refill_start.da + j`.
    read_results: Vec<alto_fs::page::PageResult>,
    /// The page the last refill started from.
    refill_start: PageName,
    /// The entries of `read_results` that are verified followers not yet
    /// consumed; crossings consume them from the front.
    ahead: Range<usize>,
    _disk: std::marker::PhantomData<D>,
}

/// The fewest pages a readahead refill reads: the current page plus up to
/// three prefetched followers. A bulk call that still has more pages to
/// fill reads them all.
const READAHEAD_PAGES: u16 = 4;

/// The fewest dirty pages parked before buffer pressure forces a drain
/// (symmetric with [`READAHEAD_PAGES`], so a byte writer's combined
/// drain-and-refill batch moves up to eight sectors on one command
/// set-up). A bulk write holds every page it parks until the call ends.
const WRITE_BEHIND_PAGES: usize = 4;

impl<D: Disk> DiskByteStream<D> {
    /// Opens a stream on `file`, positioned at byte 0, and reads no page.
    /// The leader comes through the file system's leader cache, so an open
    /// straight after a verified name lookup (or a repeated one) issues no
    /// command at all.
    ///
    /// The cursor rests at the end of page 0, the leader. The leader's
    /// label names page 1 in its `next` link, as every label names its
    /// successor, so the first crossing reads page 1 through the paths
    /// every other page takes: a bulk call's first chain holds it, and a
    /// byte call reads it alone. A damaged page 1 (a bad length, a failed
    /// check) surfaces at that first access. A leader whose link is nil
    /// fails the open, as reading page 1 there would.
    pub fn open(fs: &mut FileSystem<D>, file: FileFullName) -> Result<Self, StreamError> {
        let (leader_label, leader) = fs.open_leader(file)?;
        let medium_epoch = fs.disk().write_epoch();
        let mut stream = DiskByteStream {
            file,
            page: 0,
            da: file.leader_da,
            label: leader_label,
            buffer: [0; DATA_WORDS],
            offset: PAGE_BYTES,
            dirty: false,
            label_changed: false,
            resized: false,
            closed: false,
            consecutive_hint: leader.maybe_consecutive,
            last_page_hint: PageName::new(file.fv, leader.last_page, leader.last_da),
            medium_epoch,
            write_behind: Vec::new(),
            write_behind_enabled: true,
            write_results: Vec::new(),
            read_results: Vec::new(),
            refill_start: file.leader_page(),
            ahead: 0..0,
            _disk: std::marker::PhantomData,
        };
        stream.rest_on_leader(leader_label)?;
        Ok(stream)
    }

    /// Rests the cursor at the end of page 0, the leader, whose label is
    /// `leader_label`: its length reads as a full page, so no byte is read
    /// from page 0 or lands on it, and nothing is dirty. A nil `next` link
    /// is refused, so a later `extend` never rewrites the leader's label.
    fn rest_on_leader(&mut self, leader_label: Label) -> Result<(), StreamError> {
        if leader_label.next.is_nil() {
            return Err(FsError::Disk(DiskError::InvalidAddress(DiskAddress::NIL)).into());
        }
        self.page = 0;
        self.da = self.file.leader_da;
        self.label = Label {
            length: PAGE_BYTES as u16,
            ..leader_label
        };
        self.buffer = [0; DATA_WORDS];
        self.offset = PAGE_BYTES;
        Ok(())
    }

    /// Current absolute byte position (non-standard operation).
    pub fn position(&self) -> u64 {
        // Page 0 is only ever held at its end, which is byte 0 of the file.
        (u64::from(self.page) * PAGE_BYTES as u64 + self.offset as u64) - PAGE_BYTES as u64
    }

    /// Seeks to an absolute byte position within the file (non-standard
    /// operation). Positions up to and including the end are valid; the
    /// end of a file whose last page is full lies at that page's offset
    /// 512, where a write extends the file. A failed seek leaves the cursor
    /// where it was.
    pub fn set_position(&mut self, fs: &mut FileSystem<D>, pos: u64) -> Result<(), StreamError> {
        self.check_open()?;
        let target_page = pos / PAGE_BYTES as u64 + 1;
        let target_offset = (pos % PAGE_BYTES as u64) as usize;
        let past_end = |last| {
            StreamError::Fs(FsError::PastEnd {
                page: u16::try_from(target_page).unwrap_or(u16::MAX),
                last,
            })
        };
        if target_page == u64::from(self.page) {
            if target_offset > self.label.length as usize {
                return Err(past_end(self.page));
            }
            self.offset = target_offset;
            return Ok(());
        }
        self.flush(fs)?;
        // Walk from the current page if the target is ahead, else from
        // page 1 via the leader; from page 0, at the link the stream holds.
        let from = if self.page == 0 {
            PageName::new(self.file.fv, 1, self.label.next)
        } else if target_page > u64::from(self.page) {
            PageName::new(self.file.fv, self.page, self.da)
        } else {
            let (leader_label, _) = fs.open_leader(self.file)?;
            PageName::new(self.file.fv, 1, leader_label.next)
        };
        let (pn, label, buffer) = follow(fs.disk_mut(), from, |pn, _, _| {
            u64::from(pn.page) == target_page
        })?;
        // Validate the offset before committing any state. The walk ended
        // on the target page or, at a nil link, on the last page, whose
        // offset 512 is the end of a file of whole pages.
        let offset = if u64::from(pn.page) == target_page {
            target_offset
        } else if u64::from(pn.page) + 1 == target_page && target_offset == 0 {
            PAGE_BYTES
        } else {
            return Err(past_end(pn.page));
        };
        if offset > label.length as usize {
            return Err(past_end(pn.page));
        }
        self.enter_page(pn.page, pn.da, label, buffer)?;
        self.offset = offset;
        Ok(())
    }

    /// The file this stream is open on.
    pub fn file(&self) -> FileFullName {
        self.file
    }

    /// Writes everything pending back to the medium: first the parked
    /// write-behind pages (one chained batch), then the current page if
    /// modified.
    pub fn flush(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.drain(fs)?;
        if !self.dirty {
            return Ok(());
        }
        let pn = PageName::new(self.file.fv, self.page, self.da);
        if self.label_changed {
            alto_fs::page::rewrite_label(fs.disk_mut(), pn, self.label, &self.buffer)?;
        } else {
            fs.write_page(pn, &self.buffer)?;
        }
        self.dirty = false;
        self.label_changed = false;
        Ok(())
    }

    /// Enables or disables write-behind (on by default). Turning it off
    /// drains anything parked and restores one synchronous flush per page
    /// crossing — the old write path, kept runnable as an ablation in the
    /// same spirit as `UnscheduledDisk`.
    pub fn set_write_behind(
        &mut self,
        fs: &mut FileSystem<D>,
        enabled: bool,
    ) -> Result<(), StreamError> {
        if !enabled {
            self.drain(fs)?;
        }
        self.write_behind_enabled = enabled;
        Ok(())
    }

    /// Writes all parked pages back as one chained batch.
    fn drain(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if self.write_behind.is_empty() {
            return Ok(());
        }
        self.chain(fs, 0, None, 0)
    }

    /// Issues one chained batch: a write for every page in `write_behind`,
    /// then `read_count` guessed reads from `read_start`, whose results are
    /// left in `read_results`. Each write is an ordinary data write whose
    /// label check must pass before the value transfers (§3.3), so a
    /// conflicting foreign change surfaces as an error here rather than
    /// corrupting anything.
    ///
    /// All but the last `guessed` writes are parked pages at known
    /// addresses. A parked page whose write failed stays parked and the
    /// first failure is reported: it is still owed to the medium and
    /// surfaces again on the next drain, `flush` or `close`. The last
    /// `guessed` are whole pages a bulk write overwrites at guessed
    /// addresses ([`Self::overwrite_ahead`]): they leave the buffer with the
    /// batch, and their captured labels stay at the end of `write_results`
    /// for the caller to judge.
    ///
    /// The batch bumps the write epoch once for this stream's purposes: its
    /// own readahead stays valid (the parked pages all lie behind the read
    /// cursor), so the epoch is re-stamped afterwards. A foreign write
    /// before the batch voids the readahead first, or the new stamp would
    /// vouch for copies it made stale.
    fn chain(
        &mut self,
        fs: &mut FileSystem<D>,
        guessed: usize,
        read_start: Option<PageName>,
        read_count: u16,
    ) -> Result<(), StreamError> {
        if fs.disk().write_epoch() != self.medium_epoch {
            self.ahead = 0..0;
        }
        let mut writes = std::mem::take(&mut self.write_behind);
        let sent = writes.len();
        self.write_results.clear();
        self.write_results.reserve(sent);
        // A pure drain leaves the readahead in `read_results` alone.
        let mut no_reads = Vec::new();
        let read_out = match read_start {
            Some(_) => &mut self.read_results,
            None => &mut no_reads,
        };
        let transferred = fs.transfer(
            self.file.fv,
            &writes,
            read_start,
            read_count,
            &mut self.write_results,
            read_out,
        );
        writes.truncate(sent - guessed);
        if let Err(e) = transferred {
            // Pre-flight failure: the batch never reached the disk, so
            // every parked page is still owed.
            self.write_behind = writes;
            return Err(e.into());
        }
        if sent > 0 {
            fs.disk_mut().note_write_behind(sent as u64);
        }
        self.medium_epoch = fs.disk().write_epoch();
        let mut first_err = None;
        let mut results = self.write_results.iter();
        writes.retain(|&(page, da, _)| match results.next() {
            Some(Err(e)) => {
                fs.disk_mut().note_unpark(da, page, UnparkOutcome::Reparked);
                first_err.get_or_insert_with(|| e.clone());
                true
            }
            _ => {
                fs.disk_mut().note_unpark(da, page, UnparkOutcome::Drained);
                false
            }
        });
        self.write_behind = writes;
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Crossing out of the current page: park it dirty for a delayed write,
    /// or flush synchronously when write-behind is off or the label changed
    /// (a label rewrite is a check pass plus a write pass on one sector and
    /// cannot ride in a chained data batch).
    fn park_or_flush(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if !self.dirty {
            return Ok(());
        }
        if !self.write_behind_enabled || self.label_changed {
            return self.flush(fs);
        }
        fs.disk_mut().note_park(self.da, self.page);
        self.write_behind.push((self.page, self.da, self.buffer));
        self.dirty = false;
        Ok(())
    }

    /// The shared page-crossing step of [`Self::get_byte`],
    /// [`Self::put_byte`] and the bulk slice paths: hands the current page
    /// to the write-behind buffer (or flushes it) and advances to the next
    /// page of the chain. `extent` is how many pages the caller still has
    /// to fill, this next one included, and `hold` how many parked pages
    /// buffer pressure allows (see [`Self::advance_page`]).
    fn advance_to_next_page(
        &mut self,
        fs: &mut FileSystem<D>,
        extent: usize,
        hold: usize,
    ) -> Result<(), StreamError> {
        self.park_or_flush(fs)?;
        let (next_page, next_da) = (self.page + 1, self.label.next);
        if self.page == 0 && extent == 0 {
            // A byte call's first crossing reads page 1 alone, so its later
            // drains and refills fall on the pages they would have if the
            // stream had started on page 1.
            return self.load_page(fs, next_page, next_da);
        }
        self.advance_page(fs, next_page, next_da, extent, hold)
    }

    fn check_open(&self) -> Result<(), StreamError> {
        if self.closed {
            Err(StreamError::Closed)
        } else {
            Ok(())
        }
    }

    /// Makes `page` the current page, positioned at its first byte. A page
    /// whose label claims more bytes than a page holds is refused, and the
    /// cursor stays where it was.
    fn enter_page(
        &mut self,
        page: u16,
        da: DiskAddress,
        label: Label,
        buffer: [u16; DATA_WORDS],
    ) -> Result<(), StreamError> {
        data_length(&label)?;
        self.page = page;
        self.da = da;
        self.label = label;
        self.buffer = buffer;
        self.offset = 0;
        Ok(())
    }

    fn load_page(
        &mut self,
        fs: &mut FileSystem<D>,
        page: u16,
        da: DiskAddress,
    ) -> Result<(), StreamError> {
        let (label, buffer) = fs.read_page(PageName::new(self.file.fv, page, da))?;
        self.enter_page(page, da, label, buffer)
    }

    /// Moves to `(page, da)`, serving from the readahead buffer when it is
    /// still fresh and refilling it with a chained guessed batch (§3.6)
    /// when the leader hints the file is consecutively laid out.
    ///
    /// A refill reads `extent` pages — the caller's remaining need — capped
    /// by the leader's last-page hints and never fewer than
    /// [`READAHEAD_PAGES`]. It drains the write-behind buffer in the *same*
    /// batch, so one command set-up and one rotational schedule cover the
    /// writes behind the cursor plus the reads ahead of it. A crossing
    /// served from memory drains first once `hold` pages are parked: the
    /// floor of [`WRITE_BEHIND_PAGES`], raised by a bulk write to the number
    /// of pages it crosses out of.
    fn advance_page(
        &mut self,
        fs: &mut FileSystem<D>,
        page: u16,
        da: DiskAddress,
        extent: usize,
        hold: usize,
    ) -> Result<(), StreamError> {
        // A *foreign* write to the medium since this stream's last drain or
        // refill may have moved, freed or rewritten the buffered pages:
        // drop the prefetched copies, and get the parked pages to their
        // label checks promptly (the checks arbitrate any conflict).
        if fs.disk().write_epoch() != self.medium_epoch {
            self.ahead = 0..0;
            self.drain(fs)?;
        }
        // A hit may lie past the front of the readahead: the entries
        // before it were stepped over by a seek.
        let j = usize::from(page.wrapping_sub(self.refill_start.page));
        let guessed = DiskAddress(self.refill_start.da.0.wrapping_add(j as u16));
        if self.ahead.contains(&j) && da == guessed {
            // Buffer pressure: drain before yet another page parks. The
            // prefetched copies survive the stream's own drain — the parked
            // pages lie behind the cursor, the prefetched ones ahead.
            if self.write_behind.len() >= hold {
                self.drain(fs)?;
            }
            if let Some(&Ok((label, buffer))) = self.read_results.get(j) {
                self.enter_page(page, da, label, buffer)?;
                self.ahead.start = j + 1;
                fs.disk_mut().note_readahead(1, 0);
                return Ok(());
            }
        }
        self.ahead = 0..0;
        if self.consecutive_hint {
            let count = extent
                .min(self.straight_run(page, da))
                .max(READAHEAD_PAGES.into());
            let count = u16::try_from(count).unwrap_or(u16::MAX);
            // Room for the whole refill up front: one allocation at most,
            // not a series of doublings.
            self.read_results.clear();
            self.read_results.reserve(count.into());
            let start = PageName::new(self.file.fv, page, da);
            self.chain(fs, 0, Some(start), count)?;
            // Entry 0 sits at the current page's real link, and the chain
            // already spent its retry budget there: its failure is this
            // crossing's, not a cue to read the page again afresh.
            let (label, buffer) = self.read_results[0].clone()?;
            self.enter_page(page, da, label, buffer)?;
            // Keep followers only while the verified links confirm the
            // guessed consecutive run.
            let run = confirmed_run(start, &self.read_results);
            self.refill_start = start;
            self.ahead = 1..run;
            if run > 1 {
                fs.disk_mut().note_readahead(0, run as u64 - 1);
            }
            return Ok(());
        }
        self.drain(fs)?;
        self.load_page(fs, page, da)
    }

    /// How many pages run from `page` at `da` through the leader's hinted
    /// last page, when that page's hinted address lies where a straight run
    /// from here would put it, and 0 otherwise: past a seam every guess
    /// fails its check, and each failure halts the chain.
    fn straight_run(&self, page: u16, da: DiskAddress) -> usize {
        let last = self.last_page_hint;
        match last.page.checked_sub(page) {
            Some(ahead) if last.da.0 == da.0.wrapping_add(ahead) => usize::from(ahead) + 1,
            _ => 0,
        }
    }

    /// Crossing out of the current page into whole pages a bulk write
    /// overwrites: writes them without reading them first, at guessed
    /// consecutive addresses from the current page's real `next` link. An
    /// overwrite in place is an ordinary data write (§3.3): its label check
    /// refuses a wrong guess before the value transfers, and the check's
    /// wildcards capture each page's label. The writes ride one chain with
    /// the parked pages and a guessed read of the page the call ends in,
    /// if it ends inside one.
    ///
    /// It applies where a refill would guess the same run: write-behind on,
    /// a maybe-consecutive leader whose hinted last page lies straight
    /// ahead, and a serial whose low word gives the check teeth (a 0 word
    /// is a wildcard). The run reaches the hinted last page when the call
    /// overwrites that page whole; its nil link ends the run there, and a
    /// short captured length makes it a label change like any old tail.
    /// A call that ends inside the hinted last page reads it first.
    ///
    /// [`confirmed_write_run`] says how far the guesses held, and the
    /// cursor rests at offset 512 of the last page that landed: one whose
    /// captured length is short (a stale hint's old tail) becomes a label
    /// change, and one whose link is nil or departs from the guesses is
    /// where the next crossing extends the file or follows the real link.
    /// A failure at a link-confirmed address is the call's error. Returns
    /// how many bytes of `rest` landed, 0 when the path does not apply.
    fn overwrite_ahead(
        &mut self,
        fs: &mut FileSystem<D>,
        rest: &[u8],
    ) -> Result<usize, StreamError> {
        let (page, da) = (self.page + 1, self.label.next);
        let straight = self.straight_run(page, da);
        let whole = (rest.len() / PAGE_BYTES).min(straight);
        if whole == 0
            || !self.write_behind_enabled
            || !self.consecutive_hint
            || self.file.fv.serial.words()[1] == 0
        {
            return Ok(0);
        }
        // The chain below takes every parked page with it, this one
        // included, and the readahead goes: the pages ahead are overwritten.
        self.park_or_flush(fs)?;
        self.ahead = 0..0;
        let guess = |j: usize| DiskAddress(da.0.wrapping_add(j as u16));
        for (j, chunk) in rest.chunks_exact(PAGE_BYTES).take(whole).enumerate() {
            let mut data = [0; DATA_WORDS];
            pack_bytes(chunk, &mut data);
            self.write_behind.push((page + j as u16, guess(j), data));
        }
        let tail = PageName::new(self.file.fv, page + whole as u16, guess(whole));
        // No tail is guessed past the hinted last page: there the call
        // extends the file.
        let read_tail = rest.len() > whole * PAGE_BYTES && whole < straight;
        self.chain(fs, whole, read_tail.then_some(tail), 1)?;
        let labels = &self.write_results[self.write_results.len() - whole..];
        let run = confirmed_write_run(da, labels);
        // Every page of the run landed, and so did the entry that ended it
        // unless it failed where a confirmed link points.
        let end = run.min(whole - 1);
        let failed = labels[end].as_ref().err().cloned();
        let landed = if failed.is_some() { end } else { end + 1 };
        let rest_on = labels[..landed].last().and_then(|r| r.as_ref().ok());
        if let Some(&label) = rest_on {
            let j = landed - 1;
            let mut buffer = [0; DATA_WORDS];
            pack_bytes(&rest[j * PAGE_BYTES..(j + 1) * PAGE_BYTES], &mut buffer);
            self.enter_page(page + j as u16, guess(j), label, buffer)?;
            self.offset = PAGE_BYTES;
            if usize::from(label.length) < PAGE_BYTES {
                // The data landed, but the page was the file's old tail:
                // its length grows to a whole page, a label rewrite.
                self.label.length = PAGE_BYTES as u16;
                self.dirty = true;
                self.label_changed = true;
                self.resized = true;
            }
        }
        if let Some(e) = failed {
            return Err(e.into());
        }
        if run == whole && read_tail {
            // The last link names the guess, so the tail's read was at a
            // link-confirmed address too.
            let (label, buffer) = self.read_results[0].clone()?;
            self.enter_page(tail.page, tail.da, label, buffer)?;
        }
        Ok(landed * PAGE_BYTES)
    }

    fn byte_at(&self, i: usize) -> u8 {
        let w = self.buffer[i / 2];
        if i.is_multiple_of(2) {
            (w >> 8) as u8
        } else {
            w as u8
        }
    }

    fn set_byte(&mut self, i: usize, b: u8) {
        let w = &mut self.buffer[i / 2];
        if i.is_multiple_of(2) {
            *w = (*w & 0x00FF) | ((b as u16) << 8);
        } else {
            *w = (*w & 0xFF00) | b as u16;
        }
    }

    /// Gets the next byte.
    pub fn get_byte(&mut self, fs: &mut FileSystem<D>) -> Result<u8, StreamError> {
        self.check_open()?;
        loop {
            if self.offset < self.label.length as usize {
                let b = self.byte_at(self.offset);
                self.offset += 1;
                return Ok(b);
            }
            // At the end of this page's data.
            if (self.label.length as usize) < PAGE_BYTES || self.label.next.is_nil() {
                return Err(StreamError::EndOfStream);
            }
            self.advance_to_next_page(fs, 0, WRITE_BEHIND_PAGES)?;
        }
    }

    /// Puts a byte at the current position (overwriting or extending).
    pub fn put_byte(&mut self, fs: &mut FileSystem<D>, b: u8) -> Result<(), StreamError> {
        self.check_open()?;
        if self.offset == PAGE_BYTES {
            // Page full: move to (or create) the next page.
            if self.label.next.is_nil() {
                self.extend(fs)?;
            } else {
                self.advance_to_next_page(fs, 0, WRITE_BEHIND_PAGES)?;
            }
        }
        self.set_byte(self.offset, b);
        self.offset += 1;
        self.dirty = true;
        if self.offset > self.label.length as usize {
            self.label.length = self.offset as u16;
            self.label_changed = true;
            self.resized = true;
        }
        Ok(())
    }

    /// Copies `out.len()` bytes out of `words` starting at byte `start`.
    /// Bytes sit big-endian in the 16-bit words; the odd edges are peeled
    /// off so the body is whole-word slice copies.
    fn copy_out(words: &[u16; DATA_WORDS], start: usize, out: &mut [u8]) {
        let mut i = 0;
        let mut pos = start;
        if !pos.is_multiple_of(2) && i < out.len() {
            out[i] = words[pos / 2] as u8;
            i += 1;
            pos += 1;
        }
        let pairs = (out.len() - i) / 2;
        for (chunk, &w) in out[i..i + 2 * pairs]
            .chunks_exact_mut(2)
            .zip(&words[pos / 2..])
        {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        i += 2 * pairs;
        pos += 2 * pairs;
        if i < out.len() {
            out[i] = (words[pos / 2] >> 8) as u8;
        }
    }

    /// Copies `bytes` into `words` starting at byte `start` (the converse
    /// of [`Self::copy_out`]; partial words at the edges are merged).
    fn copy_in(words: &mut [u16; DATA_WORDS], start: usize, bytes: &[u8]) {
        let mut i = 0;
        let mut pos = start;
        if !pos.is_multiple_of(2) && i < bytes.len() {
            let w = &mut words[pos / 2];
            *w = (*w & 0xFF00) | bytes[i] as u16;
            i += 1;
            pos += 1;
        }
        let pairs = (bytes.len() - i) / 2;
        for (chunk, w) in bytes[i..i + 2 * pairs]
            .chunks_exact(2)
            .zip(&mut words[pos / 2..])
        {
            *w = u16::from_be_bytes([chunk[0], chunk[1]]);
        }
        i += 2 * pairs;
        pos += 2 * pairs;
        if i < bytes.len() {
            let w = &mut words[pos / 2];
            *w = (*w & 0x00FF) | ((bytes[i] as u16) << 8);
        }
    }

    /// Reads up to `out.len()` bytes, moving whole runs out of the page
    /// buffer with slice copies instead of per-byte dispatch — the bulk
    /// fast path. Short only at the end of the stream. Each page crossing
    /// refills the readahead with every page `out` still has room for, so
    /// a whole-file read is one chained batch.
    pub fn read_bytes(
        &mut self,
        fs: &mut FileSystem<D>,
        out: &mut [u8],
    ) -> Result<usize, StreamError> {
        self.check_open()?;
        let mut done = 0;
        while done < out.len() {
            let avail = (self.label.length as usize).saturating_sub(self.offset);
            if avail == 0 {
                if (self.label.length as usize) < PAGE_BYTES || self.label.next.is_nil() {
                    break;
                }
                let extent = (out.len() - done).div_ceil(PAGE_BYTES);
                self.advance_to_next_page(fs, extent, WRITE_BEHIND_PAGES)?;
                continue;
            }
            let n = avail.min(out.len() - done);
            Self::copy_out(&self.buffer, self.offset, &mut out[done..done + n]);
            self.offset += n;
            done += n;
        }
        Ok(done)
    }

    /// Writes all of `bytes`, moving whole runs into the page buffer with
    /// slice copies. A crossing into pages the call overwrites whole writes
    /// them without reading them, in one chain (see the module docs). Other
    /// crossings ride the same readahead and write-behind machinery as
    /// [`Self::put_byte`], sized by the call: a crossing refills with every
    /// page still to be rewritten, and the pages the call parks are held
    /// until it ends, then drained as one chained batch, so it returns with
    /// at most `WRITE_BEHIND_PAGES` parked.
    pub fn write_bytes(&mut self, fs: &mut FileSystem<D>, bytes: &[u8]) -> Result<(), StreamError> {
        self.check_open()?;
        // One park per page the call crosses out of: that is its buffer
        // pressure. A chain of whole-page overwrites holds one entry more
        // than the crossings it covers, the page it rests on.
        let crossings = (self.offset + bytes.len())
            .div_ceil(PAGE_BYTES)
            .saturating_sub(1);
        self.write_behind.reserve(crossings + 1);
        let copied = self.copy_into_pages(fs, bytes, crossings.max(WRITE_BEHIND_PAGES));
        // Also after a failed copy: no call leaves more than the floor
        // parked, so a crash after it returns loses no more than a byte
        // writer's would.
        let drained = if self.write_behind.len() > WRITE_BEHIND_PAGES {
            self.drain(fs)
        } else {
            Ok(())
        };
        copied.and(drained)
    }

    /// The copy loop of [`Self::write_bytes`]; `hold` is the buffer
    /// pressure its crossings allow.
    fn copy_into_pages(
        &mut self,
        fs: &mut FileSystem<D>,
        bytes: &[u8],
        hold: usize,
    ) -> Result<(), StreamError> {
        let mut done = 0;
        while done < bytes.len() {
            if self.offset == PAGE_BYTES {
                if self.label.next.is_nil() {
                    self.extend(fs)?;
                } else {
                    let landed = self.overwrite_ahead(fs, &bytes[done..])?;
                    if landed > 0 {
                        done += landed;
                        continue;
                    }
                    let extent = (bytes.len() - done).div_ceil(PAGE_BYTES);
                    self.advance_to_next_page(fs, extent, hold)?;
                }
            }
            let n = (PAGE_BYTES - self.offset).min(bytes.len() - done);
            Self::copy_in(&mut self.buffer, self.offset, &bytes[done..done + n]);
            self.offset += n;
            done += n;
            self.dirty = true;
            if self.offset > self.label.length as usize {
                self.label.length = self.offset as u16;
                self.label_changed = true;
                self.resized = true;
            }
        }
        Ok(())
    }

    /// Allocates a fresh page after the current (full) one.
    fn extend(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        debug_assert_eq!(self.label.length as usize, PAGE_BYTES);
        let new_label = Label {
            fid: self.file.fv.serial.words(),
            version: self.file.fv.version,
            page_number: self.page + 1,
            length: 0,
            next: DiskAddress::NIL,
            prev: self.da,
        };
        let new_da = fs.allocate_page(
            Some(DiskAddress(self.da.0.wrapping_add(1))),
            new_label,
            &[0; DATA_WORDS],
        )?;
        // The current page's next link changes: rewrite its label along
        // with the buffered data (one revolution, §3.3).
        self.label.next = new_da;
        let pn = PageName::new(self.file.fv, self.page, self.da);
        alto_fs::page::rewrite_label(fs.disk_mut(), pn, self.label, &self.buffer)?;
        self.dirty = false;
        self.label_changed = false;
        self.resized = true;
        self.page += 1;
        self.last_page_hint = PageName::new(self.file.fv, self.page, new_da);
        self.da = new_da;
        self.label = new_label;
        self.buffer = [0; DATA_WORDS];
        self.offset = 0;
        Ok(())
    }

    /// Flushes and refreshes the leader (dates and last-page hints).
    fn finish(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.flush(fs)?;
        if self.resized {
            // Find the file's last page (usually the current one).
            let mut last = PageName::new(self.file.fv, self.page, self.da);
            if !self.label.next.is_nil() {
                let next = PageName::new(self.file.fv, self.page + 1, self.label.next);
                last = follow(fs.disk_mut(), next, |_, _, _| false)?.0;
            }
            let mut leader = fs.read_leader(self.file)?;
            leader.last_page = last.page;
            leader.last_da = last.da;
            leader.written = fs.now();
            fs.write_leader(self.file, &leader)?;
            self.resized = false;
        }
        Ok(())
    }
}

impl<D: Disk> Stream<FileSystem<D>> for DiskByteStream<D> {
    fn get(&mut self, fs: &mut FileSystem<D>) -> Result<u16, StreamError> {
        self.get_byte(fs).map(u16::from)
    }

    fn put(&mut self, fs: &mut FileSystem<D>, item: u16) -> Result<(), StreamError> {
        self.put_byte(fs, item as u8)
    }

    fn read_bytes(&mut self, fs: &mut FileSystem<D>, out: &mut [u8]) -> Result<usize, StreamError> {
        DiskByteStream::read_bytes(self, fs, out)
    }

    fn write_bytes(&mut self, fs: &mut FileSystem<D>, bytes: &[u8]) -> Result<(), StreamError> {
        DiskByteStream::write_bytes(self, fs, bytes)
    }

    fn reset(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.check_open()?;
        self.finish(fs)?;
        let (leader_label, _) = fs.open_leader(self.file)?;
        self.rest_on_leader(leader_label)
    }

    fn endof(&mut self, fs: &mut FileSystem<D>) -> Result<bool, StreamError> {
        self.check_open()?;
        if self.page == 0 {
            // The end of page 0 is byte 0 of page 1: the answer lies there.
            self.advance_to_next_page(fs, 0, WRITE_BEHIND_PAGES)?;
        }
        Ok(self.offset >= self.label.length as usize && self.label.next.is_nil())
    }

    fn close(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if self.closed {
            return Ok(());
        }
        self.finish(fs)?;
        self.closed = true;
        Ok(())
    }
}

/// A word-granularity stream over a disk file: each item is one 16-bit
/// word (two file bytes, big-endian).
#[derive(Debug)]
pub struct DiskWordStream<D: Disk> {
    inner: DiskByteStream<D>,
}

impl<D: Disk> DiskWordStream<D> {
    /// Opens a word stream on `file`.
    pub fn open(fs: &mut FileSystem<D>, file: FileFullName) -> Result<Self, StreamError> {
        Ok(DiskWordStream {
            inner: DiskByteStream::open(fs, file)?,
        })
    }

    /// Current position in words (non-standard operation).
    pub fn position(&self) -> u64 {
        self.inner.position() / 2
    }

    /// Seeks to a word position (non-standard operation). A position
    /// whose byte offset overflows lies past the end of any file.
    pub fn set_position(&mut self, fs: &mut FileSystem<D>, words: u64) -> Result<(), StreamError> {
        self.inner.set_position(fs, words.saturating_mul(2))
    }
}

impl<D: Disk> Stream<FileSystem<D>> for DiskWordStream<D> {
    fn get(&mut self, fs: &mut FileSystem<D>) -> Result<u16, StreamError> {
        let hi = self.inner.get_byte(fs)?;
        let lo = self.inner.get_byte(fs)?;
        Ok(((hi as u16) << 8) | lo as u16)
    }

    fn put(&mut self, fs: &mut FileSystem<D>, item: u16) -> Result<(), StreamError> {
        self.inner.put_byte(fs, (item >> 8) as u8)?;
        self.inner.put_byte(fs, item as u8)
    }

    fn reset(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.inner.reset(fs)
    }

    fn endof(&mut self, fs: &mut FileSystem<D>) -> Result<bool, StreamError> {
        self.inner.endof(fs)
    }

    fn close(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.inner.close(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    type Fs = FileSystem<DiskDrive>;

    fn fresh_fs() -> Fs {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        FileSystem::format(drive).unwrap()
    }

    fn file_named(fs: &mut Fs, name: &str) -> FileFullName {
        let root = fs.root_dir();
        alto_fs::dir::create_named_file(fs, root, name).unwrap()
    }

    #[test]
    fn write_then_read_small() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "s.txt");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for b in b"stream me" {
            s.put_byte(&mut fs, *b).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), b"stream me");
    }

    /// Disk commands issued so far: each operation issued on its own, plus
    /// each chained batch.
    fn commands(fs: &Fs) -> u64 {
        let s = fs.disk().stats();
        s.ops - s.batched_ops + s.batches
    }

    #[test]
    fn open_after_a_verified_lookup_issues_no_command() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "o.dat");
        let bytes: Vec<u8> = (0..6 * PAGE_BYTES as u32 + 77)
            .map(|i| (i % 247) as u8)
            .collect();
        fs.write_file(f, &bytes).unwrap();
        // The second lookup is an index hit, verified against the leader
        // label, which leaves the leader cached.
        let root = fs.root_dir();
        for _ in 0..2 {
            assert_eq!(
                alto_fs::dir::lookup(&mut fs, root, "o.dat").unwrap(),
                Some(f)
            );
        }
        let before = commands(&fs);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(commands(&fs), before, "open went to the disk");
        assert_eq!(s.position(), 0);
        // A whole-file read is then one chain, and page 1 is its first
        // member: pages 1..7, six of them prefetched.
        let stats = fs.disk().stats();
        let mut all = vec![0u8; bytes.len() + 1];
        assert_eq!(s.read_bytes(&mut fs, &mut all).unwrap(), bytes.len());
        assert_eq!(&all[..bytes.len()], &bytes[..]);
        assert_eq!(commands(&fs), before + 1);
        let after = fs.disk().stats();
        assert_eq!(after.batches - stats.batches, 1);
        assert_eq!(after.sectors_read - stats.sectors_read, 7);
        assert_eq!(after.readahead_prefetched - stats.readahead_prefetched, 6);
        assert_eq!(after.failed_checks, stats.failed_checks);
        s.close(&mut fs).unwrap();
        assert_eq!(commands(&fs), before + 1, "close went to the disk");
    }

    #[test]
    fn an_empty_file_ends_right_after_open() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "empty.dat");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.position(), 0);
        assert!(s.endof(&mut fs).unwrap());
        assert_eq!(s.position(), 0);
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
        let mut out = [0u8; 8];
        assert_eq!(s.read_bytes(&mut fs, &mut out).unwrap(), 0);
        let mut w = DiskWordStream::open(&mut fs, f).unwrap();
        assert!(w.endof(&mut fs).unwrap());
        assert_eq!(w.position(), 0);
    }

    #[test]
    fn seeks_from_the_leader_read_no_leader() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "seek.dat");
        let bytes: Vec<u8> = (0..3 * PAGE_BYTES as u32 + 10)
            .map(|i| (i % 253) as u8)
            .collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // The walk starts at the leader's link: pages 1..3, no leader.
        let before = fs.disk().stats();
        let leader_reads = fs.cache_stats();
        s.set_position(&mut fs, 2 * PAGE_BYTES as u64 + 5).unwrap();
        let after = fs.disk().stats();
        assert_eq!(after.sectors_read - before.sectors_read, 3);
        assert_eq!(after.ops - before.ops, 3);
        assert_eq!(fs.cache_stats(), leader_reads, "the seek opened the leader");
        assert_eq!(s.position(), 2 * PAGE_BYTES as u64 + 5);
        assert_eq!(s.get_byte(&mut fs).unwrap(), bytes[2 * PAGE_BYTES + 5]);
        // `reset` goes back to the end of page 0 and reads nothing.
        let before = fs.disk().stats();
        s.reset(&mut fs).unwrap();
        assert_eq!(fs.disk().stats().ops, before.ops, "reset went to the disk");
        assert_eq!(s.position(), 0);
        assert_eq!(read_rest(&mut s, &mut fs, false), bytes);
    }

    #[test]
    fn a_bare_leader_fails_open_and_writes_nothing() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "bare.dat");
        fs.write_file(f, b"lost").unwrap();
        // Unlink page 1 from the leader's label behind the file system's
        // back (the cache retires on the write).
        let (mut label, leader) = fs.open_leader(f).unwrap();
        label.next = DiskAddress::NIL;
        alto_fs::page::rewrite_label(fs.disk_mut(), f.leader_page(), label, &leader.encode())
            .unwrap();
        let before = fs.disk().stats();
        let nil = StreamError::Fs(FsError::Disk(DiskError::InvalidAddress(DiskAddress::NIL)));
        assert_eq!(DiskByteStream::open(&mut fs, f).err(), Some(nil.clone()));
        assert_eq!(DiskWordStream::open(&mut fs, f).err(), Some(nil));
        let after = fs.disk().stats();
        assert_eq!(after.write_ops, before.write_ops, "open wrote");
        assert!(fs.open_leader(f).unwrap().0.next.is_nil());
    }

    #[test]
    fn read_via_stream() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "s.txt");
        fs.write_file(f, b"abc").unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert!(!s.endof(&mut fs).unwrap());
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'a');
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'b');
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'c');
        assert!(s.endof(&mut fs).unwrap());
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
    }

    #[test]
    fn multi_page_write_and_read_back() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "big.dat");
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for &b in &bytes {
            s.put_byte(&mut fs, b).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), bytes);
        // And read back through a fresh stream.
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        loop {
            match s.get_byte(&mut fs) {
                Ok(b) => back.push(b),
                Err(StreamError::EndOfStream) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(back, bytes);
    }

    #[test]
    fn overwrite_in_place_is_ordinary_writes() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w.dat");
        fs.write_file(f, &vec![0u8; 1000]).unwrap();
        let label_writes_before = fs.disk().stats().label_writes;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1000 {
            s.put_byte(&mut fs, 7).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Same length, same pages: no label was rewritten.
        assert_eq!(fs.disk().stats().label_writes, label_writes_before);
        assert_eq!(fs.read_file(f).unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn growing_rewrites_labels() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "g.dat");
        let before = fs.disk().stats().label_writes;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..600 {
            s.put_byte(&mut fs, 1).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Page 1's length changed and a page was allocated: labels written.
        assert!(fs.disk().stats().label_writes > before);
        assert_eq!(fs.file_length(f).unwrap(), 600);
    }

    #[test]
    fn reset_rewinds() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "r.dat");
        fs.write_file(f, b"xyz").unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'x');
        s.reset(&mut fs).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'x');
    }

    #[test]
    fn position_and_seek() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "p.dat");
        let bytes: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_position(&mut fs, 1500).unwrap();
        assert_eq!(s.position(), 1500);
        assert_eq!(s.get_byte(&mut fs).unwrap(), (1500 % 256) as u8);
        // Seek backwards.
        s.set_position(&mut fs, 3).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), 3);
        // Seek to the very end: valid position, instant end-of-stream.
        s.set_position(&mut fs, 2000).unwrap();
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
        // Past the end: an error that leaves the cursor where it was — also
        // when the target page exists and only the offset lies past its
        // length (page 4 holds 464 bytes; 2010 is its byte 474).
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..4 {
            s.get_byte(&mut fs).unwrap();
        }
        for past in [3000, 2010] {
            assert!(s.set_position(&mut fs, past).is_err());
            assert_eq!(s.position(), 4, "after the failed seek to {past}");
        }
        assert_eq!(s.get_byte(&mut fs).unwrap(), 4);

        // The end of a file of whole pages is offset 512 of its last page,
        // from where a write extends the file; one byte on is past it.
        let g = file_named(&mut fs, "q.dat");
        let whole = &bytes[..3 * PAGE_BYTES];
        fs.write_file(g, whole).unwrap();
        let mut s = DiskByteStream::open(&mut fs, g).unwrap();
        assert!(s.set_position(&mut fs, 3 * PAGE_BYTES as u64 + 1).is_err());
        s.set_position(&mut fs, 3 * PAGE_BYTES as u64).unwrap();
        assert_eq!(s.position(), 3 * PAGE_BYTES as u64);
        assert!(s.endof(&mut fs).unwrap());
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
        s.put_byte(&mut fs, 0xEE).unwrap();
        s.close(&mut fs).unwrap();
        let mut want = whole.to_vec();
        want.push(0xEE);
        assert_eq!(fs.read_file(g).unwrap(), want);

        // Targets past page 65,535 are past the end of any file, with no
        // wrap of the page number: the cursor stays where it was.
        let h = file_named(&mut fs, "r.dat");
        fs.write_file(h, b"hello world").unwrap();
        let mut s = DiskByteStream::open(&mut fs, h).unwrap();
        s.get_byte(&mut fs).unwrap();
        let wrapped = 65_536 * PAGE_BYTES as u64 + 4;
        assert!(matches!(
            s.set_position(&mut fs, wrapped),
            Err(StreamError::Fs(FsError::PastEnd { last: 1, .. }))
        ));
        assert_eq!(s.position(), 1);
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'e');
        let mut s = DiskByteStream::open(&mut fs, g).unwrap();
        for pos in [65_535 * PAGE_BYTES as u64, u64::MAX] {
            assert!(s.set_position(&mut fs, pos).is_err(), "{pos}");
            assert_eq!(s.position(), 0, "after the failed seek to {pos}");
        }
        let mut w = DiskWordStream::open(&mut fs, g).unwrap();
        assert!(w.set_position(&mut fs, u64::MAX / 2 + 1).is_err());
        assert_eq!(w.position(), 0);
    }

    /// The address of page `k` of `f`, found by following the links.
    fn page_da(fs: &mut Fs, f: FileFullName, k: u16) -> DiskAddress {
        let mut da = fs.open_leader(f).unwrap().0.next;
        for page in 1..k {
            da = fs.read_page(PageName::new(f.fv, page, da)).unwrap().0.next;
        }
        da
    }

    /// Sets the length word of page `k`'s label on the platter, behind the
    /// file system's back.
    fn smash_length(fs: &mut Fs, f: FileFullName, k: u16, length: u16) {
        let da = page_da(fs, f, k);
        let pack = fs.disk_mut().pack_mut().unwrap();
        pack.sector_mut(da).unwrap().label[4] = length;
    }

    #[test]
    fn a_label_longer_than_a_page_is_refused() {
        // The label check matches only the absolutes, so a smashed length
        // word passes it: the stream must refuse the page wherever it
        // enters one, as `read_file` does, not serve bytes no page holds.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "long.dat");
        let bytes: Vec<u8> = (0..4 * PAGE_BYTES as u32).map(|i| i as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let bad = StreamError::Fs(FsError::BadLength(600));
        smash_length(&mut fs, f, 1, 600);
        assert_eq!(fs.read_file(f), Err(FsError::BadLength(600)));
        // `open` reads no page, so page 1's length is refused at the first
        // access, whichever path makes it, and the cursor stays at byte 0.
        let mut all = vec![0u8; 5 * PAGE_BYTES];
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.read_bytes(&mut fs, &mut all), Err(bad.clone()));
        assert_eq!(s.position(), 0);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.get_byte(&mut fs), Err(bad.clone()));
        assert_eq!(s.position(), 0);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.write_bytes(&mut fs, &bytes), Err(bad.clone()));
        assert_eq!(s.position(), 0);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.set_position(&mut fs, 100), Err(bad.clone()));
        assert_eq!(s.position(), 0);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.endof(&mut fs), Err(bad.clone()));
        assert_eq!(s.position(), 0);
        // Page 3 instead, which the crossing into page 2 prefetches: the
        // crossing into it, bulk or byte at a time, and a seek into it
        // fail and leave the cursor where it was.
        smash_length(&mut fs, f, 1, PAGE_BYTES as u16);
        smash_length(&mut fs, f, 3, 600);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.read_bytes(&mut fs, &mut all), Err(bad.clone()));
        assert_eq!(s.position(), 2 * PAGE_BYTES as u64);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for &b in &bytes[..2 * PAGE_BYTES] {
            assert_eq!(s.get_byte(&mut fs), Ok(b));
        }
        assert_eq!(s.get_byte(&mut fs), Err(bad.clone()));
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.set_position(&mut fs, 1100), Err(bad));
        assert_eq!(s.position(), 0);
    }

    #[test]
    fn seek_preserves_pending_writes() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "sw.dat");
        fs.write_file(f, &vec![0u8; 1024]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.put_byte(&mut fs, 0xAA).unwrap(); // dirty page 1
        s.set_position(&mut fs, 600).unwrap(); // crosses to page 2: flush
        s.put_byte(&mut fs, 0xBB).unwrap();
        s.close(&mut fs).unwrap();
        let bytes = fs.read_file(f).unwrap();
        assert_eq!(bytes[0], 0xAA);
        assert_eq!(bytes[600], 0xBB);
    }

    #[test]
    fn word_stream_round_trip() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w.words");
        let words: Vec<u16> = (0..700u16).map(|i| i.wrapping_mul(257)).collect();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        crate::write_all(&mut s, &mut fs, &words).unwrap();
        s.close(&mut fs).unwrap();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        assert_eq!(crate::read_all(&mut s, &mut fs).unwrap(), words);
    }

    #[test]
    fn word_stream_seek() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w2.words");
        let words: Vec<u16> = (0..700u16).collect();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        crate::write_all(&mut s, &mut fs, &words).unwrap();
        s.set_position(&mut fs, 300).unwrap();
        assert_eq!(s.get(&mut fs).unwrap(), 300);
        assert_eq!(s.position(), 301);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn leader_hints_updated_on_close() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "h.dat");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1200 {
            s.put_byte(&mut fs, 9).unwrap();
        }
        s.close(&mut fs).unwrap();
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.last_page, 3);
        let (label, _) = fs
            .read_page(PageName::new(f.fv, 3, leader.last_da))
            .unwrap();
        assert_eq!(label.length, 1200 - 1024);
    }

    #[test]
    fn closed_stream_rejects_io() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "c.dat");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.close(&mut fs).unwrap();
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::Closed));
        assert_eq!(s.put_byte(&mut fs, 1), Err(StreamError::Closed));
        // Closing twice is fine.
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn sequential_read_uses_readahead() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "seq.dat");
        let bytes: Vec<u8> = (0..2500u32).map(|i| (i % 241) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        loop {
            match s.get_byte(&mut fs) {
                Ok(b) => back.push(b),
                Err(StreamError::EndOfStream) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(back, bytes);
        // Five pages: the crossing into page 2 prefetches 3..5; the three
        // later crossings are served from memory.
        let stats = fs.disk().stats();
        assert_eq!(stats.readahead_prefetched, 3);
        assert_eq!(stats.readahead_hits, 3);
    }

    /// Reads to the end of the stream, one byte at a time or in one bulk
    /// call, and returns what it got.
    fn read_rest(s: &mut DiskByteStream<DiskDrive>, fs: &mut Fs, bulk: bool) -> Vec<u8> {
        let mut rest = Vec::new();
        if bulk {
            rest.resize(64 * PAGE_BYTES, 0);
            let n = s.read_bytes(fs, &mut rest).unwrap();
            rest.truncate(n);
        } else {
            loop {
                match s.get_byte(fs) {
                    Ok(b) => rest.push(b),
                    Err(StreamError::EndOfStream) => break,
                    Err(e) => panic!("{e}"),
                }
            }
        }
        rest
    }

    /// Moves page `k` of `f` to a free sector far away and relinks its
    /// neighbours, leaving the leader's maybe-consecutive hint stale.
    fn relocate(fs: &mut Fs, f: FileFullName, k: u16) {
        let mut pages = Vec::new();
        let mut da = fs.open_leader(f).unwrap().0.next;
        for page in 1..=k + 1 {
            let (label, data) = fs.read_page(PageName::new(f.fv, page, da)).unwrap();
            pages.push((da, label, data));
            da = label.next;
        }
        let (old_da, label, data) = pages[k as usize - 1];
        let new_da = fs
            .allocate_page(Some(DiskAddress(old_da.0 + 1000)), label, &data)
            .unwrap();
        for (page, i) in [(k - 1, k as usize - 2), (k + 1, k as usize)] {
            let (da, mut label, data) = pages[i];
            if page < k {
                label.next = new_da;
            } else {
                label.prev = new_da;
            }
            alto_fs::page::rewrite_label(
                fs.disk_mut(),
                PageName::new(f.fv, page, da),
                label,
                &data,
            )
            .unwrap();
        }
        fs.free_page(PageName::new(f.fv, k, old_da)).unwrap();
    }

    #[test]
    fn readahead_is_dropped_when_the_file_is_rewritten() {
        // Byte reads, then two bulk calls with the rewrite between them.
        for (len, bulk) in [(2500, false), (12 * PAGE_BYTES, true)] {
            let mut fs = fresh_fs();
            let f = file_named(&mut fs, "fresh.dat");
            let new = vec![2u8; len];
            fs.write_file(f, &vec![1u8; len]).unwrap();
            let mut s = DiskByteStream::open(&mut fs, f).unwrap();
            // Read pages 1-2 exactly; crossing into page 2 prefetched 3..5.
            let mut head = [0u8; 1024];
            if bulk {
                assert_eq!(s.read_bytes(&mut fs, &mut head).unwrap(), 1024);
            } else {
                for b in &mut head {
                    *b = s.get_byte(&mut fs).unwrap();
                }
            }
            assert_eq!(fs.disk().stats().readahead_prefetched, 3);
            // Rewrite the whole file behind the stream's back (same pages,
            // same addresses — a cache keyed by address alone would go
            // stale).
            fs.write_file(f, &new).unwrap();
            // Everything from the next page crossing on must be the new
            // data; the second bulk call refills deep, pages 3..12 in one
            // chain.
            assert_eq!(
                read_rest(&mut s, &mut fs, bulk),
                &new[1024..],
                "bulk {bulk}"
            );
            if bulk {
                assert_eq!(fs.disk().stats().readahead_prefetched, 3 + 9);
            }
        }
    }

    #[test]
    fn readahead_never_masks_a_truncation() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "trunc.dat");
        fs.write_file(f, &vec![1u8; 2500]).unwrap(); // 5 pages
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1024 {
            s.get_byte(&mut fs).unwrap();
        }
        // Truncate to 3 pages of new data while pages 3..5 sit prefetched.
        let new: Vec<u8> = vec![3u8; 1536];
        fs.write_file(f, &new).unwrap();
        // Page 3 must come back fresh — and the stream must end there, not
        // run on through the stale (now freed) pages 4 and 5.
        assert_eq!(read_rest(&mut s, &mut fs, false), &new[1024..]);

        // A bulk read across a broken consecutive run: page 6 of 12 moved
        // away while the leader still hints the file is consecutive.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "broken.dat");
        let bytes: Vec<u8> = (0..12 * PAGE_BYTES as u32)
            .map(|i| (i % 251) as u8)
            .collect();
        fs.write_file(f, &bytes).unwrap();
        relocate(&mut fs, f, 6);
        assert!(fs.read_leader(f).unwrap().maybe_consecutive);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(read_rest(&mut s, &mut fs, true), bytes);
        // The refill into page 1 guessed pages 1..12 but kept its followers
        // only up to the break (2..5, not 7..12, though those labels
        // check); page 6 came alone, and the refill into 7 read on to the
        // end.
        let stats = fs.disk().stats();
        assert_eq!(stats.readahead_prefetched, 4 + 5);
        assert_eq!(stats.readahead_hits, 4 + 5);
    }

    #[test]
    fn a_failure_at_a_linked_address_is_the_calls_error() {
        use alto_disk::{DiskError, FaultKind};
        // A refill's first read and a whole-page overwrite right behind a
        // confirmed link both sit where a real link points. Once the chain
        // has spent the retry budget there, the call fails instead of
        // trying again with a fresh one: under the default limit of three,
        // a fault that clears on the fifth attempt fails the call, and so
        // does a one-attempt fault under a zero limit.
        let hard = |r: Option<StreamError>| {
            matches!(
                r,
                Some(StreamError::Fs(FsError::Disk(DiskError::HardError { .. })))
            )
        };
        for (limit, attempts) in [(3, 4), (0, 1)] {
            let mut fs = fresh_fs();
            let f = file_named(&mut fs, "budget.dat");
            let old: Vec<u8> = (0..10 * PAGE_BYTES as u32).map(|i| i as u8).collect();
            fs.write_file(f, &old).unwrap();
            fs.disk_mut().set_retries(limit);
            let spent = |fs: &Fs| {
                let s = fs.disk().stats();
                (s.soft_errors, s.retries, s.hard_failures, s.recovered)
            };
            let want = (u64::from(attempts), u64::from(limit), 1, 0);

            // Page 1 is the first read of the refill that crosses into it
            // from the leader, at the leader's link.
            let da = page_da(&mut fs, f, 1);
            fs.disk_mut().reset_stats();
            let inj = fs.disk_mut().injector_mut();
            inj.arm_read(da, FaultKind::SoftRead { attempts });
            let mut s = DiskByteStream::open(&mut fs, f).unwrap();
            let mut all = vec![0u8; 10 * PAGE_BYTES];
            assert!(hard(s.read_bytes(&mut fs, &mut all).err()), "read, {limit}");
            assert_eq!(s.position(), 0);
            assert_eq!(spent(&fs), want, "read, limit {limit}");

            // Page 2 lies where page 1's captured link points.
            let da = page_da(&mut fs, f, 2);
            fs.disk_mut().reset_stats();
            let inj = fs.disk_mut().injector_mut();
            inj.arm(da, FaultKind::NotReady { attempts });
            let new = vec![0xEEu8; 10 * PAGE_BYTES];
            let mut s = DiskByteStream::open(&mut fs, f).unwrap();
            assert!(hard(s.write_bytes(&mut fs, &new).err()), "write, {limit}");
            // The cursor rests on page 1, the last page the run confirmed.
            assert_eq!(s.position(), PAGE_BYTES as u64);
            assert_eq!(spent(&fs), want, "write, limit {limit}");
            s.close(&mut fs).unwrap();
            let back = fs.read_file(f).unwrap();
            assert_eq!(&back[..PAGE_BYTES], &new[..PAGE_BYTES]);
            assert_eq!(
                &back[PAGE_BYTES..2 * PAGE_BYTES],
                &old[PAGE_BYTES..2 * PAGE_BYTES]
            );
        }
    }

    #[test]
    fn bulk_refill_stops_short_of_a_seam() {
        // Ten pages, another file right behind them, then twenty pages
        // appended through a stream: the new pages start past the other
        // file, while the leader still says maybe-consecutive.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "seam.dat");
        fs.write_file(f, &vec![1u8; 10 * PAGE_BYTES]).unwrap();
        let g = file_named(&mut fs, "behind.dat");
        fs.write_file(g, &vec![2u8; 5 * PAGE_BYTES]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_position(&mut fs, 10 * PAGE_BYTES as u64 - 1).unwrap();
        s.get_byte(&mut fs).unwrap();
        s.write_bytes(&mut fs, &vec![3u8; 20 * PAGE_BYTES]).unwrap();
        s.close(&mut fs).unwrap();
        assert!(fs.read_leader(f).unwrap().maybe_consecutive);
        let mut want = vec![1u8; 10 * PAGE_BYTES];
        want.extend_from_slice(&[3u8; 20 * PAGE_BYTES]);
        let before = fs.disk().stats();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(read_rest(&mut s, &mut fs, true), want);
        // The hinted last address does not lie where a straight run from
        // page 1 would put it, so the refills into 1, 5 and 9 read the
        // floor and only its two guesses past page 10 fail. From page 11
        // the run is straight: one refill reads on to page 30.
        let after = fs.disk().stats();
        assert_eq!(after.failed_checks - before.failed_checks, 2);
        assert_eq!(
            after.readahead_prefetched - before.readahead_prefetched,
            3 + 3 + 1 + 19
        );
        s.close(&mut fs).unwrap();

        // A bulk rewrite of the whole file crosses the seam the same way:
        // no whole page is written blind until the run is straight, so no
        // guessed write reaches the file behind the seam.
        let new: Vec<u8> = (0..30 * PAGE_BYTES as u32).map(|i| i as u8).collect();
        let before = fs.disk().stats();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.write_bytes(&mut fs, &new).unwrap();
        s.close(&mut fs).unwrap();
        // The refills into pages 1, 5 and 9 read the floor, and the only
        // failed checks are again the two guesses past page 10. From page
        // 11 the run is straight: pages 11..30 are written without a read,
        // the hinted last page among them.
        let after = fs.disk().stats();
        assert_eq!(after.failed_checks - before.failed_checks, 2);
        assert_eq!(
            after.readahead_prefetched - before.readahead_prefetched,
            3 + 3 + 1
        );
        assert_eq!(fs.read_file(f).unwrap(), new);
        assert_eq!(fs.read_file(g).unwrap(), vec![2u8; 5 * PAGE_BYTES]);
    }

    #[test]
    fn whole_pages_overwrite_past_a_stale_tail() {
        use alto_fs::Scavenger;
        // A ten-page file whose last page holds 100 bytes, under a leader
        // that still names page 12, straight ahead, as the last page: the
        // hints of a file truncated by a rewrite that never finished.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "tail.dat");
        fs.write_file(f, &vec![1u8; 9 * PAGE_BYTES + 100]).unwrap();
        let mut leader = fs.read_leader(f).unwrap();
        leader.last_page = 12;
        leader.last_da = DiskAddress(leader.last_da.0 + 2);
        fs.write_leader(f, &leader).unwrap();
        let before = fs.disk().stats();

        // Rewrite it as twelve whole pages in one call. Pages 2..12 go out
        // blind: 2..9 confirm, page 10's captured length is short, so it
        // grows to a whole page, and the guesses for pages 11 and 12 fail
        // their checks and write nothing. The file then extends by two
        // pages.
        let new: Vec<u8> = (0..12 * PAGE_BYTES as u32)
            .map(|i| (i % 253) as u8)
            .collect();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.write_bytes(&mut fs, &new).unwrap();
        s.close(&mut fs).unwrap();
        let after = fs.disk().stats();
        // The guessed writes of pages 11 and 12.
        assert_eq!(after.failed_checks - before.failed_checks, 2);

        assert_eq!(fs.read_file(f).unwrap(), new);
        assert_eq!(fs.file_length(f).unwrap(), 12 * PAGE_BYTES as u64);
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.last_page, 12);
        assert_eq!(leader.last_da, page_da(&mut fs, f, 12));
        for k in 1..=12 {
            let da = page_da(&mut fs, f, k);
            let (label, _) = fs.read_page(PageName::new(f.fv, k, da)).unwrap();
            assert_eq!(usize::from(label.length), PAGE_BYTES, "page {k}");
        }
        // Every label and link is as a clean system leaves it.
        let report = Scavenger::run(&mut fs).unwrap();
        let repairs = [
            report.bad_pages,
            report.duplicate_pages_freed,
            report.headless_pages_freed,
            report.truncated_pages_freed,
            report.links_repaired,
            report.lengths_normalized,
            report.entries_fixed,
            report.entries_dropped,
            report.orphans_adopted,
        ];
        assert_eq!(repairs, [0; 9], "{report:?}");
        assert_eq!(fs.read_file(f).unwrap(), new);
    }

    #[test]
    fn a_whole_rewrite_of_a_page_aligned_file_leaves_close_nothing() {
        use alto_fs::Scavenger;
        // Ten whole pages rewritten by one call: pages 1..10 go out blind,
        // from the leader's link, the last page among them, whose nil link
        // ends the run. Nothing is read, and nothing is left for `close`
        // to write.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "whole.dat");
        fs.write_file(f, &vec![1u8; 10 * PAGE_BYTES]).unwrap();
        let new: Vec<u8> = (0..10 * PAGE_BYTES as u32)
            .map(|i| (i % 241) as u8)
            .collect();
        let before = fs.disk().stats();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.write_bytes(&mut fs, &new).unwrap();
        let written = fs.disk().stats();
        assert_eq!(written.sectors_read, before.sectors_read, "a page was read");
        assert_eq!(written.failed_checks, before.failed_checks);
        s.close(&mut fs).unwrap();
        let closed = fs.disk().stats();
        assert_eq!(closed.ops, written.ops, "close went to the disk");

        assert_eq!(fs.read_file(f).unwrap(), new);
        let report = Scavenger::run(&mut fs).unwrap();
        let repairs = [
            report.bad_pages,
            report.duplicate_pages_freed,
            report.headless_pages_freed,
            report.truncated_pages_freed,
            report.links_repaired,
            report.lengths_normalized,
            report.entries_fixed,
            report.entries_dropped,
            report.orphans_adopted,
        ];
        assert_eq!(repairs, [0; 9], "{report:?}");
        assert_eq!(fs.read_file(f).unwrap(), new);
    }

    #[test]
    fn whole_page_overwrites_resume_where_a_link_leaves_the_guesses() {
        use alto_fs::Scavenger;
        // Page 6 of 12 moved away under a leader that still says
        // maybe-consecutive, with page 12 still straight ahead of page 2,
        // so a bulk rewrite sends pages 2..11 without reading them.
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "moved.dat");
        fs.write_file(f, &vec![1u8; 12 * PAGE_BYTES]).unwrap();
        relocate(&mut fs, f, 6);
        assert!(fs.read_leader(f).unwrap().maybe_consecutive);
        let new: Vec<u8> = (0..12 * PAGE_BYTES as u32)
            .map(|i| (i % 249) as u8)
            .collect();
        let before = fs.disk().stats();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.write_bytes(&mut fs, &new).unwrap();
        s.close(&mut fs).unwrap();
        // The run ends at page 5, whose link leaves the guesses. The guess
        // for page 6 finds the sector it left and writes nothing (one
        // failed check); the stream goes on from page 5's real link, where
        // a refill at the floor guesses three pages past page 6 in vain,
        // and from page 7 the run is straight again.
        let after = fs.disk().stats();
        assert_eq!(after.failed_checks - before.failed_checks, 1 + 3);
        assert_eq!(fs.read_file(f).unwrap(), new);
        let report = Scavenger::run(&mut fs).unwrap();
        assert_eq!(report.links_repaired + report.lengths_normalized, 0);
        assert_eq!(
            report.truncated_pages_freed + report.duplicate_pages_freed,
            0
        );
        assert_eq!(fs.read_file(f).unwrap(), new);
    }

    #[test]
    fn interleaved_stream_writes_invalidate_readahead() {
        // Read two pages, or write them and read on into page 3: either way
        // the crossing into page 2 prefetched pages 3..5. The writer also
        // parked page 2, and flushes it after the foreign write below; its
        // own drain must not vouch for copies prefetched before that write.
        for writer in [false, true] {
            let mut fs = fresh_fs();
            let f = file_named(&mut fs, "mix.dat");
            fs.write_file(f, &vec![0u8; 2500]).unwrap();
            let mut s = DiskByteStream::open(&mut fs, f).unwrap();
            for _ in 0..1024 {
                if writer {
                    s.put_byte(&mut fs, 0).unwrap();
                } else {
                    s.get_byte(&mut fs).unwrap();
                }
            }
            let read_from = if writer {
                s.get_byte(&mut fs).unwrap();
                1025
            } else {
                1024
            };
            // Write one byte into page 4 through a second stream.
            let mut w = DiskByteStream::open(&mut fs, f).unwrap();
            w.set_position(&mut fs, 3 * 512 + 7).unwrap();
            w.put_byte(&mut fs, 0xCC).unwrap();
            w.close(&mut fs).unwrap();
            if writer {
                s.flush(&mut fs).unwrap();
            }
            // Keep reading sequentially: page 4 was prefetched *before* the
            // write, so a cache that survived it would serve the old byte.
            for i in read_from..2500 {
                let expect = if i == 3 * 512 + 7 { 0xCC } else { 0 };
                let got = s.get_byte(&mut fs).unwrap();
                assert_eq!(got, expect, "byte {i}, writer {writer}");
            }
            assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
        }
    }

    #[test]
    fn parked_pages_are_absent_until_drained() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "wb.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Cross into page 5: page 1 drained with the first readahead
        // refill, pages 2..4 still parked in the write-behind buffer.
        for _ in 0..(4 * 512 + 10) {
            s.put_byte(&mut fs, 7).unwrap();
        }
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..512], &[7u8; 512][..], "page 1 was drained");
        assert_eq!(
            &on_disk[512..1024],
            &[0u8; 512][..],
            "page 2 is parked, not yet on the medium"
        );
        // An explicit flush drains the parked pages as one chained batch.
        s.flush(&mut fs).unwrap();
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..4 * 512 + 10], &[7u8; 4 * 512 + 10][..]);
        let stats = fs.disk().io_stats();
        assert_eq!(stats.wb_drains, 2);
        assert_eq!(stats.wb_coalesced, 4);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn failed_drain_write_reparks_and_surfaces_on_flush() {
        use alto_disk::FaultKind;
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "park.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let page1_da = fs.open_leader(f).unwrap().0.next;
        let page2_da = fs
            .read_page(PageName::new(f.fv, 1, page1_da))
            .unwrap()
            .0
            .next;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Cross into page 5: page 1 drains with the readahead refill,
        // pages 2..4 park in the write-behind buffer.
        for _ in 0..(4 * 512 + 10) {
            s.put_byte(&mut fs, 9).unwrap();
        }
        // Page 2's parked write will fail past the retry limit.
        fs.disk_mut()
            .injector_mut()
            .arm(page2_da, FaultKind::NotReady { attempts: 100 });
        assert!(s.flush(&mut fs).is_err(), "drain must surface the failure");
        // The page re-parked rather than being dropped: a second flush
        // still owes the write and still fails.
        assert!(s.flush(&mut fs).is_err(), "the page is still owed");
        assert_eq!(
            &fs.read_file(f).unwrap()[512..1024],
            &[0u8; 512][..],
            "the failed write must not land"
        );
        // Once the drive recovers, the parked page drains and every byte
        // the caller wrote is on the medium.
        fs.disk_mut().injector_mut().disarm(page2_da);
        s.flush(&mut fs).unwrap();
        s.close(&mut fs).unwrap();
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..4 * 512 + 10], &[9u8; 4 * 512 + 10][..]);
        let stats = fs.disk().io_stats();
        assert!(stats.hard_failures >= 2);
    }

    #[test]
    fn bulk_round_trip_with_odd_edges() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "bulk.dat");
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Start the bulk write at an odd byte offset.
        s.put_byte(&mut fs, 0xEE).unwrap();
        s.write_bytes(&mut fs, &bytes).unwrap();
        s.close(&mut fs).unwrap();
        let mut want = vec![0xEE];
        want.extend_from_slice(&bytes);
        assert_eq!(fs.read_file(f).unwrap(), want);
        // Read back in ragged chunks through a fresh stream.
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        let mut chunk = [0u8; 7];
        loop {
            let n = s.read_bytes(&mut fs, &mut chunk).unwrap();
            back.extend_from_slice(&chunk[..n]);
            if n < chunk.len() {
                break;
            }
        }
        assert_eq!(back, want);
        // And an odd-offset seek followed by a large read.
        s.set_position(&mut fs, 1001).unwrap();
        let mut tail = vec![0u8; 800];
        assert_eq!(s.read_bytes(&mut fs, &mut tail).unwrap(), 800);
        assert_eq!(tail, &want[1001..1801]);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn write_behind_off_never_parks() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "abl.dat");
        fs.write_file(f, &vec![0u8; 6 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_write_behind(&mut fs, false).unwrap();
        for _ in 0..(3 * 512) {
            s.put_byte(&mut fs, 9).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.disk().io_stats().wb_drains, 0);
        assert_eq!(&fs.read_file(f).unwrap()[..3 * 512], &[9u8; 3 * 512][..]);
    }

    #[test]
    fn readahead_survives_the_streams_own_drain() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "ra.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..(8 * 512) {
            s.put_byte(&mut fs, 5).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Crossings into pages 3..5 and 7..8 are served from the readahead
        // buffer: the stream's own drains re-stamp the epoch instead of
        // poisoning its prefetched copies.
        let stats = fs.disk().stats();
        assert_eq!(stats.readahead_hits, 5);
        assert_eq!(fs.read_file(f).unwrap(), vec![5u8; 8 * 512]);
    }

    #[test]
    fn two_streams_on_different_files() {
        let mut fs = fresh_fs();
        let a = file_named(&mut fs, "a.dat");
        let b = file_named(&mut fs, "b.dat");
        let mut sa = DiskByteStream::open(&mut fs, a).unwrap();
        let mut sb = DiskByteStream::open(&mut fs, b).unwrap();
        for i in 0..100u8 {
            sa.put_byte(&mut fs, i).unwrap();
            sb.put_byte(&mut fs, 100 - i).unwrap();
        }
        sa.close(&mut fs).unwrap();
        sb.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(a).unwrap()[3], 3);
        assert_eq!(fs.read_file(b).unwrap()[3], 97);
    }
}
