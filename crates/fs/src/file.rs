//! Files and the mounted file system (§3.2–§3.4).
//!
//! A file is a set of pages with absolute names `(FV, 0) .. (FV, n)`;
//! page 0 is the leader page, pages 1..n carry the data bytes, all pages
//! but the last are full (512 bytes) and the last has `L < 512`. Every
//! structural change follows the §3.3 label discipline:
//!
//! * allocating or freeing a page checks the old label and rewrites it —
//!   one disk revolution each;
//! * changing the length of the file rewrites the last page's label — one
//!   revolution;
//! * ordinary data reads and writes check the label *at no cost in time*.
//!
//! The allocation map is a hint: [`FileSystem::allocate_page`] trusts it
//! only until the free-label check fails, then simply tries another page
//! (§3.3). The descriptor is flushed on [`FileSystem::unmount`]; a crash
//! leaves a stale map on disk, which is exactly the state the Scavenger
//! (and the label checks in the meantime) are designed to survive.

use alto_disk::{Disk, DiskAddress, DiskError, Label, DATA_WORDS};

use crate::cache::{casefold, CacheStats, HintCache};
use crate::dates::AltoDate;
use crate::descriptor::{self, DiskDescriptor};
use crate::dir::DirEntry;
use crate::errors::FsError;
use crate::leader::LeaderPage;
use crate::names::{FileFullName, Fv, PageName, SerialNumber};
use crate::page;

/// Bytes per page.
pub const PAGE_BYTES: usize = DATA_WORDS * 2;

/// Pages per chained batch on the consecutive fast paths. One Diablo
/// cylinder holds 24 sectors, so a window this size keeps the scheduler
/// busy across a cylinder boundary without guessing far past a stale hint.
const GUESS_WINDOW: u16 = 32;

/// Opening window for guessed reads of a file whose layout is *not*
/// provably straight-line: a failed check halts the command chain (§3.3),
/// so a blind full-window batch across a layout seam pays a rescheduled
/// command per wrong guess. Each fully verified batch doubles the window
/// back up to [`GUESS_WINDOW`].
const GUESS_RAMP: u16 = 4;

/// Counters for allocator behaviour (experiment E4 reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Pages successfully allocated.
    pub pages_allocated: u64,
    /// Pages freed.
    pub pages_freed: u64,
    /// Allocation attempts that failed the free-label check because the
    /// map was stale ("a little extra one-time disk activity", §3.3).
    pub alloc_retries: u64,
}

/// A mounted Alto file system over any [`Disk`] implementation.
///
/// # Examples
///
/// ```
/// use alto_disk::{DiskDrive, DiskModel};
/// use alto_fs::{dir, FileSystem};
/// use alto_sim::{SimClock, Trace};
///
/// let drive = DiskDrive::with_formatted_pack(
///     SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
/// let mut fs = FileSystem::format(drive)?;
/// let root = fs.root_dir();
/// let memo = dir::create_named_file(&mut fs, root, "memo.txt")?;
/// fs.write_file(memo, b"self-identifying pages")?;
/// assert_eq!(fs.read_file(memo)?, b"self-identifying pages");
/// # Ok::<(), alto_fs::FsError>(())
/// ```
#[derive(Debug)]
pub struct FileSystem<D: Disk> {
    disk: D,
    desc: DiskDescriptor,
    stats: FsStats,
    cache: HintCache,
    /// The `(page, da, data)` writes of one guessed batch of
    /// `write_file`, kept across calls so a warm rewrite allocates nothing.
    write_pages: Vec<(u16, DiskAddress, [u16; DATA_WORDS])>,
    /// The labels that batch captured, likewise reused.
    write_labels: Vec<Result<Label, FsError>>,
}

/// What the name index had to say about a lookup (see
/// [`FileSystem::cached_lookup`]).
pub(crate) enum CacheLookup {
    /// A verified answer (positive or negative) from a fresh index.
    Hit(Option<FileFullName>),
    /// No fresh index, or a hit that failed verification: scan the file.
    Miss,
}

impl<D: Disk> FileSystem<D> {
    /// Formats the loaded pack and mounts the new, empty file system.
    ///
    /// Lays down the well-known structure: DA 0 reserved for the boot file,
    /// the disk descriptor at DA 1, and the root directory `SysDir` at
    /// DA 2 with one empty data page.
    pub fn format(disk: D) -> Result<FileSystem<D>, FsError> {
        let geometry = disk.geometry()?;
        let pack = disk.pack_number()?;
        let desc = DiskDescriptor::fresh(geometry, pack);
        let mut fs = FileSystem::from_parts(disk, desc);
        let now = fs.now();

        // Reserve every well-known address first: the boot page (its label
        // stays free until the OS installs a boot file, but it must never be
        // allocated to an ordinary file) and the two fixed leader pages.
        fs.desc.bitmap.set_busy(descriptor::BOOT_PAGE_DA);
        fs.desc.bitmap.set_busy(descriptor::DESCRIPTOR_LEADER_DA);
        fs.desc.bitmap.set_busy(descriptor::ROOT_DIR_LEADER_DA);

        // Root directory: leader at the standard DA 2 plus one empty page.
        let root_fv = descriptor::root_dir_fv();
        let root_leader = LeaderPage::new(descriptor::ROOT_DIR_NAME, now)?;
        fs.build_file_at(root_fv, descriptor::ROOT_DIR_LEADER_DA, root_leader, &[])?;

        // Descriptor file: leader at the standard DA 1 plus enough pages to
        // hold the encoded descriptor (the encoding length is fixed by the
        // shape, so flushing later rewrites these pages in place).
        let desc_fv = descriptor::descriptor_fv();
        let desc_leader = LeaderPage::new(descriptor::DESCRIPTOR_NAME, now)?;
        let payload = words_to_bytes(&fs.desc.encode());
        fs.build_file_at(
            desc_fv,
            descriptor::DESCRIPTOR_LEADER_DA,
            desc_leader,
            &payload,
        )?;

        // Enter the well-known files in the root directory, so that every
        // file on a healthy disk has at least one directory entry (the
        // Scavenger adopts entry-less files as orphans).
        let root = fs.root_dir();
        crate::dir::insert(&mut fs, root, descriptor::ROOT_DIR_NAME, root)?;
        crate::dir::insert(
            &mut fs,
            root,
            descriptor::DESCRIPTOR_NAME,
            FileFullName::new(desc_fv, descriptor::DESCRIPTOR_LEADER_DA),
        )?;

        // The builds allocated pages and changed the bitmap; flush so the
        // on-disk descriptor is coherent.
        fs.flush_descriptor()?;
        Ok(fs)
    }

    /// Assembles a file system from a disk and an in-memory descriptor.
    ///
    /// Used by the Scavenger, which reconstructs the descriptor from the
    /// labels rather than trusting anything on disk.
    pub(crate) fn from_parts(disk: D, desc: DiskDescriptor) -> FileSystem<D> {
        FileSystem {
            disk,
            desc,
            stats: FsStats::default(),
            cache: HintCache::new(),
            write_pages: Vec::new(),
            write_labels: Vec::new(),
        }
    }

    /// Mounts an already formatted pack by reading the disk descriptor.
    pub fn mount(mut disk: D) -> Result<FileSystem<D>, FsError> {
        let desc_name = FileFullName::new(
            descriptor::descriptor_fv(),
            descriptor::DESCRIPTOR_LEADER_DA,
        );
        let bytes = read_file_with(&mut disk, desc_name)
            .map_err(|_| FsError::NotFormatted("cannot read disk descriptor"))?;
        let desc = DiskDescriptor::decode(&bytes_to_words(&bytes))?;
        if desc.shape != disk.geometry()? {
            return Err(FsError::NotFormatted("descriptor shape mismatch"));
        }
        Ok(FileSystem::from_parts(disk, desc))
    }

    /// Flushes the descriptor and returns the disk.
    pub fn unmount(mut self) -> Result<D, FsError> {
        self.flush_descriptor()?;
        Ok(self.disk)
    }

    /// Abandons the file system *without* flushing the descriptor — the
    /// simulated crash used by robustness experiments: the on-disk
    /// allocation map is left stale, exactly as after a power failure.
    pub fn crash(self) -> D {
        self.disk
    }

    /// The underlying disk (open access, §5.2).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable access to the underlying disk.
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// The in-memory disk descriptor.
    pub fn descriptor(&self) -> &DiskDescriptor {
        &self.desc
    }

    /// Mutable access to the descriptor (the Scavenger rebuilds it).
    pub fn descriptor_mut(&mut self) -> &mut DiskDescriptor {
        &mut self.desc
    }

    /// Allocator statistics.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Hint-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// True if the in-core hint cache (and placement-aware allocation) is
    /// enabled.
    pub fn hint_cache_enabled(&self) -> bool {
        self.cache.enabled()
    }

    /// Turns the in-core hint cache on or off. Disabling it — the ablation
    /// of the experiments — discards everything held and also reverts the
    /// allocator to the original fixed-origin scan.
    pub fn set_hint_cache_enabled(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    fn trace_cache(&self, tag: &'static str, detail: impl FnOnce() -> String) {
        let now = self.disk.clock().now();
        self.disk.trace().record_with(now, tag, detail);
    }

    /// The fresh cached entries of `dir`, counted and traced as a hit.
    pub(crate) fn cached_dir_entries(&mut self, dir: FileFullName) -> Option<Vec<DirEntry>> {
        let epoch = self.disk.write_epoch();
        // lint: allow(hint-reverify) — the snapshot is epoch-gated, not stale:
        // dir_entries returns None unless the disk write epoch still matches
        // the one captured when the full directory read installed it
        let entries = self.cache.dir_entries(dir, epoch)?.to_vec();
        self.cache.stats.name_hits += 1;
        self.trace_cache("fs.cache_hit", || {
            format!("dir {} listed from index", dir.fv)
        });
        Some(entries)
    }

    /// Installs a directory snapshot read (in full) from the disk just now.
    pub(crate) fn install_dir_snapshot(&mut self, dir: FileFullName, entries: &[DirEntry]) {
        if self.cache.enabled() {
            let epoch = self.disk.write_epoch();
            self.cache.install_dir(dir, epoch, entries.to_vec());
        }
    }

    /// Notes that the directory package rewrote `dir` so its contents are
    /// now exactly `entries`: retires the old snapshot and installs the new
    /// one, keeping the index warm across its own mutations.
    pub(crate) fn dir_rewritten(&mut self, dir: FileFullName, entries: Vec<DirEntry>) {
        self.cache.drop_dir(dir.fv);
        if self.cache.enabled() {
            let epoch = self.disk.write_epoch();
            self.cache.install_dir(dir, epoch, entries);
        }
    }

    /// Answers a name lookup from the index if a fresh snapshot exists.
    /// A positive hit is verified against the target's leader label before
    /// it is returned (§3.6: hints are checked on use, never believed); the
    /// verification read doubles as a leader-cache fill, so the open that
    /// usually follows costs nothing extra.
    pub(crate) fn cached_lookup(&mut self, dir: FileFullName, name: &str) -> CacheLookup {
        if !self.cache.enabled() {
            return CacheLookup::Miss;
        }
        let epoch = self.disk.write_epoch();
        let found = match self.cache.lookup_name(dir, &casefold(name), epoch) {
            Some(Some(file)) => file,
            Some(None) => {
                // Fresh index, name absent: a verified negative (the epoch
                // check proves the directory has not changed underneath).
                self.cache.stats.name_hits += 1;
                self.trace_cache("fs.cache_hit", || format!("{name} absent from {}", dir.fv));
                return CacheLookup::Hit(None);
            }
            None => {
                self.cache.stats.name_misses += 1;
                self.trace_cache("fs.cache_miss", || format!("{name} in {}", dir.fv));
                return CacheLookup::Miss;
            }
        };
        match page::read_page(&mut self.disk, found.leader_page()) {
            Ok((label, data)) => {
                self.cache.stats.name_hits += 1;
                self.trace_cache("fs.cache_hit", || format!("{name} -> {}", found.fv));
                let epoch = self.disk.write_epoch();
                self.cache
                    .install_leader(found, epoch, label, LeaderPage::decode(&data));
                CacheLookup::Hit(Some(found))
            }
            Err(_) => {
                // The entry lied: retire the snapshot and let the caller
                // fall back to the linear scan. Never corrupts.
                self.cache.stats.verify_failures += 1;
                self.cache.drop_dir(dir.fv);
                self.trace_cache("fs.cache_invalidate", || {
                    format!("{name} -> {} failed the label check", found.fv)
                });
                CacheLookup::Miss
            }
        }
    }

    /// The root directory's full name.
    pub fn root_dir(&self) -> FileFullName {
        self.desc.root_dir
    }

    /// The current date on this machine's clock.
    pub fn now(&self) -> AltoDate {
        AltoDate::from_sim_time(self.disk.clock().now())
    }

    /// Writes the in-memory descriptor to the descriptor file.
    pub fn flush_descriptor(&mut self) -> Result<(), FsError> {
        let desc_name = FileFullName::new(
            descriptor::descriptor_fv(),
            descriptor::DESCRIPTOR_LEADER_DA,
        );
        let payload = words_to_bytes(&self.desc.encode());
        // The descriptor's size is fixed, so this rewrites data pages in
        // place with ordinary writes (no allocation, no label rewrites).
        let (leader_label, mut leader) = self.open_leader(desc_name)?;
        self.overwrite_in_place(desc_name, &payload, leader_label, &mut leader)
    }

    // ------------------------------------------------------------------
    // Page-level interface (§3.1): the small component, fully exposed.
    // ------------------------------------------------------------------

    /// Allocates a free page near `near` (or the allocation rotor), writing
    /// `label` and `data`. Retries transparently when the allocation map
    /// proves stale. Returns where the page landed.
    pub fn allocate_page(
        &mut self,
        near: Option<DiskAddress>,
        label: Label,
        data: &[u16; DATA_WORDS],
    ) -> Result<DiskAddress, FsError> {
        let mut start = near.unwrap_or(self.desc.rotor);
        loop {
            let candidate = self
                .desc
                .bitmap
                .find_free_from(start)
                .ok_or(FsError::DiskFull)?;
            self.desc.bitmap.set_busy(candidate);
            match page::allocate_at(&mut self.disk, candidate, label, data) {
                Ok(()) => {
                    self.stats.pages_allocated += 1;
                    self.desc.rotor = DiskAddress(candidate.0.wrapping_add(1));
                    return Ok(candidate);
                }
                Err(FsError::Disk(DiskError::Check(_))) => {
                    // Stale map: the label says busy. Keep the bit busy and
                    // try the next candidate (§3.3).
                    self.stats.alloc_retries += 1;
                    start = DiskAddress(candidate.0.wrapping_add(1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Picks where a chain of `pages` new pages should start: the nearest
    /// run of that many free pages at or after `near`, so fresh files come
    /// out consecutive and the §3.6 consecutive-guess machinery hits on
    /// first read, without waiting for the compactor. The map is only a
    /// hint — the per-page label checks in [`FileSystem::allocate_page`]
    /// still arbitrate — and with the hint cache disabled (the ablation)
    /// the allocator keeps its original fixed-origin behaviour.
    fn placement_run(&self, near: DiskAddress, pages: u32) -> Option<DiskAddress> {
        if !self.cache.enabled() || pages <= 1 {
            return None;
        }
        self.desc.bitmap.find_free_run_from(near, pages)
    }

    /// Placement across a drive array: successive new files start in
    /// rotating arms (file number mod the arm count), so a working set of
    /// hot files spreads over the arms and a batch touching several of them
    /// overlaps their timelines. Returns `None` — keep the rotor — on a
    /// single-arm disk, under hash placement (where consecutive addresses
    /// already interleave over the arms), or with the hint cache disabled
    /// (the ablation keeps the original fixed-origin behaviour).
    fn arm_spread_origin(&self, number: u32) -> Option<DiskAddress> {
        if !self.cache.enabled() {
            return None;
        }
        let arms = self.disk.arm_count();
        if arms <= 1 {
            return None;
        }
        self.disk.arm_origin(number as usize % arms)
    }

    /// Frees the page named `pn` (label checked; ones written; §3.3).
    pub fn free_page(&mut self, pn: PageName) -> Result<Label, FsError> {
        let old = page::free_page(&mut self.disk, pn)?;
        self.desc.bitmap.set_free(pn.da);
        self.stats.pages_freed += 1;
        Ok(old)
    }

    /// Reads the page named `pn` (checked by full name).
    pub fn read_page(&mut self, pn: PageName) -> Result<(Label, [u16; DATA_WORDS]), FsError> {
        page::read_page(&mut self.disk, pn)
    }

    /// Writes the data of the page named `pn` (ordinary write; label
    /// checked at no cost, not modified).
    pub fn write_page(&mut self, pn: PageName, data: &[u16; DATA_WORDS]) -> Result<Label, FsError> {
        page::write_page(&mut self.disk, pn, data)
    }

    // ------------------------------------------------------------------
    // File-level interface (§3.2).
    // ------------------------------------------------------------------

    /// Creates a new empty file with the given leader name: a leader page
    /// and one empty data page. Does *not* enter it in any directory — that
    /// is a separate mechanism (§3.4); see [`crate::dir::insert`].
    pub fn create_file(&mut self, leader_name: &str) -> Result<FileFullName, FsError> {
        self.create_file_kind(leader_name, false)
    }

    /// Creates a file whose serial number carries the directory flag.
    pub fn create_directory_file(&mut self, leader_name: &str) -> Result<FileFullName, FsError> {
        self.create_file_kind(leader_name, true)
    }

    fn create_file_kind(
        &mut self,
        leader_name: &str,
        directory: bool,
    ) -> Result<FileFullName, FsError> {
        let number = self.desc.assign_file_number();
        if number >= 1 << 30 {
            // A scavenged hostile image can leave the counter saturated at
            // the top of the 30-bit space (§3.1); creating must fail
            // cleanly, not panic in SerialNumber::new.
            return Err(FsError::SerialsExhausted);
        }
        let fv = Fv::new(SerialNumber::new(number, directory), 1);
        let mut leader = LeaderPage::new(leader_name, self.now())?;
        let label = fresh_leader_label(fv);
        let leader_da =
            self.allocate_page(self.arm_spread_origin(number), label, &leader.encode())?;
        let file = FileFullName::new(fv, leader_da);
        self.overwrite_in_place(file, &[], label, &mut leader)?;
        self.write_page(file.leader_page(), &leader.encode())?;
        Ok(file)
    }

    /// Lays down a file whose leader must land at a *fixed* address: the
    /// well-known files format creates, and the descriptor the Scavenger
    /// rebuilds. The caller has already marked `leader_da` busy in the map.
    ///
    /// A fresh file's data pages are laid down by
    /// [`Self::overwrite_in_place`]'s extension branch, as a growing
    /// rewrite's are; the leader's hints then go to the disk with an
    /// ordinary write.
    pub(crate) fn build_file_at(
        &mut self,
        fv: Fv,
        leader_da: DiskAddress,
        mut leader: LeaderPage,
        bytes: &[u8],
    ) -> Result<(), FsError> {
        let label = fresh_leader_label(fv);
        page::allocate_at(&mut self.disk, leader_da, label, &leader.encode())?;
        self.stats.pages_allocated += 1;
        let file = FileFullName::new(fv, leader_da);
        self.overwrite_in_place(file, bytes, label, &mut leader)?;
        self.write_page(file.leader_page(), &leader.encode())?;
        Ok(())
    }

    /// Reads and decodes the leader page of `file`.
    pub fn read_leader(&mut self, file: FileFullName) -> Result<LeaderPage, FsError> {
        Ok(self.open_leader(file)?.1)
    }

    /// The leader label and decoded leader page of `file`, served from the
    /// leader cache when a fresh copy is held (skipping a disk revolution)
    /// and filling it otherwise. A hit is exactly equivalent to re-reading:
    /// entries are only held while the disk's write epoch stands still, so
    /// the read that installed them would still succeed, unchanged.
    pub fn open_leader(&mut self, file: FileFullName) -> Result<(Label, LeaderPage), FsError> {
        let epoch = self.disk.write_epoch();
        if let Some((label, leader)) = self.cache.leader(file, epoch) {
            self.cache.stats.leader_hits += 1;
            self.trace_cache("fs.cache_hit", || format!("leader {}", file.fv));
            return Ok((label, leader));
        }
        if self.cache.enabled() {
            self.cache.stats.leader_misses += 1;
            self.trace_cache("fs.cache_miss", || format!("leader {}", file.fv));
        }
        let (label, data) = self.read_page(file.leader_page())?;
        let leader = LeaderPage::decode(&data);
        self.cache
            .install_leader(file, epoch, label, leader.clone());
        Ok((label, leader))
    }

    /// Rewrites the leader page's *data* (dates, name, hints); the leader's
    /// label is checked but unchanged, so this is an ordinary write.
    pub fn write_leader(&mut self, file: FileFullName, leader: &LeaderPage) -> Result<(), FsError> {
        self.write_leader_install(file, leader.clone())
    }

    /// [`Self::write_leader`] taking the leader by value: the post-write
    /// cache install moves it instead of cloning, so read-modify-write
    /// cycles that own their leader stay heap-free.
    pub fn write_leader_install(
        &mut self,
        file: FileFullName,
        leader: LeaderPage,
    ) -> Result<(), FsError> {
        let label = self.write_page(file.leader_page(), &leader.encode())?;
        // The write bumped the epoch; re-install what is now on disk so the
        // next open of this file is a hit.
        let epoch = self.disk.write_epoch();
        self.cache.install_leader(file, epoch, label, leader);
        Ok(())
    }

    /// Opens the leader of `file` for update: a cache hit *moves* the entry
    /// out (zero heap traffic), a miss reads and decodes it from the disk
    /// without installing — the caller is about to rewrite the leader and
    /// will reinstall the updated copy via [`Self::write_leader_install`].
    fn take_leader(&mut self, file: FileFullName) -> Result<(Label, LeaderPage), FsError> {
        let epoch = self.disk.write_epoch();
        if let Some(hit) = self.cache.take_leader(file, epoch) {
            self.cache.stats.leader_hits += 1;
            self.trace_cache("fs.cache_hit", || format!("leader {} (take)", file.fv));
            return Ok(hit);
        }
        if self.cache.enabled() {
            self.cache.stats.leader_misses += 1;
            self.trace_cache("fs.cache_miss", || format!("leader {} (take)", file.fv));
        }
        let (label, data) = self.read_page(file.leader_page())?;
        Ok((label, LeaderPage::decode(&data)))
    }

    /// The file's length in data bytes, computed from the last page's label
    /// (the leader hint is used and validated).
    pub fn file_length(&mut self, file: FileFullName) -> Result<u64, FsError> {
        let (last_pn, last_label) = self.locate_last_page(file)?;
        Ok((u64::from(last_pn.page) - 1) * PAGE_BYTES as u64 + data_length(&last_label)? as u64)
    }

    /// Reads the entire contents of `file`.
    pub fn read_file(&mut self, file: FileFullName) -> Result<Vec<u8>, FsError> {
        read_file_with(&mut self.disk, file)
    }

    /// Replaces the entire contents of `file` with `bytes`, reusing pages
    /// in place, extending or truncating as needed, and updating the
    /// leader's written date and last-page hints.
    pub fn write_file(&mut self, file: FileFullName, bytes: &[u8]) -> Result<(), FsError> {
        // Take the leader out of the cache (a move, not a clone), rewrite
        // the pages, then write the updated leader back and reinstall it by
        // value: the whole cycle is heap-free on a warm cache.
        let (leader_label, mut leader) = self.take_leader(file)?;
        self.overwrite_in_place(file, bytes, leader_label, &mut leader)?;
        leader.written = self.now();
        self.write_leader_install(file, leader)
    }

    /// Writes words into the leader page's user property space (§3.6's
    /// installed programs park hints there). `offset` is relative to
    /// [`crate::leader::PROPERTY_BASE`].
    pub fn write_leader_properties(
        &mut self,
        file: FileFullName,
        offset: usize,
        words: &[u16],
    ) -> Result<(), FsError> {
        let mut leader = self.read_leader(file)?;
        let end = offset
            .checked_add(words.len())
            .filter(|&e| e <= leader.properties.len())
            .ok_or(FsError::BadLength(words.len() as u16))?;
        leader.properties[offset..end].copy_from_slice(words);
        self.write_leader(file, &leader)
    }

    /// Reads words from the leader page's user property space.
    pub fn read_leader_properties(
        &mut self,
        file: FileFullName,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u16>, FsError> {
        let leader = self.read_leader(file)?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= leader.properties.len())
            .ok_or(FsError::BadLength(len as u16))?;
        Ok(leader.properties[offset..end].to_vec())
    }

    /// Records a read access in the leader's read date (§3.2). Programs
    /// that care call this; reads themselves stay cheap.
    pub fn touch_read(&mut self, file: FileFullName) -> Result<(), FsError> {
        let mut leader = self.read_leader(file)?;
        leader.read = self.now();
        self.write_leader(file, &leader)
    }

    /// Deletes the entire file, freeing every page (§3.2).
    pub fn delete_file(&mut self, file: FileFullName) -> Result<(), FsError> {
        // Collect the chain first (labels are the source of truth).
        let mut chain = vec![];
        page::follow(&mut self.disk, file.leader_page(), |pn, _, _| {
            chain.push(pn);
            false
        })?;
        for pn in chain {
            self.free_page(pn)?;
        }
        self.cache.forget_leader(file.fv);
        Ok(())
    }

    /// Walks to the last page, preferring the leader hint and falling back
    /// to a link chase from the leader.
    fn locate_last_page(&mut self, file: FileFullName) -> Result<(PageName, Label), FsError> {
        let (leader_label, leader) = self.open_leader(file)?;
        // Try the hint.
        if leader.last_page > 0 && !leader.last_da.is_nil() {
            let pn = PageName::new(file.fv, leader.last_page, leader.last_da);
            if let Ok((label, _)) = self.read_page(pn) {
                if label.next.is_nil() {
                    return Ok((pn, label));
                }
            }
        }
        // Chase links from the leader.
        let page1 = PageName::new(file.fv, 1, leader_label.next);
        let (pn, label, _) = page::follow(&mut self.disk, page1, |_, _, _| false)?;
        Ok((pn, label))
    }

    /// Rewrites file contents page by page. Ordinary writes where the label
    /// (length, links) is unchanged; label rewrites only where the length
    /// or links change; allocation/free only where the page count changes.
    ///
    /// Full pages along a consecutive chain go to the disk in chained
    /// batches at guessed addresses (the §3.6 discipline: a wrong guess
    /// fails its label check before anything is written), and
    /// [`page::confirmed_write_run`] says how far each batch's guesses held.
    /// A failure where the links confirm the address is the rewrite's
    /// error. The last page, length changes, extension and truncation take
    /// the per-page path.
    ///
    /// The extension branch is the one loop that lays a chain down: it
    /// also builds every fresh file, whose leader is on disk with nil links.
    ///
    /// Takes the leader (label and decoded page) the caller already holds.
    /// The leader's label is rewritten only when page 1 is laid down, to
    /// link it; the caller's copy serves as the predecessor, so that costs
    /// no extra read.
    ///
    /// Records in the caller's copy of the leader the file's last page and
    /// its address — the rewrite walked every page, so no separate link
    /// chase is needed — and whether the data pages it walked were (nearly)
    /// consecutive on the disk, so future reads and rewrites know guessed
    /// batches are worth issuing. Writing the leader back is the caller's
    /// business.
    fn overwrite_in_place(
        &mut self,
        file: FileFullName,
        bytes: &[u8],
        leader_label: Label,
        leader: &mut LeaderPage,
    ) -> Result<(), FsError> {
        let new_pages = bytes.len().div_ceil(PAGE_BYTES).max(1) as u16;
        let mut n: u16 = 1;
        let mut prev_da = file.leader_da;
        let mut da = leader_label.next; // page 1's address
                                        // The previous iteration's final label and data, so extension can
                                        // fix the predecessor's next link without re-reading it.
        let mut prev_state: Option<(Label, [u16; DATA_WORDS])> = None;
        // Links that depart from address-consecutive (a handful is fine —
        // the guessed batches just restart from the real link there).
        let mut jumps: u32 = 0;
        // Placement for the extension path: chosen once, when the first new
        // page is allocated, sized to everything still to be laid down.
        let mut extended = false;

        // Batched fast path. A zero serial low word would wildcard the
        // label check and let a wrong guess through, so such files (and
        // non-consecutive ones) take the per-page path below.
        if leader.maybe_consecutive && file.fv.serial.words()[1] != 0 {
            // Staging and result vectors live on the file system and are
            // reused across batches: a warm rewrite allocates nothing here.
            let writes = &mut self.write_pages;
            let labels = &mut self.write_labels;
            while n < new_pages && !da.is_nil() {
                // Only full, already-existing pages belong in a batch:
                // clamp to the page before the last new one and to the old
                // file's tail hint.
                let mut count = (new_pages - n).min(GUESS_WINDOW);
                if leader.last_page >= n {
                    count = count.min(leader.last_page - n + 1);
                }
                if count == 0 {
                    break;
                }
                // Guessed consecutive addresses after the real link `da`.
                writes.clear();
                for j in 0..count {
                    let start = (n + j - 1) as usize * PAGE_BYTES;
                    let mut data = [0u16; DATA_WORDS];
                    pack_bytes(&bytes[start..start + PAGE_BYTES], &mut data);
                    writes.push((n + j, DiskAddress(da.0.wrapping_add(j)), data));
                }
                page::transfer(
                    &mut self.disk,
                    file.fv,
                    writes,
                    None,
                    0,
                    labels,
                    &mut Vec::new(),
                )?;
                // Act on the run's last page, or on the entry that ended it:
                // that one sits at a link-confirmed address, so its failure
                // is the file's, and re-issuing it would grant a spent retry
                // budget afresh.
                let end = page::confirmed_write_run(da, labels).min(usize::from(count) - 1);
                let captured = *labels[end].as_ref().map_err(FsError::clone)?;
                let (_, this_da, ref data) = writes[end];
                let end = end as u16;
                if captured.length as usize != PAGE_BYTES {
                    // The old file's tail: the data landed but the length
                    // must change. Redo this page on the per-page path
                    // (idempotent write).
                    n += end;
                    da = this_da;
                    prev_state = None;
                    break;
                }
                n += end + 1;
                prev_da = this_da;
                prev_state = Some((captured, *data));
                if captured.next.is_nil() {
                    // Old chain ends here; the rest extends.
                    da = DiskAddress::NIL;
                    break;
                }
                // The next batch starts from the real link, wherever it
                // points.
                if captured.next.0 != this_da.0.wrapping_add(1) {
                    jumps += 1;
                }
                da = captured.next;
            }
        }

        while n <= new_pages {
            let chunk_start = (n as usize - 1) * PAGE_BYTES;
            let chunk =
                &bytes[chunk_start.min(bytes.len())..bytes.len().min(chunk_start + PAGE_BYTES)];
            let mut data = [0u16; DATA_WORDS];
            pack_bytes(chunk, &mut data);
            let new_len = chunk.len() as u16;
            let is_last = n == new_pages;

            if da.is_nil() {
                // Extend: allocate page n.
                let label = Label {
                    fid: file.fv.serial.words(),
                    version: file.fv.version,
                    page_number: n,
                    length: new_len,
                    next: DiskAddress::NIL,
                    prev: prev_da,
                };
                let near = if extended {
                    DiskAddress(prev_da.0.wrapping_add(1))
                } else {
                    extended = true;
                    let remaining = (new_pages - n + 1) as u32;
                    self.placement_run(DiskAddress(prev_da.0.wrapping_add(1)), remaining)
                        .unwrap_or(DiskAddress(prev_da.0.wrapping_add(1)))
                };
                let new_da = self.allocate_page(Some(near), label, &data)?;
                if n > 1 && new_da.0 != prev_da.0.wrapping_add(1) {
                    jumps += 1;
                }
                // Fix the previous page's next link (a length change in the
                // §3.3 sense: one revolution). The predecessor's contents
                // are still in memory: from the previous iteration, or for
                // page 1 the caller's copy of the leader.
                let prev_pn = PageName::new(file.fv, n - 1, prev_da);
                let (mut prev_label, prev_data) = match prev_state.take() {
                    Some(state) => state,
                    None if n == 1 => (leader_label, leader.encode()),
                    None => self.read_page(prev_pn)?,
                };
                prev_label.next = new_da;
                page::rewrite_label(&mut self.disk, prev_pn, prev_label, &prev_data)?;
                prev_da = new_da;
                da = DiskAddress::NIL;
                prev_state = Some((label, data));
            } else {
                let pn = PageName::new(file.fv, n, da);
                // Write the data in a single pass; the label check's
                // wildcards capture the current label, telling us the old
                // length and the next link without a separate read. This
                // is what lets a same-size rewrite (e.g. a world swap,
                // §4.1) stream at full disk speed.
                let current = self.write_page(pn, &data)?;
                let next_after = current.next;
                if !is_last && !next_after.is_nil() && next_after.0 != da.0.wrapping_add(1) {
                    jumps += 1;
                }
                let mut final_label = current;
                if current.length != new_len || (is_last && !current.next.is_nil()) {
                    // Length or links change: the §3.3 label rewrite, one
                    // revolution.
                    final_label.length = new_len;
                    if is_last {
                        final_label.next = DiskAddress::NIL;
                    }
                    page::rewrite_label(&mut self.disk, pn, final_label, &data)?;
                }
                prev_da = da;
                da = if is_last {
                    DiskAddress::NIL
                } else {
                    next_after
                };
                prev_state = Some((final_label, data));
                // Truncate: free any remaining old pages.
                if is_last && !next_after.is_nil() {
                    self.free_chain(file.fv, n + 1, next_after)?;
                }
            }
            n += 1;
        }
        leader.last_page = new_pages;
        leader.last_da = prev_da;
        leader.maybe_consecutive = jumps <= 1 + new_pages as u32 / 16;
        Ok(())
    }

    /// Frees the chain of pages starting at `(fv, first_page)` @ `da`.
    ///
    /// It needs no cycle budget: each page is freed before its link is
    /// followed, so a link back into the chain meets a free label and fails
    /// its check.
    fn free_chain(&mut self, fv: Fv, first_page: u16, da: DiskAddress) -> Result<(), FsError> {
        let mut pn = PageName::new(fv, first_page, da);
        loop {
            let old = self.free_page(pn)?;
            if old.next.is_nil() {
                return Ok(());
            }
            let page = pn.page.checked_add(1).ok_or(FsError::Corrupt {
                da: pn.da,
                what: "link past the last page number",
            })?;
            pn = PageName::new(fv, page, old.next);
        }
    }
}

/// Reads a whole file through a bare disk (used by `mount`, before a
/// `FileSystem` exists).
///
/// When the leader hints that the file may be consecutively laid out, the
/// pages are fetched in chained batches at guessed consecutive addresses
/// (§3.6); the labels returned by each batch steer the next one, and any
/// wrong guess falls back to the one-page-at-a-time link chase.
pub(crate) fn read_file_with<D: Disk>(
    disk: &mut D,
    file: FileFullName,
) -> Result<Vec<u8>, FsError> {
    let (leader_label, leader_data) = page::read_page(disk, file.leader_page())?;
    let leader = LeaderPage::decode(&leader_data);
    let mut bytes = Vec::new();
    let mut pn = PageName::new(file.fv, 1, leader_label.next);

    if leader.maybe_consecutive {
        // Two batches in a row that only yield their first page mean the
        // hint is a lie; stop wasting guesses and chase links instead.
        let mut strikes = 0u8;
        // A straight-line layout — the last page exactly where page 1 plus
        // `last_page − 1` lands — earns the full window at once. Any other
        // "consecutive" file has a seam somewhere, and every guess past the
        // seam is a halted chain plus a rescheduled command, so open small
        // and let verified batches grow the window back.
        let straight =
            leader.last_page >= 1 && leader.last_da.0 == pn.da.0.wrapping_add(leader.last_page - 1);
        let mut window = if straight { GUESS_WINDOW } else { GUESS_RAMP };
        let mut reads = Vec::new();
        loop {
            // Clamp the window with the leader's last-page hint so a batch
            // does not guess far past the end of the file.
            let count = if leader.last_page >= pn.page {
                (leader.last_page - pn.page + 1).min(window)
            } else {
                window
            };
            page::transfer(
                disk,
                file.fv,
                &[],
                Some(pn),
                count,
                &mut Vec::new(),
                &mut reads,
            )?;
            let run = page::confirmed_run(pn, &reads);
            // Entry 0 is the real chain address: its failure is the file's
            // failure.
            let mut next = pn.da;
            for res in &reads[..run.max(1)] {
                let (label, data) = res.as_ref().map_err(FsError::clone)?;
                bytes.extend_from_slice(&unpack_bytes(data)[..data_length(label)?]);
                next = label.next;
            }
            if next.is_nil() {
                return Ok(bytes);
            }
            let run = run as u16;
            let guessed = DiskAddress(pn.da.0.wrapping_add(run));
            pn = PageName::new(file.fv, pn.page + run, next);
            if next == guessed && run < count {
                // A follower failed where the links said it would be:
                // re-issuing the read below reproduces the error or the page.
                break;
            }
            // The chain departs from the guesses (or the window is spent):
            // restart from the real link.
            window = if next == guessed {
                (window * 2).min(GUESS_WINDOW)
            } else {
                GUESS_RAMP
            };
            if run == 1 && next != guessed {
                strikes += 1;
                if strikes >= 2 {
                    break;
                }
            } else {
                strikes = 0;
            }
        }
    }

    // The walk stops at a page whose length is bad, which is the error.
    let (_, last, _) = page::follow(disk, pn, |_, label, data| match data_length(label) {
        Ok(len) => {
            bytes.extend_from_slice(&unpack_bytes(data)[..len]);
            false
        }
        Err(_) => true,
    })?;
    data_length(&last)?;
    Ok(bytes)
}

/// The label a fresh file's leader is laid down with: page 0, a full
/// page's length, nil links.
fn fresh_leader_label(fv: Fv) -> Label {
    Label {
        fid: fv.serial.words(),
        version: fv.version,
        page_number: 0,
        length: PAGE_BYTES as u16,
        next: DiskAddress::NIL,
        prev: DiskAddress::NIL,
    }
}

/// The data bytes a page's label claims. The §3.3 check matches only the
/// absolutes, so a smashed length word passes it: a length over
/// [`PAGE_BYTES`] is [`FsError::BadLength`].
pub fn data_length(label: &Label) -> Result<usize, FsError> {
    match usize::from(label.length) {
        len @ 0..=PAGE_BYTES => Ok(len),
        _ => Err(FsError::BadLength(label.length)),
    }
}

/// Packs bytes into page words, big-endian (byte 0 in the high byte).
/// Whole-word pairs move by slice, not per-byte dispatch; words past the
/// byte run are left untouched.
pub fn pack_bytes(bytes: &[u8], words: &mut [u16; DATA_WORDS]) {
    let n = bytes.len().min(PAGE_BYTES);
    let mut pairs = bytes[..n].chunks_exact(2);
    for (w, pair) in words.iter_mut().zip(pairs.by_ref()) {
        *w = u16::from_be_bytes([pair[0], pair[1]]);
    }
    if let [last] = pairs.remainder() {
        words[n / 2] = (*last as u16) << 8;
    }
}

/// Unpacks page words into bytes.
pub fn unpack_bytes(words: &[u16; DATA_WORDS]) -> [u8; PAGE_BYTES] {
    let mut out = [0u8; PAGE_BYTES];
    for (pair, &w) in out.chunks_exact_mut(2).zip(words.iter()) {
        pair.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Converts a word vector to bytes (for word-structured file payloads).
pub fn words_to_bytes(words: &[u16]) -> Vec<u8> {
    let mut out = vec![0u8; words.len() * 2];
    for (pair, &w) in out.chunks_exact_mut(2).zip(words.iter()) {
        pair.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Converts bytes back to words (odd trailing byte is high-padded).
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u16> {
    bytes
        .chunks(2)
        .map(|c| u16::from_be_bytes([c[0], c.get(1).copied().unwrap_or(0)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    fn fresh_fs() -> FileSystem<DiskDrive> {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        FileSystem::format(drive).unwrap()
    }

    #[test]
    fn format_lays_down_the_well_known_structure() {
        let fs = fresh_fs();
        let pack = fs.disk().pack().unwrap();
        // DA 0 reserved (free label, busy in map).
        assert!(pack
            .sector(descriptor::BOOT_PAGE_DA)
            .unwrap()
            .decoded_label()
            .is_free());
        assert!(fs.descriptor().bitmap.is_busy(descriptor::BOOT_PAGE_DA));
        // Descriptor leader at DA 1, root dir leader at DA 2.
        let desc_label = pack
            .sector(descriptor::DESCRIPTOR_LEADER_DA)
            .unwrap()
            .decoded_label();
        assert_eq!(Fv::from_label(&desc_label), descriptor::descriptor_fv());
        let root_label = pack
            .sector(descriptor::ROOT_DIR_LEADER_DA)
            .unwrap()
            .decoded_label();
        assert_eq!(Fv::from_label(&root_label), descriptor::root_dir_fv());
        assert!(root_label.fid[0] & 0x8000 != 0, "directory flag in label");
    }

    #[test]
    fn format_lays_the_descriptor_down_consecutive() {
        // The descriptor's data pages sit at consecutive addresses, though
        // not next to its leader at DA 1, so its leader earns the hint that
        // lets every flush chain them.
        let mut fs = fresh_fs();
        let desc = FileFullName::new(
            descriptor::descriptor_fv(),
            descriptor::DESCRIPTOR_LEADER_DA,
        );
        let leader = fs.read_leader(desc).unwrap();
        assert!(leader.last_page > 1);
        assert!(leader.maybe_consecutive);
    }

    #[test]
    fn mount_round_trip() {
        let fs = fresh_fs();
        let free_before = fs.descriptor().bitmap.free_count();
        let disk = fs.unmount().unwrap();
        let fs2 = FileSystem::mount(disk).unwrap();
        assert_eq!(fs2.descriptor().bitmap.free_count(), free_before);
        assert_eq!(fs2.root_dir().leader_da, descriptor::ROOT_DIR_LEADER_DA);
    }

    #[test]
    fn mount_unformatted_disk_fails() {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        assert!(matches!(
            FileSystem::mount(drive),
            Err(FsError::NotFormatted(_))
        ));
    }

    #[test]
    fn create_empty_file() {
        let mut fs = fresh_fs();
        let f = fs.create_file("empty.txt").unwrap();
        assert_eq!(fs.file_length(f).unwrap(), 0);
        assert_eq!(fs.read_file(f).unwrap(), Vec::<u8>::new());
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.name, "empty.txt");
        assert_eq!(leader.last_page, 1);
    }

    #[test]
    fn write_and_read_small_file() {
        let mut fs = fresh_fs();
        let f = fs.create_file("hello").unwrap();
        fs.write_file(f, b"Hello, Alto!").unwrap();
        assert_eq!(fs.read_file(f).unwrap(), b"Hello, Alto!");
        assert_eq!(fs.file_length(f).unwrap(), 12);
    }

    #[test]
    fn new_files_spread_across_the_arms_of_an_array() {
        use alto_disk::{DriveArray, Placement};
        let array = DriveArray::with_arms(
            4,
            Placement::Range,
            SimClock::new(),
            Trace::new(),
            DiskModel::Diablo31,
        );
        let mut fs = FileSystem::format(array).unwrap();
        let mut arms_hit = [false; 4];
        for i in 0..8 {
            let f = fs.create_file(&format!("file-{i}")).unwrap();
            fs.write_file(f, &[0x55u8; 3000]).unwrap();
            let arm = fs.disk().arm_of(f.leader_da);
            arms_hit[arm] = true;
            // The chained data pages follow their leader into the same arm.
            let leader = fs.read_leader(f).unwrap();
            assert_eq!(fs.disk().arm_of(leader.last_da), arm, "file {i}");
            // Round-trip through the placement.
            assert_eq!(fs.read_file(f).unwrap(), vec![0x55u8; 3000]);
        }
        assert!(
            arms_hit.iter().all(|&h| h),
            "8 consecutive files should rotate over all 4 arms: {arms_hit:?}"
        );
    }

    #[test]
    fn write_and_read_multi_page_file() {
        let mut fs = fresh_fs();
        let f = fs.create_file("big").unwrap();
        let bytes: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), bytes);
        assert_eq!(fs.file_length(f).unwrap(), 5000);
        // 5000 bytes = 9 full pages + 1 partial.
        let (last_pn, last_label) = {
            let leader = fs.read_leader(f).unwrap();
            (leader.last_page, leader.last_da)
        };
        assert_eq!(last_pn, 10);
        let (l, _) = fs.read_page(PageName::new(f.fv, 10, last_label)).unwrap();
        assert_eq!(l.length as usize, 5000 - 9 * PAGE_BYTES);
    }

    #[test]
    fn a_last_page_longer_than_a_page_is_a_bad_length() {
        // The §3.3 check matches only the absolutes, so a smashed length
        // word passes it: measuring the file refuses it as reading does.
        let mut fs = fresh_fs();
        let f = fs.create_file("smashed").unwrap();
        fs.write_file(f, &[5u8; 3 * PAGE_BYTES - 100]).unwrap();
        let last_da = fs.read_leader(f).unwrap().last_da;
        let pack = fs.disk_mut().pack_mut().unwrap();
        pack.sector_mut(last_da).unwrap().label[4] = 600;
        assert_eq!(fs.read_file(f), Err(FsError::BadLength(600)));
        assert_eq!(fs.file_length(f), Err(FsError::BadLength(600)));
    }

    #[test]
    fn exact_page_boundary_file() {
        let mut fs = fresh_fs();
        let f = fs.create_file("exact").unwrap();
        let bytes = vec![7u8; PAGE_BYTES * 2];
        fs.write_file(f, &bytes).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), bytes);
        assert_eq!(fs.file_length(f).unwrap(), (PAGE_BYTES * 2) as u64);
        // Last page is full: L = 512 and the page after it does not exist.
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.last_page, 2);
    }

    #[test]
    fn shrink_file_frees_pages() {
        let mut fs = fresh_fs();
        let f = fs.create_file("shrink").unwrap();
        fs.write_file(f, &vec![1u8; 4000]).unwrap();
        let free_mid = fs.descriptor().bitmap.free_count();
        fs.write_file(f, b"tiny").unwrap();
        assert!(fs.descriptor().bitmap.free_count() > free_mid);
        assert_eq!(fs.read_file(f).unwrap(), b"tiny");
        // Grow again.
        fs.write_file(f, &vec![2u8; 2000]).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), vec![2u8; 2000]);
    }

    #[test]
    fn delete_file_frees_everything() {
        let mut fs = fresh_fs();
        let before = fs.descriptor().bitmap.free_count();
        let f = fs.create_file("doomed").unwrap();
        fs.write_file(f, &vec![9u8; 3000]).unwrap();
        fs.delete_file(f).unwrap();
        assert_eq!(fs.descriptor().bitmap.free_count(), before);
        // The leader is gone: reads fail with a check error.
        assert!(fs.read_page(f.leader_page()).is_err());
        // 3000 bytes = 6 data pages, plus the leader.
        assert_eq!(fs.stats().pages_freed, 7);
    }

    #[test]
    fn files_get_distinct_serials() {
        let mut fs = fresh_fs();
        let a = fs.create_file("a").unwrap();
        let b = fs.create_file("b").unwrap();
        assert_ne!(a.fv, b.fv);
        assert!(!a.is_directory());
        let d = fs.create_directory_file("d").unwrap();
        assert!(d.is_directory());
    }

    #[test]
    fn stale_bitmap_allocation_retries() {
        let mut fs = fresh_fs();
        // Lie in the map: mark a busy page (the root leader) free.
        fs.descriptor_mut()
            .bitmap
            .set_free(descriptor::ROOT_DIR_LEADER_DA);
        fs.descriptor_mut().rotor = descriptor::ROOT_DIR_LEADER_DA;
        let f = fs.create_file("resilient").unwrap();
        // Allocation succeeded elsewhere, after at least one retry.
        assert!(fs.stats().alloc_retries >= 1);
        assert_ne!(f.leader_da, descriptor::ROOT_DIR_LEADER_DA);
        // The lie is corrected (bit busy again).
        assert!(fs
            .descriptor()
            .bitmap
            .is_busy(descriptor::ROOT_DIR_LEADER_DA));
    }

    #[test]
    fn disk_full() {
        let mut fs = fresh_fs();
        // Exhaust the map artificially.
        let n = fs.descriptor().bitmap.len();
        for i in 0..n {
            fs.descriptor_mut().bitmap.set_busy(DiskAddress(i as u16));
        }
        assert!(matches!(fs.create_file("nope"), Err(FsError::DiskFull)));
    }

    #[test]
    fn leader_dates_update_on_write() {
        let mut fs = fresh_fs();
        let f = fs.create_file("dated").unwrap();
        let created = fs.read_leader(f).unwrap().created;
        fs.disk().clock().advance(alto_sim::SimTime::from_secs(100));
        fs.write_file(f, b"data").unwrap();
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.created, created);
        assert!(leader.written > created);
    }

    #[test]
    fn byte_packing_round_trip() {
        let mut words = [0u16; DATA_WORDS];
        let bytes: Vec<u8> = (0..PAGE_BYTES as u32).map(|i| (i % 256) as u8).collect();
        pack_bytes(&bytes, &mut words);
        assert_eq!(unpack_bytes(&words).to_vec(), bytes);
        // Odd-length chunk.
        let mut words = [0u16; DATA_WORDS];
        pack_bytes(&[1, 2, 3], &mut words);
        assert_eq!(words[0], 0x0102);
        assert_eq!(words[1], 0x0300);
    }

    #[test]
    fn words_bytes_round_trip() {
        let words = vec![0x1234, 0xABCD, 0x0001];
        assert_eq!(bytes_to_words(&words_to_bytes(&words)), words);
    }

    #[test]
    fn descriptor_flush_is_ordinary_writes() {
        let mut fs = fresh_fs();
        let before = fs.disk().stats().label_writes;
        fs.flush_descriptor().unwrap();
        let after = fs.disk().stats().label_writes;
        assert_eq!(before, after, "flush must not rewrite labels");
    }

    /// The address of page `k` of `f`, found by following the links.
    fn page_da(fs: &mut FileSystem<DiskDrive>, f: FileFullName, k: u16) -> DiskAddress {
        let mut da = fs.open_leader(f).unwrap().0.next;
        for page in 1..k {
            da = fs.read_page(PageName::new(f.fv, page, da)).unwrap().0.next;
        }
        da
    }

    #[test]
    fn a_rewrite_spends_one_retry_budget_per_page() {
        use alto_disk::FaultKind;
        // Page 3 of a batched rewrite sits where page 2's link points, so
        // when its write exhausts the retry budget the rewrite fails: the
        // per-page path must not grant a second budget. Under the default
        // limit of three, a fault that clears on the fifth attempt fails
        // the rewrite, and so does a one-attempt fault under a zero limit.
        for (limit, attempts) in [(3, 4), (0, 1)] {
            let mut fs = fresh_fs();
            let f = fs.create_file("budget").unwrap();
            fs.write_file(f, &vec![1u8; 10 * PAGE_BYTES]).unwrap();
            let da = page_da(&mut fs, f, 3);
            fs.disk_mut().set_retries(limit);
            fs.disk_mut().reset_stats();
            fs.disk_mut()
                .injector_mut()
                .arm(da, FaultKind::NotReady { attempts });
            let err = fs.write_file(f, &vec![2u8; 10 * PAGE_BYTES]);
            assert!(
                matches!(err, Err(FsError::Disk(DiskError::HardError { .. }))),
                "limit {limit}: {err:?}"
            );
            let s = fs.disk().stats();
            assert_eq!(s.soft_errors, u64::from(attempts), "limit {limit}");
            assert_eq!(s.retries, u64::from(limit), "limit {limit}");
            assert_eq!(s.hard_failures, 1, "limit {limit}");
            assert_eq!(s.recovered, 0, "limit {limit}");
        }
    }

    #[test]
    fn leader_property_space_round_trips() {
        let mut fs = fresh_fs();
        let f = fs.create_file("props").unwrap();
        fs.write_leader_properties(f, 4, &[0xAA, 0xBB, 0xCC])
            .unwrap();
        assert_eq!(
            fs.read_leader_properties(f, 4, 3).unwrap(),
            vec![0xAA, 0xBB, 0xCC]
        );
        // Other properties untouched.
        assert_eq!(fs.read_leader_properties(f, 0, 4).unwrap(), vec![0; 4]);
        // Out of range rejected.
        assert!(fs.write_leader_properties(f, 300, &[1]).is_err());
        assert!(fs.read_leader_properties(f, 0, 10_000).is_err());
        // Properties survive content rewrites.
        fs.write_file(f, &vec![7u8; 2000]).unwrap();
        assert_eq!(fs.read_leader_properties(f, 4, 1).unwrap(), vec![0xAA]);
    }

    #[test]
    fn touch_read_updates_the_read_date() {
        let mut fs = fresh_fs();
        let f = fs.create_file("dated").unwrap();
        let before = fs.read_leader(f).unwrap().read;
        fs.disk().clock().advance(alto_sim::SimTime::from_secs(30));
        fs.touch_read(f).unwrap();
        let after = fs.read_leader(f).unwrap().read;
        assert!(after > before);
    }
}
