//! The in-core hint cache (§3.6 made systemic).
//!
//! The paper's discipline for hints — "cheap to keep, verified on use,
//! safely discarded when wrong" — is applied here to the two hottest
//! structures in the system: directory contents and leader pages. Both are
//! kept in core as *hints about the disk*:
//!
//! * a **directory name index**: the parsed entries of each directory,
//!   plus a casefolded-name map, built lazily on the first full scan and
//!   refreshed in place when the directory package rewrites the file;
//! * a **leader-page cache**: the label and decoded contents of each
//!   file's page 0, filled by every leader read or write.
//!
//! Nothing cached here is ever *believed*. A snapshot is only served while
//! the disk's [`write_epoch`](alto_disk::Disk::write_epoch) still equals
//! the value captured when it was taken — any write to the medium, through
//! the file system or behind its back, silently retires it — and a
//! positive name-index hit is additionally verified against the target's
//! leader label before the caller sees it (the §3.3 check). A stale hit
//! therefore costs a fallback to the linear scan; it can never corrupt.
//!
//! The cache can be disabled wholesale
//! ([`set_hint_cache_enabled`](crate::FileSystem::set_hint_cache_enabled))
//! for ablation experiments,
//! the same pattern as `UnscheduledDisk`. Placement-aware allocation rides
//! the same switch: with hints off, the allocator degrades to the original
//! fixed-origin scan.

use std::collections::BTreeMap;

use alto_disk::{DiskAddress, Label};

use crate::dir::DirEntry;
use crate::leader::LeaderPage;
use crate::names::{FileFullName, Fv};

/// Casefolds a directory name the way entry matching does (ASCII).
pub(crate) fn casefold(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Counters for cache behaviour; every hit, miss, verification failure and
/// invalidation is observable (and traced as `fs.cache_hit` /
/// `fs.cache_miss` / `fs.cache_invalidate`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Name lookups (or directory listings) answered from a fresh index.
    pub name_hits: u64,
    /// Name lookups that had to scan the directory file.
    pub name_misses: u64,
    /// Leader reads answered from the leader cache.
    pub leader_hits: u64,
    /// Leader reads that went to the disk.
    pub leader_misses: u64,
    /// Index hits whose label verification failed (fell back to the scan).
    pub verify_failures: u64,
    /// Cached snapshots retired because the epoch or directory moved on.
    pub invalidations: u64,
}

/// A cached snapshot of one directory's parsed entries.
#[derive(Debug, Clone)]
struct DirIndex {
    /// The directory leader address the snapshot was read through.
    leader_da: DiskAddress,
    /// [`Disk::write_epoch`](alto_disk::Disk::write_epoch) at snapshot time.
    epoch: u64,
    entries: Vec<DirEntry>,
    /// Casefolded name → index of the *first* matching entry (directories
    /// may hold duplicates after adoption; lookup returns the first).
    by_name: BTreeMap<String, usize>,
}

/// A cached leader page: label plus decoded contents.
#[derive(Debug, Clone)]
struct CachedLeader {
    leader_da: DiskAddress,
    epoch: u64,
    label: Label,
    leader: LeaderPage,
}

/// The unified in-core hint cache carried by every mounted file system.
#[derive(Debug)]
pub(crate) struct HintCache {
    enabled: bool,
    dirs: BTreeMap<Fv, DirIndex>,
    leaders: BTreeMap<Fv, CachedLeader>,
    pub(crate) stats: CacheStats,
}

impl HintCache {
    pub(crate) fn new() -> HintCache {
        HintCache {
            enabled: true,
            dirs: BTreeMap::new(),
            leaders: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns the cache on or off; disabling discards everything held.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.dirs.clear();
            self.leaders.clear();
        }
    }

    /// The fresh entries of `dir`, or None. A snapshot taken at another
    /// write epoch or through another leader address is retired on sight.
    pub(crate) fn dir_entries(&mut self, dir: FileFullName, epoch: u64) -> Option<&[DirEntry]> {
        if !self.enabled {
            return None;
        }
        let fresh = match self.dirs.get(&dir.fv) {
            Some(idx) => idx.epoch == epoch && idx.leader_da == dir.leader_da,
            None => return None,
        };
        if !fresh {
            self.dirs.remove(&dir.fv);
            self.stats.invalidations += 1;
            return None;
        }
        self.dirs.get(&dir.fv).map(|idx| idx.entries.as_slice())
    }

    /// Looks `folded` up in a fresh index of `dir`. `None` = no fresh
    /// index; `Some(None)` = fresh index, name absent (a verified
    /// negative); `Some(Some(file))` = candidate hit, to be verified
    /// against the target's leader label by the caller.
    pub(crate) fn lookup_name(
        &mut self,
        dir: FileFullName,
        folded: &str,
        epoch: u64,
    ) -> Option<Option<FileFullName>> {
        let idx = {
            self.dir_entries(dir, epoch)?;
            self.dirs.get(&dir.fv)?
        };
        Some(idx.by_name.get(folded).map(|&i| idx.entries[i].file))
    }

    /// Installs a snapshot of `dir`'s entries taken at `epoch`.
    pub(crate) fn install_dir(&mut self, dir: FileFullName, epoch: u64, entries: Vec<DirEntry>) {
        if !self.enabled {
            return;
        }
        let mut by_name = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            by_name.entry(casefold(&e.name)).or_insert(i);
        }
        self.dirs.insert(
            dir.fv,
            DirIndex {
                leader_da: dir.leader_da,
                epoch,
                entries,
                by_name,
            },
        );
    }

    /// Drops the snapshot of `dir`: a verification failure found it lying,
    /// or the directory package just rewrote the directory.
    pub(crate) fn drop_dir(&mut self, dir: Fv) {
        if self.dirs.remove(&dir).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// The fresh cached leader of `file`, or None.
    pub(crate) fn leader(&mut self, file: FileFullName, epoch: u64) -> Option<(Label, LeaderPage)> {
        if !self.enabled {
            return None;
        }
        let fresh = match self.leaders.get(&file.fv) {
            Some(c) => c.epoch == epoch && c.leader_da == file.leader_da,
            None => return None,
        };
        if !fresh {
            self.leaders.remove(&file.fv);
            self.stats.invalidations += 1;
            return None;
        }
        self.leaders
            .get(&file.fv)
            .map(|c| (c.label, c.leader.clone()))
    }

    /// Like [`Self::leader`], but *moves* the cached entry out instead of
    /// cloning it. The write path takes the leader, mutates it in place, and
    /// reinstalls it by value via the post-write install — a whole
    /// read-modify-write cycle with zero heap traffic on a warm cache.
    pub(crate) fn take_leader(
        &mut self,
        file: FileFullName,
        epoch: u64,
    ) -> Option<(Label, LeaderPage)> {
        if !self.enabled {
            return None;
        }
        match self.leaders.remove(&file.fv) {
            Some(c) if c.epoch == epoch && c.leader_da == file.leader_da => {
                Some((c.label, c.leader))
            }
            Some(_) => {
                self.stats.invalidations += 1;
                None
            }
            None => None,
        }
    }

    /// Installs `file`'s leader, as read from (or just written to) the disk
    /// at `epoch`.
    pub(crate) fn install_leader(
        &mut self,
        file: FileFullName,
        epoch: u64,
        label: Label,
        leader: LeaderPage,
    ) {
        if !self.enabled {
            return;
        }
        self.leaders.insert(
            file.fv,
            CachedLeader {
                leader_da: file.leader_da,
                epoch,
                label,
                leader,
            },
        );
    }

    /// Drops the cached leader of `fv` (the file was deleted).
    pub(crate) fn forget_leader(&mut self, fv: Fv) {
        self.leaders.remove(&fv);
    }
}
