//! Using hints (§3.6).
//!
//! "If a program possesses the full name `(FV, i)` of a file page and the
//! hint address, it can access the page directly without going through a
//! directory lookup and without scanning down the chain of data blocks."
//! When the direct access fails, the program climbs a ladder of recoveries:
//!
//! 1. follow links from another known-good portion of the file (typically
//!    the leader page, possibly accelerated by hints kept for every k-th
//!    page);
//! 2. look up the `FV` in a directory to obtain the proper disk address;
//! 3. look up the *string name* in a directory to obtain a new `FV` and
//!    address (the file may have been recreated);
//! 4. invoke the Scavenger and retry.
//!
//! The paper laments that programs too often printed "Hint failed, please
//! reinstall" instead of climbing the ladder; [`resolve_page`] is the
//! automatic recovery done right, and [`HintStats`] lets the experiments
//! report the cost of each rung (experiment E5).
//!
//! The same module provides the consecutive-file guess of §3.6: "a program
//! is free to assume that a file is consecutive and, knowing the address
//! `aᵢ` of page `i`, to compute the address of page `j` as `aᵢ + j - i`.
//! The label check will prevent any incorrect overwriting of data."

use alto_disk::{Disk, DiskAddress, DATA_WORDS};
use alto_sim::SimTime;

use crate::dir;
use crate::errors::FsError;
use crate::file::FileSystem;
use crate::names::{FileFullName, Fv, PageName};
use crate::page;
use crate::scavenge::Scavenger;

/// Which rung of the ladder finally produced the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintOutcome {
    /// The hint address was correct: one disk access.
    DirectHit,
    /// Recovered by following links from a known-good page.
    LinkChase {
        /// Number of link hops followed.
        hops: u32,
    },
    /// Recovered via an `FV` lookup in the directory.
    DirectoryLookup,
    /// Recovered via a string-name lookup (new `FV`).
    StringLookup,
    /// Recovered only by running the Scavenger.
    Scavenged,
}

/// Cumulative ladder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintStats {
    /// Accesses satisfied by the hint directly.
    pub direct_hits: u64,
    /// Accesses recovered by link chasing (and total hops).
    pub link_chases: u64,
    /// Total link hops across all chases.
    pub link_hops: u64,
    /// Accesses recovered by `FV` directory lookup.
    pub dir_lookups: u64,
    /// Accesses recovered by string lookup.
    pub string_lookups: u64,
    /// Accesses that required a scavenge.
    pub scavenges: u64,
    /// Simulated time spent inside the ladder.
    pub time: SimTime,
}

impl HintStats {
    fn record(&mut self, outcome: HintOutcome) {
        match outcome {
            HintOutcome::DirectHit => self.direct_hits += 1,
            HintOutcome::LinkChase { hops } => {
                self.link_chases += 1;
                self.link_hops += hops as u64;
            }
            HintOutcome::DirectoryLookup => self.dir_lookups += 1,
            HintOutcome::StringLookup => self.string_lookups += 1,
            HintOutcome::Scavenged => self.scavenges += 1,
        }
    }
}

/// A program's remembered hints for one file, as written to a state file by
/// an install phase (§3.6: "they create the necessary files and store hints
/// for them in a data structure that is then written onto a state file").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageHints {
    /// The file's full name (the leader hint).
    pub file: FileFullName,
    /// The directory the file is catalogued in.
    pub directory: FileFullName,
    /// The string name under which it is catalogued.
    pub name: String,
    /// Hint addresses kept for every `k`-th page ("hint addresses can also
    /// be kept for every k-th page of the file to reduce the number of
    /// links that must be followed").
    pub every_kth: Vec<(u16, DiskAddress)>,
    /// The `k` used for `every_kth` (0 = none kept).
    pub k: u16,
}

impl PageHints {
    /// Hints consisting only of the file's full name.
    pub fn bare(file: FileFullName, directory: FileFullName, name: &str) -> PageHints {
        PageHints {
            file,
            directory,
            name: name.to_string(),
            every_kth: Vec::new(),
            k: 0,
        }
    }

    /// Builds hints for every `k`-th page by walking the file once.
    pub fn install<D: Disk>(
        fs: &mut FileSystem<D>,
        directory: FileFullName,
        name: &str,
        k: u16,
    ) -> Result<PageHints, FsError> {
        let file = dir::lookup(fs, directory, name)?
            .ok_or_else(|| FsError::NameNotFound(name.to_string()))?;
        let mut every_kth = vec![(0u16, file.leader_da)];
        if k > 0 {
            // The lookup's verification read primed the leader cache, so
            // this costs no disk revolution on the warm path.
            let (leader_label, _) = fs.open_leader(file)?;
            if !leader_label.next.is_nil() {
                let page1 = PageName::new(file.fv, 1, leader_label.next);
                page::follow(fs.disk_mut(), page1, |pn, _, _| {
                    if pn.page.is_multiple_of(k) {
                        every_kth.push((pn.page, pn.da));
                    }
                    false
                })?;
            }
        }
        Ok(PageHints {
            file,
            directory,
            name: name.to_string(),
            every_kth,
            k,
        })
    }

    /// The best starting point at or below `page`: the highest hinted page
    /// not beyond it.
    fn best_start(&self, page: u16) -> (u16, DiskAddress) {
        self.every_kth
            .iter()
            .copied()
            .filter(|(p, _)| *p <= page)
            .max_by_key(|(p, _)| *p)
            .unwrap_or((0, self.file.leader_da))
    }

    /// Serializes the hints to words for a state file.
    pub fn encode(&self) -> Vec<u16> {
        let mut w = Vec::new();
        let s = self.file.fv.serial.words();
        w.extend_from_slice(&[s[0], s[1], self.file.fv.version, self.file.leader_da.0]);
        let d = self.directory.fv.serial.words();
        w.extend_from_slice(&[
            d[0],
            d[1],
            self.directory.fv.version,
            self.directory.leader_da.0,
        ]);
        w.push(self.k);
        let name = self.name.as_bytes();
        w.push(name.len() as u16);
        for chunk in name.chunks(2) {
            let hi = (chunk[0] as u16) << 8;
            let lo = chunk.get(1).map_or(0, |&b| b as u16);
            w.push(hi | lo);
        }
        w.push(self.every_kth.len() as u16);
        for (p, da) in &self.every_kth {
            w.push(*p);
            w.push(da.0);
        }
        w
    }

    /// Deserializes hints from state-file words.
    pub fn decode(words: &[u16]) -> Option<PageHints> {
        let mut it = words.iter().copied();
        let mut next = || it.next();
        let fid = [next()?, next()?];
        let version = next()?;
        let da = DiskAddress(next()?);
        let did = [next()?, next()?];
        let dversion = next()?;
        let dda = DiskAddress(next()?);
        let k = next()?;
        let name_len = next()? as usize;
        let mut name_bytes = Vec::with_capacity(name_len);
        for i in 0..name_len {
            if i % 2 == 0 {
                let w = next()?;
                name_bytes.push((w >> 8) as u8);
                if i + 1 < name_len {
                    name_bytes.push(w as u8);
                }
            }
        }
        let name = String::from_utf8(name_bytes).ok()?;
        let count = next()? as usize;
        let mut every_kth = Vec::with_capacity(count);
        for _ in 0..count {
            every_kth.push((next()?, DiskAddress(next()?)));
        }
        Some(PageHints {
            file: FileFullName::new(
                Fv::new(crate::names::SerialNumber::from_words(fid), version),
                da,
            ),
            directory: FileFullName::new(
                Fv::new(crate::names::SerialNumber::from_words(did), dversion),
                dda,
            ),
            name,
            every_kth,
            k,
        })
    }
}

/// Reads page `page` of the hinted file, climbing the §3.6 ladder as far as
/// necessary. Returns the data, the page's now-correct full name, and which
/// rung succeeded. Updates `hints` in place with what was learned.
pub fn resolve_page<D: Disk>(
    fs: &mut FileSystem<D>,
    hints: &mut PageHints,
    page: u16,
    da_hint: DiskAddress,
    stats: &mut HintStats,
) -> Result<([u16; DATA_WORDS], PageName, HintOutcome), FsError> {
    let start = fs.disk().clock().now();
    let result = resolve_inner(fs, hints, page, da_hint);
    stats.time += fs.disk().clock().now() - start;
    if let Ok((_, _, outcome)) = &result {
        stats.record(*outcome);
    }
    result
}

fn resolve_inner<D: Disk>(
    fs: &mut FileSystem<D>,
    hints: &mut PageHints,
    page: u16,
    da_hint: DiskAddress,
) -> Result<([u16; DATA_WORDS], PageName, HintOutcome), FsError> {
    // Rung 0: the direct hint.
    if !da_hint.is_nil() {
        let pn = PageName::new(hints.file.fv, page, da_hint);
        if let Ok((_, data)) = fs.read_page(pn) {
            return Ok((data, pn, HintOutcome::DirectHit));
        }
    }

    // Rung 1: follow links from a known-good portion of the file.
    if let Some((data, pn, hops)) = chase_links(fs, hints, page) {
        return Ok((data, pn, HintOutcome::LinkChase { hops }));
    }

    // Rung 2: FV lookup in the directory (fixes a stale leader address).
    // Warm through the name index like every other directory access.
    if let Ok(Some(found)) = dir::lookup_fv(fs, hints.directory, hints.file.fv) {
        hints.file = found;
        hints.every_kth = vec![(0, found.leader_da)];
        if let Some((data, pn, _)) = chase_links(fs, hints, page) {
            return Ok((data, pn, HintOutcome::DirectoryLookup));
        }
    }

    // Rung 3: string lookup — the file may have a new FV entirely.
    if let Ok(Some(found)) = dir::lookup(fs, hints.directory, &hints.name.clone()) {
        if found.fv != hints.file.fv || found.leader_da != hints.file.leader_da {
            hints.file = found;
            hints.every_kth = vec![(0, found.leader_da)];
            if let Some((data, pn, _)) = chase_links(fs, hints, page) {
                return Ok((data, pn, HintOutcome::StringLookup));
            }
        }
    }

    // Rung 4: the Scavenger, then one more try through the directories.
    Scavenger::run(fs)?;
    let root = fs.root_dir();
    let dir_to_search = if dir::list(fs, hints.directory).is_ok() {
        hints.directory
    } else {
        root
    };
    hints.directory = dir_to_search;
    if let Some(found) = dir::lookup(fs, dir_to_search, &hints.name.clone())? {
        hints.file = found;
        hints.every_kth = vec![(0, found.leader_da)];
        if let Some((data, pn, _)) = chase_links(fs, hints, page) {
            return Ok((data, pn, HintOutcome::Scavenged));
        }
    }
    Err(FsError::PageNotFound(PageName::new(
        hints.file.fv,
        page,
        da_hint,
    )))
}

/// Follows links from the best hinted starting page to `page`; `None` if
/// a page on the way fails its check or the file ends first.
fn chase_links<D: Disk>(
    fs: &mut FileSystem<D>,
    hints: &PageHints,
    page: u16,
) -> Option<([u16; DATA_WORDS], PageName, u32)> {
    let (at, da) = hints.best_start(page);
    let start = PageName::new(hints.file.fv, at, da);
    match page::follow(fs.disk_mut(), start, |pn, _, _| pn.page == page) {
        Ok((pn, _, data)) if pn.page == page => Some((data, pn, u32::from(page - at))),
        _ => None,
    }
}

/// The §3.6 consecutive-file guess: compute page `j`'s address from page
/// `i`'s as `aᵢ + (j - i)` and try it; the label check makes a wrong guess
/// harmless. Returns the data if the guess was right.
pub fn guess_consecutive<D: Disk>(
    fs: &mut FileSystem<D>,
    fv: Fv,
    known: (u16, DiskAddress),
    target: u16,
) -> Result<Option<[u16; DATA_WORDS]>, FsError> {
    let (i, ai) = known;
    let guessed = ai.0 as i32 + target as i32 - i as i32;
    if guessed < 0 || guessed >= u16::MAX as i32 {
        return Ok(None);
    }
    let pn = PageName::new(fv, target, DiskAddress(guessed as u16));
    match fs.read_page(pn) {
        Ok((_, data)) => Ok(Some(data)),
        Err(FsError::Disk(alto_disk::DiskError::Check(_))) => Ok(None),
        Err(FsError::Disk(alto_disk::DiskError::InvalidAddress(_))) => Ok(None),
        Err(e) => Err(e),
    }
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

    fn file_with_pages(fs: &mut FileSystem<DiskDrive>, name: &str, pages: usize) -> FileFullName {
        let root = fs.root_dir();
        let f = dir::create_named_file(fs, root, name).unwrap();
        fs.write_file(f, &vec![0xAB; pages * 512 - 10]).unwrap();
        f
    }

    #[test]
    fn direct_hit_with_good_hint() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 10);
        let root = fs.root_dir();
        let mut hints = PageHints::bare(f, root, "f.dat");
        let mut stats = HintStats::default();
        // Learn page 5's address, then hit it directly.
        let (_, pn, outcome) =
            resolve_page(&mut fs, &mut hints, 5, DiskAddress::NIL, &mut stats).unwrap();
        assert!(matches!(outcome, HintOutcome::LinkChase { .. }));
        let (_, _, outcome) = resolve_page(&mut fs, &mut hints, 5, pn.da, &mut stats).unwrap();
        assert_eq!(outcome, HintOutcome::DirectHit);
        assert_eq!(stats.direct_hits, 1);
        assert_eq!(stats.link_chases, 1);
    }

    #[test]
    fn link_chase_hop_count() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 10);
        let root = fs.root_dir();
        let mut hints = PageHints::bare(f, root, "f.dat");
        let mut stats = HintStats::default();
        let (_, _, outcome) =
            resolve_page(&mut fs, &mut hints, 7, DiskAddress::NIL, &mut stats).unwrap();
        assert_eq!(outcome, HintOutcome::LinkChase { hops: 7 });
    }

    #[test]
    fn every_kth_hints_bound_the_chase() {
        let mut fs = fresh_fs();
        file_with_pages(&mut fs, "f.dat", 20);
        let root = fs.root_dir();
        let mut hints = PageHints::install(&mut fs, root, "f.dat", 4).unwrap();
        let mut stats = HintStats::default();
        let (_, _, outcome) =
            resolve_page(&mut fs, &mut hints, 18, DiskAddress::NIL, &mut stats).unwrap();
        // Best start is page 16 (a multiple of 4): 2 hops, not 18.
        assert_eq!(outcome, HintOutcome::LinkChase { hops: 2 });
    }

    #[test]
    fn stale_leader_hint_recovers_via_directory() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 5);
        let root = fs.root_dir();
        // Hints with a bogus leader address: rung 1 fails, rung 2 succeeds.
        let mut hints = PageHints::bare(FileFullName::new(f.fv, DiskAddress(4000)), root, "f.dat");
        let mut stats = HintStats::default();
        let (_, _, outcome) =
            resolve_page(&mut fs, &mut hints, 2, DiskAddress::NIL, &mut stats).unwrap();
        assert_eq!(outcome, HintOutcome::DirectoryLookup);
        // The hints were repaired in passing.
        assert_eq!(hints.file.leader_da, f.leader_da);
    }

    #[test]
    fn recreated_file_recovers_via_string_lookup() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 5);
        let root = fs.root_dir();
        let mut hints = PageHints::bare(f, root, "f.dat");
        // Delete and recreate under the same name: new FV.
        dir::remove(&mut fs, root, "f.dat").unwrap();
        fs.delete_file(f).unwrap();
        let g = dir::create_named_file(&mut fs, root, "f.dat").unwrap();
        fs.write_file(g, &vec![0xCD; 2000]).unwrap();
        assert_ne!(f.fv, g.fv);
        let mut stats = HintStats::default();
        let (_, pn, outcome) =
            resolve_page(&mut fs, &mut hints, 2, DiskAddress::NIL, &mut stats).unwrap();
        assert_eq!(outcome, HintOutcome::StringLookup);
        assert_eq!(pn.fv, g.fv);
        assert_eq!(hints.file, g);
    }

    #[test]
    fn scavenge_is_the_last_resort() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 5);
        let root = fs.root_dir();
        let mut hints = PageHints::bare(f, root, "f.dat");
        // Scramble the directory so no lookup works: overwrite the root
        // directory's contents with garbage (entries lost, file intact).
        fs.write_file(root, &[0xFF; 64]).unwrap();
        let mut stats = HintStats::default();
        // Also give the ladder a stale leader hint.
        hints.file = FileFullName::new(f.fv, DiskAddress(4000));
        let (_, _, outcome) =
            resolve_page(&mut fs, &mut hints, 1, DiskAddress::NIL, &mut stats).unwrap();
        assert_eq!(outcome, HintOutcome::Scavenged);
        assert_eq!(stats.scavenges, 1);
        // The file is catalogued again (adopted by leader name).
        assert!({
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "f.dat")
        }
        .unwrap()
        .is_some());
    }

    #[test]
    fn missing_page_is_an_error_not_a_loop() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "f.dat", 3);
        let root = fs.root_dir();
        let mut hints = PageHints::bare(f, root, "f.dat");
        let mut stats = HintStats::default();
        let err = resolve_page(&mut fs, &mut hints, 40, DiskAddress::NIL, &mut stats);
        assert!(matches!(err, Err(FsError::PageNotFound(_))));
    }

    #[test]
    fn consecutive_guess_hits_on_consecutive_files() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "c.dat", 8);
        // Freshly written files allocate near-consecutively; find page 1
        // and guess page 4 from it.
        let (l0, _) = fs.read_page(f.leader_page()).unwrap();
        let p1 = PageName::new(f.fv, 1, l0.next);
        let (l1, _) = fs.read_page(p1).unwrap();
        // Verify the premise (consecutive layout) before asserting on it.
        assert_eq!(l1.next.0, p1.da.0 + 1, "fresh file should be consecutive");
        let hit = guess_consecutive(&mut fs, f.fv, (1, p1.da), 4).unwrap();
        assert!(hit.is_some());
    }

    #[test]
    fn consecutive_guess_misses_safely() {
        let mut fs = fresh_fs();
        let f = file_with_pages(&mut fs, "c.dat", 3);
        // Guess far past the file: lands on some other sector; the label
        // check rejects it and nothing is damaged.
        let miss = guess_consecutive(&mut fs, f.fv, (1, DiskAddress(100)), 2000).unwrap();
        assert!(miss.is_none());
        // Out-of-range guesses are also safe.
        let miss = guess_consecutive(&mut fs, f.fv, (1, DiskAddress(60000)), 10000).unwrap();
        assert!(miss.is_none());
        // A guess that lands inside the same file on the wrong page (what a
        // scattered file does to the guess): the serial matches, the page
        // number does not, and the check refuses it.
        let (l0, _) = fs.read_page(f.leader_page()).unwrap();
        let miss = guess_consecutive(&mut fs, f.fv, (2, l0.next), 3).unwrap();
        assert!(miss.is_none());
    }

    #[test]
    fn hints_encode_decode_round_trip() {
        let mut fs = fresh_fs();
        file_with_pages(&mut fs, "f.dat", 12);
        let root = fs.root_dir();
        let hints = PageHints::install(&mut fs, root, "f.dat", 3).unwrap();
        let words = hints.encode();
        let back = PageHints::decode(&words).unwrap();
        assert_eq!(back, hints);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut fs = fresh_fs();
        file_with_pages(&mut fs, "f.dat", 4);
        let root = fs.root_dir();
        let hints = PageHints::install(&mut fs, root, "f.dat", 2).unwrap();
        let words = hints.encode();
        for cut in [0, 3, words.len() - 1] {
            assert!(PageHints::decode(&words[..cut]).is_none());
        }
    }

    #[test]
    fn install_records_every_kth_page() {
        let mut fs = fresh_fs();
        file_with_pages(&mut fs, "f.dat", 10);
        let root = fs.root_dir();
        let hints = PageHints::install(&mut fs, root, "f.dat", 3).unwrap();
        let pages: Vec<u16> = hints.every_kth.iter().map(|(p, _)| *p).collect();
        assert_eq!(pages, vec![0, 3, 6, 9]);
    }
}
