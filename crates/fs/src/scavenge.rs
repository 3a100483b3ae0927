//! The Scavenger (§3.5).
//!
//! "By reading all the labels on the disk, we can check that all the links
//! are correct (reconstructing any that prove faulty), obtain full names
//! for all existing files, and produce a list of free pages." The scavenger
//! rebuilds *every hint* from the absolutes:
//!
//! 1. **Scan** every sector's label (quarantining unreadable pages with the
//!    special bad label).
//! 2. **Census**: group pages by `(FV)`, resolve duplicate `(FV, n)` pages,
//!    free headless chains (no page 0) and truncate files at gaps.
//! 3. **Repair links** so each file's next/prev hints are correct.
//! 4. **Rebuild the disk descriptor** at its standard address (evicting a
//!    squatter page if corruption put one there).
//! 5. **Verify directories**: every entry must point at page 0 of an
//!    existing file; addresses are fixed up, dangling entries dropped.
//! 6. **Adopt orphans**: a file with no directory entry anywhere is entered
//!    in the root directory under its leader name — "this is the sole
//!    function of the leader name."
//!
//! The in-core table is the paper's: **48 bits per sector** — the two
//! serial-number words and the page number, indexed by disk address (the
//! hint name is the index; §3.5: "a table with 48 bits per sector"). The
//! version and the links deliberately do not fit, so link checking is a
//! second pass over the live sectors in address order, re-reading each
//! label and rewriting only the faulty ones — which is exactly why the
//! paper's scavenge takes "about a minute": two sweeps of the platter.

use std::collections::{BTreeMap, BTreeSet};

use alto_disk::{Disk, DiskAddress, DiskError, Label, SectorBuf, SectorOp, DATA_WORDS};
use alto_sim::SimTime;

use crate::descriptor::{self, DiskDescriptor};
use crate::dir::{self, DirEntry};
use crate::errors::FsError;
use crate::file::FileSystem;
use crate::leader::LeaderPage;
use crate::names::{FileFullName, Fv, PageName, SerialNumber};
use crate::page;

/// What the scavenger did, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScavengeReport {
    /// Sectors whose labels were scanned.
    pub sectors_scanned: u32,
    /// Live file pages found.
    pub live_pages: u32,
    /// Free pages in the rebuilt map.
    pub free_pages: u32,
    /// Unreadable sectors quarantined with the bad label.
    pub bad_pages: u32,
    /// Pages freed because another page claimed the same absolute name.
    pub duplicate_pages_freed: u32,
    /// Pages freed because their file had no leader page.
    pub headless_pages_freed: u32,
    /// Pages freed because they lay beyond a gap in their file.
    pub truncated_pages_freed: u32,
    /// Labels rewritten to repair next/prev links.
    pub links_repaired: u32,
    /// Labels whose data-length word was normalized (over-long lengths
    /// clamped, non-final pages restored to a full page, §3.2).
    pub lengths_normalized: u32,
    /// Files found on the disk (after repair).
    pub files: u32,
    /// Directories read and verified.
    pub directories_checked: u32,
    /// Directory entries whose address hints were fixed.
    pub entries_fixed: u32,
    /// Directory entries dropped because they named no existing file.
    pub entries_dropped: u32,
    /// Files adopted into the root directory under their leader names.
    pub orphans_adopted: u32,
    /// True if the disk descriptor file had to be rebuilt from scratch.
    pub descriptor_rebuilt: bool,
    /// Simulated time the scavenge took.
    pub elapsed: SimTime,
}

/// One entry of the 48-bit-per-sector scan table: the serial-number words
/// and the page number. The disk address is the index into the table.
type TableEntry = ([u16; 2], u16);

/// Splits `das` (already in address order) into chained sweep batches. On a
/// single drive each batch is one cylinder-sized chunk, exactly the
/// original sweep. On a drive array the addresses are first partitioned by
/// arm and each batch takes one cylinder-sized chunk from *every* arm, so
/// the array services the K chunks on overlapped timelines — a full-platter
/// sweep costs about one arm's sweep in simulated time instead of K of
/// them. Order within an arm is preserved, so each arm still sees a
/// low-seek, address-ordered pass.
pub(crate) fn sweep_batches<D: Disk>(
    disk: &D,
    das: &[DiskAddress],
    per_cylinder: usize,
) -> Vec<Vec<DiskAddress>> {
    let per_cylinder = per_cylinder.max(1);
    let arms = disk.arm_count();
    if arms <= 1 {
        return das
            .chunks(per_cylinder)
            .map(<[DiskAddress]>::to_vec)
            .collect();
    }
    let mut streams: Vec<Vec<DiskAddress>> = vec![Vec::new(); arms];
    for &da in das {
        streams[disk.arm_of(da)].push(da);
    }
    let rounds = streams
        .iter()
        .map(|s| s.len().div_ceil(per_cylinder))
        .max()
        .unwrap_or(0);
    let mut batches = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut batch = Vec::new();
        for s in &streams {
            let start = r * per_cylinder;
            if start < s.len() {
                batch.extend_from_slice(&s[start..(start + per_cylinder).min(s.len())]);
            }
        }
        batches.push(batch);
    }
    batches
}

/// The scavenging procedure.
///
/// # Examples
///
/// ```
/// use alto_disk::{DiskDrive, DiskModel};
/// use alto_fs::{dir, FileSystem, Scavenger};
/// use alto_sim::{SimClock, Trace};
///
/// let drive = DiskDrive::with_formatted_pack(
///     SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
/// let mut fs = FileSystem::format(drive)?;
/// let root = fs.root_dir();
/// let f = dir::create_named_file(&mut fs, root, "survivor")?;
/// fs.write_file(f, b"still here")?;
///
/// // Crash without flushing the allocation map, then rebuild everything
/// // from the labels alone.
/// let disk = fs.crash();
/// let (mut fs, report) = Scavenger::rebuild(disk)?;
/// assert_eq!(report.headless_pages_freed, 0);
/// let root = fs.root_dir();
/// let f = dir::lookup(&mut fs, root, "survivor")?.unwrap();
/// assert_eq!(fs.read_file(f)?, b"still here");
/// # Ok::<(), alto_fs::FsError>(())
/// ```
pub struct Scavenger;

impl Scavenger {
    /// Scavenges a disk that may not even mount: reconstructs the whole
    /// file system state from the labels and returns a mounted system.
    pub fn rebuild<D: Disk>(disk: D) -> Result<(FileSystem<D>, ScavengeReport), FsError> {
        let geometry = disk.geometry()?;
        let pack = disk.pack_number()?;
        let desc = DiskDescriptor::fresh(geometry, pack);
        let mut fs = FileSystem::from_parts(disk, desc);
        let report = Scavenger::run(&mut fs)?;
        Ok((fs, report))
    }

    /// Scavenges a mounted file system in place, rebuilding its descriptor
    /// and repairing the disk.
    pub fn run<D: Disk>(fs: &mut FileSystem<D>) -> Result<ScavengeReport, FsError> {
        let mut report = ScavengeReport::default();
        let start = fs.disk().clock().now();
        let geometry = fs.disk().geometry()?;
        let sector_count = geometry.sector_count();

        // Phase 1: scan all labels into the 48-bit-per-sector table. The
        // sweep goes one cylinder at a time as a chained batch, so each
        // cylinder costs one command set-up plus a seek and the rotations —
        // this is what keeps the whole scavenge at "about a minute" (§3.5)
        // instead of a revolution per sector.
        let per_cylinder = (geometry.heads as u32 * geometry.sectors as u32).max(1);
        let mut table: Vec<Option<TableEntry>> = vec![None; sector_count as usize];
        let mut bad: Vec<DiskAddress> = Vec::new();
        let all: Vec<DiskAddress> = (0..sector_count).map(|i| DiskAddress(i as u16)).collect();
        for das in sweep_batches(fs.disk(), &all, per_cylinder as usize) {
            let results = page::read_raw_batch(fs.disk_mut(), &das);
            for (da, res) in das.into_iter().zip(results) {
                report.sectors_scanned += 1;
                let label = match res {
                    Ok((label, _)) => label,
                    Err(FsError::Disk(DiskError::HardError { .. })) => {
                        bad.push(da);
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                if label.is_free() || label.is_bad() {
                    if label.is_bad() {
                        bad.push(da);
                    }
                    continue;
                }
                if !SerialNumber::from_words(label.fid).looks_live() {
                    // Not a plausible file page (scribbled label): reclaim it.
                    free_raw(fs, da)?;
                    continue;
                }
                table[da.0 as usize] = Some((label.fid, label.page_number));
            }
        }

        // Quarantine unreadable sectors.
        for da in &bad {
            page::mark_bad(fs.disk_mut(), *da)?;
            report.bad_pages += 1;
        }

        // Group by serial ("sort it by absolute name", §3.5) and resolve
        // duplicate absolute names: keep the lower address, free the other.
        let mut groups: BTreeMap<[u16; 2], BTreeMap<u16, DiskAddress>> = BTreeMap::new();
        for (i, entry) in table.iter().enumerate() {
            let Some((fid, page)) = entry else { continue };
            let da = DiskAddress(i as u16);
            let pages = groups.entry(*fid).or_default();
            if pages.contains_key(page) {
                scav_free(fs, da, *fid, *page)?;
                report.duplicate_pages_freed += 1;
            } else {
                pages.insert(*page, da);
            }
        }
        drop(table);

        // Phase 2: census — drop headless chains and truncate at gaps.
        groups.retain(|fid, pages| {
            if pages.contains_key(&0) {
                return true;
            }
            for (page, da) in std::mem::take(pages) {
                // Errors freeing damaged strays are not fatal to recovery.
                if scav_free(fs, da, *fid, page).is_ok() {
                    report.headless_pages_freed += 1;
                }
            }
            false
        });
        for (fid, pages) in &mut groups {
            let mut cut: Vec<(u16, DiskAddress)> = Vec::new();
            for (expected, (&page, _)) in pages.iter().enumerate() {
                if page != expected as u16 {
                    cut.extend(pages.range(page..).map(|(&p, &d)| (p, d)));
                    break;
                }
            }
            for (page, da) in cut {
                pages.remove(&page);
                if scav_free(fs, da, *fid, page).is_ok() {
                    report.truncated_pages_freed += 1;
                }
            }
        }

        // Phase 3: the link-check pass. The 48-bit table holds no links, so
        // every live sector is re-read in address order; faulty links are
        // rewritten; page 0 yields the file's version. Lengths are
        // normalized here too (§3.2: every page except the last is full, no
        // page holds more than a sector) — a hostile length word would
        // otherwise survive repair and index past the data buffer later.
        let mut live: BTreeMap<u16, ([u16; 2], u16)> = BTreeMap::new();
        for (fid, pages) in &groups {
            for (&page, &da) in pages {
                live.insert(da.0, (*fid, page));
            }
        }
        let mut versions: BTreeMap<[u16; 2], u16> = BTreeMap::new();
        let mut page_versions: BTreeMap<([u16; 2], u16), u16> = BTreeMap::new();
        let live_das: Vec<DiskAddress> = live.keys().map(|&da0| DiskAddress(da0)).collect();
        // Address order means each chunk is one stretch of the platter; the
        // chained batch reads it in a couple of revolutions (one stretch per
        // arm, overlapped, on an array).
        for das in sweep_batches(fs.disk(), &live_das, per_cylinder as usize) {
            let results = page::read_raw_batch(fs.disk_mut(), &das);
            for (&da, res) in das.iter().zip(results) {
                let (fid, page) = live[&da.0];
                // A sector that scanned in phase 1 but fails to read now is
                // left alone (its census entry stands; link repair for its
                // neighbours still points at it) — a transient must not
                // abort recovery of the whole disk.
                let Ok((label, data)) = res else { continue };
                if page == 0 {
                    versions.insert(fid, label.version);
                }
                page_versions.insert((fid, page), label.version);
                let pages = &groups[&fid];
                let is_last = pages.keys().next_back() == Some(&page);
                let expected_next = pages.get(&(page + 1)).copied().unwrap_or(DiskAddress::NIL);
                let expected_prev = if page == 0 {
                    DiskAddress::NIL
                } else {
                    pages.get(&(page - 1)).copied().unwrap_or(DiskAddress::NIL)
                };
                let expected_len = if page == 0 || !is_last {
                    crate::file::PAGE_BYTES as u16
                } else {
                    label.length.min(crate::file::PAGE_BYTES as u16)
                };
                if label.next != expected_next
                    || label.prev != expected_prev
                    || label.length != expected_len
                {
                    let pn = PageName::new(Fv::from_label(&label), page, da);
                    let mut fixed = label;
                    fixed.next = expected_next;
                    fixed.prev = expected_prev;
                    fixed.length = expected_len;
                    if page::rewrite_label(fs.disk_mut(), pn, fixed, &data).is_err() {
                        continue;
                    }
                    if label.next != expected_next || label.prev != expected_prev {
                        report.links_repaired += 1;
                    }
                    if label.length != expected_len {
                        report.lengths_normalized += 1;
                    }
                }
            }
        }

        // A file's pages must all carry the leader's version: the 48-bit
        // table deliberately drops versions (§3.5), so a chain assembled by
        // serial alone can mix incarnations, and every later read would die
        // on the exact fs-layer version re-verification (0 is only a
        // *hardware* wildcard). Truncate each file at the first page whose
        // version disagrees with page 0's.
        for (fid, pages) in &mut groups {
            let Some(&v0) = versions.get(fid) else {
                continue;
            };
            let cut_from = pages
                .keys()
                .copied()
                .find(|&p| p > 0 && page_versions.get(&(*fid, p)).is_some_and(|&v| v != v0));
            let Some(cut_from) = cut_from else { continue };
            let cut: Vec<(u16, DiskAddress)> =
                pages.range(cut_from..).map(|(&p, &d)| (p, d)).collect();
            for (page, da) in cut {
                pages.remove(&page);
                if scav_free(fs, da, *fid, page).is_ok() {
                    report.truncated_pages_freed += 1;
                }
            }
            // The new tail was link-repaired above to point at the page
            // just freed; re-point it at NIL.
            if let Some((&tail_page, &tail_da)) = pages.iter().next_back() {
                let tail_version = page_versions.get(&(*fid, tail_page)).copied().unwrap_or(v0);
                let fv = Fv::new(SerialNumber::from_words(*fid), tail_version);
                let pn = PageName::new(fv, tail_page, tail_da);
                if let Ok((label, data)) = page::read_page(fs.disk_mut(), pn) {
                    if !label.next.is_nil() {
                        let mut fixed = label;
                        fixed.next = DiskAddress::NIL;
                        if page::rewrite_label(fs.disk_mut(), pn, fixed, &data).is_ok() {
                            report.links_repaired += 1;
                        }
                    }
                }
            }
        }

        // Assemble the file map with the versions learned in phase 3.
        let mut files: BTreeMap<Fv, Vec<DiskAddress>> = BTreeMap::new();
        for (fid, pages) in groups {
            let version = versions.get(&fid).copied().unwrap_or(1);
            let fv = Fv::new(SerialNumber::from_words(fid), version);
            files.insert(fv, pages.into_values().collect());
        }

        // Restore a missing page 1 for bare-leader files (every file has at
        // least one data page, §3.2).
        let bare: Vec<Fv> = files
            .iter()
            .filter(|(_, c)| c.len() == 1)
            .map(|(fv, _)| *fv)
            .collect();
        // Deferred: page 1 restoration needs an allocator, which needs the
        // bitmap; performed after Phase 4 builds it.

        report.live_pages = files.values().map(|c| c.len() as u32).sum();
        report.files = files.len() as u32;

        // Phase 4: rebuild the allocation map and descriptor.
        let mut desc = DiskDescriptor::fresh(geometry, fs.disk().pack_number()?);
        desc.bitmap.set_busy(descriptor::BOOT_PAGE_DA);
        desc.bitmap.set_busy(descriptor::DESCRIPTOR_LEADER_DA);
        for da in &bad {
            desc.bitmap.set_busy(*da);
        }
        let mut max_number = descriptor::FIRST_DYNAMIC_FILE_NUMBER - 1;
        for (fv, chain) in &files {
            max_number = max_number.max(fv.serial.number());
            for da in chain {
                desc.bitmap.set_busy(*da);
            }
        }
        // A hostile label can claim a serial at the top of the 30-bit
        // space; saturate there so the next create fails cleanly
        // (SerialsExhausted) instead of panicking in SerialNumber::new.
        desc.next_file_number = (max_number + 1).min(1 << 30);

        // Root directory: reuse it if it survived, else recreate it.
        let root_fv = files
            .keys()
            .copied()
            .find(|fv| {
                fv.serial.is_directory() && fv.serial.number() == descriptor::ROOT_DIR_FILE_NUMBER
            })
            .unwrap_or_else(descriptor::root_dir_fv);
        let root = files
            .get(&root_fv)
            .map(|chain| FileFullName::new(root_fv, chain[0]));
        desc.root_dir = root.unwrap_or(FileFullName::new(
            descriptor::root_dir_fv(),
            DiskAddress::NIL,
        ));
        *fs.descriptor_mut() = desc;

        // Rebuild the descriptor file at its standard address. Any previous
        // descriptor-file pages become free — at *every* version: a chain
        // carrying the descriptor's serial under a scribbled version is
        // still stale descriptor state, and relocating or adopting it would
        // leave two incarnations of one serial for the next census to
        // flag as duplicates (the census is version-blind by design, §3.5).
        let desc_fv = descriptor::descriptor_fv();
        let stale_desc: Vec<Fv> = files
            .keys()
            .copied()
            .filter(|fv| fv.serial.number() == descriptor::DESCRIPTOR_FILE_NUMBER)
            .collect();
        for fv in stale_desc {
            if let Some(chain) = files.remove(&fv) {
                for (i, da) in chain.iter().enumerate() {
                    // A page that cannot be freed (hard error) stays busy in
                    // the fresh map; losing a sector must not abort recovery.
                    // lint: allow(error-path-discard) — a hard-failed free
                    // leaves the sector busy in the rebuilt map, which the
                    // next census re-examines; aborting recovery over one
                    // sector would violate the never-panic contract (§3.5)
                    let _ = fs.free_page(PageName::new(fv, i as u16, *da));
                }
                report.files -= 1;
                report.live_pages -= chain.len() as u32;
            }
        }
        if let Some((fv, page_no, new_da)) =
            evict_squatter(fs, descriptor::DESCRIPTOR_LEADER_DA, &files)?
        {
            // Update our table so later phases see the new address.
            if let Some(chain) = files.get_mut(&fv) {
                let i = page_no as usize;
                if i < chain.len() {
                    chain[i] = new_da;
                    // Repair the neighbours' links around the move.
                    repair_around(fs, fv, chain, i)?;
                }
            }
        }
        fs.descriptor_mut()
            .bitmap
            .set_busy(descriptor::DESCRIPTOR_LEADER_DA);
        rebuild_descriptor_file(fs)?;
        report.descriptor_rebuilt = true;

        // Recreate the root directory if it did not survive.
        if fs.descriptor().root_dir.leader_da.is_nil() {
            let root_leader = LeaderPage::new(descriptor::ROOT_DIR_NAME, fs.now())?;
            let label = Label {
                fid: descriptor::root_dir_fv().serial.words(),
                version: 1,
                page_number: 0,
                length: crate::file::PAGE_BYTES as u16,
                next: DiskAddress::NIL,
                prev: DiskAddress::NIL,
            };
            let leader_da = fs.allocate_page(None, label, &root_leader.encode())?;
            let root = FileFullName::new(descriptor::root_dir_fv(), leader_da);
            fs.descriptor_mut().root_dir = root;
            // Give it its empty page 1 below (it is a bare leader).
            restore_page1(fs, root)?;
            files.insert(descriptor::root_dir_fv(), vec![leader_da]);
        }

        // Restore missing page 1 on bare-leader files now the allocator works.
        for fv in bare {
            if files.contains_key(&fv) {
                let leader_da = files[&fv][0];
                restore_page1(fs, FileFullName::new(fv, leader_da))?;
            }
        }

        // Phase 5: verify directories.
        let root = fs.descriptor().root_dir;
        let mut referenced: BTreeSet<Fv> = BTreeSet::new();
        referenced.insert(desc_fv); // rebuilt with a fresh root entry below
        let dir_list: Vec<(Fv, DiskAddress)> = files
            .iter()
            .filter(|(fv, _)| fv.serial.is_directory())
            .map(|(fv, chain)| (*fv, chain[0]))
            .collect();
        for (fv, leader_da) in dir_list {
            report.directories_checked += 1;
            let dir_name = FileFullName::new(fv, leader_da);
            let entries = match fs.read_file(dir_name) {
                Ok(bytes) => dir::parse_entries(&bytes),
                Err(_) => Vec::new(), // unreadable directory: treated as empty
            };
            let mut fixed = Vec::new();
            let mut changed = false;
            for entry in entries {
                // The descriptor file was rebuilt at its standard address
                // and is no longer in the table; keep its entry pointed
                // there.
                if entry.file.fv == desc_fv {
                    referenced.insert(desc_fv);
                    if entry.file.leader_da != descriptor::DESCRIPTOR_LEADER_DA {
                        report.entries_fixed += 1;
                        changed = true;
                    }
                    fixed.push(DirEntry {
                        name: entry.name,
                        file: FileFullName::new(desc_fv, descriptor::DESCRIPTOR_LEADER_DA),
                    });
                    continue;
                }
                match files.get(&entry.file.fv) {
                    Some(chain) => {
                        let actual = chain[0];
                        referenced.insert(entry.file.fv);
                        if entry.file.leader_da != actual {
                            report.entries_fixed += 1;
                            changed = true;
                        }
                        fixed.push(DirEntry {
                            name: entry.name,
                            file: FileFullName::new(entry.file.fv, actual),
                        });
                    }
                    None => {
                        report.entries_dropped += 1;
                        changed = true;
                    }
                }
            }
            if changed {
                fs.write_file(dir_name, &dir::encode_entries(&fixed))?;
            }
        }

        // Phase 6: adopt orphans into the root directory by leader name.
        let orphan_list: Vec<(Fv, DiskAddress)> = files
            .iter()
            .filter(|(fv, _)| !referenced.contains(fv))
            .map(|(fv, chain)| (*fv, chain[0]))
            .collect();
        for (fv, leader_da) in orphan_list {
            let file = FileFullName::new(fv, leader_da);
            // An unreadable leader loses only its name, not the file.
            let leader_name = match fs.read_page(file.leader_page()) {
                Ok((_, leader_data)) => LeaderPage::decode(&leader_data).name,
                Err(_) => String::new(),
            };
            let base = if leader_name.is_empty() {
                format!("scavenged.{}", fv.serial.number())
            } else {
                leader_name
            };
            // Never clobber an existing entry: `dir::insert` replaces a
            // same-name entry, which would orphan *that* file and make the
            // adoption chase its own tail on every re-scavenge. Uniquify
            // (UTF-8-boundary-safely — leader names may be multibyte) until
            // the name is free.
            let mut name = base.clone();
            let mut attempt = 0u32;
            while dir::lookup(fs, root, &name)?.is_some() {
                attempt += 1;
                let suffix = if attempt == 1 {
                    format!("!{}", fv.serial.number())
                } else {
                    format!("!{}.{attempt}", fv.serial.number())
                };
                name = compose_name(&base, &suffix);
                if attempt >= 64 {
                    // Serial numbers are unique, so this cannot collide
                    // forever with honest entries; a pathological directory
                    // beyond this budget loses the orphan's entry (the file
                    // itself stays on disk for the next scavenge).
                    break;
                }
            }
            if dir::lookup(fs, root, &name)?.is_some() {
                continue;
            }
            dir::insert(fs, root, &name, file)?;
            report.orphans_adopted += 1;
        }

        // Make sure the well-known files are listed.
        if dir::lookup(fs, root, descriptor::ROOT_DIR_NAME)?.is_none() {
            dir::insert(fs, root, descriptor::ROOT_DIR_NAME, root)?;
        }
        if dir::lookup(fs, root, descriptor::DESCRIPTOR_NAME)?.is_none() {
            dir::insert(
                fs,
                root,
                descriptor::DESCRIPTOR_NAME,
                FileFullName::new(desc_fv, descriptor::DESCRIPTOR_LEADER_DA),
            )?;
        }

        report.free_pages = fs.descriptor().bitmap.free_count();
        fs.flush_descriptor()?;
        report.elapsed = fs.disk().clock().now() - start;
        Ok(report)
    }
}

/// `base` + `suffix`, with `base` truncated at a UTF-8 boundary so the
/// whole name fits in a leader/directory name field. (A plain
/// `String::truncate` would panic when byte 39 of a recovered multibyte
/// leader name is mid-character.)
fn compose_name(base: &str, suffix: &str) -> String {
    let room = crate::leader::MAX_LEADER_NAME.saturating_sub(suffix.len());
    let mut cut = room.min(base.len());
    while cut > 0 && !base.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}{}", &base[..cut], suffix)
}

/// Frees a page named by the 48-bit table: the serial words and page
/// number are checked exactly; the version (not in the table) is a
/// wildcard. Ones are then written into label and value (§3.3).
fn scav_free<D: Disk>(
    fs: &mut FileSystem<D>,
    da: DiskAddress,
    fid: [u16; 2],
    page: u16,
) -> Result<(), FsError> {
    let check = Label {
        fid,
        version: 0, // wildcard: the table does not hold versions
        page_number: page,
        length: 0,
        next: DiskAddress(0),
        prev: DiskAddress(0),
    };
    let mut buf = SectorBuf::with_label(check);
    buf.header = [fs.disk().pack_number()?, da.0];
    page::retry_op(fs.disk_mut(), da, SectorOp::CHECK_LABEL, &mut buf)?;
    let mut buf = SectorBuf::with_label(Label::FREE);
    buf.header = [fs.disk().pack_number()?, da.0];
    buf.data = [u16::MAX; DATA_WORDS];
    page::retry_op(fs.disk_mut(), da, SectorOp::WRITE_LABEL, &mut buf)?;
    Ok(())
}

/// Frees a sector that carried an implausible (but in-use-looking) label.
fn free_raw<D: Disk>(fs: &mut FileSystem<D>, da: DiskAddress) -> Result<(), FsError> {
    // `mark_bad` then free: write the free label unconditionally.
    let mut buf = SectorBuf::with_label(Label::FREE);
    buf.header = [fs.disk().pack_number()?, da.0];
    buf.data = [u16::MAX; DATA_WORDS];
    page::retry_op(fs.disk_mut(), da, SectorOp::WRITE_ALL, &mut buf)?;
    Ok(())
}

/// If a live page of some other file occupies `home`, relocate it to a free
/// sector and return `(fv, page_number, new_da)`.
fn evict_squatter<D: Disk>(
    fs: &mut FileSystem<D>,
    home: DiskAddress,
    files: &BTreeMap<Fv, Vec<DiskAddress>>,
) -> Result<Option<(Fv, u16, DiskAddress)>, FsError> {
    // Find who (if anyone) sits at `home` in the rebuilt table.
    let squatter = files.iter().find_map(|(fv, chain)| {
        chain
            .iter()
            .position(|d| *d == home)
            .map(|page| (*fv, page as u16))
    });
    let Some((fv, page_no)) = squatter else {
        return Ok(None);
    };
    let pn = PageName::new(fv, page_no, home);
    let (label, data) = page::read_page(fs.disk_mut(), pn)?;
    let new_da = fs.allocate_page(None, label, &data)?;
    // Free the old sector on the medium; the map bit for `home` stays busy
    // because the caller is about to rebuild the descriptor there.
    page::free_page(fs.disk_mut(), pn)?;
    Ok(Some((fv, page_no, new_da)))
}

/// Repairs the links of `chain[i]`'s neighbours after `chain[i].da` moved.
fn repair_around<D: Disk>(
    fs: &mut FileSystem<D>,
    fv: Fv,
    chain: &mut [DiskAddress],
    i: usize,
) -> Result<(), FsError> {
    let das: Vec<DiskAddress> = chain.to_vec();
    let fix = |fs: &mut FileSystem<D>, idx: usize, das: &[DiskAddress]| -> Result<(), FsError> {
        let pn = PageName::new(fv, idx as u16, das[idx]);
        let (label, data) = page::read_page(fs.disk_mut(), pn)?;
        let mut fixed = label;
        fixed.next = das.get(idx + 1).copied().unwrap_or(DiskAddress::NIL);
        fixed.prev = if idx == 0 {
            DiskAddress::NIL
        } else {
            das[idx - 1]
        };
        if fixed.next != label.next || fixed.prev != label.prev {
            page::rewrite_label(fs.disk_mut(), pn, fixed, &data)?;
        }
        Ok(())
    };
    // The moved page itself plus both neighbours.
    if i > 0 {
        fix(fs, i - 1, &das)?;
    }
    fix(fs, i, &das)?;
    if i + 1 < das.len() {
        fix(fs, i + 1, &das)?;
    }
    Ok(())
}

/// Builds a fresh descriptor file (leader at the standard address plus data
/// pages) from the current in-memory descriptor.
fn rebuild_descriptor_file<D: Disk>(fs: &mut FileSystem<D>) -> Result<(), FsError> {
    let leader = LeaderPage::new(descriptor::DESCRIPTOR_NAME, fs.now())?;
    // The standard address must be free on the medium by now.
    let payload = crate::file::words_to_bytes(&fs.descriptor().encode());
    fs.build_file_at(
        descriptor::descriptor_fv(),
        descriptor::DESCRIPTOR_LEADER_DA,
        leader,
        &payload,
    )
}

/// Gives a bare-leader file its mandatory empty page 1.
fn restore_page1<D: Disk>(fs: &mut FileSystem<D>, file: FileFullName) -> Result<(), FsError> {
    let label = Label {
        fid: file.fv.serial.words(),
        version: file.fv.version,
        page_number: 1,
        length: 0,
        next: DiskAddress::NIL,
        prev: file.leader_da,
    };
    let da = fs.allocate_page(
        Some(DiskAddress(file.leader_da.0.wrapping_add(1))),
        label,
        &[0; DATA_WORDS],
    )?;
    let pn = file.leader_page();
    let (mut leader_label, leader_data) = fs.read_page(pn)?;
    leader_label.next = da;
    page::rewrite_label(fs.disk_mut(), pn, leader_label, &leader_data)?;
    let mut leader = LeaderPage::decode(&leader_data);
    leader.last_page = 1;
    leader.last_da = da;
    fs.write_page(pn, &leader.encode())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel, FaultKind};
    use alto_sim::{SimClock, Trace};

    fn fresh_fs() -> FileSystem<DiskDrive> {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        FileSystem::format(drive).unwrap()
    }

    /// Scavenging a healthy disk is a no-op apart from the descriptor
    /// rebuild, and loses nothing.
    #[test]
    fn healthy_disk_survives_scavenge() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "keep.txt").unwrap();
        fs.write_file(f, b"precious bytes").unwrap();
        let free_before = fs.descriptor().bitmap.free_count();

        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.duplicate_pages_freed, 0);
        assert_eq!(report.headless_pages_freed, 0);
        assert_eq!(report.entries_dropped, 0);
        assert_eq!(report.orphans_adopted, 0);
        assert_eq!(report.free_pages, free_before);

        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "keep.txt")
        }
        .unwrap()
        .unwrap();
        assert_eq!(fs.read_file(g).unwrap(), b"precious bytes");
    }

    /// A crash that leaves the on-disk allocation map stale is healed.
    #[test]
    fn stale_map_after_crash_is_rebuilt() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "during.txt").unwrap();
        fs.write_file(f, &vec![7u8; 3000]).unwrap();
        // Crash without flushing: on-disk map predates the writes.
        let disk = fs.crash();
        let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "during.txt")
        }
        .unwrap()
        .unwrap();
        assert_eq!(fs.read_file(g).unwrap(), vec![7u8; 3000]);
        // And allocation still works.
        let root = fs.root_dir();
        let h = dir::create_named_file(&mut fs, root, "after.txt").unwrap();
        fs.write_file(h, b"ok").unwrap();
    }

    /// A lost directory loses names, not files: orphans are adopted under
    /// their leader names.
    #[test]
    fn orphans_are_adopted_by_leader_name() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "orphan.txt").unwrap();
        fs.write_file(f, b"still here").unwrap();
        // Destroy the directory entry (not the file).
        dir::remove(&mut fs, root, "orphan.txt").unwrap();

        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.orphans_adopted, 1);
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "orphan.txt")
        }
        .unwrap()
        .unwrap();
        assert_eq!(fs.read_file(g).unwrap(), b"still here");
    }

    /// Broken links are repaired from the absolutes.
    #[test]
    fn scrambled_links_are_repaired() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "chained.txt").unwrap();
        let bytes: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        // Scramble the next link of page 1 directly on the medium.
        let leader_label = fs.read_page(f.leader_page()).unwrap().0;
        let page1_da = leader_label.next;
        {
            let pack = fs.disk_mut().pack_mut().unwrap();
            let sector = pack.sector_mut(page1_da).unwrap();
            let mut label = sector.decoded_label();
            label.next = DiskAddress(4000); // nonsense
            sector.label = label.encode();
        }
        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert!(report.links_repaired >= 1);
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "chained.txt")
        }
        .unwrap()
        .unwrap();
        assert_eq!(fs.read_file(g).unwrap(), bytes);
    }

    /// An unreadable sector is quarantined and the file truncated there.
    #[test]
    fn damaged_page_is_quarantined() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "holed.txt").unwrap();
        fs.write_file(f, &vec![9u8; 2500]).unwrap(); // 5 pages
                                                     // Damage page 3's sector.
        let mut pn = f.leader_page();
        let mut da3 = DiskAddress::NIL;
        for _ in 0..3 {
            let (label, _) = fs.read_page(pn).unwrap();
            da3 = label.next;
            pn = PageName::new(f.fv, pn.page + 1, label.next);
        }
        fs.disk_mut().pack_mut().unwrap().damage(da3);

        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.bad_pages, 1);
        assert!(report.truncated_pages_freed >= 1);
        // The file survives, truncated before the damage.
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "holed.txt")
        }
        .unwrap()
        .unwrap();
        let bytes = fs.read_file(g).unwrap();
        assert_eq!(bytes, vec![9u8; 1024]); // pages 1-2 survive
                                            // The bad sector is never allocated again.
        assert!(fs.descriptor().bitmap.is_busy(da3));
        let label = fs
            .disk()
            .pack()
            .unwrap()
            .sector(da3)
            .unwrap()
            .decoded_label();
        assert!(label.is_bad());
    }

    /// Headless chains (no leader) are reclaimed as free space.
    #[test]
    fn headless_chain_is_reclaimed() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "beheaded.txt").unwrap();
        fs.write_file(f, &vec![1u8; 1500]).unwrap();
        // Smash the leader's label on the medium.
        {
            let pack = fs.disk_mut().pack_mut().unwrap();
            let sector = pack.sector_mut(f.leader_da).unwrap();
            sector.label = Label::FREE.encode();
        }
        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert!(report.headless_pages_freed >= 3);
        // The name is gone (the entry pointed at a nonexistent file).
        assert_eq!(report.entries_dropped, 1);
        assert_eq!(
            {
                let root = fs.root_dir();
                dir::lookup(&mut fs, root, "beheaded.txt")
            }
            .unwrap(),
            None
        );
    }

    /// Stale directory address hints are fixed in place.
    #[test]
    fn stale_entry_addresses_are_fixed() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "moved.txt").unwrap();
        fs.write_file(f, b"content").unwrap();
        // Corrupt the entry's DA hint by inserting a wrong full name.
        dir::insert(
            &mut fs,
            root,
            "moved.txt",
            FileFullName::new(f.fv, DiskAddress(4000)),
        )
        .unwrap();
        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert!(report.entries_fixed >= 1);
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "moved.txt")
        }
        .unwrap()
        .unwrap();
        assert_eq!(g.leader_da, f.leader_da);
        assert_eq!(fs.read_file(g).unwrap(), b"content");
    }

    /// A torn multi-page write leaves a consistent prefix after scavenge.
    #[test]
    fn torn_write_recovers_to_consistency() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "torn.txt").unwrap();
        fs.write_file(f, &vec![1u8; 2000]).unwrap();
        // Arm a torn write against page 2's sector, then overwrite.
        let (l1, _) = fs.read_page(f.leader_page()).unwrap();
        let (l2, _) = fs.read_page(PageName::new(f.fv, 1, l1.next)).unwrap();
        fs.disk_mut()
            .injector_mut()
            .arm(l2.next, FaultKind::TornWrite { words_written: 50 });
        fs.write_file(f, &vec![2u8; 2000]).unwrap();
        let disk = fs.crash();
        let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();
        let g = {
            let root = fs.root_dir();
            dir::lookup(&mut fs, root, "torn.txt")
        }
        .unwrap()
        .unwrap();
        let bytes = fs.read_file(g).unwrap();
        // The file is structurally sound (right length); page 2 carries a
        // mixture of old and new data — the torn write is data loss the
        // label discipline does not (and cannot) hide, but nothing else is
        // damaged.
        assert_eq!(bytes.len(), 2000);
        assert!(bytes[..512].iter().all(|&b| b == 2));
    }

    /// The scavenger finishes in about the time the paper reports.
    #[test]
    fn scavenge_time_is_tens_of_seconds() {
        let fs = fresh_fs();
        let disk = fs.unmount().unwrap();
        let (_, report) = Scavenger::rebuild(disk).unwrap();
        let secs = report.elapsed.as_secs_f64();
        assert!(
            (5.0..90.0).contains(&secs),
            "scavenge took {secs} simulated seconds"
        );
    }

    /// On a 4-arm array the scavenger sweeps all four packs on overlapped
    /// timelines: markedly faster than the serialized ablation, recovering
    /// the same files, with every arm's §3.3 auditor staying clean.
    #[test]
    fn array_scavenge_overlaps_arms_and_stays_audit_clean() {
        use alto_disk::{DriveArray, Placement};
        let run = |overlap: bool| {
            let mut array = DriveArray::with_arms(
                4,
                Placement::Range,
                SimClock::new(),
                Trace::new(),
                DiskModel::Diablo31,
            );
            array.set_overlap_enabled(overlap);
            let mut fs = FileSystem::format(array).unwrap();
            for i in 0..6u8 {
                let root = fs.root_dir();
                let f = dir::create_named_file(&mut fs, root, &format!("f{i}")).unwrap();
                fs.write_file(f, &vec![i; 2000]).unwrap();
            }
            // Crash, then audit the §3.3 discipline of the scavenge itself,
            // per arm.
            let mut disk = fs.crash();
            let auditors: Vec<_> = (0..4).map(|k| disk.arm_mut(k).enable_audit()).collect();
            let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
            for (k, a) in auditors.iter().enumerate() {
                assert!(a.violations().is_empty(), "arm {k} saw violations");
                assert!(a.ops_observed() > 0, "arm {k} was never swept");
            }
            for i in 0..6u8 {
                let root = fs.root_dir();
                let f = dir::lookup(&mut fs, root, &format!("f{i}"))
                    .unwrap()
                    .unwrap();
                assert_eq!(fs.read_file(f).unwrap(), vec![i; 2000]);
            }
            (report.elapsed, fs.disk().io_stats().overlap_batches)
        };
        let (serial, serial_overlaps) = run(false);
        let (overlapped, overlaps) = run(true);
        assert_eq!(serial_overlaps, 0);
        assert!(overlaps > 0, "no batch spanned two arms");
        assert!(
            serial >= overlapped.scaled(2),
            "4-arm sweep should be at least 2x the serialized scavenge: \
             serial {serial}, overlapped {overlapped}"
        );
    }
}
