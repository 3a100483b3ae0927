//! Directories (§3.4).
//!
//! A directory is an ordinary file (with a reserved serial-number bit)
//! containing a set of `(string, full name)` pairs. "A file may appear in
//! any number of directories … it is possible to have a tree, or indeed an
//! arbitrary directed graph, of directories." Nothing here is special to
//! the file system: these functions are an ordinary package built on the
//! file interface, and a user who dislikes them "is free to modify the
//! system-provided procedures for managing directories, or to write his
//! own" (§3.5).
//!
//! Directory entries are deliberately *less serious* than absolutes: if a
//! directory is destroyed no file contents are lost, only the fact that a
//! certain set of files was referenced from it by certain names.
//!
//! On-disk entry format (word-aligned within the file's data bytes):
//!
//! ```text
//! word 0        entry length in words (0 terminates the directory)
//! words 1..=2   serial number
//! word 3        version
//! word 4        leader disk address (hint)
//! word 5        name length in bytes
//! words 6..     name bytes, two per word, big-endian
//! ```
//!
//! Names are matched case-insensitively (ASCII), as on the Alto.

use alto_disk::{Disk, DiskAddress};

use crate::errors::FsError;
use crate::file::{
    bytes_to_words, data_length, unpack_bytes, words_to_bytes, CacheLookup, FileSystem,
};
use crate::leader::MAX_LEADER_NAME;
use crate::names::{FileFullName, Fv, PageName, SerialNumber};
use crate::page;

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The string name within this directory.
    pub name: String,
    /// The file the entry points at.
    pub file: FileFullName,
}

fn names_equal(a: &str, b: &str) -> bool {
    a.eq_ignore_ascii_case(b)
}

/// Parses a directory file's bytes into entries.
///
/// Damaged tails are tolerated (the Scavenger reads directories that may be
/// scrambled): parsing stops at the first malformed entry.
pub fn parse_entries(bytes: &[u8]) -> Vec<DirEntry> {
    let words = bytes_to_words(bytes);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < words.len() {
        let len = words[i] as usize;
        if len == 0 || i + len > words.len() || len < 6 {
            break;
        }
        let serial = SerialNumber::from_words([words[i + 1], words[i + 2]]);
        let version = words[i + 3];
        let da = DiskAddress(words[i + 4]);
        let name_len = words[i + 5] as usize;
        if name_len > MAX_LEADER_NAME || 6 + name_len.div_ceil(2) > len {
            break;
        }
        let mut name_bytes = Vec::with_capacity(name_len);
        for k in 0..name_len {
            let w = words[i + 6 + k / 2];
            name_bytes.push(if k % 2 == 0 { (w >> 8) as u8 } else { w as u8 });
        }
        match String::from_utf8(name_bytes) {
            Ok(name) => out.push(DirEntry {
                name,
                file: FileFullName::new(Fv::new(serial, version), da),
            }),
            Err(_) => break,
        }
        i += len;
    }
    out
}

/// Encodes entries into directory file bytes.
pub fn encode_entries(entries: &[DirEntry]) -> Vec<u8> {
    let mut words: Vec<u16> = Vec::new();
    for e in entries {
        let name_bytes = e.name.as_bytes();
        let name_words = name_bytes.len().div_ceil(2);
        words.push((6 + name_words) as u16);
        let s = e.file.fv.serial.words();
        words.push(s[0]);
        words.push(s[1]);
        words.push(e.file.fv.version);
        words.push(e.file.leader_da.0);
        words.push(name_bytes.len() as u16);
        for chunk in name_bytes.chunks(2) {
            let hi = (chunk[0] as u16) << 8;
            let lo = chunk.get(1).map_or(0, |&b| b as u16);
            words.push(hi | lo);
        }
    }
    words.push(0); // terminator
    words_to_bytes(&words)
}

fn require_directory(dir: FileFullName) -> Result<(), FsError> {
    if dir.is_directory() {
        Ok(())
    } else {
        Err(FsError::NotADirectory(dir.fv))
    }
}

/// Lists the entries of `dir`. Served from the in-core name index while a
/// fresh snapshot exists (see [`crate::cache`]); a full scan otherwise,
/// which installs the snapshot for next time.
pub fn list<D: Disk>(fs: &mut FileSystem<D>, dir: FileFullName) -> Result<Vec<DirEntry>, FsError> {
    require_directory(dir)?;
    if let Some(entries) = fs.cached_dir_entries(dir) {
        return Ok(entries);
    }
    let entries = parse_entries(&fs.read_file(dir)?);
    fs.install_dir_snapshot(dir, &entries);
    Ok(entries)
}

/// Looks up `name` in `dir` (case-insensitive).
///
/// Warm path: answered from the name index, each positive hit verified
/// against the target's leader label (§3.6). Cold path with the cache
/// enabled: one full scan that builds the index. Cold path with the cache
/// disabled (the ablation): an incremental scan that stops reading the
/// directory file at the first match.
pub fn lookup<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    name: &str,
) -> Result<Option<FileFullName>, FsError> {
    require_directory(dir)?;
    if fs.hint_cache_enabled() {
        if let CacheLookup::Hit(found) = fs.cached_lookup(dir, name) {
            return Ok(found);
        }
        // No usable snapshot: pay for one full scan, which installs the
        // index, and answer from what it read.
        return Ok(list(fs, dir)?
            .into_iter()
            .find(|e| names_equal(&e.name, name))
            .map(|e| e.file));
    }
    scan_for_name(fs, dir, name)
}

/// Finds the entry for `fv` in `dir` (the hint ladder's rung 2). Warm
/// through the same index as [`list`].
pub fn lookup_fv<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    fv: Fv,
) -> Result<Option<FileFullName>, FsError> {
    Ok(list(fs, dir)?
        .into_iter()
        .find(|e| e.file.fv == fv)
        .map(|e| e.file))
}

/// Scans `dir` one page at a time, stopping at the first entry matching
/// `name` — the uncached cold path never reads past the match.
fn scan_for_name<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    name: &str,
) -> Result<Option<FileFullName>, FsError> {
    let (leader_label, _) = fs.open_leader(dir)?;
    if leader_label.next.is_nil() {
        return Ok(None);
    }
    let mut bytes = Vec::new();
    let mut found = None;
    let page1 = PageName::new(dir.fv, 1, leader_label.next);
    // The walk stops at the match, or at a page whose length is bad, which
    // is the error.
    let (_, last, _) = page::follow(fs.disk_mut(), page1, |_, label, data| {
        let Ok(len) = data_length(label) else {
            return true;
        };
        bytes.extend_from_slice(&unpack_bytes(data)[..len]);
        // Parse what has arrived so far; an entry cut off at the page
        // boundary looks malformed, stops the parse, and is retried whole
        // when the next page's bytes land.
        found = parse_entries(&bytes)
            .into_iter()
            .find(|e| names_equal(&e.name, name))
            .map(|e| e.file);
        found.is_some()
    })?;
    data_length(&last)?;
    Ok(found)
}

/// Inserts (or replaces) the entry `name -> file` in `dir`.
pub fn insert<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    name: &str,
    file: FileFullName,
) -> Result<(), FsError> {
    if name.len() > MAX_LEADER_NAME {
        return Err(FsError::NameTooLong(name.len()));
    }
    let mut entries = list(fs, dir)?;
    entries.retain(|e| !names_equal(&e.name, name));
    entries.push(DirEntry {
        name: name.to_string(),
        file,
    });
    fs.write_file(dir, &encode_entries(&entries))?;
    fs.dir_rewritten(dir, entries);
    Ok(())
}

/// Removes the entry for `name` from `dir`, returning the file it named.
pub fn remove<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    name: &str,
) -> Result<Option<FileFullName>, FsError> {
    let mut entries = list(fs, dir)?;
    let mut removed = None;
    entries.retain(|e| {
        if removed.is_none() && names_equal(&e.name, name) {
            removed = Some(e.file);
            false
        } else {
            true
        }
    });
    if removed.is_some() {
        fs.write_file(dir, &encode_entries(&entries))?;
        fs.dir_rewritten(dir, entries);
    }
    Ok(removed)
}

/// Creates a new file named `name`, entering it in `dir`.
pub fn create_named_file<D: Disk>(
    fs: &mut FileSystem<D>,
    dir: FileFullName,
    name: &str,
) -> Result<FileFullName, FsError> {
    require_directory(dir)?;
    let file = fs.create_file(name)?;
    insert(fs, dir, name, file)?;
    Ok(file)
}

/// Creates a new sub-directory named `name`, entering it in `parent`.
pub fn create_directory<D: Disk>(
    fs: &mut FileSystem<D>,
    parent: FileFullName,
    name: &str,
) -> Result<FileFullName, FsError> {
    require_directory(parent)?;
    let dir = fs.create_directory_file(name)?;
    fs.write_file(dir, &encode_entries(&[]))?;
    fs.dir_rewritten(dir, Vec::new());
    insert(fs, parent, name, dir)?;
    Ok(dir)
}

/// Resolves a `/`-separated path of directory names from `start`.
pub fn resolve_path<D: Disk>(
    fs: &mut FileSystem<D>,
    start: FileFullName,
    path: &str,
) -> Result<FileFullName, FsError> {
    let mut current = start;
    for component in path.split('/').filter(|c| !c.is_empty()) {
        current = lookup(fs, current, component)?
            .ok_or_else(|| FsError::NameNotFound(component.to_string()))?;
    }
    Ok(current)
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
    fn entry_encoding_round_trip() {
        let entries = vec![
            DirEntry {
                name: "a".into(),
                file: FileFullName::new(
                    Fv::new(SerialNumber::new(0x20, false), 1),
                    DiskAddress(100),
                ),
            },
            DirEntry {
                name: "longer-name.txt".into(),
                file: FileFullName::new(
                    Fv::new(SerialNumber::new(0x21, true), 2),
                    DiskAddress(200),
                ),
            },
        ];
        assert_eq!(parse_entries(&encode_entries(&entries)), entries);
        assert_eq!(parse_entries(&encode_entries(&[])), vec![]);
    }

    #[test]
    fn parse_tolerates_garbage_tail() {
        let entries = vec![DirEntry {
            name: "ok".into(),
            file: FileFullName::new(Fv::new(SerialNumber::new(0x20, false), 1), DiskAddress(5)),
        }];
        let mut bytes = encode_entries(&entries);
        // Replace the terminator with a nonsense length and garbage.
        let n = bytes.len();
        bytes[n - 2] = 0xFF;
        bytes[n - 1] = 0xFF;
        bytes.extend_from_slice(&[0xAB; 6]);
        let parsed = parse_entries(&bytes);
        assert_eq!(parsed, entries);
    }

    #[test]
    fn root_dir_lists_the_well_known_files() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let entries = list(&mut fs, root).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["SysDir", "DiskDescriptor"]);
        // SysDir points at itself: the directory graph is already cyclic.
        assert_eq!(entries[0].file, root);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = create_named_file(&mut fs, root, "memo.txt").unwrap();
        assert_eq!(lookup(&mut fs, root, "memo.txt").unwrap(), Some(f));
        // Case-insensitive, as on the Alto.
        assert_eq!(lookup(&mut fs, root, "MEMO.TXT").unwrap(), Some(f));
        assert_eq!(lookup(&mut fs, root, "other").unwrap(), None);
        assert_eq!(remove(&mut fs, root, "Memo.Txt").unwrap(), Some(f));
        assert_eq!(lookup(&mut fs, root, "memo.txt").unwrap(), None);
        assert_eq!(remove(&mut fs, root, "memo.txt").unwrap(), None);
    }

    #[test]
    fn insert_replaces_same_name() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let a = fs.create_file("v1").unwrap();
        let b = fs.create_file("v2").unwrap();
        insert(&mut fs, root, "thing", a).unwrap();
        insert(&mut fs, root, "thing", b).unwrap();
        assert_eq!(lookup(&mut fs, root, "thing").unwrap(), Some(b));
        let thing_entries = list(&mut fs, root)
            .unwrap()
            .into_iter()
            .filter(|e| e.name == "thing")
            .count();
        assert_eq!(thing_entries, 1);
    }

    #[test]
    fn a_file_may_appear_in_many_directories() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let sub1 = create_directory(&mut fs, root, "one").unwrap();
        let sub2 = create_directory(&mut fs, root, "two").unwrap();
        let f = fs.create_file("shared").unwrap();
        insert(&mut fs, sub1, "shared", f).unwrap();
        insert(&mut fs, sub2, "alias", f).unwrap();
        assert_eq!(lookup(&mut fs, sub1, "shared").unwrap(), Some(f));
        assert_eq!(lookup(&mut fs, sub2, "alias").unwrap(), Some(f));
    }

    #[test]
    fn directory_graphs_may_contain_cycles() {
        // "it is possible to have a tree, or indeed an arbitrary directed
        // graph, of directories."
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let sub = create_directory(&mut fs, root, "sub").unwrap();
        insert(&mut fs, sub, "up", root).unwrap();
        let back = resolve_path(&mut fs, root, "sub/up/sub/up").unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn resolve_path_components() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let a = create_directory(&mut fs, root, "a").unwrap();
        let b = create_directory(&mut fs, a, "b").unwrap();
        let f = create_named_file(&mut fs, b, "deep.txt").unwrap();
        assert_eq!(resolve_path(&mut fs, root, "a/b/deep.txt").unwrap(), f);
        assert!(matches!(
            resolve_path(&mut fs, root, "a/missing/x"),
            Err(FsError::NameNotFound(_))
        ));
    }

    #[test]
    fn non_directory_is_rejected() {
        let mut fs = fresh_fs();
        let f = fs.create_file("plain").unwrap();
        assert!(matches!(list(&mut fs, f), Err(FsError::NotADirectory(_))));
        assert!(matches!(
            create_named_file(&mut fs, f, "x"),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn many_entries_span_pages() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = fs.create_file("target").unwrap();
        for i in 0..100 {
            insert(&mut fs, root, &format!("file-{i:03}"), f).unwrap();
        }
        let entries = list(&mut fs, root).unwrap();
        assert_eq!(entries.len(), 102); // 100 + the two well-known entries
        assert_eq!(lookup(&mut fs, root, "file-099").unwrap(), Some(f));
        // The directory file itself is several pages long now.
        assert!(fs.file_length(root).unwrap() > 1024);
    }

    #[test]
    fn overlong_name_rejected() {
        let mut fs = fresh_fs();
        let root = fs.root_dir();
        let f = fs.create_file("x").unwrap();
        assert!(matches!(
            insert(&mut fs, root, &"n".repeat(40), f),
            Err(FsError::NameTooLong(40))
        ));
    }
}
