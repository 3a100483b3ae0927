//! Model-based testing: randomized operation sequences against a trivial
//! in-memory model. After every operation — including crashes, scavenges
//! and compactions — the file system must agree with the model exactly.
//! Driven by the in-tree deterministic PRNG so the suite runs offline.
//!
//! Writes come both through `write_file` and through a disk stream (one
//! bulk `write_bytes`, then `close`): the stream's writes are the file
//! system's own verified data writes, which keep the hint cache, so the
//! cached answers are checked after them too.

use alto::prelude::*;
use alto::sim::SplitMix64;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Write(usize, Vec<u8>),
    /// A stream rewrite from byte 0: at the file's own length when the
    /// flag is set, else at the length of the bytes given.
    StreamWrite(usize, Vec<u8>, bool),
    Delete(usize),
    Rename(usize, usize),
    Scavenge,
    CrashAndScavenge,
    Compact,
}

const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Files never grow past this many bytes.
const MAX_LEN: usize = 2000;

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u16() as u8).collect()
}

fn random_op(rng: &mut SplitMix64) -> Op {
    // Weights: 3 create, 4 write, 2 stream write, 2 delete, 1 rename,
    // 1 scavenge, 1 crash+scavenge, 1 compact (total 15).
    match rng.next_below(15) {
        0..=2 => Op::Create(rng.next_below(NAMES.len() as u64) as usize),
        3..=6 => {
            let i = rng.next_below(NAMES.len() as u64) as usize;
            let len = rng.next_below(MAX_LEN as u64) as usize;
            Op::Write(i, random_bytes(rng, len))
        }
        7..=8 => {
            let i = rng.next_below(NAMES.len() as u64) as usize;
            let same_length = rng.next_below(2) == 0;
            let len = rng.next_below(MAX_LEN as u64) as usize;
            // A same-length rewrite takes a prefix as long as the file.
            let len = if same_length { MAX_LEN } else { len };
            Op::StreamWrite(i, random_bytes(rng, len), same_length)
        }
        9..=10 => Op::Delete(rng.next_below(NAMES.len() as u64) as usize),
        11 => Op::Rename(
            rng.next_below(NAMES.len() as u64) as usize,
            rng.next_below(NAMES.len() as u64) as usize,
        ),
        12 => Op::Scavenge,
        13 => Op::CrashAndScavenge,
        _ => Op::Compact,
    }
}

fn check_agreement(fs: &mut FileSystem<DiskDrive>, model: &BTreeMap<String, Vec<u8>>) {
    let root = fs.root_dir();
    // First pass builds the name index (cold), second pass hits it (warm);
    // every cached answer must then agree with a fresh uncached scan.
    let cold: Vec<_> = NAMES
        .iter()
        .map(|name| dir::lookup(fs, root, name).unwrap())
        .collect();
    let warm: Vec<_> = NAMES
        .iter()
        .map(|name| dir::lookup(fs, root, name).unwrap())
        .collect();
    fs.set_hint_cache_enabled(false);
    let uncached: Vec<_> = NAMES
        .iter()
        .map(|name| dir::lookup(fs, root, name).unwrap())
        .collect();
    fs.set_hint_cache_enabled(true);
    for (i, name) in NAMES.iter().enumerate() {
        assert_eq!(
            cold[i], uncached[i],
            "{name}: cold cached lookup disagrees with uncached scan"
        );
        assert_eq!(
            warm[i], uncached[i],
            "{name}: warm cached lookup disagrees with uncached scan"
        );
        match model.get(*name) {
            Some(want) => {
                let f = warm[i].unwrap_or_else(|| panic!("{name} missing from the file system"));
                let got = fs.read_file(f).unwrap();
                assert_eq!(&got, want, "{name} contents differ");
            }
            None => {
                assert!(warm[i].is_none(), "{name} should not exist");
            }
        }
    }
}

#[test]
fn file_system_matches_the_model() {
    let mut rng = SplitMix64::new(0x0DE11);
    for _case in 0..24 {
        let clock = SimClock::new();
        let drive =
            DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
        let mut fs = FileSystem::format(drive).unwrap();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();

        let ops = 1 + rng.next_below(24);
        for _ in 0..ops {
            match random_op(&mut rng) {
                Op::Create(i) => {
                    let name = NAMES[i];
                    let root = fs.root_dir();
                    if model.contains_key(name) {
                        continue;
                    }
                    dir::create_named_file(&mut fs, root, name).unwrap();
                    model.insert(name.to_string(), Vec::new());
                }
                Op::Write(i, bytes) => {
                    let name = NAMES[i];
                    if !model.contains_key(name) {
                        continue;
                    }
                    let root = fs.root_dir();
                    let f = dir::lookup(&mut fs, root, name).unwrap().unwrap();
                    fs.write_file(f, &bytes).unwrap();
                    model.insert(name.to_string(), bytes);
                }
                Op::StreamWrite(i, bytes, same_length) => {
                    let name = NAMES[i];
                    let Some(old) = model.get(name) else {
                        continue;
                    };
                    let new = if same_length {
                        &bytes[..old.len()]
                    } else {
                        &bytes[..]
                    };
                    let root = fs.root_dir();
                    let f = dir::lookup(&mut fs, root, name).unwrap().unwrap();
                    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
                    s.write_bytes(&mut fs, new).unwrap();
                    s.close(&mut fs).unwrap();
                    // A stream overwrites from byte 0 and never truncates.
                    let mut contents = new.to_vec();
                    contents.extend_from_slice(old.get(new.len()..).unwrap_or_default());
                    model.insert(name.to_string(), contents);
                }
                Op::Delete(i) => {
                    let name = NAMES[i];
                    if !model.contains_key(name) {
                        continue;
                    }
                    let root = fs.root_dir();
                    let f = dir::remove(&mut fs, root, name).unwrap().unwrap();
                    fs.delete_file(f).unwrap();
                    model.remove(name);
                }
                Op::Rename(a, b) => {
                    let (from, to) = (NAMES[a], NAMES[b]);
                    if !model.contains_key(from) || model.contains_key(to) || a == b {
                        continue;
                    }
                    let root = fs.root_dir();
                    let f = dir::remove(&mut fs, root, from).unwrap().unwrap();
                    dir::insert(&mut fs, root, to, f).unwrap();
                    let v = model.remove(from).unwrap();
                    model.insert(to.to_string(), v);
                }
                Op::Scavenge => {
                    let disk = fs.unmount().unwrap();
                    let (fs2, _) = Scavenger::rebuild(disk).unwrap();
                    fs = fs2;
                }
                Op::CrashAndScavenge => {
                    let disk = fs.crash();
                    let (fs2, _) = Scavenger::rebuild(disk).unwrap();
                    fs = fs2;
                }
                Op::Compact => {
                    Compactor::run(&mut fs).unwrap();
                }
            }
            check_agreement(&mut fs, &model);
        }

        // Final invariant: the allocation map agrees with the labels for
        // every free page (no lost pages after any of this).
        let disk = fs.unmount().unwrap();
        let (fs, report) = Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.headless_pages_freed, 0);
        assert_eq!(report.duplicate_pages_freed, 0);
        let mut fs = fs;
        check_agreement(&mut fs, &model);
    }
}
