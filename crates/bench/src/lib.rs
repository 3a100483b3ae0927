//! Shared workload builders for the experiments and tests.
//!
//! Every experiment (E1–E10, see `DESIGN.md`) builds its workload through
//! these helpers so the `experiments` binary and the timing tests measure
//! exactly the same code paths.

#![forbid(unsafe_code)]

pub mod determinism;

use alto_disk::{DiskDrive, DiskModel};
use alto_fs::names::FileFullName;
use alto_fs::{dir, FileSystem};
use alto_sim::{SimClock, SplitMix64, Trace};

/// A freshly formatted file system on the given model.
pub fn fresh_fs(model: DiskModel) -> FileSystem<DiskDrive> {
    let clock = SimClock::new();
    let drive = DiskDrive::with_formatted_pack(clock, Trace::new(), model, 1);
    FileSystem::format(drive).expect("format")
}

/// Creates a file of `pages` data pages, written in one go (which lays it
/// out near-consecutively on a fresh disk).
pub fn consecutive_file(fs: &mut FileSystem<DiskDrive>, name: &str, pages: usize) -> FileFullName {
    let root = fs.root_dir();
    let f = dir::create_named_file(fs, root, name).expect("create");
    fs.write_file(f, &vec![0xA5u8; pages * 512]).expect("write");
    f
}

/// Builds a badly fragmented population: `files` files grown one page at a
/// time in shuffled round-robin order, so consecutive pages of one file
/// are roughly `files` sectors apart on the disk.
pub fn fragmented_fs(
    files: usize,
    pages_each: usize,
    seed: u64,
) -> (FileSystem<DiskDrive>, Vec<String>) {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let mut names = Vec::new();
    for i in 0..files {
        let name = format!("frag-{i:02}.dat");
        dir::create_named_file(&mut fs, root, &name).expect("create");
        names.push(name);
    }
    let mut rng = SplitMix64::new(seed);
    let mut sizes = vec![0usize; files];
    for _ in 0..pages_each {
        let mut order: Vec<usize> = (0..files).collect();
        rng.shuffle(&mut order);
        for f in order {
            sizes[f] += 1;
            let file = dir::lookup(&mut fs, root, &names[f]).unwrap().unwrap();
            fs.write_file(file, &vec![f as u8; sizes[f] * 512 - 1])
                .expect("grow");
        }
    }
    (fs, names)
}

/// Relocates every data page of `file` to a uniformly random free sector —
/// the worst-case scatter a disk can reach after months of editing. Links,
/// leader hints and the allocation map are kept consistent (this is the
/// inverse of the compacting scavenger).
pub fn scatter_file(fs: &mut FileSystem<DiskDrive>, file: FileFullName, seed: u64) {
    use alto_disk::DiskAddress;
    use alto_fs::names::PageName;

    // Collect the whole chain.
    let mut pages = Vec::new();
    let mut pn = file.leader_page();
    loop {
        let (label, data) = fs.read_page(pn).expect("read chain");
        pages.push((pn.page, pn.da, label, data));
        if label.next.is_nil() {
            break;
        }
        pn = PageName::new(file.fv, pn.page + 1, label.next);
    }
    // Free the data pages (the leader stays, so the file's full name holds).
    for (page, da, ..) in pages.iter().skip(1) {
        fs.free_page(PageName::new(file.fv, *page, *da))
            .expect("free");
    }
    // Pick random free homes for pages 1..n.
    let mut rng = SplitMix64::new(seed);
    let total = fs.descriptor().bitmap.len() as u64;
    let mut new_das: Vec<DiskAddress> = Vec::new();
    for _ in 1..pages.len() {
        loop {
            let cand = DiskAddress(rng.next_below(total) as u16);
            if !fs.descriptor().bitmap.is_busy(cand) && !new_das.contains(&cand) {
                new_das.push(cand);
                break;
            }
        }
    }
    // Re-create each page at its new home with the new links.
    for i in 1..pages.len() {
        let (page_no, _, mut label, data) = pages[i];
        label.prev = if i == 1 {
            file.leader_da
        } else {
            new_das[i - 2]
        };
        label.next = new_das.get(i).copied().unwrap_or(DiskAddress::NIL);
        fs.descriptor_mut().bitmap.set_busy(new_das[i - 1]);
        alto_fs::page::allocate_at(fs.disk_mut(), new_das[i - 1], label, &data)
            .expect("re-place page");
        let _ = page_no;
    }
    // Fix the leader's next link and hints.
    let (mut leader_label, leader_data) = fs.read_page(file.leader_page()).expect("leader");
    leader_label.next = new_das[0];
    alto_fs::page::rewrite_label(
        fs.disk_mut(),
        file.leader_page(),
        leader_label,
        &leader_data,
    )
    .expect("leader link");
    let mut leader = alto_fs::LeaderPage::decode(&leader_data);
    leader.last_page = pages.last().unwrap().0;
    leader.last_da = *new_das.last().unwrap();
    leader.maybe_consecutive = false;
    fs.write_page(file.leader_page(), &leader.encode())
        .expect("leader hints");
}

/// Fills roughly `percent` of the disk with files of mixed sizes.
pub fn filled_fs(percent: u32, seed: u64) -> FileSystem<DiskDrive> {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let total = fs.descriptor().bitmap.len();
    let target_busy = total * percent / 100;
    let mut rng = SplitMix64::new(seed);
    let mut i = 0;
    while total - fs.descriptor().bitmap.free_count() < target_busy {
        let pages = (rng.next_below(24) + 1) as usize;
        let name = format!("fill-{i:04}.dat");
        let f = dir::create_named_file(&mut fs, root, &name).expect("create");
        fs.write_file(f, &vec![(i % 251) as u8; pages * 512 - 7])
            .expect("write");
        i += 1;
    }
    fs
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::DiskAddress;
    use alto_fs::names::PageName;

    #[test]
    fn fragmented_fs_really_scatters() {
        let (mut fs, names) = fragmented_fs(6, 4, 1);
        // Measure the average gap between consecutive pages of one file.
        let root = fs.root_dir();
        let f = dir::lookup(&mut fs, root, &names[0]).unwrap().unwrap();
        let (leader, _) = fs.read_page(f.leader_page()).unwrap();
        let mut da: DiskAddress = leader.next;
        let mut page = 1;
        let mut gaps = Vec::new();
        loop {
            let (label, _) = fs.read_page(PageName::new(f.fv, page, da)).unwrap();
            if label.next.is_nil() {
                break;
            }
            gaps.push((label.next.0 as i32 - da.0 as i32).unsigned_abs());
            da = label.next;
            page += 1;
        }
        let avg = gaps.iter().sum::<u32>() as f64 / gaps.len() as f64;
        assert!(avg > 3.0, "average gap {avg} too small to call fragmented");
    }

    #[test]
    fn filled_fs_hits_target() {
        let fs = filled_fs(30, 2);
        let total = fs.descriptor().bitmap.len();
        let busy = total - fs.descriptor().bitmap.free_count();
        let pct = busy * 100 / total;
        assert!((28..=40).contains(&pct), "fill landed at {pct}%");
    }

    #[test]
    fn consecutive_file_is_consecutive() {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        let f = consecutive_file(&mut fs, "c.dat", 20);
        let leader = fs.read_leader(f).unwrap();
        assert!(leader.last_page == 20);
    }

    #[test]
    fn scatter_preserves_contents_and_scavenges_clean() {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        let f = consecutive_file(&mut fs, "s.dat", 25);
        let before = fs.read_file(f).unwrap();
        scatter_file(&mut fs, f, 3);
        assert_eq!(fs.read_file(f).unwrap(), before);
        // The scattered layout is structurally perfect.
        let disk = fs.unmount().unwrap();
        let (mut fs, report) = alto_fs::Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.links_repaired, 0);
        assert_eq!(report.orphans_adopted, 0);
        let root = fs.root_dir();
        let g = dir::lookup(&mut fs, root, "s.dat").unwrap().unwrap();
        assert_eq!(fs.read_file(g).unwrap(), before);
    }
}
