//! End-to-end page-server tests (§5.2): a fleet of scripted diskless
//! clients against `PageServer` + `FsPageService` over the shared ether.
//!
//! Covers the tentpole wiring (batched cross-client service, zero-copy
//! replies) plus the loss-recovery requirement: a run under packet loss
//! must serve byte-for-byte what the lossless run serves, recovered
//! entirely by client retransmission against the idempotent server.

use alto_disk::{Disk, DiskDrive, DiskModel, FaultKind, DATA_WORDS};
use alto_fs::file::PAGE_BYTES;
use alto_fs::{dir, FileSystem, PageName};
use alto_net::ether::WORD_TIME;
use alto_net::packet::HEADER_WORDS;
use alto_net::server::{
    encode_name, OpenInfo, PageRequest, PageStore, ERR_REPLY, OPEN_REQUEST, PAGE_SERVICE_SOCKET,
    READ_REQUEST, STATUS_BAD_HANDLE, STATUS_BAD_PAGE, STATUS_IO,
};
use alto_net::{ClientConfig, ClientFleet, ClientPhase, Ether, Packet, PacketType, PageServer};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, Trace};

/// Deterministic content for file `f`: `pages` full-ish pages.
fn file_bytes(f: usize, pages: usize) -> Vec<u8> {
    let len = pages * PAGE_BYTES - 100; // short last page
    (0..len).map(|i| (i * 31 + f * 7) as u8).collect()
}

struct RunResult {
    digest: u64,
    served_words: u64,
    done: u64,
    failed: u64,
    retransmits: u64,
    served: u64,
    batches: u64,
    elapsed: SimTime,
    p99_samples: usize,
    /// Data sectors the drive read while the fleet ran.
    sectors_read: u64,
    /// The part of `sectors_read` the store's opens read.
    open_sectors: u64,
    /// Disk batches the store's serves ran.
    disk_batches: u64,
}

/// An [`FsPageService`] that tells apart what its opens cost the disk.
struct Metered<'a> {
    inner: FsPageService<'a, DiskDrive>,
    open_sectors: u64,
    open_batches: u64,
}

impl PageStore for Metered<'_> {
    fn open(&mut self, name: &str) -> Result<OpenInfo, u16> {
        let before = self.inner.fs().disk().io_stats();
        let info = self.inner.open(name);
        let after = self.inner.fs().disk().io_stats();
        self.open_sectors += after.sectors_read - before.sectors_read;
        self.open_batches += after.batches - before.batches;
        info
    }

    fn serve<F>(&mut self, reqs: &[PageRequest], failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        self.inner.serve(reqs, failed, deliver);
    }

    fn serve_one<F>(&mut self, req: PageRequest, failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        self.inner.serve_one(req, failed, deliver);
    }
}

/// Builds a disk with `files` files of `pages` pages each, then runs
/// `clients` scripted clients (window 8) to completion and returns what
/// they saw.
fn run(
    clients: usize,
    files: usize,
    pages: usize,
    loss: Option<(u64, u64, u64)>,
    batching: bool,
) -> RunResult {
    run_windowed(clients, files, pages, loss, batching, 8)
}

/// [`run`] with each client keeping `window` requests outstanding.
fn run_windowed(
    clients: usize,
    files: usize,
    pages: usize,
    loss: Option<(u64, u64, u64)>,
    batching: bool,
    window: usize,
) -> RunResult {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let drive = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Trident, 1);
    let mut fs = FileSystem::format(drive).expect("format");
    let root = fs.root_dir();
    let names: Vec<String> = (0..files).map(|f| format!("load{f}.dat")).collect();
    for (f, name) in names.iter().enumerate() {
        let file = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(file, &file_bytes(f, pages)).expect("write");
    }

    let mut ether = Ether::new(clock.clone(), trace);
    ether.attach(1).expect("server host");
    if let Some((num, denom, seed)) = loss {
        ether.set_loss(num, denom, seed);
    }
    let mut server = PageServer::new(1);
    server.set_batching_enabled(batching);
    let cfg = ClientConfig {
        window,
        ..ClientConfig::new(1, PAGE_SERVICE_SOCKET)
    };
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, clients, |i| names[i % files].clone()).expect("fleet");
    let mut service = Metered {
        inner: FsPageService::new(&mut fs),
        open_sectors: 0,
        open_batches: 0,
    };

    let start = clock.now();
    let before = service.inner.fs().disk().io_stats();
    let mut spins = 0u64;
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
        spins += 1;
        assert!(spins < 2_000_000, "run did not converge");
    }
    let stats = fleet.stats();
    let after = service.inner.fs().disk().io_stats();
    RunResult {
        digest: fleet.digest(),
        served_words: stats.served_words,
        done: stats.done,
        failed: stats.failed,
        retransmits: stats.retransmits,
        served: server.stats.served,
        batches: server.stats.batches,
        elapsed: clock.now().saturating_sub(start),
        p99_samples: fleet.samples.len(),
        sectors_read: after.sectors_read - before.sectors_read,
        open_sectors: service.open_sectors,
        disk_batches: after.batches - before.batches - service.open_batches,
    }
}

/// Page `page` (1-based) of `bytes` as the server sends it: the file's
/// bytes packed big-endian, zero-padded to a full sector.
fn page_words(bytes: &[u8], page: u16) -> Vec<u16> {
    let lo = (page as usize - 1) * PAGE_BYTES;
    let hi = (lo + PAGE_BYTES).min(bytes.len());
    let mut words = alto_fs::file::bytes_to_words(&bytes[lo..hi]);
    words.resize(PAGE_BYTES / 2, 0);
    words
}

#[test]
fn a_single_client_receives_exact_file_contents() {
    let r = run(1, 1, 3, None, true);
    assert_eq!(r.done, 1);
    assert_eq!(r.failed, 0);
    // The client folds every served word with the same commutative rule we
    // can apply to the file image directly: page data is the file's bytes
    // packed big-endian, zero-padded to a full sector.
    let bytes = file_bytes(0, 3);
    let mut expected = 0u64;
    for page in 1..=3u64 {
        for (i, &w) in page_words(&bytes, page as u16).iter().enumerate() {
            expected = expected.wrapping_add((page << 32) ^ ((i as u64) << 16) ^ w as u64);
        }
    }
    assert_eq!(r.digest, expected, "served data diverges from the file");
    assert_eq!(r.served_words, 3 * (PAGE_BYTES as u64 / 2));
}

#[test]
fn a_fleet_is_served_completely_and_batched() {
    let r = run(64, 4, 4, None, true);
    assert_eq!(r.done, 64);
    assert_eq!(r.failed, 0);
    assert_eq!(r.served, 64 * 4);
    assert_eq!(r.p99_samples, 64 * 4);
    // Batching must actually coalesce: far fewer store batches than pages.
    assert!(
        r.batches * 4 < r.served,
        "only {} served across {} batches",
        r.served,
        r.batches
    );
}

#[test]
fn a_sequential_reader_is_served_from_the_readahead_window() {
    // One client at window 1 pages through a 40-page file. Its first
    // request reads page 1 and the 16 after it in one chain; pages 2..17
    // then go out from memory, and the misses at pages 18 and 35 read the
    // rest: 3 disk batches, not one per page.
    let r = run_windowed(1, 1, 40, None, true, 1);
    assert_eq!((r.done, r.failed), (1, 0));
    let bytes = file_bytes(0, 40);
    let mut expected = 0u64;
    for page in 1..=40u64 {
        for (i, &w) in page_words(&bytes, page as u16).iter().enumerate() {
            expected = expected.wrapping_add((page << 32) ^ ((i as u64) << 16) ^ w as u64);
        }
    }
    assert_eq!(r.digest, expected, "served data diverges from the file");
    assert_eq!(r.served, 40);
    assert_eq!(
        r.sectors_read - r.open_sectors,
        40,
        "every page is read exactly once"
    );
    assert_eq!(r.disk_batches, 3);
}

#[test]
fn naive_ablation_serves_identical_bytes_but_slower() {
    let batched = run(48, 3, 3, None, true);
    let naive = run(48, 3, 3, None, false);
    assert_eq!(naive.done, 48);
    assert_eq!(
        naive.digest, batched.digest,
        "ablation changed served bytes"
    );
    assert_eq!(naive.served_words, batched.served_words);
    // One store batch per request in the ablation, so one read each and
    // nothing read ahead; the batched server reads each page its 16
    // clients share far fewer times (both also read what their opens
    // read).
    assert_eq!(naive.batches, naive.served);
    assert_eq!(naive.sectors_read, naive.served + naive.open_sectors);
    assert!(
        batched.sectors_read * 2 < naive.sectors_read,
        "batched read {} sectors, naive {}",
        batched.sectors_read,
        naive.sectors_read
    );
    // And the whole point: batching is strictly faster in simulated time.
    assert!(
        batched.elapsed < naive.elapsed,
        "batched {:?} not faster than naive {:?}",
        batched.elapsed,
        naive.elapsed
    );
}

#[test]
fn packet_loss_recovers_with_zero_served_byte_divergence() {
    let lossless = run(32, 4, 4, None, true);
    // 1-in-6 loss hits both requests and replies (the ether drops either
    // direction); the client cannot tell which was lost and just
    // retransmits — the server's idempotence makes that safe.
    let lossy = run(32, 4, 4, Some((1, 6, 0xA17E)), true);
    assert_eq!(lossy.done, 32);
    assert_eq!(lossy.failed, 0);
    assert!(
        lossy.retransmits > 0,
        "loss run saw no retransmissions — loss not exercised"
    );
    assert_eq!(
        lossy.digest, lossless.digest,
        "served bytes diverged under loss"
    );
    assert_eq!(lossy.served_words, lossless.served_words);
}

#[test]
fn unknown_files_fail_the_client_cleanly() {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let drive =
        DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).expect("format");
    let mut ether = Ether::new(clock.clone(), trace);
    ether.attach(1).expect("server host");
    let mut server = PageServer::new(1);
    let cfg = ClientConfig::new(1, PAGE_SERVICE_SOCKET);
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, 1, |_| "ghost.dat".to_string()).expect("fleet");
    let mut service = FsPageService::new(&mut fs);
    let mut spins = 0u64;
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
        spins += 1;
        assert!(spins < 100_000);
    }
    assert_eq!(fleet.client(0).phase(), ClientPhase::Failed);
    assert_eq!(server.stats.errors, 1);
}

/// A formatted Diablo31 holding `files` files of `pages` pages, named
/// `dup{f}.dat`, and their contents.
fn shared_fs(files: usize, pages: usize) -> (FileSystem<DiskDrive>, Vec<Vec<u8>>) {
    let (mut fs, _) = small_fs("dup0.dat", pages);
    let root = fs.root_dir();
    for f in 1..files {
        let file = dir::create_named_file(&mut fs, root, &format!("dup{f}.dat")).expect("create");
        fs.write_file(file, &file_bytes(f, pages)).expect("write");
    }
    let contents = (0..files)
        .map(|f| {
            let file = dir::lookup(&mut fs, root, &format!("dup{f}.dat"))
                .expect("lookup")
                .expect("exists");
            fs.read_file(file).expect("read back")
        })
        .collect();
    (fs, contents)
}

#[test]
fn duplicate_requests_read_each_distinct_page_once() {
    const FILES: usize = 3;
    const PAGES: u16 = 4;
    const CLIENTS: usize = 10;
    let (mut fs, contents) = shared_fs(FILES, PAGES as usize);
    let mut service = FsPageService::new(&mut fs);
    let infos: Vec<_> = (0..FILES)
        .map(|f| service.open(&format!("dup{f}.dat")).expect("open"))
        .collect();
    // Ten clients each ask for every page of every file, interleaved as
    // they would arrive: one tick, 120 requests, 12 distinct pages.
    let mut want = Vec::new();
    for _ in 0..CLIENTS {
        for (f, info) in infos.iter().enumerate() {
            for page in 1..=PAGES {
                want.push((f, page, info.open_id));
            }
        }
    }
    let reqs: Vec<PageRequest> = want
        .iter()
        .enumerate()
        .map(|(tag, &(_, page, open_id))| PageRequest {
            open_id,
            page,
            tag: tag as u32,
        })
        .collect();
    let read0 = service.fs().disk().io_stats().sectors_read;
    let mut got: Vec<Option<Vec<u16>>> = vec![None; reqs.len()];
    let mut failed = Vec::new();
    service.serve(&reqs, &mut failed, |tag, data| {
        assert!(got[tag as usize].is_none(), "tag {tag} delivered twice");
        got[tag as usize] = Some(data.to_vec());
    });
    assert!(failed.is_empty(), "{failed:?}");
    let read = service.fs().disk().io_stats().sectors_read - read0;
    assert_eq!(
        read,
        FILES as u64 * u64::from(PAGES),
        "one read per distinct page"
    );
    assert_eq!(service.fast_served, reqs.len() as u64);
    assert_eq!(service.slow_served, 0);
    // Every requester got the page's bytes as `read_file` sees them.
    for (tag, &(f, page, _)) in want.iter().enumerate() {
        assert_eq!(
            got[tag].as_deref(),
            Some(&page_words(&contents[f], page)[..]),
            "client of file {f} page {page}"
        );
    }
}

/// `frag.dat` grown from 2 to 4 pages after `wall.dat` took the sectors
/// behind it, so its pages 3 and 4 are not where the consecutive guesses
/// put them; and the grown file's bytes.
fn frag_fs() -> (FileSystem<DiskDrive>, Vec<u8>) {
    let (mut fs, _) = small_fs("frag.dat", 2);
    let root = fs.root_dir();
    let wall = dir::create_named_file(&mut fs, root, "wall.dat").expect("create");
    fs.write_file(wall, &file_bytes(1, 2)).expect("write");
    let frag = dir::lookup(&mut fs, root, "frag.dat")
        .expect("lookup")
        .expect("exists");
    let bytes = file_bytes(2, 4);
    fs.write_file(frag, &bytes).expect("grow");
    (fs, bytes)
}

#[test]
fn a_stale_hint_shared_by_duplicates_costs_one_chain_walk() {
    // Page 3 of `frag.dat` is not where the consecutive guess puts it: the
    // hint is stale, the label check fails, and only a walk from the
    // leader finds the page.
    let serve = |copies: u32| -> (u64, u64, u64) {
        let (mut fs, bytes) = frag_fs();
        let mut service = FsPageService::new(&mut fs);
        let info = service.open("frag.dat").expect("open");
        let reqs: Vec<PageRequest> = (0..copies)
            .map(|tag| PageRequest {
                open_id: info.open_id,
                page: 3,
                tag,
            })
            .collect();
        let read0 = service.fs().disk().io_stats().sectors_read;
        let mut delivered = 0u32;
        let mut failed = Vec::new();
        service.serve(&reqs, &mut failed, |_, data| {
            delivered += 1;
            assert_eq!(&data[..], &page_words(&bytes, 3)[..]);
        });
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(delivered, copies);
        let read = service.fs().disk().io_stats().sectors_read - read0;
        (read, service.fast_served, service.slow_served)
    };
    let (alone, fast, slow) = serve(1);
    assert_eq!((fast, slow), (0, 1), "the hint was not stale");
    let (shared, fast, slow) = serve(5);
    assert_eq!((fast, slow), (0, 5));
    assert_eq!(
        shared, alone,
        "five requesters cost more than one chain walk"
    );

    // A request for page 2 reads pages 3 and 4 ahead at their stale
    // guesses. Both fail their checks, so neither is held, and neither
    // costs a chain walk. Page 2's label teaches page 3's real address,
    // and page 4's guess, which continued page 3's, moves with it: the
    // later request for page 3 reads the right bytes there, and its chain
    // reads page 4 ahead at the right address and holds it.
    let (mut fs, bytes) = frag_fs();
    let mut service = FsPageService::new(&mut fs);
    let info = service.open("frag.dat").expect("open");
    let mut read = |page: u16| {
        let before = service.fs().disk().io_stats().sectors_read;
        let req = PageRequest {
            open_id: info.open_id,
            page,
            tag: 0,
        };
        let mut got = None;
        let mut failed = Vec::new();
        service.serve(&[req], &mut failed, |_, data| got = Some(data.to_vec()));
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(got.as_deref(), Some(&page_words(&bytes, page)[..]));
        let read = service.fs().disk().io_stats().sectors_read - before;
        (read, service.fast_served, service.slow_served)
    };
    assert_eq!(read(2), (3, 1, 0), "page 2 and the guesses for 3 and 4");
    assert_eq!(read(3), (2, 2, 0), "page 3 and the guess for 4");
    assert_eq!(read(4), (0, 3, 0), "page 4, held by page 3's chain");
}

#[test]
fn a_transient_on_a_page_read_ahead_is_not_retried() {
    // A soft read error armed on page 3 fires while page 1's request
    // reads pages 2..6 ahead. The guess is not retried: page 3 is simply
    // not held, the chain goes on past it, and a later request for page
    // 3 reads it from the disk.
    let (mut fs, _) = small_fs("soft.dat", 6);
    let bytes = file_bytes(0, 6);
    let root = fs.root_dir();
    let file = dir::lookup(&mut fs, root, "soft.dat")
        .expect("lookup")
        .expect("exists");
    let (leader, _) = fs.open_leader(file).expect("leader");
    let (page1, _) = fs
        .read_page(PageName::new(file.fv, 1, leader.next))
        .expect("page 1");
    let (page2, _) = fs
        .read_page(PageName::new(file.fv, 2, page1.next))
        .expect("page 2");
    fs.disk_mut()
        .injector_mut()
        .arm_read(page2.next, FaultKind::SoftRead { attempts: 1 });
    let mut service = FsPageService::new(&mut fs);
    let info = service.open("soft.dat").expect("open");
    let retries = service.fs().disk().io_stats().retries;
    let mut got: Vec<Option<Vec<u16>>> = vec![None; 7];
    for page in 1..=6u16 {
        let before = service.fs().disk().io_stats().sectors_read;
        let req = PageRequest {
            open_id: info.open_id,
            page,
            tag: u32::from(page),
        };
        let mut failed = Vec::new();
        service.serve(&[req], &mut failed, |tag, data| {
            got[tag as usize] = Some(data.to_vec());
        });
        assert!(failed.is_empty(), "page {page}: {failed:?}");
        let read = service.fs().disk().io_stats().sectors_read - before;
        let expected = match page {
            1 => 6, // page 1 and the five after it
            3 => 1, // the page the transient left out
            _ => 0,
        };
        assert_eq!(read, expected, "sectors read for page {page}");
        assert_eq!(
            service.fs().disk().io_stats().retries,
            retries,
            "a guess was retried"
        );
    }
    for page in 1..=6u16 {
        assert_eq!(
            got[usize::from(page)].as_deref(),
            Some(&page_words(&bytes, page)[..]),
            "page {page}"
        );
    }
    assert_eq!((service.fast_served, service.slow_served), (6, 0));
}

#[test]
fn a_re_open_reads_no_sector() {
    let (mut fs, _) = small_fs("again.dat", 5);
    let mut service = FsPageService::new(&mut fs);
    let first = service.open("again.dat").expect("open");
    let before = service.fs().disk().io_stats();
    let again = service.open("again.dat").expect("re-open");
    let after = service.fs().disk().io_stats();
    assert_eq!(after.ops, before.ops, "the re-open touched the disk");
    assert_eq!(
        (again.open_id, again.pages, again.last_len),
        (first.open_id, first.pages, first.last_len)
    );
    assert_eq!((again.pages, again.last_len), (5, PAGE_BYTES as u16 - 100));
}

/// A formatted Diablo31 with one `pages`-page file named `name`.
fn small_fs(name: &str, pages: usize) -> (FileSystem<DiskDrive>, SimClock) {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let drive = DiskDrive::with_formatted_pack(clock.clone(), trace, DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).expect("format");
    let root = fs.root_dir();
    let file = dir::create_named_file(&mut fs, root, name).expect("create");
    fs.write_file(file, &file_bytes(0, pages)).expect("write");
    (fs, clock)
}

#[test]
fn an_open_refuses_a_last_page_longer_than_a_page() {
    // A smashed length word passes the §3.3 check, which matches only the
    // absolutes. The open measures the file and answers an I/O status,
    // rather than advertising a page the file does not have.
    let (mut fs, _clock) = small_fs("smashed.dat", 3);
    let root = fs.root_dir();
    let file = dir::lookup(&mut fs, root, "smashed.dat")
        .expect("lookup")
        .expect("exists");
    let last_da = fs.read_leader(file).expect("leader").last_da;
    let pack = fs.disk_mut().pack_mut().expect("pack");
    pack.sector_mut(last_da).expect("sector").label[4] = 600;
    let mut service = FsPageService::new(&mut fs);
    assert_eq!(service.open("smashed.dat").map(|_| ()), Err(STATUS_IO));
}

#[test]
fn hostile_page_requests_fail_with_statuses_not_panics() {
    let (mut fs, _clock) = small_fs("victim.dat", 4);
    let mut service = FsPageService::new(&mut fs);
    let info = service.open("victim.dat").expect("open");
    let reqs = [
        // Forged open id.
        PageRequest {
            open_id: info.open_id + 99,
            page: 1,
            tag: 0,
        },
        // Page 0 is the leader — never served.
        PageRequest {
            open_id: info.open_id,
            page: 0,
            tag: 1,
        },
        // Far past the end of the file.
        PageRequest {
            open_id: info.open_id,
            page: 9999,
            tag: 2,
        },
        // A well-formed request riding in the same hostile batch.
        PageRequest {
            open_id: info.open_id,
            page: 1,
            tag: 3,
        },
    ];
    let mut failed = Vec::new();
    let mut delivered = Vec::new();
    service.serve(&reqs, &mut failed, |tag, _| delivered.push(tag));
    failed.sort_unstable();
    assert_eq!(
        failed,
        vec![
            (0, STATUS_BAD_HANDLE),
            (1, STATUS_BAD_PAGE),
            (2, STATUS_BAD_PAGE)
        ]
    );
    assert_eq!(delivered, vec![3]);
}

#[test]
fn two_sector_loop_fails_the_request_instead_of_hanging() {
    let (mut fs, clock) = small_fs("loop.dat", 4);
    let root = fs.root_dir();
    let file = dir::lookup(&mut fs, root, "loop.dat")
        .expect("lookup")
        .expect("exists");
    // Find the on-disk addresses of data pages 1 and 2 from the labels.
    let (leader_label, _) = fs.open_leader(file).expect("leader");
    let da1 = leader_label.next;
    let (l1, _) = fs.read_page(PageName::new(file.fv, 1, da1)).expect("p1");
    let da2 = l1.next;
    // Tie page 2's next back to page 1: a two-sector loop mid-chain.
    let mut drive = fs.crash();
    {
        let pack = drive.pack_mut().expect("pack");
        let sector = pack.sector_mut(da2).expect("sector");
        let mut label = sector.decoded_label();
        label.next = da1;
        sector.label = label.encode();
    }
    let mut fs = FileSystem::mount(drive).expect("mount");
    let mut service = FsPageService::new(&mut fs);
    let start = clock.now();
    // Opening sizes the file by walking to its last page; on the looped
    // chain that must surface a status (bounded walk), not spin. If some
    // future sizing path tolerates the loop, serving past it must fail
    // per-request the same way.
    if let Ok(info) = service.open("loop.dat") {
        let reqs = [PageRequest {
            open_id: info.open_id,
            page: info.pages,
            tag: 0,
        }];
        let mut failed = Vec::new();
        let mut delivered = 0u32;
        service.serve(&reqs, &mut failed, |_, _| delivered += 1);
        assert_eq!(failed.len() as u32 + delivered, 1);
    }
    // The §3.3 checks make every bounded walk cheap; anything past a few
    // simulated seconds would mean the walk was not bounded at all.
    let elapsed = clock.now().saturating_sub(start);
    assert!(elapsed < SimTime::from_secs(60), "walk took {elapsed:?}");
}

/// Sends a raw request from host 2, socket 0o100, to the page server on
/// host 1.
fn send_request(ether: &mut Ether, ptype: PacketType, payload: Vec<u16>, seq: u16) {
    let pkt = Packet {
        ptype,
        dst_host: 1,
        src_host: 2,
        dst_socket: PAGE_SERVICE_SOCKET,
        src_socket: 0o100,
        seq,
        payload,
    };
    ether.send(pkt).expect("send");
}

#[test]
fn malformed_open_and_read_packets_get_error_replies() {
    let (mut fs, clock) = small_fs("served.dat", 2);
    let trace = Trace::new();
    trace.set_enabled(false);
    let mut ether = Ether::new(clock, trace);
    ether.attach(1).expect("server host");
    ether.attach(2).expect("client host");
    let mut server = PageServer::new(1);
    let mut service = FsPageService::new(&mut fs);

    // A valid open first, so bad reads below have a session to land in.
    let mut name = Vec::new();
    encode_name("served.dat", &mut name);
    send_request(&mut ether, OPEN_REQUEST, name, 0);
    // Hostile opens: empty payload, declared length past the words
    // supplied, invalid UTF-8 in the name bytes.
    send_request(&mut ether, OPEN_REQUEST, vec![], 1);
    send_request(&mut ether, OPEN_REQUEST, vec![500, 0x4141], 2);
    send_request(&mut ether, OPEN_REQUEST, vec![2, 0xFFFE], 3);
    // Hostile reads: mis-sized payload, forged handle, page 0, page past
    // the end of the open file.
    send_request(&mut ether, READ_REQUEST, vec![0, 1, 2], 4);
    send_request(&mut ether, READ_REQUEST, vec![77, 1], 5);
    send_request(&mut ether, READ_REQUEST, vec![0, 0], 6);
    send_request(&mut ether, READ_REQUEST, vec![0, 999], 7);

    for _ in 0..8 {
        server.tick(&mut ether, &mut service).expect("tick");
        ether.idle_wait(SimTime::from_millis(1));
    }
    assert_eq!(server.stats.errors, 7);
    // Every hostile request was answered with ERR_REPLY — the client is
    // told, not timed out.
    let mut errs = 0;
    while let Some(pkt) = ether.receive(2, 0o100).expect("recv") {
        if pkt.ptype == ERR_REPLY {
            errs += 1;
        }
    }
    assert_eq!(errs, 7);
}

/// Disk and wire work at the same time: a tick that sends held pages and
/// runs a chain lasts as long as the longer of the two, not their sum.
#[test]
fn a_tick_lasts_max_of_disk_and_wire_not_their_sum() {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let drive = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Trident, 1);
    let mut fs = FileSystem::format(drive).expect("format");
    let root = fs.root_dir();
    for (f, name) in ["a.dat", "b.dat"].into_iter().enumerate() {
        let file = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(file, &file_bytes(f, 40)).expect("write");
    }
    let mut ether = Ether::new(clock.clone(), trace);
    ether.attach(1).expect("server host");
    ether.attach(2).expect("client host");
    let mut server = PageServer::new(1);
    let mut service = FsPageService::new(&mut fs);
    let drain = |ether: &mut Ether| {
        let mut replies = 0;
        while ether.receive(2, 0o100).expect("recv").is_some() {
            replies += 1;
        }
        replies
    };

    // Open both files (handles 0 and 1), then read `a.dat` page 1: its
    // chain also reads pages 2–17 into the window.
    for (seq, name) in ["a.dat", "b.dat"].into_iter().enumerate() {
        let mut payload = Vec::new();
        encode_name(name, &mut payload);
        send_request(&mut ether, OPEN_REQUEST, payload, seq as u16);
    }
    server.tick(&mut ether, &mut service).expect("tick");
    send_request(&mut ether, READ_REQUEST, vec![0, 1], 2);
    server.tick(&mut ether, &mut service).expect("tick");
    assert_eq!(drain(&mut ether), 3);

    // One tick: eight held pages of `a.dat` and a miss on `b.dat`.
    for page in 2..=9 {
        send_request(&mut ether, READ_REQUEST, vec![0, page], 2 + page);
    }
    send_request(&mut ether, READ_REQUEST, vec![1, 1], 12);
    let start = clock.now();
    let busy = service.fs().disk().stats().busy_time();
    server.tick(&mut ether, &mut service).expect("tick");
    let elapsed = clock.now() - start;
    let disk = service.fs().disk().stats().busy_time() - busy;
    // A page reply's wire image: header, the page and the checksum.
    let wire = WORD_TIME.scaled((HEADER_WORDS + DATA_WORDS + 1) as u64);
    assert_eq!(drain(&mut ether), 9);
    assert_eq!(server.stats.served, 10);
    assert!(disk > SimTime::ZERO, "the miss on b.dat ran no chain");
    assert!(
        elapsed >= disk,
        "tick {elapsed} ended before its chain ({disk})"
    );
    assert!(
        elapsed >= wire.scaled(9),
        "tick {elapsed} ended before its nine replies left the wire"
    );
    assert!(
        elapsed < disk + wire.scaled(8),
        "tick {elapsed} = chain {disk} plus the held replies' wire time: \
         the replies waited for each other instead of for the wire"
    );
}
