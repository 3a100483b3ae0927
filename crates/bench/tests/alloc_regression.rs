//! Allocation regression test: the steady-state batch read/write paths
//! must not touch the heap at all.
//!
//! The wall-clock bench (`--bin wall`) *reports* allocs/op; this test
//! *pins* the property so a regression fails CI instead of quietly showing
//! up as a worse number in `BENCH_wall.json`. A counting global allocator
//! wraps `System`, the drive is warmed until the free list and every owned
//! scratch vector has its steady-state capacity, and then whole batches are
//! issued with the allocation counter watched across each path.

use alto_disk::{
    pool, BatchRequest, Disk, DiskAddress, DiskDrive, DiskModel, SectorBuf, SectorOp, WriteSource,
};
use alto_fs::dir;
use alto_net::server::{PAGE_SERVICE_SOCKET, READ_REQUEST};
use alto_net::{ClientConfig, ClientFleet, Ether, Packet, PageServer};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, Trace};
use alto_streams::{DiskByteStream, Stream};

// Counts heap allocations: the counter every phase below watches.
#[path = "../src/alloc_count.rs"]
mod alloc_count;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

use alloc_count::allocs;

const BATCH: u16 = 256;
const ROUNDS: usize = 32;

/// One test function on purpose: the allocation counter is process-global,
/// so concurrently running test threads would blame each other's
/// allocations. Each phase asserts independently with its own counter
/// window.
#[test]
fn pooled_steady_state_paths_allocate_nothing() {
    let trace = Trace::new();
    trace.set_enabled(false);
    let mut drive =
        DiskDrive::with_formatted_pack(SimClock::new(), trace.clone(), DiskModel::Diablo31, 1);

    // Caller-side steady state: one request vector reused across rounds, as
    // the fs and write-behind layers do.
    let mut reads: Vec<BatchRequest> = (0..BATCH)
        .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::READ_ALL, SectorBuf::zeroed()))
        .collect();
    let mut writes: Vec<BatchRequest> = (0..BATCH)
        .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::WRITE, SectorBuf::zeroed()))
        .collect();
    let das: Vec<DiskAddress> = (0..BATCH).map(DiskAddress).collect();

    // Warm-up: grows the drive's planning scratch and the thread-local
    // result-vector free list to steady-state capacity.
    for _ in 0..4 {
        pool::recycle_results(drive.do_batch(&mut reads));
        pool::recycle_results(drive.do_batch(&mut writes));
        pool::recycle_results(drive.do_batch_read(&das, |_, _| {}));
    }

    // Buffered batch reads: zero heap traffic per op.
    let before = allocs();
    for _ in 0..ROUNDS {
        let results = drive.do_batch(&mut reads);
        assert!(results.iter().all(Result::is_ok));
        pool::recycle_results(results);
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state buffered batch reads allocated"
    );

    // Batch writes (full §3.3 check-before-write semantics): zero as well.
    let before = allocs();
    for _ in 0..ROUNDS {
        let results = drive.do_batch(&mut writes);
        assert!(results.iter().all(Result::is_ok));
        pool::recycle_results(results);
    }
    assert_eq!(allocs() - before, 0, "steady-state batch writes allocated");

    // Zero-copy batch reads, with a visitor that actually touches the data.
    let mut checksum = 0u16;
    let before = allocs();
    for _ in 0..ROUNDS {
        let results = drive.do_batch_read(&das, |_, view| {
            for &w in view.data() {
                checksum ^= w;
            }
        });
        assert!(results.iter().all(Result::is_ok));
        pool::recycle_results(results);
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state zero-copy batch reads allocated"
    );
    std::hint::black_box(checksum);

    // Batch writes from borrowed sources, through the trait's staged
    // `do_batch_write` (one `do_batch` of pooled requests), with a visitor
    // that reads the captured label back.
    let data = [0u16; alto_disk::DATA_WORDS];
    for _ in 0..4 {
        pool::recycle_results(drive.do_batch_write(
            &das,
            |_| WriteSource {
                header: [0; 2],
                label: [0; 7],
                data: &data,
            },
            |_, _| {},
        ));
    }
    let before = allocs();
    for _ in 0..ROUNDS {
        let results = drive.do_batch_write(
            &das,
            |_| WriteSource {
                header: [0; 2],
                label: [0; 7],
                data: &data,
            },
            |_, view| {
                checksum ^= view.label().words()[0];
            },
        );
        assert!(results.iter().all(Result::is_ok));
        pool::recycle_results(results);
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state staged do_batch_write batches allocated"
    );
    std::hint::black_box(checksum);

    // Stream steady state: sequential overwrite and sequential read of a
    // 16-page file through a held-open stream, cursor rewound between
    // rounds. This covers the whole stack above the drive — write-behind
    // parks and drains (the zero-copy write path), readahead refills, label
    // verification — plus the stream's own working vectors. Every call
    // spans all 16 pages: a read's refill reads the 15 pages after the
    // first in one chain, not the 4-page floor, and a write sends its
    // pages in one chain without reading the ones it overwrites whole.
    // Opening a stream is
    // excluded: the leader cache hands back an owned copy of the leader
    // (its name is a `String`), and the stream's vectors start empty,
    // which are per-open costs, not per-page ones.
    let mut fs = alto_bench::fresh_fs(DiskModel::Diablo31);
    fs.disk().trace().set_enabled(false);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "steady.dat").expect("create");
    let bytes = vec![0x5Au8; 16 * 512];
    fs.write_file(f, &bytes).expect("write");
    let mut back = vec![0u8; 16 * 512];

    // The rewind between rounds is excluded too: seeking backward re-opens
    // the leader, and after a write batch the epoch-gated leader cache
    // rightly re-reads and re-installs it (decoding the name). Only the
    // transfer windows themselves are pinned.
    let mut s = DiskByteStream::open(&mut fs, f).expect("open");
    for _ in 0..4 {
        s.write_bytes(&mut fs, &bytes).expect("warm write");
        s.set_position(&mut fs, 0).expect("warm rewind");
    }
    let prefetched = fs.disk().stats().readahead_prefetched;
    let (drains, parked) = {
        let io = fs.disk().io_stats();
        (io.wb_drains, io.wb_coalesced)
    };
    let mut spent = 0;
    for _ in 0..ROUNDS {
        let before = allocs();
        s.write_bytes(&mut fs, &bytes).expect("stream write");
        spent += allocs() - before;
        s.set_position(&mut fs, 0).expect("rewind");
    }
    assert_eq!(spent, 0, "steady-state stream writes allocated");
    assert_eq!(
        fs.disk().stats().readahead_prefetched - prefetched,
        0,
        "a write read ahead of pages it overwrites whole"
    );
    // One chain per call: page 1, parked at the first crossing, and pages
    // 2..16, overwritten whole at guessed addresses, the hinted last page
    // among them. Nothing is read, nothing is left parked for a drain at
    // the end of the call, and the rewind has no dirty page to flush.
    let io = fs.disk().io_stats();
    assert_eq!(
        (io.wb_drains - drains, io.wb_coalesced - parked),
        (ROUNDS as u64, 16 * ROUNDS as u64),
        "a write did not send its pages in one chain"
    );

    for _ in 0..4 {
        let n = s.read_bytes(&mut fs, &mut back).expect("warm read");
        assert_eq!(n, bytes.len());
        s.set_position(&mut fs, 0).expect("warm rewind");
    }
    let prefetched = fs.disk().stats().readahead_prefetched;
    let mut spent = 0;
    for _ in 0..ROUNDS {
        let before = allocs();
        let n = s.read_bytes(&mut fs, &mut back).expect("stream read");
        assert_eq!(n, bytes.len());
        spent += allocs() - before;
        s.set_position(&mut fs, 0).expect("rewind");
    }
    assert_eq!(spent, 0, "steady-state stream reads allocated");
    assert_eq!(
        fs.disk().stats().readahead_prefetched - prefetched,
        14 * ROUNDS as u64,
        "a read's refill did not reach the end of its call"
    );
    s.close(&mut fs).expect("close");
    drop(s);

    // Fault-campaign steady state: whole-file rewrites under a 1-in-1000
    // transient fault rate. The retry path must not allocate either — its
    // backoff bookkeeping is stack state and its trace formatting is lazy
    // (gated off here), and the write path's leader read-modify-write moves
    // cache entries instead of cloning them.
    let mut cfs = alto_bench::fresh_fs(DiskModel::Diablo31);
    cfs.disk().trace().set_enabled(false);
    let root = cfs.root_dir();
    let cf = dir::create_named_file(&mut cfs, root, "campaign.dat").expect("create");
    let cbytes = vec![0xC3u8; 20 * 512];
    cfs.write_file(cf, &cbytes).expect("first write");
    // A much hotter fault rate than the wall bench's 1e-3: a handful of
    // faults fire in *every* measured round, so a single allocation
    // anywhere on the retry path fails loudly instead of flaking in.
    cfs.disk_mut().injector_mut().set_campaign(0xFA17, 1, 100);
    // The injector's armed-fault tables allocate on their first insert —
    // a one-time cost, not a per-fault one. Arm and disarm one fault on
    // each matcher so both tables hold their capacity before measuring.
    let inj = cfs.disk_mut().injector_mut();
    inj.arm(
        DiskAddress(0),
        alto_disk::FaultKind::NotReady { attempts: 1 },
    );
    inj.arm_read(
        DiskAddress(0),
        alto_disk::FaultKind::SoftRead { attempts: 1 },
    );
    inj.disarm(DiskAddress(0));
    for _ in 0..4 {
        cfs.write_file(cf, &cbytes).expect("warm campaign write");
    }
    let fired_before = cfs.disk_mut().injector_mut().fired_count();
    let before = allocs();
    for _ in 0..ROUNDS {
        cfs.write_file(cf, &cbytes).expect("campaign write");
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state campaign rewrites allocated"
    );
    assert!(
        cfs.disk_mut().injector_mut().fired_count() > fired_before,
        "campaign fired no faults — the retry path was not measured"
    );

    // Page-server hot path: requests arriving over the ether, batched
    // through `FsPageService`'s address-sorted zero-copy read, replies
    // assembled on the ether's recycled payloads. Once sessions exist and
    // every spare and scratch vector has its capacity, a full
    // request/serve/reply/drain round must not touch the heap at all —
    // this is the bench harness's "allocs/request" pinned to its
    // steady-state floor.
    let sclock = SimClock::new();
    let strace = Trace::new();
    strace.set_enabled(false);
    let sdrive =
        DiskDrive::with_formatted_pack(sclock.clone(), strace.clone(), DiskModel::Trident, 1);
    let mut sfs = alto_fs::FileSystem::format(sdrive).expect("format");
    let sroot = sfs.root_dir();
    let sf = dir::create_named_file(&mut sfs, sroot, "served.dat").expect("create");
    sfs.write_file(sf, &vec![0x7Eu8; 16 * 512]).expect("write");
    let mut ether = Ether::new(sclock.clone(), strace);
    ether.attach(1).expect("server host");
    let mut server = PageServer::new(1);
    let mut service = FsPageService::new(&mut sfs);
    let cfg = ClientConfig::new(1, PAGE_SERVICE_SOCKET);
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, 4, |_| "served.dat".to_string()).expect("fleet");
    // Drive the scripted fleet to completion: opens the sessions and grows
    // every buffer. Afterwards, hand-rolled request rounds on the now-warm
    // sessions measure the steady state.
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
    }
    let client_host = 2u8; // first fleet host: its session (socket 0x100) is open
    let mut drained: Vec<(SimTime, Packet)> = Vec::new();
    let mut round = |measured: bool| {
        let before = allocs();
        for page in 1..=16u16 {
            let mut payload = ether.words();
            payload.extend_from_slice(&[0, page]); // handle 0 in the open session
            ether
                .send(Packet {
                    ptype: READ_REQUEST,
                    dst_host: 1,
                    src_host: client_host,
                    dst_socket: PAGE_SERVICE_SOCKET,
                    src_socket: alto_net::client::FLEET_SOCKET_BASE,
                    seq: page,
                    payload,
                })
                .expect("send");
        }
        ether.idle_wait(SimTime::from_millis(5));
        server.tick(&mut ether, &mut service).expect("server tick");
        ether.idle_wait(SimTime::from_millis(30));
        ether
            .drain_arrived(client_host, &mut drained)
            .expect("drain");
        let got = drained.len();
        for (_, pkt) in drained.drain(..) {
            ether.recycle(pkt.payload);
        }
        assert_eq!(got, 16, "not every page reply arrived");
        if measured {
            assert_eq!(allocs() - before, 0, "server hot path allocated");
        }
    };
    for _ in 0..4 {
        round(false);
    }
    for _ in 0..ROUNDS {
        round(true);
    }
}
