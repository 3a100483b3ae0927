//! The diskless configuration (§5.2).
//!
//! "The display, keyboard, and storage-allocation packages have been
//! assembled to form an operating system for use without a disk, used to
//! support diagnostics or other programs that depend on network
//! communications rather than on local disk storage."
//!
//! [`DisklessOs`] is that assembly: the same level structure, stubs and
//! type-ahead machinery as [`AltoOs`], but with no disk and therefore no
//! file levels — the disk, stream and directory services (levels 5, 6, 8,
//! 9) simply are not resident, and the trap interface says so. Programs
//! arrive over the ether from a [`BootServer`] running on a machine that
//! does have a disk.

use std::collections::{BTreeMap, BTreeSet};

use alto_disk::{Disk, DiskAddress, Label, DATA_WORDS};
use alto_fs::file::PAGE_BYTES;
use alto_fs::page::follow;
use alto_fs::{dir, FileFullName, FileSystem, FsError, PageName};
use alto_machine::{CodeFile, Machine, MachineError, Step};
use alto_net::server::{
    OpenInfo, PageRequest, PageStore, STATUS_BAD_HANDLE, STATUS_BAD_PAGE, STATUS_IO,
    STATUS_NO_SUCH_FILE,
};
use alto_net::{receive_file, Ether, HostId, Packet, PacketType, ProtoError};

use crate::errors::OsError;
use crate::levels::LevelTable;
use crate::loader::ProgramExit;
use crate::os::AltoOs;
use crate::symbols::SymbolTable;
use crate::syscalls::{SysCall, NONE_VALUE};
use crate::typeahead::TypeAhead;

/// Packet type for "send me this program" requests.
pub const BOOT_REQUEST: PacketType = PacketType::Other(10);
/// The well-known boot-server socket.
pub const BOOT_SOCKET: u16 = 0o44;

/// The diskless operating system: display, keyboard, storage allocation —
/// no disk.
#[derive(Debug)]
pub struct DisklessOs {
    /// The simulated Alto.
    pub machine: Machine,
    levels: LevelTable,
    /// Which levels this configuration includes.
    resident: BTreeSet<u8>,
    typeahead: TypeAhead,
    symbols: SymbolTable,
}

impl DisklessOs {
    /// Assembles the diskless system: levels 1–4, 7 (zones), 10–13 —
    /// everything except the disk object, disk streams and directories.
    pub fn new(mut machine: Machine) -> DisklessOs {
        let levels = LevelTable::new();
        let symbols = SymbolTable::install(&mut machine.mem, &levels);
        let l2 = levels.level(2).expect("level 2 exists");
        let typeahead = TypeAhead::init(&mut machine.mem, l2.base, l2.words);
        let resident: BTreeSet<u8> = [1u8, 2, 3, 4, 7, 10, 11, 12, 13].into_iter().collect();
        DisklessOs {
            machine,
            levels,
            resident,
            typeahead,
            symbols,
        }
    }

    /// True if a level is part of this configuration.
    pub fn is_resident(&self, level: u8) -> bool {
        self.resident.contains(&level)
    }

    /// The memory layout (identical to the full system's, so programs and
    /// stubs are binary-compatible across configurations).
    pub fn levels(&self) -> &LevelTable {
        &self.levels
    }

    /// Drains struck keys into the type-ahead buffer.
    pub fn service_keyboard(&mut self) {
        let now = self.machine.clock().now();
        while let Some(key) = self.machine.keyboard.read_at(now) {
            self.typeahead.push(&mut self.machine.mem, key);
        }
    }

    /// Reads one buffered character.
    pub fn get_char(&mut self) -> Option<u8> {
        self.service_keyboard();
        self.typeahead.pop(&mut self.machine.mem).map(|k| k as u8)
    }

    /// Serves the diskless subset of the system calls.
    pub fn handle_syscall(&mut self, code: u16, _ac: u8) -> Result<(), OsError> {
        let call = SysCall::from_code(code)?;
        if !self.is_resident(call.level()) {
            return Err(OsError::ServiceNotResident {
                call: call.symbol(),
                level: call.level(),
            });
        }
        match call {
            SysCall::PutChar => {
                let c = self.machine.ac[0] as u8;
                self.machine.display.put_char(c as char);
            }
            SysCall::GetChar => {
                self.machine.ac[0] = self.get_char().map_or(NONE_VALUE, u16::from);
            }
            SysCall::Ticks => {
                self.machine.ac[0] = self.machine.clock().now().as_millis() as u16;
            }
            // Junta/CounterJunta/OutLoad/InLoad *are* in resident levels
            // (1 and 12), but they are disk operations: without a disk
            // there is nowhere to put a world.
            other => {
                return Err(OsError::ServiceNotResident {
                    call: other.symbol(),
                    level: other.level(),
                })
            }
        }
        Ok(())
    }

    /// Steps the machine until it halts, serving the diskless services.
    pub fn run_machine(&mut self, mut budget: u64) -> Result<(), OsError> {
        loop {
            if budget == 0 {
                return Err(OsError::Machine(MachineError::BudgetExhausted));
            }
            budget -= 1;
            match self.machine.step().map_err(OsError::Machine)? {
                Step::Running => {}
                Step::Halted => return Ok(()),
                Step::Interrupt => self.service_keyboard(),
                Step::Trap { code, ac } => self.handle_syscall(code, ac)?,
            }
        }
    }

    /// Loads a code file (arrived over the wire) and binds its fixups.
    pub fn load_code(&mut self, code: &CodeFile) -> Result<u16, OsError> {
        let end = code.base as u32 + code.code.len() as u32;
        if end > self.levels.resident_base() as u32 {
            return Err(OsError::Machine(MachineError::BadImage(
                "program overlaps the resident system",
            )));
        }
        let mut image = code.code.clone();
        for fixup in &code.fixups {
            image[fixup.offset as usize] = self.symbols.resolve(&fixup.symbol)?;
        }
        self.machine
            .mem
            .write_block(code.base, &image)
            .map_err(|_| OsError::Machine(MachineError::BadImage("program does not fit")))?;
        self.machine.pc = code.entry;
        Ok(code.entry)
    }

    /// Boots a program over the network: sends a request to the boot
    /// server, receives the code file, loads and runs it.
    ///
    /// The server end is driven by [`BootServer::serve`]; in this
    /// single-threaded simulation the caller passes the server so the two
    /// ends can interleave on the shared ether.
    pub fn netboot<D: Disk>(
        &mut self,
        ether: &mut Ether,
        my_host: HostId,
        server: &mut BootServer<'_, D>,
        name: &str,
        budget: u64,
    ) -> Result<ProgramExit, OsError> {
        // The request: program name, packed.
        let payload = alto_fs::file::bytes_to_words(name.as_bytes());
        let request = Packet {
            ptype: BOOT_REQUEST,
            dst_host: server.host,
            src_host: my_host,
            dst_socket: BOOT_SOCKET,
            src_socket: BOOT_SOCKET + 1,
            seq: 0,
            payload,
        };
        ether.send(request).map_err(|e| {
            OsError::Stream(alto_streams::StreamError::NotSupported({
                let _ = e;
                "network send failed"
            }))
        })?;
        let words = server
            .serve(ether)
            .map_err(|_| OsError::CommandNotFound(name.to_string()))?;
        let code = CodeFile::decode(&words)?;
        self.load_code(&code)?;
        let before = self.machine.instructions();
        self.run_machine(budget)?;
        Ok(ProgramExit {
            instructions: self.machine.instructions() - before,
        })
    }
}

/// The boot server: a machine *with* a disk serving code files by name.
#[derive(Debug)]
pub struct BootServer<'a, D: Disk> {
    os: &'a mut AltoOs<D>,
    /// The server's host address.
    pub host: HostId,
    /// Requests served.
    pub served: u64,
}

impl<'a, D: Disk> BootServer<'a, D> {
    /// Wraps a disk-full system as a boot server on `host`.
    pub fn new(os: &'a mut AltoOs<D>, host: HostId) -> BootServer<'a, D> {
        BootServer {
            os,
            host,
            served: 0,
        }
    }

    /// Polls for one request and serves it, returning the words delivered
    /// to the requester (the inline receiver of the shared-ether pump).
    pub fn serve(&mut self, ether: &mut Ether) -> Result<Vec<u16>, ProtoError> {
        let Some(request) = ether.receive(self.host, BOOT_SOCKET)? else {
            return Err(ProtoError::TooManyRetries { seq: 0 });
        };
        if request.ptype != BOOT_REQUEST {
            // A stray packet on the boot socket is not a boot request;
            // answering it with a file transfer would corrupt the protocol.
            return Err(ProtoError::TooManyRetries { seq: request.seq });
        }
        let name_bytes = alto_fs::file::words_to_bytes(&request.payload);
        let name = String::from_utf8_lossy(&name_bytes);
        let name = name.trim_end_matches('\0');
        let root = self.os.fs.root_dir();
        let file = alto_fs::dir::lookup(&mut self.os.fs, root, name)
            .ok()
            .flatten()
            .ok_or(ProtoError::TooManyRetries { seq: 0 })?;
        let bytes = self
            .os
            .fs
            .read_file(file)
            .map_err(|_| ProtoError::TooManyRetries { seq: 0 })?;
        let words = alto_fs::file::bytes_to_words(&bytes);
        self.served += 1;
        // Pump the transfer to the requester.
        receive_file(
            ether,
            self.host,
            request.src_host,
            request.src_socket,
            BOOT_SOCKET + 2,
            &words,
        )
    }
}

/// How many pages the service reads ahead of a file's highest requested
/// page: 16 pages, 8 KiB of core per served file. The depth is set by
/// memory, not by the disk: every page deeper saves more revolutions, but
/// the window is held for every file the server has open.
const READAHEAD_PAGES: u16 = 16;

/// One file held open on behalf of the fleet: its identity, its length,
/// the per-page disk-address hints the service has learned so far and
/// the pages it has read ahead.
#[derive(Debug)]
struct ServedFile {
    file: FileFullName,
    /// `hints[p - 1]` is the best-known address of data page `p`; seeded
    /// with consecutive guesses from the leader's `next` pointer (§3.6 —
    /// a wrong guess costs a check miss, never wrong data) and corrected
    /// from the labels every served batch captures.
    hints: Vec<DiskAddress>,
    /// The file's length in bytes, as the last measurement found it.
    length: u64,
    /// The disk's [`Disk::write_epoch`] when `length` was measured: the
    /// length is an in-core copy of disk state, good only while no write
    /// has reached the medium since.
    measured: u64,
    /// The highest page requested in the batch being served; 0 between
    /// batches.
    top: u16,
    window: Window,
}

impl ServedFile {
    /// Learns from page `page`'s verified label (the leader's, for page 0)
    /// that page `page + 1` sits at `next`. A link that corrects a guess
    /// takes along the hints that continued the stale one consecutively
    /// (`hints[page + j]` equal to the old hint plus `j`), so the next
    /// chain's guesses land past the seam. The run ends at the first hint
    /// that departs from it, as one a label taught usually does; one that
    /// only coincides with the run moves too, and its check miss sends
    /// the page to a chain walk, which relearns it. The last page the
    /// hints cover teaches nothing, and neither does a page past them (a
    /// file changed since it was measured).
    fn learn(&mut self, page: u16, next: DiskAddress) {
        let hints = self.hints.get_mut(usize::from(page)..);
        let Some((hint, after)) = hints.and_then(|h| h.split_first_mut()) else {
            return;
        };
        let old = std::mem::replace(hint, next);
        if old == next || next.is_nil() {
            return;
        }
        for (j, h) in (1..).zip(after) {
            if *h != DiskAddress(old.0.wrapping_add(j)) {
                break;
            }
            *h = DiskAddress(next.0.wrapping_add(j));
        }
    }

    /// What an open of this file answers.
    fn info(&self, open_id: u32) -> OpenInfo {
        let pages = self.length.div_ceil(PAGE_BYTES as u64).max(1) as u16;
        let last_len = (self.length - (pages as u64 - 1) * PAGE_BYTES as u64) as u16;
        OpenInfo {
            open_id,
            pages,
            last_len,
        }
    }
}

/// The pages read ahead of one file's sequential clients, held in core
/// so that a later request for one costs no disk command. The window
/// covers the pages `first..first + READAHEAD_PAGES`, and page `p` sits
/// in slot `p % READAHEAD_PAGES`, so moving the window keeps in place
/// the pages both positions cover. Like every in-core copy of disk state
/// (the hint cache, the stream's readahead), the copies stand only while
/// the disk's [`Disk::write_epoch`] stands still.
#[derive(Debug)]
struct Window {
    first: u16,
    /// Bit `p % READAHEAD_PAGES` is set while page `p` is held.
    held: u32,
    /// The same bit, set once a held page has been delivered: the prefetch
    /// was useful.
    used: u32,
    /// The write epoch the copies were made under.
    epoch: u64,
    /// The slots, allocated with the file's open record: in open order,
    /// beside the hints, a service that replaces another reuses its heap.
    /// Allocated at the first read-ahead, mid-serve, they fragment it
    /// (`serve_paging`'s peak RSS is about 0.2 MiB higher).
    pages: Vec<[u16; DATA_WORDS]>,
}

impl Window {
    fn new() -> Window {
        Window {
            first: 0,
            held: 0,
            used: 0,
            epoch: 0,
            pages: vec![[0; DATA_WORDS]; READAHEAD_PAGES.into()],
        }
    }

    fn bit(page: u16) -> u32 {
        1 << (page % READAHEAD_PAGES)
    }

    /// True if `page` is held.
    fn holds(&self, page: u16) -> bool {
        u32::from(page).wrapping_sub(u32::from(self.first)) < u32::from(READAHEAD_PAGES)
            && self.held & Self::bit(page) != 0
    }

    /// The held copy of `page`, if the disk has not been written since it
    /// was made, and whether this is its first delivery.
    fn get(&mut self, page: u16, epoch: u64) -> Option<(&[u16; DATA_WORDS], bool)> {
        if self.epoch != epoch || !self.holds(page) {
            return None;
        }
        let bit = Self::bit(page);
        let first_use = self.used & bit == 0;
        self.used |= bit;
        Some((&self.pages[usize::from(page % READAHEAD_PAGES)], first_use))
    }

    /// Moves the window to start at page `first`, keeping the held pages
    /// the new position still covers (none if the disk was written since
    /// they were read).
    fn move_to(&mut self, first: u16, epoch: u64) {
        if self.epoch != epoch {
            self.held = 0;
            self.epoch = epoch;
        }
        let mut held = 0;
        for page in (first..=u16::MAX).take(READAHEAD_PAGES.into()) {
            if self.holds(page) {
                held |= Self::bit(page);
            }
        }
        self.first = first;
        self.held = held;
        self.used &= held;
    }

    /// Holds a copy of `page`, which the window covers.
    fn hold(&mut self, page: u16, data: &[u16; DATA_WORDS]) {
        self.pages[usize::from(page % READAHEAD_PAGES)] = *data;
        self.held |= Self::bit(page);
        self.used &= !Self::bit(page);
    }
}

/// The disk end of the page server: an [`alto_net::PageStore`] over a real
/// [`FileSystem`]. Opens resolve through the directory and leader (with
/// the hint cache behind them); batches are sorted by hinted disk address
/// across *all* clients and issued through the zero-copy chained read
/// path, so requests landing on neighbouring sectors ride one command
/// chain regardless of which client asked. Requests that name the same
/// page (a boot storm's clients paging one image) are read once, and the
/// one lent sector is delivered to every requester. Pages whose hints went
/// stale fall back to a leader-chain walk, relearning the hints as they
/// go — one walk per distinct page, however many clients asked for it.
///
/// Clients read their files front to back, so the service reads ahead:
/// when a batch misses a file, the same chain also reads up to 16 pages
/// (8 KiB) after the file's highest requested page, at their hinted
/// addresses, and holds the ones whose labels verify. A
/// later request for a held page is delivered from memory at the start of
/// the next batch, with no disk command. A prefetched page that fails its
/// check is simply not held: it costs no chain walk and no retry.
#[derive(Debug)]
pub struct FsPageService<'a, D: Disk> {
    fs: &'a mut FileSystem<D>,
    opens: Vec<ServedFile>,
    by_name: BTreeMap<String, u32>,
    // Scratch, reused across serve calls.
    order: Vec<usize>,
    names: Vec<PageName>,
    /// The batch's distinct requested page names, in disk-address order,
    /// then the pages read ahead.
    distinct: Vec<PageName>,
    /// `order[groups[k]..groups[k + 1]]` are the requesters of
    /// `distinct[k]`.
    groups: Vec<usize>,
    /// The open id of each page read ahead, in `distinct` order.
    ahead: Vec<u32>,
    valid: Vec<PageRequest>,
    labels: Vec<Result<Label, FsError>>,
    /// Requests served through the batched fast path or from a readahead
    /// window.
    pub fast_served: u64,
    /// Requests that needed the chain-walk slow path (stale hints).
    pub slow_served: u64,
}

impl<'a, D: Disk> FsPageService<'a, D> {
    /// Wraps a mounted file system as a page store.
    pub fn new(fs: &'a mut FileSystem<D>) -> FsPageService<'a, D> {
        FsPageService {
            fs,
            opens: Vec::new(),
            by_name: BTreeMap::new(),
            order: Vec::new(),
            names: Vec::new(),
            distinct: Vec::new(),
            groups: Vec::new(),
            ahead: Vec::new(),
            valid: Vec::new(),
            labels: Vec::new(),
            fast_served: 0,
            slow_served: 0,
        }
    }

    /// The file system being served (its disk's counters show what a
    /// batch cost).
    pub fn fs(&self) -> &FileSystem<D> {
        self.fs
    }

    /// Reads page `page` by walking the leader chain from the front —
    /// the §3.6 recovery path when hints are wrong — relearning every
    /// hint on the way. Returns the page's data.
    fn chain_walk(&mut self, open_id: u32, page: u16) -> Result<[u16; DATA_WORDS], u16> {
        let open = self.opens.get(open_id as usize).ok_or(STATUS_BAD_HANDLE)?;
        if page == 0 {
            return Err(STATUS_BAD_PAGE);
        }
        let file = open.file;
        let (leader_label, _) = self.fs.open_leader(file).map_err(|_| STATUS_IO)?;
        let open = &mut self.opens[open_id as usize];
        open.learn(0, leader_label.next);
        let page1 = PageName::new(file.fv, 1, leader_label.next);
        let (pn, _, data) = follow(self.fs.disk_mut(), page1, |pn, label, _| {
            open.learn(pn.page, label.next);
            pn.page == page
        })
        .map_err(|_| STATUS_IO)?;
        if pn.page == page {
            Ok(data)
        } else {
            Err(STATUS_IO)
        }
    }

    /// Serves a batch of page reads; `read_ahead` says whether the batch
    /// uses the readahead windows, delivering held pages and reading
    /// ahead of the files it misses.
    fn serve_batch<F>(
        &mut self,
        reqs: &[PageRequest],
        read_ahead: bool,
        failed: &mut Vec<(u32, u16)>,
        mut deliver: F,
    ) where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        let epoch = self.fs.disk().write_epoch();
        // Refuse ill-formed requests up front — a forged open id or a page
        // number outside the open file (page 0 is the leader, never
        // served) must fail with a status, not index out of bounds.
        // Held pages go out at once, from memory; only the rest of the
        // well-formed requests enter the batch.
        let mut valid = std::mem::take(&mut self.valid);
        valid.clear();
        let mut hits = 0;
        for r in reqs {
            match self.opens.get_mut(r.open_id as usize) {
                None => failed.push((r.tag, STATUS_BAD_HANDLE)),
                Some(open) if r.page == 0 || r.page as usize > open.hints.len() => {
                    failed.push((r.tag, STATUS_BAD_PAGE));
                }
                Some(open) if read_ahead => {
                    open.top = open.top.max(r.page);
                    match open.window.get(r.page, epoch) {
                        Some((data, first_use)) => {
                            hits += u64::from(first_use);
                            self.fast_served += 1;
                            deliver(r.tag, data);
                        }
                        None => valid.push(*r),
                    }
                }
                Some(_) => valid.push(*r),
            }
        }

        // Name every request at its hinted address, then sort the batch by
        // disk address across clients — the whole point: neighbouring
        // sectors coalesce into one command chain no matter who asked. The
        // file and page break ties, so requests for the same page sit side
        // by side (in arrival order) and each distinct page is read once.
        self.names.clear();
        self.names.extend(valid.iter().map(|r| {
            let open = &self.opens[r.open_id as usize];
            PageName::new(open.file.fv, r.page, open.hints[r.page as usize - 1])
        }));
        self.order.clear();
        self.order.extend(0..valid.len());
        let names = &self.names;
        self.order
            .sort_unstable_by_key(|&i| (names[i].da.0, names[i].fv, names[i].page, i));
        self.distinct.clear();
        self.groups.clear();
        for (k, &i) in self.order.iter().enumerate() {
            if self.distinct.last() != Some(&names[i]) {
                self.distinct.push(names[i]);
                self.groups.push(k);
            }
        }
        self.groups.push(self.order.len());
        let wanted = self.distinct.len();

        // Read ahead of every file the batch misses: the pages after its
        // highest requested page that the window does not hold yet, at
        // their hinted addresses, up to the file's last page.
        self.ahead.clear();
        if read_ahead {
            for r in &valid {
                let open = &mut self.opens[r.open_id as usize];
                let top = std::mem::take(&mut open.top);
                if top == 0 || usize::from(top) >= open.hints.len() {
                    continue;
                }
                open.window.move_to(top + 1, epoch);
                for page in (top + 1..=u16::MAX).take(READAHEAD_PAGES.into()) {
                    let Some(&da) = open.hints.get(usize::from(page) - 1) else {
                        break;
                    };
                    if !da.is_nil() && !open.window.holds(page) {
                        self.distinct.push(PageName::new(open.file.fv, page, da));
                        self.ahead.push(r.open_id);
                    }
                }
            }
            for r in reqs {
                if let Some(open) = self.opens.get_mut(r.open_id as usize) {
                    open.top = 0;
                }
            }
        }
        let prefetched = self.ahead.len() as u64;

        let mut labels = std::mem::take(&mut self.labels);
        let fast = &mut self.fast_served;
        let opens = &mut self.opens;
        let (order, groups, ahead) = (&self.order, &self.groups, &self.ahead);
        let distinct = &self.distinct;
        alto_fs::page::read_pages_zero_copy(
            self.fs.disk_mut(),
            distinct,
            wanted,
            &mut labels,
            |k, label, view| {
                let (open_id, page) = match k.checked_sub(wanted) {
                    Some(j) => (ahead[j], distinct[k].page),
                    None => {
                        let first = &valid[order[groups[k]]];
                        (first.open_id, first.page)
                    }
                };
                // Learn the next page's address from the captured label.
                let open = &mut opens[open_id as usize];
                open.learn(page, label.next);
                if k >= wanted {
                    open.window.hold(page, view.data());
                    return;
                }
                for &i in &order[groups[k]..groups[k + 1]] {
                    *fast += 1;
                    deliver(valid[i].tag, view.data());
                }
            },
        );
        if hits + prefetched > 0 {
            self.fs.disk_mut().note_readahead(hits, prefetched);
        }
        // Stale hints (or real faults): walk the chain from the leader,
        // once per distinct requested page. A page read ahead that failed
        // is simply not held.
        for (k, res) in labels[..wanted].iter().enumerate() {
            if res.is_ok() {
                continue;
            }
            let requesters = self.groups[k]..self.groups[k + 1];
            let first = valid[self.order[requesters.start]];
            match self.chain_walk(first.open_id, first.page) {
                Ok(data) => {
                    for j in requesters {
                        self.slow_served += 1;
                        deliver(valid[self.order[j]].tag, &data);
                    }
                }
                Err(status) => {
                    for j in requesters {
                        failed.push((valid[self.order[j]].tag, status));
                    }
                }
            }
        }
        self.labels = labels;
        self.valid = valid;
    }
}

impl<'a, D: Disk> PageStore for FsPageService<'a, D> {
    fn open(&mut self, name: &str) -> Result<OpenInfo, u16> {
        let epoch = self.fs.disk().write_epoch();
        if let Some(&open_id) = self.by_name.get(name) {
            // The length measured at the last open stands while the disk
            // has not been written since. A write (a scavenge between
            // opens can shrink or grow the file) sends the re-open back to
            // the last page's label: sizing from a stale length would let
            // a request name a page the file no longer has.
            let open = &mut self.opens[open_id as usize];
            if open.measured != epoch {
                let length = self.fs.file_length(open.file).map_err(|_| STATUS_IO)?;
                open.length = length;
                open.measured = epoch;
                let pages = open.info(open_id).pages;
                open.hints.resize(pages as usize, DiskAddress::NIL);
            }
            return Ok(open.info(open_id));
        }
        let root = self.fs.root_dir();
        let file = dir::lookup(self.fs, root, name)
            .map_err(|_| STATUS_IO)?
            .ok_or(STATUS_NO_SUCH_FILE)?;
        let (leader_label, _) = self.fs.open_leader(file).map_err(|_| STATUS_IO)?;
        let length = self.fs.file_length(file).map_err(|_| STATUS_IO)?;
        let open_id = self.opens.len() as u32;
        let mut open = ServedFile {
            file,
            hints: Vec::new(),
            length,
            measured: epoch,
            top: 0,
            window: Window::new(),
        };
        let info = open.info(open_id);
        // Seed the hints with consecutive guesses from page 1's address:
        // allocation strives for consecutive pages, and the label check
        // turns any wrong guess into a clean per-page miss.
        let first = leader_label.next;
        open.hints = (0..info.pages)
            .map(|p| {
                if first == DiskAddress::NIL {
                    DiskAddress::NIL
                } else {
                    DiskAddress(first.0.wrapping_add(p))
                }
            })
            .collect();
        self.opens.push(open);
        self.by_name.insert(name.to_string(), open_id);
        Ok(info)
    }

    fn serve<F>(&mut self, reqs: &[PageRequest], failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        self.serve_batch(reqs, true, failed, deliver);
    }

    /// One request alone, as the naive ablation serves it: one disk
    /// operation, with the readahead windows neither read nor filled.
    fn serve_one<F>(&mut self, req: PageRequest, failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        self.serve_batch(std::slice::from_ref(&req), false, failed, deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, SimTime, Trace};

    fn setup() -> (DisklessOs, AltoOs, Ether, SimClock) {
        let clock = SimClock::new();
        let diskless = DisklessOs::new(Machine::new(clock.clone(), Trace::new()));
        let machine = Machine::new(clock.clone(), Trace::new());
        let drive =
            DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
        let server_os = AltoOs::install(machine, drive).unwrap();
        let mut ether = Ether::new(clock.clone(), Trace::new());
        ether.attach(1).unwrap(); // diskless workstation
        ether.attach(2).unwrap(); // boot server
        (diskless, server_os, ether, clock)
    }

    #[test]
    fn diskless_has_display_and_keyboard_but_no_files() {
        let (mut d, ..) = setup();
        d.machine.ac[0] = b'!' as u16;
        d.handle_syscall(SysCall::PutChar.code(), 0).unwrap();
        assert_eq!(d.machine.display.transcript(), "!");
        // File services are not in this configuration.
        let err = d.handle_syscall(SysCall::OpenRead.code(), 0).unwrap_err();
        assert!(matches!(err, OsError::ServiceNotResident { level: 8, .. }));
        let err = d.handle_syscall(SysCall::OutLoad.code(), 0).unwrap_err();
        assert!(matches!(err, OsError::ServiceNotResident { .. }));
    }

    #[test]
    fn keyboard_typeahead_works_disklessly() {
        let (mut d, ..) = setup();
        let now = d.machine.clock().now();
        d.machine
            .keyboard
            .type_string(now, SimTime::from_millis(1), "ok");
        d.machine.clock().advance(SimTime::from_millis(10));
        assert_eq!(d.get_char(), Some(b'o'));
        assert_eq!(d.get_char(), Some(b'k'));
    }

    #[test]
    fn netboot_runs_a_diagnostic_from_the_server() {
        let (mut d, mut server_os, mut ether, _clock) = setup();
        // The server has a diagnostic program on its disk.
        server_os
            .store_program(
                "memtest.run",
                r#"
        ; a diagnostic: pattern-test a memory word, report via display
        lda 0, pat
        sta 0, @cell
        lda 1, @cell
        sub# 0, 1, szr
        jmp bad
        lda 0, okch
        jsr @putchar
        halt
bad:    lda 0, badch
        jsr @putchar
        halt
putchar: .fixup "PutChar"
cell:   .word 0o1000
pat:    .word 0o125252
okch:   .word 'P'
badch:  .word 'F'
        "#,
            )
            .unwrap();
        let mut server = BootServer::new(&mut server_os, 2);
        let exit = d
            .netboot(&mut ether, 1, &mut server, "memtest.run", 100_000)
            .unwrap();
        assert!(exit.instructions > 0);
        assert_eq!(server.served, 1);
        assert_eq!(d.machine.display.transcript(), "P");
    }

    #[test]
    fn netboot_unknown_program_fails_cleanly() {
        let (mut d, mut server_os, mut ether, _clock) = setup();
        let mut server = BootServer::new(&mut server_os, 2);
        let err = d
            .netboot(&mut ether, 1, &mut server, "ghost.run", 1000)
            .unwrap_err();
        assert!(matches!(err, OsError::CommandNotFound(_)));
    }

    #[test]
    fn a_write_between_serves_voids_the_window_and_the_length() {
        // A client reads page 1 of a 20-page file, so the service holds
        // pages 2..17. Then the file is rewritten through the service's own
        // borrow, longer and with new bytes. The re-open measures the new
        // length, and page 2 comes back with its new bytes, not the copy
        // the window made before the write.
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        let mut fs = FileSystem::format(drive).unwrap();
        let root = fs.root_dir();
        let file = dir::create_named_file(&mut fs, root, "epoch.dat").unwrap();
        fs.write_file(file, &[1u8; 20 * PAGE_BYTES]).unwrap();
        let mut service = FsPageService::new(&mut fs);
        let info = service.open("epoch.dat").unwrap();
        assert_eq!((info.pages, info.last_len), (20, PAGE_BYTES as u16));
        let read = |service: &mut FsPageService<'_, DiskDrive>, page: u16| {
            let req = PageRequest {
                open_id: info.open_id,
                page,
                tag: 0,
            };
            let (mut got, mut failed) = (None, Vec::new());
            service.serve(&[req], &mut failed, |_, data| got = Some(*data));
            assert!(failed.is_empty(), "{failed:?}");
            got.unwrap()
        };
        assert_eq!(read(&mut service, 1), [0x0101; DATA_WORDS]);
        assert!(service.opens[0].window.holds(2));

        service
            .fs
            .write_file(file, &[2u8; 21 * PAGE_BYTES + 10])
            .unwrap();
        let again = service.open("epoch.dat").unwrap();
        assert_eq!(
            (again.open_id, again.pages, again.last_len),
            (info.open_id, 22, 10)
        );
        let sectors =
            |service: &FsPageService<'_, DiskDrive>| service.fs().disk().io_stats().sectors_read;
        let before = sectors(&service);
        assert_eq!(read(&mut service, 2), [0x0202; DATA_WORDS]);
        assert!(sectors(&service) > before, "page 2 came from the window");
        let mut last = [0; DATA_WORDS];
        last[..5].fill(0x0202);
        assert_eq!(read(&mut service, 22), last);
    }

    #[test]
    fn stub_addresses_match_the_full_system() {
        // Binary compatibility: a program linked against the full system's
        // stubs runs unchanged on the diskless configuration.
        let (d, mut server_os, ..) = setup();
        for (symbol, addr) in d.symbols.symbols() {
            assert_eq!(server_os.symbols().resolve(symbol).unwrap(), addr);
        }
        let _ = &mut server_os;
    }
}
