//! The page/file server request loop (§5.2 / §4).
//!
//! The paper's endgame for the network is a *diskless Alto*: boot code
//! arrives over the ether and every page fault is serviced by a machine
//! across the room (§5.2), while §4's printing server sketches the server
//! shape — a loop that drains requests from the wire and turns them into
//! disk transfers. This module is that server, grown to thousands of
//! clients:
//!
//! * per tick, [`PageServer::tick`] drains *every* request that has
//!   arrived at the server host ([`Ether::drain_arrived`] — one pass over
//!   the inbox, not one scan per client);
//! * all page reads collected in a tick are handed to the backing
//!   [`PageStore`] as **one batch**, which the store sorts by disk address
//!   and feeds to the chained-transfer scheduler — requests from different
//!   clients coalesce into single disk command chains instead of paying a
//!   full rotation each, and requests for the same page share one read
//!   (`set_batching_enabled(false)` restores the naive per-request service
//!   for the ablation);
//! * replies are assembled on the ether's recycled payload vectors
//!   ([`Ether::words`]), filled straight from the store's zero-copy sector
//!   views: one copy platter → payload, no staging buffer, no per-request
//!   allocation;
//! * replies are posted ([`Ether::post`]), not sent: the disk goes on
//!   working while the wire carries them. The replies of pages the store
//!   holds in core leave at the tick's start, while the chain runs from
//!   that same instant, and each page read from the disk leaves at its
//!   sector's instant or behind the reply before it. The tick ends with
//!   [`Ether::wait_for_wire`], when both disk and wire are done: it lasts
//!   max(disk, wire), not their sum.
//!
//! The protocol is Pup-flavoured and deliberately idempotent: re-opening a
//! name returns the same handle and re-reading a page returns the same
//! data, so client retransmissions under packet loss are harmless.
//!
//! Session state is keyed by `(host, socket)`: the 8-bit host space is
//! multiplexed by the 16-bit socket space, which is how a thousand-client
//! fleet fits one simulated ether.

use std::collections::BTreeMap;

use alto_disk::DATA_WORDS;
use alto_sim::SimTime;

use crate::ether::{Ether, HostId, NetError};
use crate::packet::{Packet, PacketType};

/// The well-known socket the page server listens on.
pub const PAGE_SERVICE_SOCKET: u16 = 0o50;

/// Open a file by name. Payload: `[name_bytes, packed name words...]`;
/// `seq` is the client's request id, echoed in the reply.
pub const OPEN_REQUEST: PacketType = PacketType::Other(20);
/// Open succeeded. Payload: `[STATUS_OK, handle, pages, last_len]`.
pub const OPEN_REPLY: PacketType = PacketType::Other(21);
/// Read one page of an open file. Payload: `[handle, page]` (pages are
/// 1-based, the leader is the server's business); `seq` is the request id.
pub const READ_REQUEST: PacketType = PacketType::Other(22);
/// A served page. Payload: exactly [`DATA_WORDS`] data words; `seq` echoes
/// the request id (the client correlates handle and page from it).
pub const PAGE_REPLY: PacketType = PacketType::Other(23);
/// A failed request. Payload: `[status]`; `seq` echoes the request id.
pub const ERR_REPLY: PacketType = PacketType::Other(29);

/// Request served.
pub const STATUS_OK: u16 = 0;
/// The opened name does not exist on the server's disk.
pub const STATUS_NO_SUCH_FILE: u16 = 1;
/// The read's handle is not open in this session.
pub const STATUS_BAD_HANDLE: u16 = 2;
/// The read's page number is out of the open file's range.
pub const STATUS_BAD_PAGE: u16 = 3;
/// The disk failed the request (after retries).
pub const STATUS_IO: u16 = 4;
/// The request payload did not parse.
pub const STATUS_MALFORMED: u16 = 5;

/// Protocol-level cap on an open request's file name, in bytes. No store
/// names files anywhere near this long; a declared length past it is a
/// malformed request, not a big name.
pub const MAX_NAME_LEN: usize = 255;

/// Packs an ASCII file name into request payload words.
pub fn encode_name(name: &str, out: &mut Vec<u16>) {
    out.clear();
    let bytes = name.as_bytes();
    out.push(bytes.len() as u16);
    for pair in bytes.chunks(2) {
        let hi = pair[0] as u16;
        let lo = *pair.get(1).unwrap_or(&0) as u16;
        out.push((hi << 8) | lo);
    }
}

/// Unpacks a file name from request payload words.
pub fn decode_name(payload: &[u16]) -> Option<String> {
    let len = *payload.first()? as usize;
    let words = payload.get(1..)?;
    if len > MAX_NAME_LEN || len > 2 * words.len() {
        return None;
    }
    let mut bytes = Vec::with_capacity(len);
    for i in 0..len {
        let w = words[i / 2];
        bytes.push(if i % 2 == 0 { (w >> 8) as u8 } else { w as u8 });
    }
    String::from_utf8(bytes).ok()
}

/// What an open answered: the store-wide open id plus the file's shape.
#[derive(Debug, Clone, Copy)]
pub struct OpenInfo {
    /// The store's token for this open file (stable across re-opens).
    pub open_id: u32,
    /// Number of data pages.
    pub pages: u16,
    /// Bytes used in the last page.
    pub last_len: u16,
}

/// One page read, as handed to the store: `tag` is the server's reply
/// slot, echoed through [`PageStore::serve`]'s delivery callback.
#[derive(Debug, Clone, Copy)]
pub struct PageRequest {
    /// The store token from [`PageStore::open`].
    pub open_id: u32,
    /// 1-based data page number.
    pub page: u16,
    /// Opaque reply tag, echoed to `deliver`/`failed`.
    pub tag: u32,
}

/// The disk side of the page server. `crates/core`'s `FsPageService`
/// implements this over a real `FileSystem`; tests may use in-memory
/// fakes. The server never touches the disk directly — raw sector access
/// stays behind the store's own `fs::page` wrappers.
pub trait PageStore {
    /// Opens `name`, returning its token and shape, or a `STATUS_*` code.
    /// Must be idempotent: re-opening a name returns the same token.
    fn open(&mut self, name: &str) -> Result<OpenInfo, u16>;

    /// Serves a batch of page reads. For every served request, `deliver`
    /// is called exactly once with the request's `tag` and its page data;
    /// every failed request's `(tag, STATUS_*)` is pushed onto `failed`.
    ///
    /// The batch spans *clients*: the store is expected to sort it by disk
    /// address and issue it as chained transfers — that cross-client
    /// coalescing is the whole performance story of the server. Requests
    /// that name the same page are read once, and its data is delivered to
    /// each of them.
    ///
    /// Each `deliver` runs with the shared clock at its page's instant: the
    /// moment the sector left the platter. The server posts its reply from
    /// `deliver` ([`Ether::post`]), which moves no clock, so the reply
    /// leaves no earlier than its data exists, queues behind the previous
    /// reply on the one wire, and leaves the chain's timing alone.
    ///
    /// A store may hold pages in core, read ahead of its sequential
    /// clients. Held pages are delivered first, from memory, at the current
    /// instant, before the batch goes to the disk; only the rest ride the
    /// chain. Their replies are posted at the tick's start and go out while
    /// the chain runs from that same instant.
    fn serve<F>(&mut self, reqs: &[PageRequest], failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]);

    /// Serves one page read on its own: the naive ablation's unit of work,
    /// one disk operation per request. The default serves a one-request
    /// batch; a store that holds pages in core answers it without them, so
    /// the ablation keeps measuring the disk.
    fn serve_one<F>(&mut self, req: PageRequest, failed: &mut Vec<(u32, u16)>, deliver: F)
    where
        F: FnMut(u32, &[u16; DATA_WORDS]),
    {
        self.serve(std::slice::from_ref(&req), failed, deliver);
    }
}

/// One client's open-file table. Handles are indexes into `opens`, so a
/// retransmitted open finds its existing entry by name.
#[derive(Debug, Default)]
struct Session {
    opens: Vec<(String, OpenInfo)>,
}

/// Where a collected read's reply must go.
#[derive(Debug, Clone, Copy)]
struct PendingReply {
    host: HostId,
    socket: u16,
    seq: u16,
}

/// Running counters, for the load harness and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Packets drained from the inbox.
    pub packets: u64,
    /// Opens answered (including idempotent re-opens).
    pub opens: u64,
    /// Page reads collected.
    pub reads: u64,
    /// Page replies sent.
    pub served: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Store batches issued (one per tick when batching; one per request
    /// in the naive ablation).
    pub batches: u64,
    /// Replies the ether refused to carry (counted and traced as
    /// `net.send_drop`, never silently dropped — the client's
    /// retransmission machinery recovers).
    pub send_failures: u64,
}

/// The request loop: drains the server host's inbox, multiplexes sessions,
/// batches reads into the store, and replies on recycled buffers.
#[derive(Debug)]
pub struct PageServer {
    host: HostId,
    socket: u16,
    batching: bool,
    sessions: BTreeMap<(HostId, u16), Session>,
    inbox: Vec<(SimTime, Packet)>,
    reads: Vec<PageRequest>,
    pending: Vec<PendingReply>,
    failed: Vec<(u32, u16)>,
    /// Counters; `stats.served` is the harness's served-requests metric.
    pub stats: ServerStats,
}

impl PageServer {
    /// A server listening on `host`:[`PAGE_SERVICE_SOCKET`]. The caller
    /// attaches the host to the ether.
    pub fn new(host: HostId) -> PageServer {
        PageServer {
            host,
            socket: PAGE_SERVICE_SOCKET,
            batching: true,
            sessions: BTreeMap::new(),
            inbox: Vec::new(),
            reads: Vec::new(),
            pending: Vec::new(),
            failed: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// The server's host address.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Toggles cross-client batching (on by default). Off, every read is
    /// handed to the store alone ([`PageStore::serve_one`]), in arrival
    /// order — the naive ablation the harness measures against.
    pub fn set_batching_enabled(&mut self, enabled: bool) {
        self.batching = enabled;
    }

    /// Runs one service tick: drain everything that has arrived, answer
    /// opens, collect reads, serve them through `store` (one batch, or one
    /// by one under the ablation), and post every reply. The tick ends when
    /// the last reply has left the wire, or when the disk is done if that
    /// is later. Returns how many packets were processed (0 means the tick
    /// was idle).
    pub fn tick<S: PageStore>(
        &mut self,
        ether: &mut Ether,
        store: &mut S,
    ) -> Result<u64, NetError> {
        self.stats.ticks += 1;
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.clear();
        ether.drain_arrived(self.host, &mut inbox)?;
        let processed = inbox.len() as u64;
        self.stats.packets += processed;
        self.reads.clear();
        self.pending.clear();
        self.failed.clear();
        for (_, pkt) in inbox.drain(..) {
            if pkt.dst_socket != self.socket {
                ether.recycle(pkt.payload);
                continue;
            }
            match pkt.ptype {
                OPEN_REQUEST => self.handle_open(ether, store, pkt),
                READ_REQUEST => self.collect_read(ether, pkt),
                _ => ether.recycle(pkt.payload),
            }
        }
        self.inbox = inbox;

        if self.batching {
            if !self.reads.is_empty() {
                self.stats.batches += 1;
                let ServerStats {
                    served,
                    send_failures,
                    ..
                } = &mut self.stats;
                let pending = &self.pending;
                let host = self.host;
                let socket = self.socket;
                store.serve(&self.reads, &mut self.failed, |tag, data| {
                    *served += 1;
                    send_page_reply(
                        ether,
                        host,
                        socket,
                        pending[tag as usize],
                        data,
                        send_failures,
                    );
                });
            }
        } else {
            for i in 0..self.reads.len() {
                self.stats.batches += 1;
                let ServerStats {
                    served,
                    send_failures,
                    ..
                } = &mut self.stats;
                let pending = &self.pending;
                let host = self.host;
                let socket = self.socket;
                store.serve_one(self.reads[i], &mut self.failed, |tag, data| {
                    *served += 1;
                    send_page_reply(
                        ether,
                        host,
                        socket,
                        pending[tag as usize],
                        data,
                        send_failures,
                    );
                });
            }
        }
        for k in 0..self.failed.len() {
            let (tag, status) = self.failed[k];
            let to = self.pending[tag as usize];
            self.error_reply(ether, to, status);
        }
        ether.wait_for_wire();
        Ok(processed)
    }

    fn handle_open<S: PageStore>(&mut self, ether: &mut Ether, store: &mut S, pkt: Packet) {
        self.stats.opens += 1;
        let to = PendingReply {
            host: pkt.src_host,
            socket: pkt.src_socket,
            seq: pkt.seq,
        };
        let name = decode_name(&pkt.payload);
        ether.recycle(pkt.payload);
        let Some(name) = name else {
            self.error_reply(ether, to, STATUS_MALFORMED);
            return;
        };
        let session = self.sessions.entry((to.host, to.socket)).or_default();
        // Idempotent re-open: a retransmitted OPEN finds its entry.
        let existing = session.opens.iter().position(|(n, _)| *n == name);
        let (handle, info) = match existing {
            Some(h) => (h as u16, session.opens[h].1),
            None => match store.open(&name) {
                Ok(info) => {
                    session.opens.push((name, info));
                    ((session.opens.len() - 1) as u16, info)
                }
                Err(status) => {
                    self.error_reply(ether, to, status);
                    return;
                }
            },
        };
        let mut payload = ether.words();
        payload.extend_from_slice(&[STATUS_OK, handle, info.pages, info.last_len]);
        let reply = Packet {
            ptype: OPEN_REPLY,
            dst_host: to.host,
            src_host: self.host,
            dst_socket: to.socket,
            src_socket: self.socket,
            seq: to.seq,
            payload,
        };
        send_reply(ether, &mut self.stats.send_failures, reply);
    }

    fn collect_read(&mut self, ether: &mut Ether, pkt: Packet) {
        let to = PendingReply {
            host: pkt.src_host,
            socket: pkt.src_socket,
            seq: pkt.seq,
        };
        let parsed = match pkt.payload[..] {
            [handle, page] => Some((handle, page)),
            _ => None,
        };
        ether.recycle(pkt.payload);
        let Some((handle, page)) = parsed else {
            self.error_reply(ether, to, STATUS_MALFORMED);
            return;
        };
        let Some(info) = self
            .sessions
            .get(&(to.host, to.socket))
            .and_then(|s| s.opens.get(handle as usize))
            .map(|(_, info)| *info)
        else {
            self.error_reply(ether, to, STATUS_BAD_HANDLE);
            return;
        };
        if page == 0 || page > info.pages {
            self.error_reply(ether, to, STATUS_BAD_PAGE);
            return;
        }
        self.stats.reads += 1;
        let tag = self.pending.len() as u32;
        self.pending.push(to);
        self.reads.push(PageRequest {
            open_id: info.open_id,
            page,
            tag,
        });
    }

    fn error_reply(&mut self, ether: &mut Ether, to: PendingReply, status: u16) {
        self.stats.errors += 1;
        let mut payload = ether.words();
        payload.push(status);
        let reply = Packet {
            ptype: ERR_REPLY,
            dst_host: to.host,
            src_host: self.host,
            dst_socket: to.socket,
            src_socket: self.socket,
            seq: to.seq,
            payload,
        };
        send_reply(ether, &mut self.stats.send_failures, reply);
    }
}

/// Posts one reply (page, open or error) on the wire; the tick waits for
/// it at its end. A refused reply is counted and traced (`net.send_drop`)
/// instead of vanishing. The protocol is idempotent, so the client's
/// retransmission recovers the loss — but the operator gets to see it.
fn send_reply(ether: &mut Ether, send_failures: &mut u64, reply: Packet) {
    let dst = reply.dst_host;
    let seq = reply.seq;
    if ether.post(reply).is_err() {
        *send_failures += 1;
        ether.note("net.send_drop", || format!("reply to {dst} seq {seq}"));
    }
}

/// Builds and posts one page reply on a recycled payload — the single copy
/// of the page's 512 bytes between platter and wire.
fn send_page_reply(
    ether: &mut Ether,
    host: HostId,
    socket: u16,
    to: PendingReply,
    data: &[u16; DATA_WORDS],
    send_failures: &mut u64,
) {
    let mut payload = ether.words();
    payload.extend_from_slice(data);
    let reply = Packet {
        ptype: PAGE_REPLY,
        dst_host: to.host,
        src_host: host,
        dst_socket: to.socket,
        src_socket: socket,
        seq: to.seq,
        payload,
    };
    send_reply(ether, send_failures, reply);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let mut out = Vec::new();
        for name in ["", "a", "ab", "boot.image", "Sys.Boot"] {
            encode_name(name, &mut out);
            assert_eq!(decode_name(&out).as_deref(), Some(name));
        }
    }

    #[test]
    fn malformed_names_are_rejected() {
        assert_eq!(decode_name(&[]), None);
        // Declared longer than the words supplied.
        assert_eq!(decode_name(&[5, 0x4142]), None);
        // Invalid UTF-8 byte sequences decode to None, not a panic.
        assert_eq!(decode_name(&[2, 0xFFFE]), None);
        // Declared past the protocol cap, even with the words to back it.
        let huge = vec![0x4141u16; 1 + MAX_NAME_LEN];
        let mut p = vec![(MAX_NAME_LEN + 1) as u16];
        p.extend_from_slice(&huge);
        assert_eq!(decode_name(&p), None);
    }

    #[test]
    fn seeded_name_payload_sweep_rejects_or_is_well_formed() {
        // Mirror the packet-level corruption sweep one layer up: random
        // OPEN payloads must either be rejected or decode to a name whose
        // shape matches what the payload declared — never panic, never
        // over-read, never exceed the protocol cap.
        let mut rng = alto_sim::SplitMix64::new(0x09E4_4A3E);
        let mut accepted = 0u32;
        for round in 0..4000u64 {
            let payload: Vec<u16> = match round % 3 {
                // Pure noise.
                0 => (0..rng.next_u64() % 40).map(|_| rng.next_u16()).collect(),
                // A valid encode with words smashed.
                1 => {
                    let name: String = (0..rng.next_u64() % 50)
                        .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                        .collect();
                    let mut out = Vec::new();
                    encode_name(&name, &mut out);
                    for _ in 0..1 + rng.next_u64() % 3 {
                        if !out.is_empty() {
                            let i = rng.next_u64() as usize % out.len();
                            out[i] = rng.next_u16();
                        }
                    }
                    out
                }
                // A hostile declared length over real bytes.
                _ => {
                    let mut out: Vec<u16> =
                        (0..rng.next_u64() % 20).map(|_| rng.next_u16()).collect();
                    out.insert(0, rng.next_u16());
                    out
                }
            };
            if let Some(name) = decode_name(&payload) {
                accepted += 1;
                assert_eq!(name.len(), payload[0] as usize);
                assert!(name.len() <= MAX_NAME_LEN);
            }
        }
        // The sweep must actually exercise both outcomes.
        assert!(accepted > 0);
    }
}
