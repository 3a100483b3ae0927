//! Scripted diskless clients for the page server (§5.2).
//!
//! A [`ScriptedClient`] plays the role of a diskless Alto fetching a file
//! over the ether: it opens one file by name, then reads every data page
//! front to back with a small window of outstanding requests — the shape
//! of a machine demand-paging its boot image from the server across the
//! room. Reliability is the client's job, exactly as in Pup: requests
//! carry ids, replies echo them, and anything unanswered past a deadline
//! is retransmitted with exponential backoff. The server is idempotent,
//! so a duplicate (lost-reply) retransmission is harmless.
//!
//! A [`ClientFleet`] packs thousands of clients onto the 8-bit host space
//! by multiplexing sockets: clients spread across hosts, each with a
//! distinct source socket, and the fleet drains every host's inbox *once*
//! per tick, routing packets to clients by destination socket — one pass
//! over arrivals, not one scan per client.
//!
//! Each client folds every served word into an order-independent digest,
//! so a lossy run can be checked word-for-word against a lossless one.

use alto_sim::SimTime;

use crate::ether::{Ether, HostId, NetError};
use crate::packet::{Packet, PacketType};
use crate::server::{
    encode_name, ERR_REPLY, OPEN_REPLY, OPEN_REQUEST, PAGE_REPLY, READ_REQUEST, STATUS_OK,
};

/// Tuning knobs shared by every client in a fleet.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// The server's host address.
    pub server_host: HostId,
    /// The server's listening socket.
    pub server_socket: u16,
    /// Maximum outstanding page requests.
    pub window: usize,
    /// Initial retransmit timeout (doubles per retry, capped).
    pub timeout: SimTime,
    /// Retries before a request is declared dead and the client fails.
    pub max_retries: u32,
}

impl ClientConfig {
    /// Defaults for `server_host`: window 8, 50 ms timeout, 16 retries.
    pub fn new(server_host: HostId, server_socket: u16) -> ClientConfig {
        ClientConfig {
            server_host,
            server_socket,
            window: 8,
            timeout: SimTime::from_millis(50),
            max_retries: 16,
        }
    }
}

/// Where a client is in its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Waiting for (or about to send) the open.
    Opening,
    /// Streaming pages.
    Reading,
    /// Every page served and verified.
    Done,
    /// Gave up (error reply or retries exhausted).
    Failed,
}

/// One in-flight page request.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    page: u16,
    seq: u16,
    first_sent: SimTime,
    sent: SimTime,
    timeout: SimTime,
    retries: u32,
}

/// One scripted diskless client: open a file, read it front to back.
#[derive(Debug)]
pub struct ScriptedClient {
    host: HostId,
    socket: u16,
    file: String,
    cfg: ClientConfig,
    phase: ClientPhase,
    handle: u16,
    pages: u16,
    next_page: u16,
    next_seq: u16,
    open_sent: Option<SimTime>,
    open_retries: u32,
    window: Vec<Outstanding>,
    /// Pages received (duplicates not counted).
    pub received: u64,
    /// Payload words folded into the digest.
    pub served_words: u64,
    /// Retransmitted requests (opens and reads).
    pub retransmits: u64,
    /// Duplicate replies discarded.
    pub duplicates: u64,
    /// Order-independent fold of every served word (loss-divergence check).
    pub digest: u64,
}

impl ScriptedClient {
    /// A client at `host`:`socket` that will fetch `file`.
    pub fn new(host: HostId, socket: u16, file: String, cfg: ClientConfig) -> ScriptedClient {
        ScriptedClient {
            host,
            socket,
            file,
            cfg,
            phase: ClientPhase::Opening,
            handle: 0,
            pages: 0,
            next_page: 1,
            next_seq: 1,
            open_sent: None,
            open_retries: 0,
            window: Vec::with_capacity(cfg.window),
            received: 0,
            served_words: 0,
            retransmits: 0,
            duplicates: 0,
            digest: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> ClientPhase {
        self.phase
    }

    /// True once the script has finished (successfully or not).
    pub fn finished(&self) -> bool {
        matches!(self.phase, ClientPhase::Done | ClientPhase::Failed)
    }

    /// Absorbs one reply addressed to this client, which arrived at
    /// `arrival`. Pushes the request's first-send → arrival latency onto
    /// `samples` for served pages.
    pub fn on_packet(&mut self, pkt: &Packet, arrival: SimTime, samples: &mut Vec<SimTime>) {
        match pkt.ptype {
            OPEN_REPLY if self.phase == ClientPhase::Opening => {
                if let [STATUS_OK, handle, pages, _last_len] = pkt.payload[..] {
                    self.handle = handle;
                    self.pages = pages;
                    self.phase = if pages == 0 {
                        ClientPhase::Done
                    } else {
                        ClientPhase::Reading
                    };
                } else {
                    self.phase = ClientPhase::Failed;
                }
            }
            PAGE_REPLY if self.phase == ClientPhase::Reading => {
                match self.window.iter().position(|o| o.seq == pkt.seq) {
                    Some(i) => {
                        let o = self.window.swap_remove(i);
                        samples.push(arrival.saturating_sub(o.first_sent));
                        self.received += 1;
                        self.served_words += pkt.payload.len() as u64;
                        // Commutative fold: replies may arrive out of order
                        // (and differently so under loss), the digest must
                        // not care.
                        let page = o.page as u64;
                        for (i, &w) in pkt.payload.iter().enumerate() {
                            self.digest = self
                                .digest
                                .wrapping_add((page << 32) ^ ((i as u64) << 16) ^ w as u64);
                        }
                        if self.window.is_empty() && self.next_page > self.pages {
                            self.phase = ClientPhase::Done;
                        }
                    }
                    None => self.duplicates += 1,
                }
            }
            ERR_REPLY => {
                // Any error reply ends the script: the harness files are
                // all present, so an error means a real server-side fault.
                self.phase = ClientPhase::Failed;
            }
            _ => self.duplicates += 1,
        }
    }

    /// Drives the script forward: sends the open, fills the request
    /// window, retransmits anything past its deadline. Returns the number
    /// of packets sent.
    pub fn pump(&mut self, ether: &mut Ether, now: SimTime) -> Result<u64, NetError> {
        let mut sent = 0u64;
        match self.phase {
            ClientPhase::Opening => {
                let due = match self.open_sent {
                    None => true,
                    Some(at) => {
                        now.saturating_sub(at) >= backoff(self.cfg.timeout, self.open_retries)
                    }
                };
                if due {
                    if self.open_sent.is_some() {
                        self.open_retries += 1;
                        self.retransmits += 1;
                        if self.open_retries > self.cfg.max_retries {
                            self.phase = ClientPhase::Failed;
                            return Ok(sent);
                        }
                    }
                    let mut payload = ether.words();
                    encode_name(&self.file, &mut payload);
                    self.transmit(ether, OPEN_REQUEST, 0, payload)?;
                    self.open_sent = Some(now);
                    sent += 1;
                }
            }
            ClientPhase::Reading => {
                // Retransmit overdue requests (lost request or lost reply —
                // the client can't tell, and doesn't need to).
                for i in 0..self.window.len() {
                    let o = self.window[i];
                    if now.saturating_sub(o.sent) < o.timeout {
                        continue;
                    }
                    if o.retries >= self.cfg.max_retries {
                        self.phase = ClientPhase::Failed;
                        return Ok(sent);
                    }
                    let mut payload = ether.words();
                    payload.extend_from_slice(&[self.handle, o.page]);
                    self.transmit(ether, READ_REQUEST, o.seq, payload)?;
                    let o = &mut self.window[i];
                    o.sent = now;
                    o.timeout = o.timeout.scaled(2);
                    o.retries += 1;
                    self.retransmits += 1;
                    sent += 1;
                }
                // Fill the window with fresh page requests.
                while self.window.len() < self.cfg.window && self.next_page <= self.pages {
                    let page = self.next_page;
                    let seq = self.next_seq;
                    self.next_page += 1;
                    self.next_seq = self.next_seq.wrapping_add(1);
                    let mut payload = ether.words();
                    payload.extend_from_slice(&[self.handle, page]);
                    self.transmit(ether, READ_REQUEST, seq, payload)?;
                    self.window.push(Outstanding {
                        page,
                        seq,
                        first_sent: now,
                        sent: now,
                        timeout: self.cfg.timeout,
                        retries: 0,
                    });
                    sent += 1;
                }
            }
            ClientPhase::Done | ClientPhase::Failed => {}
        }
        Ok(sent)
    }

    fn transmit(
        &self,
        ether: &mut Ether,
        ptype: PacketType,
        seq: u16,
        payload: Vec<u16>,
    ) -> Result<(), NetError> {
        ether.send(Packet {
            ptype,
            dst_host: self.cfg.server_host,
            src_host: self.host,
            dst_socket: self.cfg.server_socket,
            src_socket: self.socket,
            seq,
            payload,
        })
    }
}

/// Exponential backoff with a cap: `base << retries`, at most 32 × base.
fn backoff(base: SimTime, retries: u32) -> SimTime {
    base.scaled(1u64 << retries.min(5))
}

/// First source socket a fleet assigns (clear of well-known services).
pub const FLEET_SOCKET_BASE: u16 = 0x100;

/// Aggregate results from a fleet run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Clients that finished successfully.
    pub done: u64,
    /// Clients that gave up.
    pub failed: u64,
    /// Pages received across the fleet.
    pub received: u64,
    /// Payload words served across the fleet.
    pub served_words: u64,
    /// Retransmissions across the fleet.
    pub retransmits: u64,
    /// Duplicate replies discarded across the fleet.
    pub duplicates: u64,
}

/// Thousands of scripted clients multiplexed onto the ether.
///
/// Client `i` lives at host `hosts[i / per_host]`, socket
/// `FLEET_SOCKET_BASE + i % per_host` — pure arithmetic both ways, so
/// packet routing needs no table.
#[derive(Debug)]
pub struct ClientFleet {
    clients: Vec<ScriptedClient>,
    hosts: Vec<HostId>,
    per_host: usize,
    inbox: Vec<(SimTime, Packet)>,
    /// First-send → reply-arrival latency of every served page, in the
    /// order the fleet drained them.
    pub samples: Vec<SimTime>,
}

impl ClientFleet {
    /// Builds and attaches a fleet of `count` clients. Hosts `1..=254`
    /// excluding `cfg.server_host` are available; `file_for(i)` names the
    /// file client `i` fetches.
    pub fn new(
        ether: &mut Ether,
        cfg: ClientConfig,
        count: usize,
        file_for: impl Fn(usize) -> String,
    ) -> Result<ClientFleet, NetError> {
        assert!(count > 0, "a fleet needs at least one client");
        let all: Vec<HostId> = (1..=254).filter(|&h| h != cfg.server_host).collect();
        let hosts_used = count.div_ceil(count.div_ceil(all.len())).min(all.len());
        let per_host = count.div_ceil(hosts_used.max(1));
        let hosts: Vec<HostId> = all[..hosts_used].to_vec();
        for &h in &hosts {
            ether.attach(h)?;
        }
        let clients = (0..count)
            .map(|i| {
                ScriptedClient::new(
                    hosts[i / per_host],
                    FLEET_SOCKET_BASE + (i % per_host) as u16,
                    file_for(i),
                    cfg,
                )
            })
            .collect();
        Ok(ClientFleet {
            clients,
            hosts,
            per_host,
            inbox: Vec::new(),
            samples: Vec::new(),
        })
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// One fleet tick: drain every host inbox once, route replies to their
    /// clients with their arrival stamps (handing each consumed payload
    /// back to the ether), then pump every unfinished client. Returns
    /// packets received plus packets sent (0 means the fleet is idle —
    /// waiting).
    pub fn tick(&mut self, ether: &mut Ether) -> Result<u64, NetError> {
        let now = ether.clock().now();
        let mut events = 0u64;
        let mut inbox = std::mem::take(&mut self.inbox);
        for (hi, &host) in self.hosts.iter().enumerate() {
            inbox.clear();
            ether.drain_arrived(host, &mut inbox)?;
            for (arrival, pkt) in inbox.drain(..) {
                let slot = pkt.dst_socket.wrapping_sub(FLEET_SOCKET_BASE) as usize;
                let idx = hi * self.per_host + slot;
                if slot < self.per_host && idx < self.clients.len() {
                    events += 1;
                    self.clients[idx].on_packet(&pkt, arrival, &mut self.samples);
                }
                ether.recycle(pkt.payload);
            }
        }
        self.inbox = inbox;
        for c in &mut self.clients {
            if !c.finished() {
                events += c.pump(ether, now)?;
            }
        }
        Ok(events)
    }

    /// True once every client has finished (done or failed).
    pub fn all_done(&self) -> bool {
        self.clients.iter().all(ScriptedClient::finished)
    }

    /// Aggregate counters across the fleet.
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats::default();
        for c in &self.clients {
            match c.phase() {
                ClientPhase::Done => s.done += 1,
                ClientPhase::Failed => s.failed += 1,
                _ => {}
            }
            s.received += c.received;
            s.served_words += c.served_words;
            s.retransmits += c.retransmits;
            s.duplicates += c.duplicates;
        }
        s
    }

    /// Order-independent fold of every client's digest — two runs serving
    /// identical bytes (lossless vs lossy) must agree.
    pub fn digest(&self) -> u64 {
        self.clients
            .iter()
            .fold(0u64, |d, c| d.wrapping_add(c.digest))
    }

    /// Access to an individual client (tests).
    pub fn client(&self, i: usize) -> &ScriptedClient {
        &self.clients[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = SimTime::from_millis(50);
        assert_eq!(backoff(base, 0), base);
        assert_eq!(backoff(base, 1), base.scaled(2));
        assert_eq!(backoff(base, 5), base.scaled(32));
        assert_eq!(backoff(base, 20), base.scaled(32));
    }
}
