//! The broadcast medium: a simulated 3 Mb/s Ethernet.
//!
//! Hosts attach to the ether and exchange [`Packet`]s. A transmission takes
//! the experimental Ethernet's 3 Mb/s (≈5.33 µs per 16-bit word), and each
//! packet arrives at its destination, stamped with that instant, when its
//! transmission ends. The wire keeps the instant its last transmission
//! ends, and a packet starts at the later of now and that instant, so
//! transmissions on the one wire never overlap and every inbox fills in
//! arrival order.
//!
//! A sender chooses whether to pay. [`Ether::send`] is the blocking form:
//! the sender's clock moves to the packet's arrival, as a host that waits
//! for its interface to finish does. [`Ether::post`] queues the packet on
//! the wire and returns its arrival without moving the clock, so a host
//! with other work (the page server's disk) does it while the wire runs,
//! and later waits for the wire with [`Ether::wait_for_wire`] (the Alto's
//! disk and Ethernet controllers move data at the same time).
//! Deterministic packet loss can be injected for protocol testing.

use std::collections::VecDeque;

use alto_sim::{SimClock, SimTime, SplitMix64, Trace};

use crate::packet::{Packet, HEADER_WORDS, MAX_PAYLOAD_WORDS};

/// A host address on the ether (0 is broadcast and cannot be a host).
pub type HostId = u8;

/// Errors from the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The host id is not attached (or is the broadcast address).
    NoSuchHost(HostId),
    /// A host id was attached twice.
    HostInUse(HostId),
    /// The payload exceeds [`MAX_PAYLOAD_WORDS`]; nothing was put on the
    /// wire (an encoded oversize would be rejected by every receiver, so
    /// the interface refuses it up front instead of wasting wire time —
    /// or, as it once did, panicking on its own transmission).
    Oversized(usize),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchHost(h) => write!(f, "no host {h} on the ether"),
            NetError::HostInUse(h) => write!(f, "host {h} already attached"),
            NetError::Oversized(words) => {
                write!(f, "payload of {words} words exceeds {MAX_PAYLOAD_WORDS}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Time to put one 16-bit word on a 3 Mb/s wire.
pub const WORD_TIME: SimTime = SimTime::from_nanos(5_333);

/// Words in the largest wire image: header, a full payload and the
/// checksum. Every word vector the ether creates has room for one, so a
/// vector reused as a payload, then as a wire image, never regrows.
const WIRE_WORDS: usize = HEADER_WORDS + MAX_PAYLOAD_WORDS + 1;

#[derive(Debug)]
struct Inbox {
    host: HostId,
    queue: VecDeque<(SimTime, Packet)>,
}

impl Inbox {
    /// Queues a packet that arrives at `at`. Arrival stamps never decrease
    /// along a queue: [`Ether::drain_arrived`] takes the arrived prefix
    /// from the front.
    fn push(&mut self, at: SimTime, packet: Packet) {
        debug_assert!(
            self.queue.back().is_none_or(|&(last, _)| last <= at),
            "host {} queued a packet arriving at {at} behind one arriving later",
            self.host
        );
        self.queue.push_back((at, packet));
    }
}

/// The shared broadcast medium.
#[derive(Debug)]
pub struct Ether {
    clock: SimClock,
    trace: Trace,
    inboxes: Vec<Inbox>,
    /// Packet-loss injection: lose one packet in `loss_denominator` sends.
    loss_num: u64,
    loss_denom: u64,
    rng: SplitMix64,
    /// The instant the last transmission ends: the next one starts no
    /// earlier.
    wire_free: SimTime,
    /// Packets put on the wire.
    pub sent: u64,
    /// Packets dropped by injected loss.
    pub lost: u64,
    /// Word vectors whose packets have been consumed, ready for the next
    /// payload or wire image ([`Ether::words`], [`Ether::recycle`]).
    spare: Vec<Vec<u16>>,
}

impl Ether {
    /// A lossless ether on the given timeline.
    pub fn new(clock: SimClock, trace: Trace) -> Ether {
        Ether {
            clock,
            trace,
            inboxes: Vec::new(),
            loss_num: 0,
            loss_denom: 1,
            rng: SplitMix64::new(0xE7E7),
            wire_free: SimTime::ZERO,
            sent: 0,
            lost: 0,
            spare: Vec::new(),
        }
    }

    /// An empty word vector for a payload or a wire image: a recycled one
    /// when the ether holds a spare, else a new one with room for the
    /// largest wire image. Senders that take their payloads here, and
    /// receivers that [`Ether::recycle`] what they consume, keep a steady
    /// exchange free of heap allocation.
    pub fn words(&mut self) -> Vec<u16> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(WIRE_WORDS))
    }

    /// Takes back a consumed packet's word vector (its contents are
    /// dropped) for a later [`Ether::words`].
    pub fn recycle(&mut self, mut words: Vec<u16>) {
        if words.capacity() == 0 {
            return;
        }
        words.clear();
        self.spare.push(words);
    }

    /// Configures deterministic random loss: `num` in `denom` packets are
    /// dropped in transit.
    pub fn set_loss(&mut self, num: u64, denom: u64, seed: u64) {
        assert!(denom > 0 && num <= denom);
        self.loss_num = num;
        self.loss_denom = denom;
        self.rng = SplitMix64::new(seed);
    }

    /// The shared clock: a transmission starts no earlier than its now, and
    /// [`Ether::send`] and [`Ether::wait_for_wire`] move it.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Records a service-level event on the ether's trace at the current
    /// simulated time, so co-located services (the page server, the boot
    /// server) land their events on the same timeline as the wire's own.
    pub fn note(&self, tag: &'static str, detail: impl FnOnce() -> String) {
        self.trace.record_with(self.clock.now(), tag, detail);
    }

    /// Attaches a host.
    pub fn attach(&mut self, host: HostId) -> Result<(), NetError> {
        if host == 0 {
            return Err(NetError::NoSuchHost(0));
        }
        if self.inboxes.iter().any(|i| i.host == host) {
            return Err(NetError::HostInUse(host));
        }
        self.inboxes.push(Inbox {
            host,
            queue: VecDeque::new(),
        });
        Ok(())
    }

    fn check_attached(&self, host: HostId) -> Result<(), NetError> {
        if self.inboxes.iter().any(|i| i.host == host) {
            Ok(())
        } else {
            Err(NetError::NoSuchHost(host))
        }
    }

    /// Puts a packet on the wire and waits for it: the blocking form of
    /// [`Ether::post`]. The sender pays: the clock moves to the packet's
    /// arrival (its own transmission, behind any posted before it).
    pub fn send(&mut self, packet: Packet) -> Result<(), NetError> {
        self.post(packet)?;
        self.wait_for_wire();
        Ok(())
    }

    /// Queues a packet on the wire without moving the clock and returns its
    /// arrival. Its transmission starts at the later of now and the end of
    /// the last one, and the packet arrives at the destination (or, for
    /// `dst_host == 0`, at every other host) when it ends. A packet lost to
    /// injected loss holds the wire all the same.
    pub fn post(&mut self, packet: Packet) -> Result<SimTime, NetError> {
        self.check_attached(packet.src_host)?;
        if packet.dst_host != 0 {
            self.check_attached(packet.dst_host)?;
        }
        if packet.payload.len() > MAX_PAYLOAD_WORDS {
            // Refuse before occupying the wire: the receive side would
            // reject the image anyway (see `Packet::decode`), and the
            // sender finding out *here* is the bug fix — this used to
            // panic on the self-decode below.
            return Err(NetError::Oversized(packet.payload.len()));
        }
        // The wire image is staged on a spare vector; the consumed
        // packet's payload is recycled below once its words are encoded.
        let mut wire = self.words();
        packet.encode_into(&mut wire);
        let start = self.clock.now().max(self.wire_free);
        let arrival = start + WORD_TIME.scaled(wire.len() as u64);
        self.wire_free = arrival;
        self.sent += 1;
        if self.loss_num > 0 && self.rng.chance(self.loss_num, self.loss_denom) {
            self.lost += 1;
            self.trace
                .record_with(arrival, "net.lost", || format!("seq {}", packet.seq));
            self.recycle(wire);
            self.recycle(packet.payload);
            return Ok(arrival);
        }
        self.trace.record_with(arrival, "net.sent", || {
            format!(
                "{} -> {} seq {}",
                packet.src_host, packet.dst_host, packet.seq
            )
        });
        if packet.dst_host != 0 {
            // Unicast: decode once onto the sender's payload vector and
            // *move* the packet into the one inbox — the hot path delivers
            // with zero heap traffic.
            let delivered =
                Packet::decode_with(&wire, packet.payload).expect("self-encoded packet");
            self.recycle(wire);
            if let Some(inbox) = self.inboxes.iter_mut().find(|i| i.host == packet.dst_host) {
                inbox.push(arrival, delivered);
            }
            return Ok(arrival);
        }
        // Broadcast: every other host revalidates and takes its own copy.
        for k in 0..self.inboxes.len() {
            if packet.src_host == self.inboxes[k].host {
                continue;
            }
            let copy = self.words();
            let delivered = Packet::decode_with(&wire, copy).expect("self-encoded packet");
            self.inboxes[k].push(arrival, delivered);
        }
        self.recycle(wire);
        self.recycle(packet.payload);
        Ok(arrival)
    }

    /// Moves the clock to the end of the last transmission, if it is still
    /// on the wire: a host that posted packets waits here for its
    /// interface to finish. On an idle wire it does nothing.
    pub fn wait_for_wire(&mut self) {
        // lint: allow(clock-discipline) — the Ethernet is a hardware model
        // with the same standing as the disk: a host waiting for its
        // transmissions charges their wire time to the shared timeline
        self.clock.advance_to(self.wire_free);
    }

    /// Receives the next packet for `host` on `socket` that has arrived by
    /// the current simulated time.
    ///
    /// This scans the host's queue for one socket; a host multiplexing many
    /// sockets (the page server, a client fleet) should prefer
    /// [`Ether::drain_arrived`] and route by socket itself.
    pub fn receive(&mut self, host: HostId, socket: u16) -> Result<Option<Packet>, NetError> {
        let now = self.clock.now();
        let inbox = self
            .inboxes
            .iter_mut()
            .find(|i| i.host == host)
            .ok_or(NetError::NoSuchHost(host))?;
        let pos = inbox
            .queue
            .iter()
            .position(|(at, p)| *at <= now && p.dst_socket == socket);
        Ok(pos.and_then(|i| inbox.queue.remove(i)).map(|(_, p)| p))
    }

    /// Drains every packet that has arrived at `host` by the current
    /// simulated time into `out` as `(arrival, packet)` pairs, in arrival
    /// order, across all sockets — the batch receive the page server's
    /// request loop is built on: one pass over the inbox per tick instead
    /// of one scan per socket. The arrival stamp is the instant the
    /// packet's transmission ended, which a receiver times replies by.
    ///
    /// Recycle each consumed packet's payload with [`Ether::recycle`] to
    /// keep the steady state allocation-free.
    pub fn drain_arrived(
        &mut self,
        host: HostId,
        out: &mut Vec<(SimTime, Packet)>,
    ) -> Result<(), NetError> {
        let now = self.clock.now();
        let inbox = self
            .inboxes
            .iter_mut()
            .find(|i| i.host == host)
            .ok_or(NetError::NoSuchHost(host))?;
        // Arrival stamps never decrease along a queue (see `Inbox::push`),
        // so the arrived prefix is exactly the front of the queue.
        while let Some((at, _)) = inbox.queue.front() {
            if *at > now {
                break;
            }
            out.push(inbox.queue.pop_front().unwrap_or_else(|| unreachable!()));
        }
        Ok(())
    }

    /// Advances the shared clock by `dt` with nothing on the wire — the
    /// polling quantum a host burns waiting for timeouts to mature (e.g. a
    /// client fleet whose every outstanding request is waiting out its
    /// retransmission timer after a loss).
    pub fn idle_wait(&mut self, dt: SimTime) {
        // lint: allow(clock-discipline) — the Ethernet is a hardware model
        // with the same standing as the disk: idle waiting charges the
        // shared timeline just as transmission does
        self.clock.advance(dt);
    }

    /// Packets waiting (arrived or in flight) for a host.
    pub fn queued(&self, host: HostId) -> usize {
        self.inboxes
            .iter()
            .find(|i| i.host == host)
            .map_or(0, |i| i.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketType;

    fn ether() -> Ether {
        let mut e = Ether::new(SimClock::new(), Trace::new());
        e.attach(1).unwrap();
        e.attach(2).unwrap();
        e.attach(3).unwrap();
        e
    }

    fn packet(src: HostId, dst: HostId, socket: u16, seq: u16) -> Packet {
        Packet {
            ptype: PacketType::Data,
            dst_host: dst,
            src_host: src,
            dst_socket: socket,
            src_socket: 0x99,
            seq,
            payload: vec![seq; 4],
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let mut e = ether();
        e.send(packet(1, 2, 0x30, 1)).unwrap();
        assert_eq!(e.receive(2, 0x30).unwrap().unwrap().seq, 1);
        assert!(e.receive(2, 0x30).unwrap().is_none());
        // Host 3 saw nothing.
        assert!(e.receive(3, 0x30).unwrap().is_none());
    }

    #[test]
    fn broadcast_reaches_everyone_but_the_sender() {
        let mut e = ether();
        e.send(packet(1, 0, 0x30, 9)).unwrap();
        assert!(e.receive(2, 0x30).unwrap().is_some());
        assert!(e.receive(3, 0x30).unwrap().is_some());
        assert!(e.receive(1, 0x30).unwrap().is_none());
    }

    #[test]
    fn sockets_demultiplex() {
        let mut e = ether();
        e.send(packet(1, 2, 0x30, 1)).unwrap();
        e.send(packet(1, 2, 0x31, 2)).unwrap();
        assert_eq!(e.receive(2, 0x31).unwrap().unwrap().seq, 2);
        assert_eq!(e.receive(2, 0x30).unwrap().unwrap().seq, 1);
    }

    #[test]
    fn transmission_charges_the_clock() {
        let mut e = ether();
        let before = e.clock().now();
        let p = packet(1, 2, 0x30, 1);
        let wire = WORD_TIME.scaled(p.wire_words() as u64);
        e.send(p).unwrap();
        assert_eq!(e.clock().now() - before, wire);
        // The wire is idle again, so waiting for it does nothing.
        e.wait_for_wire();
        assert_eq!(e.clock().now() - before, wire);
        // A post moves no clock and returns its arrival; the next post
        // queues one wire time behind it.
        let start = e.clock().now();
        assert_eq!(e.post(packet(1, 2, 0x30, 2)), Ok(start + wire));
        assert_eq!(e.post(packet(1, 3, 0x30, 3)), Ok(start + wire.scaled(2)));
        assert_eq!(e.clock().now(), start);
        // A send behind them pays for its own place in the queue: the
        // clock moves to its arrival, the third wire time.
        e.send(packet(3, 2, 0x30, 4)).unwrap();
        assert_eq!(e.clock().now(), start + wire.scaled(3));
        // Posted on an idle wire, a packet starts now, and the wait moves
        // the clock to its arrival.
        e.idle_wait(SimTime::from_millis(1));
        let idle = e.clock().now();
        assert_eq!(e.post(packet(1, 2, 0x30, 5)), Ok(idle + wire));
        e.wait_for_wire();
        assert_eq!(e.clock().now(), idle + wire);
    }

    #[test]
    fn a_page_sized_packet_takes_under_two_milliseconds() {
        // 256 payload words + header at 3 Mb/s ≈ 1.4 ms: the network is
        // much faster than one disk revolution, which is why the printing
        // server's spooler keeps up (§4).
        let mut e = ether();
        let mut p = packet(1, 2, 0x30, 1);
        p.payload = vec![0; 256];
        let before = e.clock().now();
        e.send(p).unwrap();
        let dt = e.clock().now() - before;
        assert!(dt < SimTime::from_millis(2), "page packet took {dt}");
    }

    #[test]
    fn unknown_hosts_rejected() {
        let mut e = ether();
        assert_eq!(e.send(packet(9, 2, 0x30, 1)), Err(NetError::NoSuchHost(9)));
        assert_eq!(e.send(packet(1, 9, 0x30, 1)), Err(NetError::NoSuchHost(9)));
        assert_eq!(e.receive(9, 0x30), Err(NetError::NoSuchHost(9)));
        assert_eq!(e.attach(1), Err(NetError::HostInUse(1)));
        assert_eq!(e.attach(0), Err(NetError::NoSuchHost(0)));
    }

    #[test]
    fn injected_loss_drops_packets() {
        let mut e = ether();
        e.set_loss(1, 2, 42);
        for seq in 0..100 {
            e.send(packet(1, 2, 0x30, seq)).unwrap();
        }
        assert_eq!(e.sent, 100);
        assert!(e.lost > 20 && e.lost < 80, "lost {}", e.lost);
        let mut received = 0;
        while e.receive(2, 0x30).unwrap().is_some() {
            received += 1;
        }
        assert_eq!(received + e.lost, 100);

        // A posted packet lost in transit holds the wire all the same: the
        // next one queues behind it.
        let mut e = ether();
        let wire = WORD_TIME.scaled(packet(1, 2, 0x30, 0).wire_words() as u64);
        let start = e.clock().now();
        e.set_loss(1, 1, 42);
        assert_eq!(e.post(packet(1, 2, 0x30, 1)), Ok(start + wire));
        assert_eq!(e.lost, 1);
        e.set_loss(0, 1, 42);
        assert_eq!(e.post(packet(1, 2, 0x30, 2)), Ok(start + wire.scaled(2)));
        e.wait_for_wire();
        let mut out = Vec::new();
        e.drain_arrived(2, &mut out).unwrap();
        assert_eq!(
            out.iter().map(|(at, p)| (*at, p.seq)).collect::<Vec<_>>(),
            vec![(start + wire.scaled(2), 2)]
        );
    }

    #[test]
    fn oversized_payload_is_refused_not_panicked() {
        use crate::packet::MAX_PAYLOAD_WORDS;
        let mut e = ether();
        let mut p = packet(1, 2, 0x30, 1);
        p.payload = vec![0; MAX_PAYLOAD_WORDS + 1];
        let before = e.clock().now();
        assert_eq!(e.send(p), Err(NetError::Oversized(MAX_PAYLOAD_WORDS + 1)));
        // Nothing was charged to the wire and nothing was counted sent.
        assert_eq!(e.clock().now(), before);
        assert_eq!(e.sent, 0);
        // A maximum-size payload still goes through.
        let mut p = packet(1, 2, 0x30, 2);
        p.payload = vec![0; MAX_PAYLOAD_WORDS];
        e.send(p).unwrap();
        assert_eq!(e.receive(2, 0x30).unwrap().unwrap().seq, 2);
    }

    #[test]
    fn drain_arrived_pops_every_socket_in_arrival_order() {
        let mut e = ether();
        e.send(packet(1, 2, 0x30, 1)).unwrap();
        e.send(packet(3, 2, 0x31, 2)).unwrap();
        e.send(packet(1, 2, 0x32, 3)).unwrap();
        // A packet for someone else does not show up.
        e.send(packet(1, 3, 0x30, 9)).unwrap();
        let mut out = Vec::new();
        e.drain_arrived(2, &mut out).unwrap();
        assert_eq!(
            out.iter().map(|(_, p)| p.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Each packet is stamped with the instant its transmission ended:
        // the sends queued one behind another on the one wire.
        let wire = |seq| WORD_TIME.scaled(packet(1, 2, 0x30, seq).wire_words() as u64);
        let stamps: Vec<SimTime> = out.iter().map(|&(at, _)| at).collect();
        assert_eq!(
            stamps,
            vec![wire(1), wire(1) + wire(2), wire(1) + wire(2) + wire(3)]
        );
        out.clear();
        e.drain_arrived(2, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(e.drain_arrived(99, &mut out), Err(NetError::NoSuchHost(99)));

        // A posted packet is not there until its transmission ends; a send
        // behind it arrives after it, and by then both have arrived.
        let posted = e.post(packet(3, 2, 0x33, 4)).unwrap();
        e.drain_arrived(2, &mut out).unwrap();
        assert!(out.is_empty(), "drained a packet still on the wire");
        e.send(packet(1, 2, 0x30, 5)).unwrap();
        e.drain_arrived(2, &mut out).unwrap();
        assert_eq!(
            out.iter().map(|(at, p)| (*at, p.seq)).collect::<Vec<_>>(),
            vec![(posted, 4), (posted + wire(5), 5)]
        );
    }

    #[test]
    fn idle_wait_advances_the_shared_clock() {
        let mut e = ether();
        let before = e.clock().now();
        e.idle_wait(SimTime::from_millis(3));
        assert_eq!(e.clock().now() - before, SimTime::from_millis(3));
    }

    #[test]
    fn delivery_preserves_contents() {
        let mut e = ether();
        let mut p = packet(1, 2, 0x30, 5);
        p.payload = (0..100).collect();
        e.send(p.clone()).unwrap();
        assert_eq!(e.receive(2, 0x30).unwrap().unwrap(), p);
    }
}
