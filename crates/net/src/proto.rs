//! A minimal stop-and-wait file-transfer protocol.
//!
//! Enough protocol to move a file (e.g. a print job) between hosts with
//! per-packet acknowledgement and retransmission over a lossy ether. The
//! receiving end is a *polled* state machine, [`Receiver`] — no threads —
//! so the printing-server example can interleave a spooler and a printer
//! the way the paper's coroutines did (§4). The one sender is
//! [`receive_file`]'s loop: it sends a packet, steps a receiver on the same
//! ether, and retransmits until that packet's ack comes back, so the two
//! ends take turns on the single-threaded ether like coroutines.

use std::fmt;

use crate::ether::{Ether, HostId, NetError};
use crate::packet::{Packet, PacketType, MAX_PAYLOAD_WORDS};

/// Protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The medium failed.
    Net(NetError),
    /// Retransmission limit exceeded.
    TooManyRetries {
        /// Sequence number that never got through.
        seq: u16,
    },
    /// The receiver saw a sequence number it cannot reconcile.
    OutOfSequence {
        /// Expected sequence.
        expected: u16,
        /// Received sequence.
        got: u16,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Net(e) => write!(f, "network error: {e}"),
            ProtoError::TooManyRetries { seq } => {
                write!(f, "gave up retransmitting packet {seq}")
            }
            ProtoError::OutOfSequence { expected, got } => {
                write!(f, "out of sequence: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<NetError> for ProtoError {
    fn from(e: NetError) -> Self {
        ProtoError::Net(e)
    }
}

/// Retransmissions per packet before giving up.
const MAX_RETRIES: u32 = 16;

/// Receive state machine: drives one transfer via [`Receiver::step`].
#[derive(Debug)]
pub struct Receiver {
    host: HostId,
    socket: u16,
    expected: u16,
    words: Vec<u16>,
    done: bool,
}

impl Receiver {
    /// A receiver listening on `(host, socket)`.
    pub fn new(host: HostId, socket: u16) -> Receiver {
        Receiver {
            host,
            socket,
            expected: 0,
            words: Vec::new(),
            done: false,
        }
    }

    /// True when the final packet has been acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The words received so far (the full file once [`Receiver::is_done`]).
    pub fn take_words(self) -> Vec<u16> {
        self.words
    }

    /// Polls the ether once: accepts an in-order packet (appending its
    /// payload and acking it), re-acks duplicates, rejects gaps.
    /// Returns true if a packet was consumed.
    pub fn step(&mut self, ether: &mut Ether) -> Result<bool, ProtoError> {
        let Some(packet) = ether.receive(self.host, self.socket)? else {
            return Ok(false);
        };
        if packet.seq == self.expected {
            self.words.extend_from_slice(&packet.payload);
            if packet.ptype == PacketType::End {
                self.done = true;
            }
            self.expected += 1;
        } else if packet.seq > self.expected {
            return Err(ProtoError::OutOfSequence {
                expected: self.expected,
                got: packet.seq,
            });
        }
        // Ack both fresh and duplicate packets (the sender's ack may have
        // been lost).
        let ack = Packet {
            ptype: PacketType::Ack,
            dst_host: packet.src_host,
            src_host: self.host,
            dst_socket: packet.src_socket,
            src_socket: self.socket,
            seq: packet.seq,
            payload: vec![],
        };
        ether.send(ack)?;
        Ok(true)
    }
}

/// Convenience: runs a whole transfer by interleaving sender and receiver
/// (they share the single-threaded ether, like coroutines).
pub fn receive_file(
    ether: &mut Ether,
    src: HostId,
    dst: HostId,
    socket: u16,
    ack_socket: u16,
    words: &[u16],
) -> Result<Vec<u16>, ProtoError> {
    // Stop-and-wait needs the receiver to run between sends; emulate by
    // sending one chunk at a time and stepping the receiver.
    let mut receiver = Receiver::new(dst, socket);
    let chunks: Vec<&[u16]> = if words.is_empty() {
        vec![&[][..]]
    } else {
        words.chunks(MAX_PAYLOAD_WORDS).collect()
    };
    let total = chunks.len();
    for (i, chunk) in chunks.into_iter().enumerate() {
        let is_last = i + 1 == total;
        let seq = i as u16;
        let packet = Packet {
            ptype: if is_last {
                PacketType::End
            } else {
                PacketType::Data
            },
            dst_host: dst,
            src_host: src,
            dst_socket: socket,
            src_socket: ack_socket,
            seq,
            payload: chunk.to_vec(),
        };
        let mut acked = false;
        for _ in 0..=MAX_RETRIES {
            ether.send(packet.clone())?;
            receiver.step(ether)?;
            if let Some(ack) = ether.receive(src, ack_socket)? {
                if ack.ptype == PacketType::Ack && ack.seq == seq {
                    acked = true;
                    break;
                }
            }
        }
        if !acked {
            return Err(ProtoError::TooManyRetries { seq });
        }
    }
    Ok(receiver.take_words())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_sim::{SimClock, Trace};

    fn ether() -> Ether {
        let mut e = Ether::new(SimClock::new(), Trace::new());
        e.attach(1).unwrap();
        e.attach(2).unwrap();
        e
    }

    #[test]
    fn lossless_transfer() {
        let mut e = ether();
        let words: Vec<u16> = (0..1000u16).collect();
        let got = receive_file(&mut e, 1, 2, 0x30, 0x31, &words).unwrap();
        assert_eq!(got, words);
    }

    #[test]
    fn empty_transfer() {
        let mut e = ether();
        let got = receive_file(&mut e, 1, 2, 0x30, 0x31, &[]).unwrap();
        assert_eq!(got, Vec::<u16>::new());
    }

    #[test]
    fn exact_chunk_boundary() {
        let mut e = ether();
        let words: Vec<u16> = (0..(MAX_PAYLOAD_WORDS as u16 * 2)).collect();
        let got = receive_file(&mut e, 1, 2, 0x30, 0x31, &words).unwrap();
        assert_eq!(got, words);
    }

    #[test]
    fn transfer_survives_heavy_loss() {
        let mut e = ether();
        e.set_loss(1, 3, 7); // a third of all packets vanish
        let words: Vec<u16> = (0..2000u16).map(|i| i.wrapping_mul(31)).collect();
        let got = receive_file(&mut e, 1, 2, 0x30, 0x31, &words).unwrap();
        assert_eq!(got, words);
        assert!(e.lost > 0, "the loss injection must actually have fired");
    }

    #[test]
    fn retries_eventually_give_up() {
        let mut e = ether();
        e.set_loss(1, 1, 7); // everything is lost
        let err = receive_file(&mut e, 1, 2, 0x30, 0x31, &[1, 2, 3]).unwrap_err();
        assert_eq!(err, ProtoError::TooManyRetries { seq: 0 });
    }

    #[test]
    fn manual_receiver_stepping() {
        let mut e = ether();
        let words: Vec<u16> = (0..10).collect();
        let mut receiver = Receiver::new(2, 0x30);
        // Send a single End packet by hand.
        let n = send_file_manual(&mut e, &mut receiver, &words);
        assert!(n > 0);
        assert!(receiver.is_done());
        assert_eq!(receiver.take_words(), words);
    }

    fn send_file_manual(e: &mut Ether, r: &mut Receiver, words: &[u16]) -> u32 {
        let packet = Packet {
            ptype: PacketType::End,
            dst_host: 2,
            src_host: 1,
            dst_socket: 0x30,
            src_socket: 0x31,
            seq: 0,
            payload: words.to_vec(),
        };
        e.send(packet).unwrap();
        let consumed = r.step(e).unwrap();
        assert!(consumed);
        1
    }

    #[test]
    fn duplicate_packets_are_reacked_not_reappended() {
        let mut e = ether();
        let mut r = Receiver::new(2, 0x30);
        let packet = Packet {
            ptype: PacketType::End,
            dst_host: 2,
            src_host: 1,
            dst_socket: 0x30,
            src_socket: 0x31,
            seq: 0,
            payload: vec![5, 6],
        };
        e.send(packet.clone()).unwrap();
        r.step(&mut e).unwrap();
        // Duplicate (retransmission after a lost ack).
        e.send(packet).unwrap();
        r.step(&mut e).unwrap();
        assert_eq!(r.take_words(), vec![5, 6]);
        // Two acks went back.
        let mut acks = 0;
        while e.receive(1, 0x31).unwrap().is_some() {
            acks += 1;
        }
        assert_eq!(acks, 2);
    }

    #[test]
    fn sequence_gap_is_an_error() {
        let mut e = ether();
        let mut r = Receiver::new(2, 0x30);
        let packet = Packet {
            ptype: PacketType::Data,
            dst_host: 2,
            src_host: 1,
            dst_socket: 0x30,
            src_socket: 0x31,
            seq: 5,
            payload: vec![],
        };
        e.send(packet).unwrap();
        assert_eq!(
            r.step(&mut e).unwrap_err(),
            ProtoError::OutOfSequence {
                expected: 0,
                got: 5
            }
        );
    }
}

/// Sends an echo request from `src` to `dst` and waits for the reply that
/// [`echo_responder`] sends back. Returns the round-trip simulated time.
///
/// Diagnostics used exactly this on the real ether to check that a machine
/// was alive before netbooting it.
pub fn ping(
    ether: &mut Ether,
    src: HostId,
    dst: HostId,
    socket: u16,
    payload: &[u16],
) -> Result<alto_sim::SimTime, ProtoError> {
    let start = ether.clock().now();
    let request = Packet {
        ptype: PacketType::EchoRequest,
        dst_host: dst,
        src_host: src,
        dst_socket: socket,
        src_socket: socket,
        seq: 1,
        payload: payload.to_vec(),
    };
    ether.send(request)?;
    echo_responder(ether, dst, socket)?;
    let Some(reply) = ether.receive(src, socket)? else {
        return Err(ProtoError::TooManyRetries { seq: 1 });
    };
    if reply.ptype != PacketType::EchoReply || reply.payload != payload {
        return Err(ProtoError::OutOfSequence {
            expected: 1,
            got: reply.seq,
        });
    }
    Ok(ether.clock().now() - start)
}

/// Serves one pending echo request at `(host, socket)`, if any. Returns
/// true if a reply was sent.
pub fn echo_responder(ether: &mut Ether, host: HostId, socket: u16) -> Result<bool, ProtoError> {
    let Some(request) = ether.receive(host, socket)? else {
        return Ok(false);
    };
    if request.ptype != PacketType::EchoRequest {
        return Ok(false);
    }
    let reply = Packet {
        ptype: PacketType::EchoReply,
        dst_host: request.src_host,
        src_host: host,
        dst_socket: request.src_socket,
        src_socket: socket,
        seq: request.seq,
        payload: request.payload,
    };
    ether.send(reply)?;
    Ok(true)
}

#[cfg(test)]
mod echo_tests {
    use super::*;
    use alto_sim::{SimClock, SimTime, Trace};

    fn ether() -> Ether {
        let mut e = Ether::new(SimClock::new(), Trace::new());
        e.attach(1).unwrap();
        e.attach(2).unwrap();
        e
    }

    #[test]
    fn ping_round_trips() {
        let mut e = ether();
        let rtt = ping(&mut e, 1, 2, 0o77, &[1, 2, 3]).unwrap();
        // Two small packets on a 3 Mb/s wire: well under a millisecond.
        assert!(rtt > SimTime::ZERO);
        assert!(rtt < SimTime::from_millis(1), "rtt {rtt}");
    }

    #[test]
    fn responder_ignores_non_echo_traffic() {
        let mut e = ether();
        e.send(Packet {
            ptype: PacketType::Data,
            dst_host: 2,
            src_host: 1,
            dst_socket: 0o77,
            src_socket: 0o77,
            seq: 0,
            payload: vec![],
        })
        .unwrap();
        assert!(!echo_responder(&mut e, 2, 0o77).unwrap());
        // Nothing came back.
        assert!(e.receive(1, 0o77).unwrap().is_none());
    }

    #[test]
    fn ping_to_dead_host_times_out() {
        let mut e = ether();
        e.set_loss(1, 1, 3); // the wire eats everything
        let err = ping(&mut e, 1, 2, 0o77, &[9]).unwrap_err();
        assert!(matches!(err, ProtoError::TooManyRetries { .. }));
    }
}
