//! The packet format: the standardized on-the-wire representation (§1).
//!
//! Word layout (loosely after the PARC Universal Packet):
//!
//! ```text
//! word 0   length of the whole packet in words (header + payload + checksum)
//! word 1   packet type
//! word 2   destination host (high byte) | source host (low byte)
//! word 3   destination socket
//! word 4   source socket
//! word 5   sequence / identifier
//! words 6..n-1   payload
//! word n-1 checksum: ones'-complement sum of words 0..n-1
//! ```

use std::fmt;

/// Header words before the payload.
pub const HEADER_WORDS: usize = 6;
/// Maximum payload words per packet (a disk page fits in one packet).
pub const MAX_PAYLOAD_WORDS: usize = 256;

/// Packet types used by the protocols in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// File-transfer data chunk.
    Data,
    /// Acknowledgement of a sequence number.
    Ack,
    /// End of transfer.
    End,
    /// Echo request (diagnostics).
    EchoRequest,
    /// Echo reply.
    EchoReply,
    /// Anything else (user-defined).
    Other(u16),
}

impl PacketType {
    fn to_word(self) -> u16 {
        match self {
            PacketType::Data => 1,
            PacketType::Ack => 2,
            PacketType::End => 3,
            PacketType::EchoRequest => 4,
            PacketType::EchoReply => 5,
            PacketType::Other(w) => w,
        }
    }

    fn from_word(w: u16) -> PacketType {
        match w {
            1 => PacketType::Data,
            2 => PacketType::Ack,
            3 => PacketType::End,
            4 => PacketType::EchoRequest,
            5 => PacketType::EchoReply,
            other => PacketType::Other(other),
        }
    }
}

/// A network packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet type.
    pub ptype: PacketType,
    /// Destination host (0 = broadcast).
    pub dst_host: u8,
    /// Source host.
    pub src_host: u8,
    /// Destination socket.
    pub dst_socket: u16,
    /// Source socket.
    pub src_socket: u16,
    /// Sequence number / identifier.
    pub seq: u16,
    /// Payload words.
    pub payload: Vec<u16>,
}

/// Why a packet failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer words than a header plus checksum.
    TooShort,
    /// Declared length disagrees with the words supplied.
    LengthMismatch,
    /// Payload longer than [`MAX_PAYLOAD_WORDS`].
    TooLong,
    /// Checksum mismatch (corrupt on the wire).
    BadChecksum,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PacketError::TooShort => "packet too short",
            PacketError::LengthMismatch => "packet length mismatch",
            PacketError::TooLong => "packet too long",
            PacketError::BadChecksum => "packet checksum mismatch",
        })
    }
}

impl std::error::Error for PacketError {}

fn ones_complement_sum(words: &[u16]) -> u16 {
    let mut sum = 0u32;
    for &w in words {
        sum += w as u32;
        if sum > 0xFFFF {
            sum = (sum & 0xFFFF) + 1;
        }
    }
    sum as u16
}

impl Packet {
    /// Total wire length in words.
    pub fn wire_words(&self) -> usize {
        HEADER_WORDS + self.payload.len() + 1
    }

    /// Encodes to the wire format (with checksum).
    pub fn encode(&self) -> Vec<u16> {
        let mut w = Vec::with_capacity(self.wire_words());
        self.encode_into(&mut w);
        w
    }

    /// Encodes to the wire format into `out` (cleared first) — the
    /// recycling transmit path: the ether stages onto a spare wire vector
    /// instead of allocating one per send.
    pub fn encode_into(&self, out: &mut Vec<u16>) {
        out.clear();
        out.reserve(self.wire_words());
        out.push(self.wire_words() as u16);
        out.push(self.ptype.to_word());
        out.push(((self.dst_host as u16) << 8) | self.src_host as u16);
        out.push(self.dst_socket);
        out.push(self.src_socket);
        out.push(self.seq);
        out.extend_from_slice(&self.payload);
        out.push(ones_complement_sum(out));
    }

    /// Decodes from the wire format, verifying length and checksum.
    pub fn decode(words: &[u16]) -> Result<Packet, PacketError> {
        Self::decode_with(words, Vec::new())
    }

    /// [`Packet::decode`] reusing `payload` (cleared first) as the payload
    /// vector — the recycling receive path. On error the vector is dropped;
    /// decode errors are the cold path.
    pub fn decode_with(words: &[u16], mut payload: Vec<u16>) -> Result<Packet, PacketError> {
        if words.len() < HEADER_WORDS + 1 {
            return Err(PacketError::TooShort);
        }
        if words[0] as usize != words.len() {
            return Err(PacketError::LengthMismatch);
        }
        if words.len() - HEADER_WORDS - 1 > MAX_PAYLOAD_WORDS {
            return Err(PacketError::TooLong);
        }
        let body = &words[..words.len() - 1];
        if ones_complement_sum(body) != words[words.len() - 1] {
            return Err(PacketError::BadChecksum);
        }
        payload.clear();
        payload.extend_from_slice(&words[HEADER_WORDS..words.len() - 1]);
        Ok(Packet {
            ptype: PacketType::from_word(words[1]),
            dst_host: (words[2] >> 8) as u8,
            src_host: words[2] as u8,
            dst_socket: words[3],
            src_socket: words[4],
            seq: words[5],
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet {
            ptype: PacketType::Data,
            dst_host: 3,
            src_host: 7,
            dst_socket: 0x30,
            src_socket: 0x99,
            seq: 12,
            payload: vec![0xAAAA, 0x5555, 0],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
        // Empty payload too.
        let mut q = sample();
        q.payload.clear();
        assert_eq!(Packet::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn corruption_is_detected() {
        let mut words = sample().encode();
        words[6] ^= 0x0100; // flip a payload bit
        assert_eq!(Packet::decode(&words), Err(PacketError::BadChecksum));
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut words = sample().encode();
        words[3] ^= 1; // destination socket
        assert_eq!(Packet::decode(&words), Err(PacketError::BadChecksum));
    }

    #[test]
    fn length_mismatch_rejected() {
        let words = sample().encode();
        assert_eq!(
            Packet::decode(&words[..words.len() - 1]),
            Err(PacketError::LengthMismatch)
        );
        assert_eq!(Packet::decode(&[]), Err(PacketError::TooShort));
    }

    #[test]
    fn packet_types_round_trip() {
        for t in [
            PacketType::Data,
            PacketType::Ack,
            PacketType::End,
            PacketType::EchoRequest,
            PacketType::EchoReply,
            PacketType::Other(77),
        ] {
            let mut p = sample();
            p.ptype = t;
            assert_eq!(Packet::decode(&p.encode()).unwrap().ptype, t);
        }
    }

    #[test]
    fn every_short_or_trimmed_slice_is_rejected_not_panicked() {
        // Exhaustive sweep: decode every prefix and every suffix of a
        // maximum-size valid wire image, plus slices of constant filler, at
        // every length from 0 to past the maximum. None may panic; only the
        // full image may decode.
        let mut p = sample();
        p.payload = (0..MAX_PAYLOAD_WORDS as u16).collect();
        let wire = p.encode();
        assert_eq!(wire.len(), HEADER_WORDS + MAX_PAYLOAD_WORDS + 1);
        for len in 0..=wire.len() {
            let prefix = Packet::decode(&wire[..len]);
            if len == wire.len() {
                assert!(prefix.is_ok());
            } else {
                assert!(prefix.is_err(), "prefix of {len} words decoded");
            }
            assert!(Packet::decode(&wire[wire.len() - len..]).is_err() || len == wire.len());
        }
        for len in 0..=2 * MAX_PAYLOAD_WORDS {
            for fill in [0u16, 1, 0xFFFF, len as u16] {
                let junk = vec![fill; len];
                // Must never panic. Constant filler can occasionally form a
                // genuinely valid image (e.g. 257 words of 0x101: the length
                // word matches and the ones'-complement sum folds back to
                // 0x101) — that's a correct accept, so only well-formedness
                // is required, not rejection.
                if let Ok(q) = Packet::decode(&junk) {
                    assert_eq!(q.wire_words(), len, "mis-sized junk accept");
                    assert!(q.payload.len() <= MAX_PAYLOAD_WORDS);
                }
            }
        }
    }

    #[test]
    fn oversized_wire_images_are_rejected_with_the_right_error() {
        // A wire image whose declared and actual length agree but whose
        // payload exceeds MAX_PAYLOAD_WORDS must come back TooLong (with a
        // correct checksum) — never a mis-sized payload.
        let mut p = sample();
        p.payload = vec![7; MAX_PAYLOAD_WORDS + 1];
        let wire = p.encode();
        assert_eq!(Packet::decode(&wire), Err(PacketError::TooLong));
        // And one far past any sane size.
        p.payload = vec![7; 4 * MAX_PAYLOAD_WORDS];
        assert_eq!(Packet::decode(&p.encode()), Err(PacketError::TooLong));
    }

    #[test]
    fn seeded_corruption_never_panics_and_never_mis_sizes() {
        // Corrupt valid wire images with a seeded PRNG — random word
        // smashes, bit flips, truncations and extensions — and require
        // decode to either reject or produce a well-formed packet (the
        // ones'-complement sum admits 0x0000 <-> 0xFFFF aliasing, so "all
        // corruption detected" would be too strong).
        let mut rng = alto_sim::SplitMix64::new(0xC0FFEE);
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for round in 0..2000 {
            let mut p = sample();
            p.payload = (0..(round % 257)).map(|w| w ^ round).collect();
            p.seq = round;
            let mut wire = p.encode();
            let mutations = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..mutations {
                match rng.next_u64() % 4 {
                    0 => {
                        let i = rng.next_u64() as usize % wire.len();
                        wire[i] = rng.next_u64() as u16;
                    }
                    1 => {
                        let i = rng.next_u64() as usize % wire.len();
                        wire[i] ^= 1 << (rng.next_u64() % 16);
                    }
                    2 => {
                        let keep = rng.next_u64() as usize % (wire.len() + 1);
                        wire.truncate(keep);
                        if wire.is_empty() {
                            wire.push(rng.next_u64() as u16);
                        }
                    }
                    _ => wire.push(rng.next_u64() as u16),
                }
            }
            match Packet::decode(&wire) {
                Ok(q) => {
                    accepted += 1;
                    assert_eq!(q.wire_words(), wire.len(), "mis-sized payload accepted");
                    assert!(q.payload.len() <= MAX_PAYLOAD_WORDS);
                }
                Err(_) => rejected += 1,
            }
        }
        // The sweep must actually exercise the reject paths.
        assert!(rejected > 1500, "only {rejected} rejects");
        // Aliasing acceptances are possible but must be rare.
        assert!(accepted < 100, "{accepted} corrupt packets accepted");
    }

    #[test]
    fn decode_with_reuses_the_given_vector() {
        let p = sample();
        let wire = p.encode();
        let mut recycled = Vec::with_capacity(64);
        recycled.push(0xDEAD);
        let q = Packet::decode_with(&wire, recycled).unwrap();
        assert_eq!(q, p);
        assert!(q.payload.capacity() >= 64);
    }

    #[test]
    fn checksum_is_ones_complement() {
        // Carries wrap around.
        assert_eq!(ones_complement_sum(&[0xFFFF, 1]), 1);
        assert_eq!(ones_complement_sum(&[0x8000, 0x8000]), 1);
        assert_eq!(ones_complement_sum(&[]), 0);
    }
}
