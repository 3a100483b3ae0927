//! Simulated local network (§1, §4, §5.2).
//!
//! The paper standardizes "the representation … of packets on the network"
//! below any operating-system software, so that programs in different
//! languages share the same remote facilities. This crate provides that
//! substrate for the examples that need it — chiefly the printing server
//! of §4 (a spooler task "that reads files from a local communications
//! network") and the diskless configuration of §5.2:
//!
//! * [`Packet`] — a Pup-flavoured packet with a word-level wire format and
//!   a software checksum (the *standardized representation*);
//! * [`Ether`] — a broadcast medium with 3 Mb/s transmission timing on one
//!   serial wire, paid by a blocking sender ([`Ether::send`]) or run beside
//!   the sender's other work ([`Ether::post`]), optional packet loss for
//!   protocol tests, and per-host receive queues;
//! * [`proto`] — a minimal stop-and-wait file-transfer protocol over it;
//! * [`server`] / [`client`] — the page/file server of §5.2 and the
//!   scripted diskless clients that load it: batched cross-client service
//!   through a pluggable [`PageStore`], replies on the ether's recycled
//!   payload vectors ([`Ether::words`]).

#![forbid(unsafe_code)]

pub mod client;
pub mod ether;
pub mod packet;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, ClientFleet, ClientPhase, FleetStats, ScriptedClient};
pub use ether::{Ether, HostId, NetError};
pub use packet::{Packet, PacketType, MAX_PAYLOAD_WORDS};
pub use proto::{echo_responder, ping, receive_file, ProtoError};
pub use server::{OpenInfo, PageRequest, PageServer, PageStore, ServerStats, PAGE_SERVICE_SOCKET};
