//! Sector-accurate simulation of the Alto disk subsystem.
//!
//! This crate models the moving-head disks of Lampson & Sproull's *An Open
//! Operating System for a Single-User Machine* (SOSP 1979) at the level the
//! paper's robustness argument depends on:
//!
//! * A **sector** has three parts — a 2-word *header* (pack number and disk
//!   address), a 7-word *label* (file id, version, page number, length, and
//!   forward/backward links) and a 256-word *value* (§3.1, §3.3).
//! * A single disk operation performs a **read, check or write action
//!   independently on each part**, with the restriction that once a write is
//!   begun it must continue through the rest of the sector (§3.3).
//! * A **check** compares disk words with memory words and aborts the whole
//!   operation on mismatch — except that a memory word of 0 is a wildcard
//!   that is replaced by the disk word, making check a simple pattern match
//!   (§3.3).
//!
//! Every operation charges seek time, rotational latency, transfer time and
//! a per-command set-up overhead to a shared [`alto_sim::SimClock`], using
//! published Diablo Model 31 parameters (40 ms/revolution, 12 sectors/track,
//! 203 cylinders × 2 heads — 2.5 MB per pack, ≈76.8 K words/s streaming).
//! The one-revolution cost of the label discipline on page allocate/free
//! (§3.3) falls out of the timing model rather than being hard-coded.
//!
//! Because a separately issued command always misses the next sector slot,
//! sequential transfers must be **chained**: [`Disk::do_batch`] takes a
//! whole batch of sector requests, pays the command set-up once, and the
//! [`sched`] module orders the batch by cylinder (elevator) and rotational
//! slot so consecutive sectors of a track stream in a single revolution —
//! the §4 controller design, recovered in simulation. Chaining never
//! weakens the label discipline: each request in a batch keeps the full
//! check-before-write semantics; a chained write whose check fails aborts
//! that sector alone, and the failure halts the chain so the remainder is
//! reissued as a fresh command (see [`sched`] for the invariant and a
//! worked example). [`ablation::UnscheduledDisk`] is the scheduler's
//! ablation twin for measuring exactly what chaining buys.
//!
//! [`DiskDrive`] runs every request form — a single [`Disk::do_op`], a
//! buffered [`Disk::do_batch`], the zero-copy [`Disk::do_batch_read`] and
//! [`Disk::do_batch_write`] — through one chained-command engine, so they
//! differ only in how a request meets its sector. [`DriveArray`] splits a
//! batch across independent arms whose simulated timelines overlap — two
//! Range arms are the paper's two-drive system (§2); everything runs on
//! the caller's thread.
//!
//! Packs are removable and serializable ([`DiskPack::to_image`]), so file
//! systems survive across simulated machines — the openness property the
//! paper builds on. Fault injection ([`inject`]) supports the robustness
//! experiments: one-shot *write* faults — smashed labels, torn writes,
//! dropped writes — for the E8 crash/recovery campaigns, and *transient*
//! faults on reads as well as writes (soft checksum errors, seek
//! mis-positions, drive not-ready; [`DiskError::Transient`]) that the
//! bounded-retry layer above the drive absorbs and accounts
//! ([`DriveStats::soft_errors`], `retries`, `recovered`, `hard_failures`).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod array;
pub mod audit;
pub mod drive;
pub mod errors;
pub mod geometry;
pub mod inject;
pub mod label;
pub mod pack;
pub mod pool;
pub mod sched;
pub mod sector;
pub mod timing;
pub mod view;

pub use ablation::{UncheckedDisk, UnscheduledDisk};
pub use array::{DriveArray, Placement};
pub use audit::{AuditRule, AuditViolation, Auditor, UnparkOutcome};
pub use drive::{Disk, DiskDrive, DriveStats};
pub use errors::{CheckFailure, DiskError, SectorPart};
pub use geometry::{DiskAddress, DiskGeometry, DiskModel};
pub use inject::{FaultInjector, FaultKind};
pub use label::{Label, LABEL_WORDS};
pub use pack::{DiskPack, PackImageError};
pub use sched::BatchRequest;
pub use sector::{Action, Sector, SectorBuf, SectorOp, DATA_WORDS};
pub use timing::TimingModel;
pub use view::{LabelView, SectorBufView, SectorView, WriteSource, SECTOR_WORDS};
