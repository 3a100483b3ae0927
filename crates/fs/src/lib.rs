//! The Alto file system (Lampson & Sproull, SOSP 1979, §3).
//!
//! Long-term storage is organized into **files**, each a sequence of
//! fixed-size **pages**; every page is one disk sector whose label carries
//! the page's *absolute name* — file identifier, version, and page number —
//! plus *hint* links to its neighbours. Because every page is
//! self-identifying, the entire state of the file system can be rebuilt
//! from a scan of the labels: that is the **Scavenger** (§3.5), and its
//! requirements govern much of the design.
//!
//! The crate exposes the system at every level the paper does ("we try as
//! far as possible to make the small components accessible to the user as
//! well as the large ones", §1):
//!
//! * pages — [`FileSystem::allocate_page`], [`FileSystem::free_page`],
//!   [`FileSystem::read_page`], [`FileSystem::write_page`];
//! * files — create/extend/truncate/delete, leader pages with recoverable
//!   leader names ([`leader::LeaderPage`]);
//! * directories — ordinary files holding (string, full name) pairs,
//!   forming an arbitrary directed graph ([`dir`]);
//! * hints — the five-step recovery ladder of §3.6 ([`hints`]), and the
//!   in-core hint cache that makes the same discipline the primary
//!   performance mechanism ([`cache`]);
//! * scavenging — full reconstruction of hints from absolutes
//!   ([`scavenge`]), plus the "more elaborate scavenger" that permutes
//!   pages in place so files become consecutive ([`compact`]).
//!
//! Everything is generic over [`alto_disk::Disk`], so a non-standard disk
//! implementation slots under the standard file-system package, exactly as
//! §5.2 describes.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod cache;
pub mod compact;
pub mod dates;
pub mod descriptor;
pub mod dir;
pub mod errors;
pub mod file;
pub mod hints;
pub mod hostile;
pub mod journal;
pub mod leader;
pub mod names;
pub mod page;
pub mod scavenge;

pub use cache::CacheStats;
pub use dates::AltoDate;
pub use descriptor::DiskDescriptor;
pub use errors::FsError;
pub use file::{FileSystem, FsStats};
pub use hints::{HintOutcome, HintStats, PageHints};
pub use leader::LeaderPage;
pub use names::{FileFullName, Fv, PageName, SerialNumber};
pub use scavenge::{ScavengeReport, Scavenger};
