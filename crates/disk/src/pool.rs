//! Recycled buffers for the steady-state I/O paths.
//!
//! [`crate::Disk::do_batch`], [`crate::Disk::do_batch_read`] and
//! [`crate::Disk::do_batch_write`] return their per-request result vector
//! by value, so no drive can keep it: the vector outlives the call and is
//! consumed by whoever issued the batch. Allocating one per call dominated
//! the wall-clock profile (see `docs/PERFORMANCE.md`), so the drives take
//! result vectors from a small thread-local free list, and callers hand
//! them back with [`recycle_results`] once consumed. The staged defaults of
//! [`crate::Disk`] — `do_batch_write`, the one every disk uses, and the
//! `do_batch_read` of a disk with no lending chain — and the free functions
//! of `alto_fs::page`, which own no state between calls, take their request
//! and address vectors from the same lists. In the steady state every list
//! has a warm vector with grown capacity, so a read or write costs zero
//! heap allocations.
//!
//! Pooling is a *host-side* optimization: it never touches the simulated
//! clock, the trace contents, or §3.3 semantics — recycled vectors are
//! always cleared before reuse. Everything else a batch needs lives in the
//! object that uses it (the drive's planning scratch, the array's split
//! storage, the file system's staging vectors, the ether's word vectors).

use std::cell::RefCell;

use crate::errors::DiskError;
use crate::geometry::DiskAddress;
use crate::sched::BatchRequest;

/// How many vectors each free list retains per thread. Four covers the
/// deepest current nesting (an array batch inside an fs batch, with a
/// write-behind flush in flight); anything beyond the cap is simply dropped.
const PER_LIST: usize = 4;

struct FreeLists {
    batches: Vec<Vec<BatchRequest>>,
    results: Vec<Vec<Result<(), DiskError>>>,
    das: Vec<Vec<DiskAddress>>,
}

// lint: allow(thread-discipline) — `Disk` returns result vectors by value,
// so they outlive any drive-owned buffer; this one free list recycles them
thread_local! {
    static LISTS: RefCell<FreeLists> = const {
        RefCell::new(FreeLists {
            batches: Vec::new(),
            results: Vec::new(),
            das: Vec::new(),
        })
    };
}

/// An empty request vector, recycled when possible.
pub fn batch_vec() -> Vec<BatchRequest> {
    LISTS
        .with(|l| l.borrow_mut().batches.pop())
        .unwrap_or_default()
}

/// Returns a request vector to the free list (contents are dropped).
pub fn recycle_batch(mut v: Vec<BatchRequest>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    LISTS.with(|l| {
        let mut lists = l.borrow_mut();
        if lists.batches.len() < PER_LIST {
            lists.batches.push(v);
        }
    });
}

/// An empty per-request result vector, recycled when possible.
pub fn results_vec() -> Vec<Result<(), DiskError>> {
    LISTS
        .with(|l| l.borrow_mut().results.pop())
        .unwrap_or_default()
}

/// Returns a result vector to the free list.
pub fn recycle_results(mut v: Vec<Result<(), DiskError>>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    LISTS.with(|l| {
        let mut lists = l.borrow_mut();
        if lists.results.len() < PER_LIST {
            lists.results.push(v);
        }
    });
}

/// An empty disk-address vector, recycled when possible — the zero-copy
/// batch paths take their address lists from here.
pub fn da_vec() -> Vec<DiskAddress> {
    LISTS.with(|l| l.borrow_mut().das.pop()).unwrap_or_default()
}

/// Returns a disk-address vector to the free list.
pub fn recycle_das(mut v: Vec<DiskAddress>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    LISTS.with(|l| {
        let mut lists = l.borrow_mut();
        if lists.das.len() < PER_LIST {
            lists.das.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskAddress;
    use crate::sector::{SectorBuf, SectorOp};

    #[test]
    fn round_trip_reuses_capacity() {
        let mut v = batch_vec();
        for i in 0..8u16 {
            v.push(BatchRequest::new(
                DiskAddress(i),
                SectorOp::READ_ALL,
                SectorBuf::zeroed(),
            ));
        }
        let cap = v.capacity();
        recycle_batch(v);
        let v2 = batch_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(8));
    }

    #[test]
    fn free_list_is_bounded() {
        for _ in 0..2 * PER_LIST {
            let mut v = results_vec();
            v.reserve(4);
            recycle_results(v);
        }
        let held = LISTS.with(|l| l.borrow().results.len());
        assert!(held <= PER_LIST);
    }
}
