//! The sequential ("asynchronized") linked list.
//!
//! This is the paper's `async` linked list: a plain sequential sorted list
//! that is deliberately shared between threads *without synchronization* to
//! obtain a practical upper bound on the performance of any correct
//! concurrent list (§1, §4 "Dissecting asynchronized executions").
//!
//! To keep the Rust implementation free of undefined behaviour while
//! preserving the "no synchronization" property, all shared fields are plain
//! atomics accessed with `Relaxed` ordering: on the paper's platforms these
//! compile to ordinary loads and stores, so the structure performs exactly
//! the stores a sequential list performs — and, like the paper's version, it
//! is **not linearizable** and may lose elements under concurrent updates.
//! Garbage collection is disabled (removed nodes are not retired), exactly
//! as the paper does for the asynchronized runs.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    next: AtomicPtr<Node>,
}

fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        next: AtomicPtr::new(next),
    })
}

/// The asynchronized (sequential) sorted linked list.
///
/// See the module documentation: this structure is only sequentially
/// correct; under concurrent updates it is used purely as a performance
/// upper bound.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::AsyncList;
///
/// let list = AsyncList::new();
/// assert!(list.insert(5, 50));
/// assert!(!list.insert(5, 51));
/// assert_eq!(list.search(5), Some(50));
/// assert_eq!(list.remove(5), Some(50));
/// ```
pub struct AsyncList {
    head: *mut Node,
}

// SAFETY: all shared fields inside nodes are atomics; the structure contains
// no thread-unsafe interior mutability. (Its *semantics* under concurrency
// are deliberately weak, but its memory accesses are well-defined.)
unsafe impl Send for AsyncList {}
// SAFETY: see above.
unsafe impl Sync for AsyncList {}

impl AsyncList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head }
    }

    #[inline]
    fn find(&self, key: u64) -> (*mut Node, *mut Node) {
        let mut traversed = 0u64;
        // SAFETY: head and tail sentinels are never removed; interior nodes
        // are never reclaimed during the structure's lifetime (GC disabled).
        unsafe {
            let mut pred = self.head;
            let mut curr = (*pred).next.load(Ordering::Relaxed);
            while (*curr).key < key {
                pred = curr;
                curr = (*curr).next.load(Ordering::Relaxed);
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }
}

impl ConcurrentMap for AsyncList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let (_, curr) = self.find(key);
        stats::record_operation();
        // SAFETY: nodes are never reclaimed while the list is alive.
        unsafe {
            if (*curr).key == key {
                Some((*curr).value.load(Ordering::Relaxed))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let (pred, curr) = self.find(key);
        stats::record_operation();
        // SAFETY: as above; the new node is fully initialized before being
        // linked.
        unsafe {
            if (*curr).key == key {
                return false;
            }
            let node = new_node(key, value, curr);
            (*pred).next.store(node, Ordering::Relaxed);
            stats::record_store();
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let (pred, curr) = self.find(key);
        stats::record_operation();
        // SAFETY: as above. The removed node is intentionally *not* retired
        // (asynchronized executions disable GC); it is leaked until the
        // structure is dropped, and possibly beyond if it became unreachable,
        // mirroring the paper's methodology.
        unsafe {
            if (*curr).key != key {
                return None;
            }
            let value = (*curr).value.load(Ordering::Relaxed);
            (*pred).next.store((*curr).next.load(Ordering::Relaxed), Ordering::Relaxed);
            stats::record_store();
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: nodes reachable from head are alive for the structure's
        // lifetime.
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Relaxed);
            while (*curr).key != u64::MAX {
                count += 1;
                curr = (*curr).next.load(Ordering::Relaxed);
            }
        }
        count
    }
}

impl ChainNode for Node {
    fn chain_key(&self) -> u64 {
        self.key
    }

    fn chain_value(&self) -> u64 {
        // Relaxed everywhere: the asynchronized baseline deliberately
        // performs exactly a sequential list's accesses.
        self.value.load(Ordering::Relaxed)
    }

    unsafe fn chain_live(_node: *mut Self) -> bool {
        true
    }

    unsafe fn chain_next(node: *mut Self) -> *mut Self {
        // SAFETY: forwarded caller contract.
        unsafe { (*node).next.load(Ordering::Relaxed) }
    }
}

impl RangeWalk for AsyncList {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        // SAFETY: nodes are never reclaimed while the structure is alive
        // (GC disabled for asynchronized baselines), so no guard is needed.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl_ordered_map!(AsyncList);

impl Default for AsyncList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncList {
    fn drop(&mut self) {
        // SAFETY: `&mut self` gives exclusive access; every reachable node is
        // freed exactly once. (Nodes removed during the structure's lifetime
        // are unreachable here and were intentionally leaked.)
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = (*curr).next.load(Ordering::Relaxed);
                ssmem::dealloc_immediate(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for AsyncList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_has_no_elements() {
        let l = AsyncList::new();
        assert_eq!(l.size(), 0);
        assert!(l.is_empty());
        assert_eq!(l.search(1), None);
        assert_eq!(l.remove(1), None);
    }

    #[test]
    fn keeps_elements_sorted_and_unique() {
        let l = AsyncList::new();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(l.insert(k, k * 10));
        }
        assert!(!l.insert(5, 99), "duplicate insert must fail");
        assert_eq!(l.size(), 5);
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(l.search(k), Some(k * 10));
        }
        assert_eq!(l.remove(3), Some(30));
        assert_eq!(l.search(3), None);
        assert_eq!(l.size(), 4);
    }

    #[test]
    fn removed_key_can_be_reinserted() {
        let l = AsyncList::new();
        assert!(l.insert(2, 20));
        assert_eq!(l.remove(2), Some(20));
        assert!(l.insert(2, 21));
        assert_eq!(l.search(2), Some(21));
    }
}
