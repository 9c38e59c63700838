//! The sequential ("asynchronized") skip list.
//!
//! Like [`crate::list::AsyncList`], this is the paper's `async` skip-list
//! baseline: the sequential algorithm shared without synchronization. All
//! shared fields are `Relaxed` atomics (so the Rust implementation is free
//! of data races) and garbage collection is disabled. Under concurrent
//! updates the structure may become malformed — the paper observes exactly
//! this (towers whose pointers are not properly set, leading to longer
//! average path lengths) — but it remains traversable.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::skiplist::{alloc_tower, free_tower, random_level, slot, TowerNode, MAX_LEVEL};
use crate::stats;

/// Node header; `toplevel` forward pointers follow it in the same
/// allocation (24 + 8·`toplevel` bytes).
#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    toplevel: usize,
}

// SAFETY: `toplevel` is the height `new_node` allocated the tower with.
unsafe impl TowerNode for Node {
    type Slot = AtomicPtr<Node>;

    fn empty_slot() -> Self::Slot {
        AtomicPtr::new(std::ptr::null_mut())
    }

    fn toplevel(&self) -> usize {
        self.toplevel
    }
}

fn new_node(key: u64, value: u64, toplevel: usize) -> *mut Node {
    alloc_tower(Node { key, value: AtomicU64::new(value), toplevel }, toplevel)
}

/// The asynchronized (sequential) skip list.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::AsyncSkipList;
///
/// let sl = AsyncSkipList::new();
/// assert!(sl.insert(4, 40));
/// assert_eq!(sl.search(4), Some(40));
/// ```
pub struct AsyncSkipList {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared fields are atomics; nodes are never reclaimed during the
// structure's lifetime (GC disabled, as in the paper's async runs).
unsafe impl Send for AsyncSkipList {}
// SAFETY: see above.
unsafe impl Sync for AsyncSkipList {}

impl AsyncSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, MAX_LEVEL);
        let head = new_node(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated sentinels.
        unsafe {
            for level in 0..MAX_LEVEL {
                slot(head, level).store(tail, Ordering::Relaxed);
            }
        }
        Self { head, tail }
    }

    /// Standard skip-list descent recording the predecessor at every level.
    fn find(&self, key: u64, preds: &mut [*mut Node; MAX_LEVEL], succs: &mut [*mut Node; MAX_LEVEL]) {
        let mut traversed = 0u64;
        // SAFETY: nodes are never reclaimed while the structure is alive.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = slot(pred, level).load(Ordering::Relaxed);
                while (*curr).key < key {
                    pred = curr;
                    curr = slot(curr, level).load(Ordering::Relaxed);
                    traversed += 1;
                }
                preds[level] = pred;
                succs[level] = curr;
            }
        }
        stats::record_traversal(traversed);
    }
}

impl ConcurrentMap for AsyncSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let mut traversed = 0u64;
        stats::record_operation();
        // SAFETY: nodes are never reclaimed while the structure is alive.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = slot(pred, level).load(Ordering::Relaxed);
                while (*curr).key < key {
                    pred = curr;
                    curr = slot(curr, level).load(Ordering::Relaxed);
                    traversed += 1;
                }
                if (*curr).key == key {
                    stats::record_traversal(traversed);
                    return Some((*curr).value.load(Ordering::Relaxed));
                }
            }
            stats::record_traversal(traversed);
            None
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        self.find(key, &mut preds, &mut succs);
        stats::record_operation();
        // SAFETY: sequential algorithm; nodes are alive for the structure's
        // lifetime.
        unsafe {
            if (*succs[0]).key == key {
                return false;
            }
            let toplevel = random_level();
            let node = new_node(key, value, toplevel);
            for level in 0..toplevel {
                slot(node, level).store(succs[level], Ordering::Relaxed);
                slot(preds[level], level).store(node, Ordering::Relaxed);
                stats::record_store();
            }
            true
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        self.find(key, &mut preds, &mut succs);
        stats::record_operation();
        // SAFETY: sequential algorithm; removed nodes are intentionally not
        // retired (GC disabled for asynchronized runs).
        unsafe {
            let victim = succs[0];
            if (*victim).key != key {
                return None;
            }
            let value = (*victim).value.load(Ordering::Relaxed);
            for level in 0..(*victim).toplevel {
                if slot(preds[level], level).load(Ordering::Relaxed) == victim {
                    slot(preds[level], level)
                        .store(slot(victim, level).load(Ordering::Relaxed), Ordering::Relaxed);
                    stats::record_store();
                }
            }
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let mut count = 0;
        // SAFETY: level-0 chain traversal; nodes alive for the structure's
        // lifetime.
        unsafe {
            let mut curr = slot(self.head, 0).load(Ordering::Relaxed);
            while curr != self.tail {
                count += 1;
                curr = slot(curr, 0).load(Ordering::Relaxed);
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
        // Relaxed: the asynchronized baseline performs exactly a sequential
        // skip list's accesses.
        self.value.load(Ordering::Relaxed)
    }

    unsafe fn chain_live(_node: *mut Self) -> bool {
        true
    }

    unsafe fn chain_next(node: *mut Self) -> *mut Self {
        // SAFETY: forwarded caller contract.
        unsafe { slot(node, 0).load(Ordering::Relaxed) }
    }
}

impl RangeWalk for AsyncSkipList {
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        // SAFETY: nodes are never reclaimed while the structure is alive
        // (GC disabled for asynchronized baselines).
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = slot(pred, level).load(Ordering::Relaxed);
                while (*curr).key < lo {
                    pred = curr;
                    curr = slot(curr, level).load(Ordering::Relaxed);
                }
            }
            walk_chain(pred, lo, visit);
        }
    }
}

impl_ordered_map!(AsyncSkipList);

impl Default for AsyncSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncSkipList {
    fn drop(&mut self) {
        // SAFETY: exclusive access; walk the level-0 chain and free each node
        // once (removed nodes were leaked deliberately).
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = if curr == self.tail {
                    std::ptr::null_mut()
                } else {
                    slot(curr, 0).load(Ordering::Relaxed)
                };
                free_tower(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for AsyncSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSkipList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skiplist::tower_layout;

    #[test]
    fn async_nodes_are_a_header_plus_one_slot_per_level() {
        assert_eq!(tower_layout::<Node>(1).size(), 32);
        assert_eq!(tower_layout::<Node>(MAX_LEVEL).size(), 24 + 8 * MAX_LEVEL);
        for h in 1..=MAX_LEVEL {
            assert_eq!(tower_layout::<Node>(h).size(), 24 + 8 * h, "height {h}");
        }
    }

    #[test]
    fn basic_semantics() {
        let sl = AsyncSkipList::new();
        for k in [9u64, 2, 7, 4, 11] {
            assert!(sl.insert(k, k * 10));
        }
        assert!(!sl.insert(7, 0));
        assert_eq!(sl.size(), 5);
        assert_eq!(sl.search(11), Some(110));
        assert_eq!(sl.remove(2), Some(20));
        assert_eq!(sl.search(2), None);
        assert_eq!(sl.size(), 4);
    }

    #[test]
    fn many_keys_keep_level0_sorted() {
        let sl = AsyncSkipList::new();
        for k in (1..=500u64).rev() {
            assert!(sl.insert(k, k));
        }
        assert_eq!(sl.size(), 500);
        for k in 1..=500u64 {
            assert_eq!(sl.search(k), Some(k));
        }
    }
}
