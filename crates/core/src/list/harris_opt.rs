//! Harris's list re-engineered with ASCY1–2 (`harris-opt` in the paper).
//!
//! The paper applies **ASCY1** to Harris's list by removing the physical
//! unlinking (and the associated restarts) from the search operation: a
//! search simply ignores logically deleted nodes, performs no stores, never
//! waits and never restarts. The parse phase of updates follows **ASCY2**:
//! it may attempt clean-up stores (unlinking a marked node it walks over)
//! but never restarts when such a clean-up CAS fails. Unsuccessful updates
//! follow **ASCY3** and fail without a single store. §5/Figure 4 of the
//! paper measures 10–30% lower search latencies and a tighter latency
//! distribution compared to `harris`/`michael`.

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::marked::{tag, MarkedPtr};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    next: MarkedPtr<Node>,
}

fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        next: MarkedPtr::new(next, tag::CLEAN),
    })
}

/// The ASCY-compliant variant of Harris's lock-free list.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::HarrisOptList;
///
/// let list = HarrisOptList::new();
/// assert!(list.insert(7, 70));
/// assert_eq!(list.search(7), Some(70));
/// assert_eq!(list.remove(7), Some(70));
/// assert_eq!(list.search(7), None);
/// ```
pub struct HarrisOptList {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared node state is atomic; victims are retired only by the
// thread whose unlink CAS succeeded; traversals run under SSMEM guards.
unsafe impl Send for HarrisOptList {}
// SAFETY: see above.
unsafe impl Sync for HarrisOptList {}

impl HarrisOptList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head, tail }
    }

    /// ASCY1-compliant wait-free traversal: no stores, no retries.
    ///
    /// Caller must hold an SSMEM guard.
    #[inline]
    fn traverse(&self, key: u64) -> (*mut Node, *mut Node) {
        // SAFETY: caller holds a guard.
        unsafe {
            let mut pred = self.head;
            let mut curr = (*pred).next.load(Ordering::Acquire).0;
            let mut traversed = 0u64;
            while (*curr).key < key {
                pred = curr;
                curr = (*curr).next.load(Ordering::Acquire).0;
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }

    /// ASCY2-compliant parse for updates: identical to the search traversal,
    /// except that when it walks over a logically deleted node it makes a
    /// *single* attempt to unlink it (a clean-up store) and continues
    /// regardless of the outcome — it never restarts.
    ///
    /// Caller must hold an SSMEM guard.
    fn parse(&self, key: u64) -> (*mut Node, *mut Node) {
        // SAFETY: caller holds a guard; clean-up CASes only unlink nodes that
        // are already logically deleted, and the victim is retired only when
        // our CAS succeeded.
        unsafe {
            let mut pred = self.head;
            let mut curr = (*pred).next.load(Ordering::Acquire).0;
            let mut traversed = 0u64;
            while (*curr).key < key || (*curr).next.load(Ordering::Acquire).1 != tag::CLEAN {
                let (succ, mark) = (*curr).next.load(Ordering::Acquire);
                if mark != tag::CLEAN {
                    // One shot clean-up; never restart on failure (ASCY2).
                    let ok = (*pred)
                        .next
                        .compare_exchange(
                            curr,
                            tag::CLEAN,
                            succ,
                            tag::CLEAN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok();
                    stats::record_atomic(ok);
                    if ok {
                        ssmem::retire(curr);
                        curr = succ;
                        continue;
                    }
                    // Could not unlink; simply step over it.
                    pred = curr;
                    curr = succ;
                } else {
                    pred = curr;
                    curr = succ;
                }
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }
}

impl ConcurrentMap for HarrisOptList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let (_, curr) = self.traverse(key);
        stats::record_operation();
        // SAFETY: guard protects the node.
        unsafe {
            if (*curr).key == key && (*curr).next.load(Ordering::Acquire).1 == tag::CLEAN {
                Some((*curr).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let mut node: *mut Node = std::ptr::null_mut();
        loop {
            let (pred, curr) = self.parse(key);
            // SAFETY: guard protects pred/curr.
            unsafe {
                if (*curr).key == key {
                    // ASCY3: read-only failure.
                    if !node.is_null() {
                        ssmem::dealloc_immediate(node);
                    }
                    stats::record_operation();
                    return false;
                }
                if node.is_null() {
                    node = new_node(key, value, curr);
                } else {
                    // Relaxed: `node` is still private (a CAS loser being
                    // retried); the successful CAS below publishes it.
                    (*node).next.store(curr, tag::CLEAN, Ordering::Relaxed);
                }
                let ok = (*pred)
                    .next
                    .compare_exchange(
                        curr,
                        tag::CLEAN,
                        node,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    stats::record_operation();
                    return true;
                }
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (pred, curr) = self.parse(key);
            // SAFETY: guard protects pred/curr; the victim is retired only by
            // the thread whose unlink CAS succeeds (here or in a later
            // parse).
            unsafe {
                if (*curr).key != key {
                    // ASCY3: read-only failure.
                    stats::record_operation();
                    return None;
                }
                let (succ, m) = (*curr).next.load(Ordering::Acquire);
                if m != tag::CLEAN {
                    // Concurrently deleted; treat as absent (it was logically
                    // removed before our linearization point).
                    stats::record_operation();
                    return None;
                }
                let value = (*curr).value.load(Ordering::Acquire);
                let marked = (*curr)
                    .next
                    .compare_exchange(
                        succ,
                        tag::CLEAN,
                        succ,
                        tag::MARK,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(marked);
                if !marked {
                    stats::record_restart();
                    continue;
                }
                // Single unlink attempt (ASCY4: one clean-up store); deferred
                // to later parses if it fails.
                let unlinked = (*pred)
                    .next
                    .compare_exchange(
                        curr,
                        tag::CLEAN,
                        succ,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(unlinked);
                if unlinked {
                    ssmem::retire(curr);
                }
                stats::record_operation();
                return Some(value);
            }
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = (*self.head).next.load(Ordering::Acquire).0;
            while curr != self.tail {
                let (next, m) = (*curr).next.load(Ordering::Acquire);
                if m == tag::CLEAN {
                    count += 1;
                }
                curr = next;
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
        self.value.load(Ordering::Acquire)
    }

    unsafe fn chain_live(node: *mut Self) -> bool {
        // SAFETY: forwarded caller contract.
        unsafe { (*node).next.load(Ordering::Acquire).1 == tag::CLEAN }
    }

    unsafe fn chain_next(node: *mut Self) -> *mut Self {
        // SAFETY: forwarded caller contract.
        unsafe { (*node).next.load(Ordering::Acquire).0 }
    }
}

impl RangeWalk for HarrisOptList {
    /// The natural extension of the ASCY1 search: one wait-free pass over
    /// the chain, ignoring logically deleted nodes.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl_ordered_map!(HarrisOptList);

impl Default for HarrisOptList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HarrisOptList {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = (*curr).next.load(Ordering::Relaxed).0;
                ssmem::dealloc_immediate(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for HarrisOptList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarrisOptList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = HarrisOptList::new();
        assert!(l.insert(9, 90));
        assert!(l.insert(8, 80));
        assert!(!l.insert(9, 91));
        assert_eq!(l.search(8), Some(80));
        assert_eq!(l.remove(9), Some(90));
        assert_eq!(l.search(9), None);
        assert_eq!(l.size(), 1);
    }

    #[test]
    fn search_after_logical_delete_sees_absence() {
        let l = HarrisOptList::new();
        for k in 1..=64u64 {
            assert!(l.insert(k, k));
        }
        for k in (1..=64u64).step_by(2) {
            assert_eq!(l.remove(k), Some(k));
            assert_eq!(l.search(k), None, "logically deleted {k} must be invisible");
        }
        assert_eq!(l.size(), 32);
    }
}
