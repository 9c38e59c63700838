//! Michael's lock-free linked list.
//!
//! A refactoring of Harris's list (Michael, SPAA 2002) in which the search
//! helper unlinks *one* marked node at a time and restarts from the head
//! whenever a CAS fails or the predecessor changes. The structure of `find`
//! (returning the address of the predecessor's next field) makes safe memory
//! reclamation straightforward, which is why ASCYLIB ships it alongside
//! Harris's original. Like Harris's list it violates ASCY1/2: searches help
//! with clean-up and may restart.

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

/// Michael's lock-free linked list.
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::MichaelList;
///
/// let list = MichaelList::new();
/// assert!(list.insert(4, 44));
/// assert_eq!(list.remove(4), Some(44));
/// ```
pub struct MichaelList {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared node state is atomic; nodes are retired only by the thread
// whose unlink CAS succeeded and reclaimed after an SSMEM grace period.
unsafe impl Send for MichaelList {}
// SAFETY: see above.
unsafe impl Sync for MichaelList {}

/// Result of `find`: the predecessor's next-field and the current node.
struct Position {
    prev: *const MarkedPtr<Node>,
    curr: *mut Node,
}

impl MichaelList {
    /// Creates an empty list.
    pub fn new() -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head, tail }
    }

    /// Michael's `find`: positions on the first unmarked node with
    /// `key >= key`, unlinking marked nodes one at a time along the way and
    /// restarting from the head when a CAS fails.
    ///
    /// Caller must hold an SSMEM guard.
    fn find(&self, key: u64) -> Position {
        // SAFETY: caller holds a guard.
        unsafe {
            'retry: loop {
                let mut prev: *const MarkedPtr<Node> = &(*self.head).next;
                let mut curr = (*prev).load(Ordering::Acquire).0;
                let mut traversed = 0u64;
                loop {
                    if curr == self.tail {
                        stats::record_traversal(traversed);
                        return Position { prev, curr };
                    }
                    let (next, cmark) = (*curr).next.load(Ordering::Acquire);
                    // Re-validate that prev still points at curr, unmarked.
                    if (*prev).load(Ordering::Acquire) != (curr, tag::CLEAN) {
                        stats::record_restart();
                        continue 'retry;
                    }
                    if cmark == tag::CLEAN {
                        if (*curr).key >= key {
                            stats::record_traversal(traversed);
                            return Position { prev, curr };
                        }
                        prev = &(*curr).next;
                        curr = next;
                    } else {
                        // curr is logically deleted: unlink exactly this node.
                        let ok = (*prev)
                            .compare_exchange(
                                curr,
                                tag::CLEAN,
                                next,
                                tag::CLEAN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok();
                        stats::record_atomic(ok);
                        if !ok {
                            stats::record_restart();
                            continue 'retry;
                        }
                        ssmem::retire(curr);
                        curr = next;
                    }
                    traversed += 1;
                }
            }
        }
    }
}

impl ConcurrentMap for MichaelList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let pos = self.find(key);
        stats::record_operation();
        // SAFETY: guard protects the node.
        unsafe {
            if pos.curr != self.tail && (*pos.curr).key == key {
                Some((*pos.curr).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let pos = self.find(key);
            // SAFETY: guard protects the nodes; the new node is fully
            // initialized before the publishing CAS.
            unsafe {
                if pos.curr != self.tail && (*pos.curr).key == key {
                    stats::record_operation();
                    return false;
                }
                let node = new_node(key, value, pos.curr);
                let ok = (*pos.prev)
                    .compare_exchange(
                        pos.curr,
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
                ssmem::dealloc_immediate(node);
                stats::record_restart();
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let pos = self.find(key);
            // SAFETY: guard protects the nodes; only the unlinking CAS owner
            // (here or inside `find`) retires the victim.
            unsafe {
                if pos.curr == self.tail || (*pos.curr).key != key {
                    stats::record_operation();
                    return None;
                }
                let (next, m) = (*pos.curr).next.load(Ordering::Acquire);
                if m != tag::CLEAN {
                    stats::record_restart();
                    continue;
                }
                let value = (*pos.curr).value.load(Ordering::Acquire);
                // Logical deletion.
                let marked = (*pos.curr)
                    .next
                    .compare_exchange(
                        next,
                        tag::CLEAN,
                        next,
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
                // Physical deletion: try once; otherwise the next find() will
                // clean up (and retire).
                let unlinked = (*pos.prev)
                    .compare_exchange(
                        pos.curr,
                        tag::CLEAN,
                        next,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(unlinked);
                if unlinked {
                    ssmem::retire(pos.curr);
                } else {
                    let _ = self.find(key);
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

impl RangeWalk for MichaelList {
    /// Range traversal without the clean-up/restart behaviour of `find`:
    /// marked nodes are simply skipped.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl_ordered_map!(MichaelList);

impl Default for MichaelList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MichaelList {
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

impl std::fmt::Debug for MichaelList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MichaelList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = MichaelList::new();
        assert!(l.insert(5, 50));
        assert!(l.insert(6, 60));
        assert!(!l.insert(5, 51));
        assert_eq!(l.search(6), Some(60));
        assert_eq!(l.remove(5), Some(50));
        assert_eq!(l.remove(5), None);
        assert_eq!(l.size(), 1);
    }
}
