//! Pugh's concurrent linked list.
//!
//! Operations search/parse the list optimistically without any store
//! (ASCY1/2). Updates lock the predecessor, validate it, and perform the
//! modification. Removals employ **pointer reversal**: the next pointer of a
//! removed node is redirected to its predecessor so that a concurrent
//! search/parse that is sitting on the removed node always finds a correct
//! path back into the list (Pugh, "Concurrent Maintenance of Skip Lists",
//! 1990 — the list is the one-level special case).
//!
//! With the default configuration the list follows **ASCY3** (an update whose
//! parse shows it cannot succeed fails without acquiring locks);
//! [`PughList::without_ascy3`] builds the `pugh-no` variant of Figure 6.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use ascylib_ssmem as ssmem;
use ascylib_sync::TtasLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::stats;

#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    removed: AtomicBool,
    lock: TtasLock,
    next: AtomicPtr<Node>,
}

fn new_node(key: u64, value: u64, next: *mut Node) -> *mut Node {
    ssmem::alloc(Node {
        key,
        value: AtomicU64::new(value),
        removed: AtomicBool::new(false),
        lock: TtasLock::new(),
        next: AtomicPtr::new(next),
    })
}

/// Pugh's optimistic linked list (hybrid lock-based).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::list::PughList;
///
/// let list = PughList::new();
/// assert!(list.insert(10, 1));
/// assert_eq!(list.search(10), Some(1));
/// assert_eq!(list.remove(10), Some(1));
/// ```
pub struct PughList {
    head: *mut Node,
    ascy3: bool,
}

// SAFETY: shared node state is atomic; updates are serialized by per-node
// locks; removed nodes keep a valid (reversed) next pointer and are reclaimed
// only after an SSMEM grace period.
unsafe impl Send for PughList {}
// SAFETY: see above.
unsafe impl Sync for PughList {}

impl PughList {
    /// Creates an empty list with ASCY3 enabled (the paper's `pugh`).
    pub fn new() -> Self {
        Self::with_ascy3(true)
    }

    /// Creates the `pugh-no` variant of Figure 6 (unsuccessful updates still
    /// lock).
    pub fn without_ascy3() -> Self {
        Self::with_ascy3(false)
    }

    fn with_ascy3(ascy3: bool) -> Self {
        let tail = new_node(u64::MAX, 0, std::ptr::null_mut());
        let head = new_node(0, 0, tail);
        Self { head, ascy3 }
    }

    /// Optimistic parse. Because removed nodes point back to their
    /// predecessor, the traversal may briefly move backwards but always
    /// reaches the first live node with `key >= key`.
    #[inline]
    fn find(&self, key: u64) -> (*mut Node, *mut Node) {
        let mut traversed = 0u64;
        // SAFETY: performed under the caller's SSMEM guard.
        unsafe {
            let mut pred = self.head;
            let mut curr = (*pred).next.load(Ordering::Acquire);
            loop {
                if (*curr).key >= key && !(*curr).removed.load(Ordering::Acquire) {
                    break;
                }
                if (*curr).removed.load(Ordering::Acquire) {
                    // Pointer reversal: follow the back pointer and resume.
                    curr = (*curr).next.load(Ordering::Acquire);
                    if (*curr).removed.load(Ordering::Acquire) || (*curr).key >= key {
                        // Rare: the predecessor was removed as well (or we
                        // jumped back past the key); restart from the head.
                        pred = self.head;
                        curr = (*pred).next.load(Ordering::Acquire);
                    }
                    continue;
                }
                pred = curr;
                curr = (*curr).next.load(Ordering::Acquire);
                traversed += 1;
            }
            stats::record_traversal(traversed);
            (pred, curr)
        }
    }
}

impl ConcurrentMap for PughList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let (_, curr) = self.find(key);
        stats::record_operation();
        // SAFETY: guard protects the traversal.
        unsafe {
            if (*curr).key == key {
                Some((*curr).value.load(Ordering::Acquire))
            } else {
                None
            }
        }
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (pred, curr) = self.find(key);
            // SAFETY: guard protects pred/curr; the predecessor's lock
            // serializes modifications of its next pointer.
            unsafe {
                if self.ascy3 && (*curr).key == key {
                    stats::record_operation();
                    return false;
                }
                (*pred).lock.lock();
                stats::record_lock();
                let valid = !(*pred).removed.load(Ordering::Acquire)
                    && (*pred).next.load(Ordering::Acquire) == curr;
                if !valid {
                    (*pred).lock.unlock();
                    stats::record_restart();
                    continue;
                }
                let result = if (*curr).key == key {
                    false
                } else {
                    let node = new_node(key, value, curr);
                    (*pred).next.store(node, Ordering::Release);
                    stats::record_store();
                    true
                };
                (*pred).lock.unlock();
                stats::record_operation();
                return result;
            }
        }
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        loop {
            let (pred, curr) = self.find(key);
            // SAFETY: guard protects pred/curr; locks serialize the
            // modification; the victim keeps a valid back pointer and is
            // retired only after being unlinked.
            unsafe {
                if (*curr).key != key {
                    if !self.ascy3 {
                        (*pred).lock.lock();
                        stats::record_lock();
                        (*pred).lock.unlock();
                    }
                    stats::record_operation();
                    return None;
                }
                (*pred).lock.lock();
                stats::record_lock();
                (*curr).lock.lock();
                stats::record_lock();
                let valid = !(*pred).removed.load(Ordering::Acquire)
                    && !(*curr).removed.load(Ordering::Acquire)
                    && (*pred).next.load(Ordering::Acquire) == curr
                    && (*curr).key == key;
                if !valid {
                    (*curr).lock.unlock();
                    (*pred).lock.unlock();
                    stats::record_restart();
                    continue;
                }
                let value = (*curr).value.load(Ordering::Acquire);
                (*curr).removed.store(true, Ordering::Release);
                stats::record_store();
                // Unlink, then reverse the victim's pointer to its
                // predecessor so in-flight parses fall back into the list.
                (*pred)
                    .next
                    .store((*curr).next.load(Ordering::Acquire), Ordering::Release);
                stats::record_store();
                (*curr).next.store(pred, Ordering::Release);
                stats::record_store();
                (*curr).lock.unlock();
                (*pred).lock.unlock();
                ssmem::retire(curr);
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
            let mut curr = (*self.head).next.load(Ordering::Acquire);
            while (*curr).key != u64::MAX {
                if !(*curr).removed.load(Ordering::Acquire) {
                    count += 1;
                    curr = (*curr).next.load(Ordering::Acquire);
                } else {
                    curr = (*curr).next.load(Ordering::Acquire);
                }
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
        unsafe { !(*node).removed.load(Ordering::Acquire) }
    }

    unsafe fn chain_next(node: *mut Self) -> *mut Self {
        // SAFETY: forwarded caller contract.
        unsafe { (*node).next.load(Ordering::Acquire) }
    }
}

impl RangeWalk for PughList {
    /// Optimistic store-free traversal. A removed node's reversed `next`
    /// pointer sends the walk *backwards* to its predecessor; the shared
    /// scan wrappers filter the resulting re-visits, so the emitted
    /// sequence stays strictly ascending.
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every node reached through `next`.
        unsafe { walk_chain(self.head, lo, visit) }
    }
}

impl_ordered_map!(PughList);

impl Default for PughList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PughList {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; only still-linked (live) nodes are
        // reachable and each is freed once.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = if (*curr).key == u64::MAX {
                    std::ptr::null_mut()
                } else {
                    (*curr).next.load(Ordering::Relaxed)
                };
                ssmem::dealloc_immediate(curr);
                curr = next;
            }
        }
    }
}

impl std::fmt::Debug for PughList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PughList")
            .field("ascy3", &self.ascy3)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let l = PughList::new();
        for k in [7u64, 3, 9, 1] {
            assert!(l.insert(k, k));
        }
        assert!(!l.insert(3, 0));
        assert_eq!(l.remove(3), Some(3));
        assert_eq!(l.remove(3), None);
        assert_eq!(l.search(9), Some(9));
        assert_eq!(l.size(), 3);
    }

    #[test]
    fn reinsert_after_remove_uses_fresh_node() {
        let l = PughList::new();
        assert!(l.insert(5, 1));
        assert_eq!(l.remove(5), Some(1));
        assert!(l.insert(5, 2));
        assert_eq!(l.search(5), Some(2));
        assert_eq!(l.size(), 1);
    }
}
