//! Fraser's lock-free skip list, and its ASCY re-engineered variant.
//!
//! Nodes carry a tower of marked pointers; removal marks every level of the
//! victim's tower (logical deletion) and the physical unlinking is done by
//! the `find` helper, level by level, with CAS. In the original algorithm
//! (here [`FraserSkipList`]) the *search operation itself* uses that helper:
//! it unlinks marked nodes and restarts whenever a clean-up CAS fails or a
//! marked node is met when switching levels — violating ASCY1/2.
//!
//! [`FraserOptSkipList`] is the paper's `fraser-opt` (§5, Figure 5): ASCY1
//! and ASCY2 applied (based on the wait-free-contains technique of Herlihy,
//! Lev and Shavit). Searches traverse without a single store or restart;
//! update parses defer clean-up to the modification phase.
//!
//! Memory reclamation: a removed tower is retired only after the remover's
//! clean-up pass has unlinked it from every level. Concurrent inserters
//! validate that the successor they are about to link to is not marked and
//! repair the link if it became marked, which keeps retired towers
//! unreachable (see DESIGN.md for the discussion of this protocol).

use std::sync::atomic::{AtomicU64, Ordering};

use ascylib_ssmem as ssmem;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::marked::{tag, MarkedPtr};
use crate::ordered::{impl_ordered_map, walk_chain, ChainNode, RangeWalk};
use crate::skiplist::{
    alloc_tower, free_tower, random_level, retire_tower, slot, TowerNode, MAX_LEVEL,
};
use crate::stats;

/// Node header; `toplevel` marked forward pointers follow it in the same
/// allocation (24 + 8·`toplevel` bytes).
#[repr(C)]
struct Node {
    key: u64,
    value: AtomicU64,
    toplevel: usize,
}

// SAFETY: `toplevel` is the height `new_node` allocated the tower with.
unsafe impl TowerNode for Node {
    type Slot = MarkedPtr<Node>;

    fn empty_slot() -> Self::Slot {
        MarkedPtr::null()
    }

    fn toplevel(&self) -> usize {
        self.toplevel
    }
}

fn new_node(key: u64, value: u64, toplevel: usize) -> *mut Node {
    alloc_tower(Node { key, value: AtomicU64::new(value), toplevel }, toplevel)
}

/// Shared implementation; `OPT` selects the ASCY-compliant search/parse.
struct Fraser<const OPT: bool> {
    head: *mut Node,
    tail: *mut Node,
}

// SAFETY: shared node state is atomic; towers are retired only after the
// remover's clean-up pass unlinked them everywhere, and all traversals run
// under SSMEM guards.
unsafe impl<const OPT: bool> Send for Fraser<OPT> {}
// SAFETY: see above.
unsafe impl<const OPT: bool> Sync for Fraser<OPT> {}

impl<const OPT: bool> Fraser<OPT> {
    fn new() -> Self {
        let tail = new_node(u64::MAX, 0, MAX_LEVEL);
        let head = new_node(0, 0, MAX_LEVEL);
        // SAFETY: freshly allocated sentinels.
        // Relaxed: the list is private until the constructor returns; handing
        // `Self` to another thread synchronizes.
        unsafe {
            for level in 0..MAX_LEVEL {
                slot(head, level).store(tail, tag::CLEAN, Ordering::Relaxed);
            }
        }
        Self { head, tail }
    }

    /// Fraser's `search` helper: records predecessors/successors at every
    /// level, physically unlinking marked nodes along the way and restarting
    /// if a clean-up CAS fails. Returns `true` if an unmarked node with the
    /// key sits at level 0.
    ///
    /// Caller must hold an SSMEM guard.
    fn find(
        &self,
        key: u64,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) -> bool {
        // SAFETY: guard protects every traversed node.
        unsafe {
            'retry: loop {
                let mut traversed = 0u64;
                let mut pred = self.head;
                for level in (0..MAX_LEVEL).rev() {
                    let mut curr = slot(pred, level).load(Ordering::Acquire).0;
                    loop {
                        let (mut succ, mut marked) = slot(curr, level).load(Ordering::Acquire);
                        while marked != tag::CLEAN {
                            // curr is logically deleted: unlink it here.
                            let ok = slot(pred, level)
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
                            if !ok {
                                stats::record_restart();
                                continue 'retry;
                            }
                            curr = slot(pred, level).load(Ordering::Acquire).0;
                            let (s, m) = slot(curr, level).load(Ordering::Acquire);
                            succ = s;
                            marked = m;
                        }
                        if (*curr).key < key {
                            pred = curr;
                            curr = succ;
                            traversed += 1;
                        } else {
                            break;
                        }
                    }
                    preds[level] = pred;
                    succs[level] = curr;
                }
                stats::record_traversal(traversed);
                return (*succs[0]).key == key;
            }
        }
    }

    /// ASCY1-compliant wait-free traversal (used by `fraser-opt` searches and
    /// by both variants' `size`). No stores, no retries.
    ///
    /// Caller must hold an SSMEM guard.
    fn traverse(&self, key: u64) -> Option<u64> {
        let mut traversed = 0u64;
        // SAFETY: guard protects every traversed node.
        unsafe {
            let mut pred = self.head;
            let mut result = None;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = slot(pred, level).load(Ordering::Acquire).0;
                while (*curr).key < key {
                    pred = curr;
                    curr = slot(curr, level).load(Ordering::Acquire).0;
                    traversed += 1;
                }
                if (*curr).key == key {
                    result = if slot(curr, 0).load(Ordering::Acquire).1 == tag::CLEAN {
                        Some((*curr).value.load(Ordering::Acquire))
                    } else {
                        None
                    };
                    break;
                }
            }
            stats::record_traversal(traversed);
            result
        }
    }

    fn search_op(&self, key: u64) -> Option<u64> {
        let _guard = ssmem::protect();
        stats::record_operation();
        if OPT {
            // ASCY1: never helps, never restarts.
            self.traverse(key)
        } else {
            // Original fraser: the search uses the cleaning helper.
            let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
            let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
            if self.find(key, &mut preds, &mut succs) {
                // SAFETY: guard protects succs[0].
                unsafe { Some((*succs[0]).value.load(Ordering::Acquire)) }
            } else {
                None
            }
        }
    }

    fn insert_op(&self, key: u64, value: u64) -> bool {
        let _guard = ssmem::protect();
        let toplevel = random_level();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: guard protects every node in preds/succs; the new node is
        // initialized before each publishing CAS.
        unsafe {
            loop {
                if OPT {
                    // ASCY3: a read-only parse decides unsuccessful inserts.
                    if self.traverse(key).is_some() {
                        stats::record_operation();
                        return false;
                    }
                }
                if self.find(key, &mut preds, &mut succs) {
                    stats::record_operation();
                    return false;
                }
                let node = new_node(key, value, toplevel);
                // Relaxed: the node is private until the level-0 CAS below
                // (AcqRel) publishes it.
                for level in 0..toplevel {
                    slot(node, level).store(succs[level], tag::CLEAN, Ordering::Relaxed);
                }
                // Publish at level 0.
                let ok = slot(preds[0], 0)
                    .compare_exchange(
                        succs[0],
                        tag::CLEAN,
                        node,
                        tag::CLEAN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                stats::record_atomic(ok);
                if !ok {
                    free_tower(node);
                    stats::record_restart();
                    continue;
                }
                // Link the upper levels.
                for level in 1..toplevel {
                    loop {
                        // Stop if our node got logically deleted meanwhile.
                        if slot(node, 0).load(Ordering::Acquire).1 != tag::CLEAN {
                            stats::record_operation();
                            return true;
                        }
                        let succ = slot(node, level).load(Ordering::Acquire).0;
                        // Do not link to a marked successor (it is about to be
                        // unlinked and retired).
                        if succ != self.tail
                            && slot(succ, level).load(Ordering::Acquire).1 != tag::CLEAN
                        {
                            self.refresh_level(key, level, node, &mut preds, &mut succs);
                            continue;
                        }
                        let ok = slot(preds[level], level)
                            .compare_exchange(
                                succ,
                                tag::CLEAN,
                                node,
                                tag::CLEAN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok();
                        stats::record_atomic(ok);
                        if ok {
                            break;
                        }
                        stats::record_restart();
                        self.refresh_level(key, level, node, &mut preds, &mut succs);
                    }
                }
                stats::record_operation();
                return true;
            }
        }
    }

    /// Re-computes `preds`/`succs` (via `find`) and repoints the node's
    /// forward pointer at `level` to the new successor.
    ///
    /// # Safety
    ///
    /// Caller must hold a guard; `node` must be the caller's own,
    /// already-published node.
    unsafe fn refresh_level(
        &self,
        key: u64,
        level: usize,
        node: *mut Node,
        preds: &mut [*mut Node; MAX_LEVEL],
        succs: &mut [*mut Node; MAX_LEVEL],
    ) {
        let _ = self.find(key, preds, succs);
        // `find` may return our own node as the successor (it has our key);
        // in that case link to whatever follows it.
        let mut succ = succs[level];
        if succ == node {
            // SAFETY: node is our own live node.
            succ = unsafe { slot(node, level).load(Ordering::Acquire).0 };
        }
        // SAFETY: node is our own; only removers mark its pointers, in which
        // case we stop at the next loop iteration.
        unsafe {
            let (old, m) = slot(node, level).load(Ordering::Acquire);
            if m == tag::CLEAN && old != succ {
                let ok = slot(node, level)
                    .compare_exchange(old, tag::CLEAN, succ, tag::CLEAN, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                stats::record_atomic(ok);
            }
        }
        succs[level] = succ;
    }

    fn remove_op(&self, key: u64) -> Option<u64> {
        let _guard = ssmem::protect();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        // SAFETY: guard protects all traversed nodes; the victim is retired
        // only after the clean-up pass has unlinked it from every level.
        unsafe {
            if OPT {
                // ASCY3: read-only parse for unsuccessful removals.
                if self.traverse(key).is_none() {
                    stats::record_operation();
                    return None;
                }
            }
            if !self.find(key, &mut preds, &mut succs) {
                stats::record_operation();
                return None;
            }
            let victim = succs[0];
            let toplevel = (*victim).toplevel;
            // Mark the upper levels (top-down).
            for level in (1..toplevel).rev() {
                loop {
                    let (succ, m) = slot(victim, level).load(Ordering::Acquire);
                    if m != tag::CLEAN {
                        break;
                    }
                    let ok = slot(victim, level)
                        .compare_exchange(succ, tag::CLEAN, succ, tag::MARK, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                    stats::record_atomic(ok);
                    if ok {
                        break;
                    }
                }
            }
            // Mark level 0: whoever succeeds owns the removal.
            loop {
                let (succ, m) = slot(victim, 0).load(Ordering::Acquire);
                if m != tag::CLEAN {
                    // Someone else removed it first.
                    stats::record_operation();
                    return None;
                }
                let ok = slot(victim, 0)
                    .compare_exchange(succ, tag::CLEAN, succ, tag::MARK, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                stats::record_atomic(ok);
                if ok {
                    break;
                }
                stats::record_restart();
            }
            let value = (*victim).value.load(Ordering::Acquire);
            // Physically unlink it everywhere, then retire it.
            let _ = self.find(key, &mut preds, &mut succs);
            retire_tower(victim);
            stats::record_operation();
            Some(value)
        }
    }

    fn size(&self) -> usize {
        let _guard = ssmem::protect();
        let mut count = 0;
        // SAFETY: guard protects the traversal.
        unsafe {
            let mut curr = slot(self.head, 0).load(Ordering::Acquire).0;
            while curr != self.tail {
                let (next, m) = slot(curr, 0).load(Ordering::Acquire);
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
        // A marked level-0 pointer is the logical deletion point.
        // SAFETY: forwarded caller contract.
        unsafe { slot(node, 0).load(Ordering::Acquire).1 == tag::CLEAN }
    }

    unsafe fn chain_next(node: *mut Self) -> *mut Self {
        // SAFETY: forwarded caller contract.
        unsafe { slot(node, 0).load(Ordering::Acquire).0 }
    }
}

impl<const OPT: bool> RangeWalk for Fraser<OPT> {
    /// ASCY1-style range traversal: the upper levels position the walk at
    /// the last node with key `< lo` in O(log n), then the level-0 lane is
    /// walked like a linked list (no stores, no retries, for both
    /// variants — range reads never help with clean-up).
    fn walk(&self, lo: u64, visit: &mut dyn FnMut(u64, u64) -> bool) {
        let _guard = ssmem::protect();
        // SAFETY: the guard protects every traversed node.
        unsafe {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr = slot(pred, level).load(Ordering::Acquire).0;
                while (*curr).key < lo {
                    pred = curr;
                    curr = slot(curr, level).load(Ordering::Acquire).0;
                }
            }
            walk_chain(pred, lo, visit);
        }
    }
}

impl_ordered_map!(FraserSkipList, via inner);
impl_ordered_map!(FraserOptSkipList, via inner);

impl<const OPT: bool> Drop for Fraser<OPT> {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access; free the level-0 chain.
        unsafe {
            let mut curr = self.head;
            while !curr.is_null() {
                let next = if curr == self.tail {
                    std::ptr::null_mut()
                } else {
                    slot(curr, 0).load(Ordering::Relaxed).0
                };
                free_tower(curr);
                curr = next;
            }
        }
    }
}

/// Fraser's lock-free skip list (original, non-ASCY search).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::FraserSkipList;
///
/// let sl = FraserSkipList::new();
/// assert!(sl.insert(5, 50));
/// assert_eq!(sl.remove(5), Some(50));
/// ```
pub struct FraserSkipList {
    inner: Fraser<false>,
}

impl FraserSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { inner: Fraser::new() }
    }
}

impl ConcurrentMap for FraserSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.search_op(key)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        self.inner.insert_op(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.remove_op(key)
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
}

impl Default for FraserSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FraserSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FraserSkipList").field("size", &self.size()).finish()
    }
}

/// The ASCY-compliant `fraser-opt` skip list (Figure 5 of the paper).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::skiplist::FraserOptSkipList;
///
/// let sl = FraserOptSkipList::new();
/// assert!(sl.insert(6, 60));
/// assert_eq!(sl.search(6), Some(60));
/// ```
pub struct FraserOptSkipList {
    inner: Fraser<true>,
}

impl FraserOptSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        Self { inner: Fraser::new() }
    }
}

impl ConcurrentMap for FraserOptSkipList {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.search_op(key)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        self.inner.insert_op(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        self.inner.remove_op(key)
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
}

impl Default for FraserOptSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FraserOptSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FraserOptSkipList").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skiplist::tower_layout;

    #[test]
    fn fraser_nodes_are_a_header_plus_one_slot_per_level() {
        // `FraserSkipList` and `FraserOptSkipList` share this node: a
        // 24-byte header and one 8-byte marked pointer per level.
        assert_eq!(tower_layout::<Node>(1).size(), 32);
        assert_eq!(tower_layout::<Node>(MAX_LEVEL).size(), 24 + 8 * MAX_LEVEL);
        for h in 1..=MAX_LEVEL {
            assert_eq!(tower_layout::<Node>(h).size(), 24 + 8 * h, "height {h}");
        }
    }

    #[test]
    fn fraser_basic_semantics() {
        let sl = FraserSkipList::new();
        for k in [10u64, 30, 20, 40] {
            assert!(sl.insert(k, k));
        }
        assert!(!sl.insert(20, 0));
        assert_eq!(sl.size(), 4);
        assert_eq!(sl.search(30), Some(30));
        assert_eq!(sl.remove(30), Some(30));
        assert_eq!(sl.remove(30), None);
        assert_eq!(sl.search(30), None);
        assert_eq!(sl.size(), 3);
    }

    #[test]
    fn fraser_opt_basic_semantics() {
        let sl = FraserOptSkipList::new();
        for k in 1..=200u64 {
            assert!(sl.insert(k, k * 5));
        }
        assert_eq!(sl.size(), 200);
        for k in (1..=200u64).step_by(4) {
            assert_eq!(sl.remove(k), Some(k * 5));
        }
        for k in 1..=200u64 {
            let expected = if (k - 1) % 4 == 0 { None } else { Some(k * 5) };
            assert_eq!(sl.search(k), expected, "key {k}");
        }
    }

    #[test]
    fn fraser_reinsert_cycles() {
        let sl = FraserSkipList::new();
        for round in 0..10u64 {
            for k in 1..=40u64 {
                assert!(sl.insert(k, k + round), "round {round} insert {k}");
            }
            for k in 1..=40u64 {
                assert_eq!(sl.remove(k), Some(k + round), "round {round} remove {k}");
            }
            assert_eq!(sl.size(), 0, "round {round}");
        }
    }
}
