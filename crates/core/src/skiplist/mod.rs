//! Concurrent skip lists (Table 1, "skip list" rows).
//!
//! | Name | Type | Algorithm |
//! |------|------|-----------|
//! | [`AsyncSkipList`] | seq | Sequential skip list (asynchronized baseline). |
//! | [`PughSkipList`] | lb | Pugh's skip list: lock-free parse, per-level locking of predecessors. |
//! | [`HerlihySkipList`] | lb | Herlihy/Lev/Luchangco/Shavit optimistic skip list: lock all levels, validate, update. |
//! | [`FraserSkipList`] | lf | Fraser's lock-free skip list (CAS per level, search helps clean up and restarts). |
//! | [`FraserOptSkipList`] | lf | Fraser re-engineered with ASCY1–2 (`fraser-opt` in Figure 5): wait-free search, no restarts on failed clean-up. |
//!
//! Level heights are drawn from the usual geometric distribution (p = ½,
//! capped at [`MAX_LEVEL`]), and every node is allocated with a tower of
//! exactly its own height, as in Pugh's original skip list: a fixed header
//! followed by `toplevel` forward pointers in the same allocation (a
//! Fraser node is 24 + 8·h bytes, and the mean height is 2). Only the head
//! and tail sentinels carry full `MAX_LEVEL` towers. The layout and slot
//! arithmetic live once, in the crate-private `TowerNode` trait and the
//! `alloc_tower`/`slot`/`retire_tower`/`free_tower` helpers, shared by all
//! five variants.

// Skip-list code walks the parallel `preds`/`succs` arrays by level index;
// clippy's iterator-with-enumerate rewrite obscures that symmetry.
#[allow(clippy::needless_range_loop)]
mod fraser;
#[allow(clippy::needless_range_loop)]
mod optimistic;
#[allow(clippy::needless_range_loop)]
mod seq;

pub use fraser::{FraserOptSkipList, FraserSkipList};
pub use optimistic::{HerlihySkipList, PughSkipList};
pub use seq::AsyncSkipList;

use std::alloc::Layout;
use std::cell::Cell;

use ascylib_ssmem as ssmem;

/// Maximum tower height of any node.
pub const MAX_LEVEL: usize = 24;

thread_local! {
    static LEVEL_RNG: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

/// Draws a tower height in `[1, MAX_LEVEL]` from a geometric distribution
/// with p = ½ (each additional level is half as likely).
pub(crate) fn random_level() -> usize {
    LEVEL_RNG.with(|cell| {
        let mut x = cell.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cell.set(x);
        let level = (x.trailing_ones() as usize) + 1;
        level.min(MAX_LEVEL)
    })
}

/// A skip-list node: a fixed `#[repr(C)]` header, followed in the same
/// allocation by `toplevel` forward-pointer slots.
///
/// # Safety
///
/// `toplevel` must return the height the node was allocated with by
/// [`alloc_tower`]; the retire and free paths derive the allocation layout
/// from it.
pub(crate) unsafe trait TowerNode: Sized {
    /// One forward pointer of the tower.
    type Slot;
    /// A null forward pointer (what every slot starts as).
    fn empty_slot() -> Self::Slot;
    /// The node's tower height, in `[1, MAX_LEVEL]`.
    fn toplevel(&self) -> usize;
}

/// Byte offset of slot 0 from the start of a node.
#[inline]
fn slots_offset<N: TowerNode>() -> usize {
    std::mem::size_of::<N>().next_multiple_of(std::mem::align_of::<N::Slot>())
}

/// The allocation layout of a node of height `toplevel`: the header, then
/// `toplevel` slots. A pure function of `toplevel`, so alloc, retire and
/// free always agree.
pub(crate) fn tower_layout<N: TowerNode>(toplevel: usize) -> Layout {
    let size = slots_offset::<N>() + toplevel * std::mem::size_of::<N::Slot>();
    let align = std::mem::align_of::<N>().max(std::mem::align_of::<N::Slot>());
    Layout::from_size_align(size, align).expect("valid tower layout").pad_to_align()
}

/// Allocates a node of height `toplevel` through SSMEM, writes `header`
/// and nulls every slot.
pub(crate) fn alloc_tower<N: TowerNode>(header: N, toplevel: usize) -> *mut N {
    assert!(!std::mem::needs_drop::<N>(), "tower nodes are plain data");
    debug_assert!((1..=MAX_LEVEL).contains(&toplevel));
    debug_assert_eq!(header.toplevel(), toplevel);
    let node = ssmem::alloc_raw(tower_layout::<N>(toplevel)).cast::<N>();
    // SAFETY: a fresh (or recycled past its grace period) allocation of
    // `tower_layout(toplevel)`: the header fits at offset 0 and the
    // `toplevel` slots after `slots_offset`, all suitably aligned.
    unsafe {
        node.write(header);
        let slots = node.cast::<u8>().add(slots_offset::<N>()).cast::<N::Slot>();
        for level in 0..toplevel {
            slots.add(level).write(N::empty_slot());
        }
    }
    node
}

/// The level-`level` forward pointer of `node`. The slot address is
/// derived from the raw allocation pointer (whose provenance covers the
/// whole tower), never from a `&N`, whose provenance covers only the
/// header.
///
/// # Safety
///
/// `node` must come from [`alloc_tower`] and be live or protected (SSMEM
/// guard, lock, or exclusive access) for `'a`, and `level < toplevel`.
#[inline]
pub(crate) unsafe fn slot<'a, N: TowerNode>(node: *mut N, level: usize) -> &'a N::Slot {
    // SAFETY: caller contract; the slot lies inside the node's allocation.
    unsafe {
        debug_assert!(level < (*node).toplevel(), "slot {level} above the tower");
        &*node.cast::<u8>().add(slots_offset::<N>()).cast::<N::Slot>().add(level)
    }
}

/// Retires a node through SSMEM (its layout is rebuilt from its height).
///
/// # Safety
///
/// The [`ssmem::retire_raw`] contract: `node` comes from [`alloc_tower`],
/// is unlinked from every level, and is retired once.
pub(crate) unsafe fn retire_tower<N: TowerNode>(node: *mut N) {
    // SAFETY: caller contract; the header is readable until reclamation.
    unsafe {
        let layout = tower_layout::<N>((*node).toplevel());
        ssmem::retire_raw(node.cast(), layout);
    }
}

/// Frees a node immediately.
///
/// # Safety
///
/// The [`ssmem::dealloc_raw_immediate`] contract: `node` comes from
/// [`alloc_tower`] and no other thread can reach it.
pub(crate) unsafe fn free_tower<N: TowerNode>(node: *mut N) {
    // SAFETY: caller contract.
    unsafe {
        let layout = tower_layout::<N>((*node).toplevel());
        ssmem::dealloc_raw_immediate(node.cast(), layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn random_level_distribution_is_geometric() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        let samples = 100_000;
        for _ in 0..samples {
            let l = random_level();
            assert!((1..=MAX_LEVEL).contains(&l));
            counts[l] += 1;
        }
        // Roughly half of the samples are level 1, a quarter level 2, ...
        assert!(counts[1] > samples / 3, "level-1 fraction too small: {}", counts[1]);
        assert!(counts[2] > samples / 6);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
    }

    #[test]
    fn herlihy_skiplist_full_suite() {
        testing::full_suite(HerlihySkipList::new);
    }

    #[test]
    fn pugh_skiplist_full_suite() {
        testing::full_suite(PughSkipList::new);
    }

    #[test]
    fn fraser_skiplist_full_suite() {
        testing::full_suite(FraserSkipList::new);
    }

    #[test]
    fn fraser_opt_skiplist_full_suite() {
        testing::full_suite(FraserOptSkipList::new);
    }

    #[test]
    fn all_skiplists_ordered_model_check() {
        testing::ordered_model_check(HerlihySkipList::new, 1_500);
        testing::ordered_model_check(PughSkipList::new, 1_500);
        testing::ordered_model_check(FraserSkipList::new, 1_500);
        testing::ordered_model_check(FraserOptSkipList::new, 1_500);
        testing::ordered_model_check(AsyncSkipList::new, 1_500);
    }

    #[test]
    fn async_skiplist_sequential_suite() {
        testing::sequential_suite(AsyncSkipList::new);
        testing::model_check(AsyncSkipList::new, 3_000);
    }
}
