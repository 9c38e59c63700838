//! A `java.util.concurrent.ConcurrentHashMap`-style hash table.
//!
//! The table is protected by a fixed number of lock stripes (512, as in the
//! paper's configuration) and supports resizing. Searches traverse the
//! bucket chains without any store; updates lock only the stripe that covers
//! their bucket. With ASCY3 enabled (default), an update first performs a
//! read-only search and fails without touching any lock if it cannot succeed
//! — the paper measures up to 12.5% higher throughput from this change alone
//! (Figure 6), at the cost of an extra search on successful updates.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ascylib_ssmem as ssmem;
use ascylib_sync::TicketLock;

use crate::api::{debug_check_key, ConcurrentMap};
use crate::stats;

/// Number of lock stripes (the paper uses 512 locks for `java`).
const STRIPES: usize = 512;

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

/// A bucket array; old arrays are kept alive until the table is dropped so
/// that in-flight readers never observe freed slots.
struct Array {
    mask: u64,
    slots: Box<[AtomicPtr<Node>]>,
}

impl Array {
    fn new(buckets: usize) -> Box<Self> {
        let n = buckets.max(1).next_power_of_two();
        let slots: Vec<AtomicPtr<Node>> =
            (0..n).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
        Box::new(Self { mask: (n - 1) as u64, slots: slots.into_boxed_slice() })
    }

    #[inline]
    fn index(&self, key: u64) -> usize {
        (hash(key) & self.mask) as usize
    }
}

/// The hash bits both the bucket and the stripe are taken from.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// The striped-lock, resizable hash table (`java` in Table 1).
///
/// # Example
///
/// ```
/// use ascylib::api::ConcurrentMap;
/// use ascylib::hashtable::JavaHashTable;
///
/// let t = JavaHashTable::with_capacity(128);
/// assert!(t.insert(1, 10));
/// assert_eq!(t.search(1), Some(10));
/// ```
pub struct JavaHashTable {
    current: AtomicPtr<Array>,
    locks: Box<[TicketLock]>,
    count: AtomicUsize,
    /// Low hash bits that pick a key's stripe: `min(initial buckets,
    /// STRIPES) - 1`. Arrays only double, so every array's bucket mask
    /// contains these bits, and all keys of one bucket share a stripe (the
    /// lock that guards the bucket's chain) in every array.
    stripe_mask: u64,
    ascy3: bool,
    /// Retired bucket arrays, freed on drop (readers may still traverse
    /// them until their guard ends; keeping them for the structure lifetime
    /// is simpler than retiring a type that owns heap memory).
    graveyard: Mutex<Vec<*mut Array>>,
}

// SAFETY: bucket chains are only mutated under the corresponding stripe
// lock; nodes are retired through SSMEM; replaced arrays stay allocated
// until drop.
unsafe impl Send for JavaHashTable {}
// SAFETY: see above.
unsafe impl Sync for JavaHashTable {}

impl JavaHashTable {
    /// Creates a table sized for `capacity` elements, with ASCY3 enabled.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, true)
    }

    /// Creates the `java-no` variant of Figure 6 (ASCY3 disabled:
    /// unsuccessful updates still acquire their stripe lock).
    pub fn with_capacity_no_ascy3(capacity: usize) -> Self {
        Self::build(capacity, false)
    }

    fn build(capacity: usize, ascy3: bool) -> Self {
        let locks: Vec<TicketLock> = (0..STRIPES).map(|_| TicketLock::new()).collect();
        let array = Array::new(capacity);
        Self {
            stripe_mask: array.mask.min(STRIPES as u64 - 1),
            current: AtomicPtr::new(Box::into_raw(array)),
            locks: locks.into_boxed_slice(),
            count: AtomicUsize::new(0),
            ascy3,
            graveyard: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn array(&self) -> &Array {
        // SAFETY: the current array is never freed before the table drops.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    #[inline]
    fn stripe(&self, key: u64) -> &TicketLock {
        &self.locks[(hash(key) & self.stripe_mask) as usize]
    }

    /// Searches a chain. Caller must hold an SSMEM guard.
    fn chain_search(head: &AtomicPtr<Node>, key: u64) -> Option<u64> {
        let mut traversed = 0u64;
        // SAFETY: nodes are retired (not freed) while guarded readers may
        // still traverse them.
        unsafe {
            let mut curr = head.load(Ordering::Acquire);
            while !curr.is_null() {
                traversed += 1;
                if (*curr).key == key {
                    stats::record_traversal(traversed);
                    return Some((*curr).value.load(Ordering::Acquire));
                }
                curr = (*curr).next.load(Ordering::Acquire);
            }
            stats::record_traversal(traversed);
            None
        }
    }

    /// Doubles the bucket array when the load factor exceeds one.
    ///
    /// Called with **no** stripe lock held; it acquires every stripe lock in
    /// index order (so concurrent resizers serialize instead of
    /// deadlocking), re-checks the condition, and rebuilds the array.
    fn resize(&self) {
        for lock in self.locks.iter() {
            lock.lock();
            stats::record_lock();
        }
        let old_ptr = self.current.load(Ordering::Acquire);
        // SAFETY: all stripe locks are held, so no updater is mutating the
        // chains; readers are unaffected because the old array and nodes
        // remain valid.
        unsafe {
            let old = &*old_ptr;
            // Relaxed: `count` is a sizing heuristic, not a synchronization
            // point; a stale read only delays or repeats a resize.
            if self.count.load(Ordering::Relaxed) > old.slots.len() {
                let new = Array::new(old.slots.len() * 2);
                for slot in old.slots.iter() {
                    let mut curr = slot.load(Ordering::Acquire);
                    while !curr.is_null() {
                        let key = (*curr).key;
                        let value = (*curr).value.load(Ordering::Acquire);
                        let idx = new.index(key);
                        // Relaxed: `new` is private until the Release store of
                        // `self.current` publishes the whole array.
                        let head = new.slots[idx].load(Ordering::Relaxed);
                        new.slots[idx].store(new_node(key, value, head), Ordering::Relaxed);
                        stats::record_store();
                        let next = (*curr).next.load(Ordering::Acquire);
                        ssmem::retire(curr);
                        curr = next;
                    }
                }
                let new_ptr = Box::into_raw(new);
                self.current.store(new_ptr, Ordering::Release);
                stats::record_store();
                self.graveyard.lock().expect("graveyard").push(old_ptr);
            }
        }
        for lock in self.locks.iter() {
            lock.unlock();
        }
    }
}

impl ConcurrentMap for JavaHashTable {
    fn search(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        let arr = self.array();
        stats::record_operation();
        Self::chain_search(&arr.slots[arr.index(key)], key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        debug_check_key(key);
        let _guard = ssmem::protect();
        if self.ascy3 {
            let arr = self.array();
            if Self::chain_search(&arr.slots[arr.index(key)], key).is_some() {
                stats::record_operation();
                return false;
            }
        }
        self.stripe(key).lock();
        stats::record_lock();
        // Re-read the array under the lock: a resize may have swapped it.
        let arr = self.array();
        let slot = &arr.slots[arr.index(key)];
        let result = if Self::chain_search(slot, key).is_some() {
            false
        } else {
            let head = slot.load(Ordering::Acquire);
            slot.store(new_node(key, value, head), Ordering::Release);
            stats::record_store();
            // Relaxed: `count` only feeds `size()` and the resize heuristic.
            self.count.fetch_add(1, Ordering::Relaxed);
            true
        };
        let need_resize = result && self.count.load(Ordering::Relaxed) > arr.slots.len();
        self.stripe(key).unlock();
        if need_resize {
            self.resize();
        }
        stats::record_operation();
        result
    }

    fn remove(&self, key: u64) -> Option<u64> {
        debug_check_key(key);
        let _guard = ssmem::protect();
        if self.ascy3 {
            let arr = self.array();
            if Self::chain_search(&arr.slots[arr.index(key)], key).is_none() {
                stats::record_operation();
                return None;
            }
        }
        self.stripe(key).lock();
        stats::record_lock();
        let arr = self.array();
        let slot = &arr.slots[arr.index(key)];
        // SAFETY: chain mutation happens only under the stripe lock; the
        // victim is retired after being unlinked.
        let result = unsafe {
            let mut prev: *const AtomicPtr<Node> = slot;
            let mut curr = (*prev).load(Ordering::Acquire);
            let mut found = None;
            while !curr.is_null() {
                if (*curr).key == key {
                    let value = (*curr).value.load(Ordering::Acquire);
                    (*prev).store((*curr).next.load(Ordering::Acquire), Ordering::Release);
                    stats::record_store();
                    ssmem::retire(curr);
                    // Relaxed: `count` only feeds `size()` and the resize heuristic.
                    self.count.fetch_sub(1, Ordering::Relaxed);
                    found = Some(value);
                    break;
                }
                prev = &(*curr).next;
                curr = (*prev).load(Ordering::Acquire);
            }
            found
        };
        self.stripe(key).unlock();
        stats::record_operation();
        result
    }

    fn size(&self) -> usize {
        // Relaxed: `size()` is documented as non-linearizable.
        self.count.load(Ordering::Relaxed)
    }
}

impl Drop for JavaHashTable {
    fn drop(&mut self) {
        // Relaxed loads: `&mut self` proves no concurrent thread exists.
        // SAFETY: exclusive access. Free every chain of the current array,
        // then the current and retired arrays themselves.
        unsafe {
            let arr_ptr = self.current.load(Ordering::Relaxed);
            {
                let arr = &*arr_ptr;
                for slot in arr.slots.iter() {
                    let mut curr = slot.load(Ordering::Relaxed);
                    while !curr.is_null() {
                        let next = (*curr).next.load(Ordering::Relaxed);
                        ssmem::dealloc_immediate(curr);
                        curr = next;
                    }
                }
            }
            drop(Box::from_raw(arr_ptr));
            for &old in self.graveyard.lock().expect("graveyard").iter() {
                drop(Box::from_raw(old));
            }
        }
    }
}

impl std::fmt::Debug for JavaHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JavaHashTable")
            .field("ascy3", &self.ascy3)
            .field("size", &self.size())
            .field("buckets", &self.array().slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_semantics() {
        let t = JavaHashTable::with_capacity(16);
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.search(1), Some(10));
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn keys_sharing_a_bucket_share_a_stripe_across_resizes() {
        // Two updaters holding different stripes must never edit one chain
        // (lost unlinks resurrect retired nodes and double-free them).
        for capacity in [4, 64, 4096] {
            let t = JavaHashTable::with_capacity(capacity);
            for k in 1..=4 * capacity as u64 {
                assert!(t.insert(k, k));
            }
            let arr = t.array();
            assert!(arr.slots.len() > capacity, "table must have resized");
            let mut owner = vec![None; arr.slots.len()];
            for k in 1..=20_000u64 {
                let stripe = t.stripe(k) as *const TicketLock;
                let seen = owner[arr.index(k)].get_or_insert(stripe);
                assert_eq!(*seen, stripe, "bucket {} spans two stripes", arr.index(k));
            }
        }
    }

    #[test]
    fn resizing_preserves_contents() {
        let t = JavaHashTable::with_capacity(4);
        for k in 1..=512u64 {
            assert!(t.insert(k, k * 3));
        }
        assert_eq!(t.size(), 512);
        assert!(t.array().slots.len() >= 512, "table must have resized");
        for k in 1..=512u64 {
            assert_eq!(t.search(k), Some(k * 3), "key {k} after resize");
        }
        for k in (1..=512u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 3));
        }
        assert_eq!(t.size(), 256);
    }
}
