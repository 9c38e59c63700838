//! MCS queue lock.
//!
//! A classic queue-based spin lock: each contending thread spins on its own
//! queue node, so a hand-off causes exactly one cache-line transfer. Included
//! for the lock ablation benchmarks (ticket vs TAS vs MCS in BST-TK-style
//! update paths); the CSDS algorithms themselves embed the smaller locks.
//!
//! Both waits — a successor for the hand-off, and a releasing holder for a
//! successor that is still linking itself in — spin briefly and then yield
//! ([`Backoff::snooze`]), so an oversubscribed core runs the thread being
//! waited for instead of burning its time slice.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use crate::Backoff;

/// A node in the MCS queue. One is allocated per acquisition.
#[derive(Debug)]
struct McsNode {
    locked: AtomicBool,
    next: AtomicPtr<McsNode>,
}

/// An MCS queue lock.
///
/// Acquisition returns an [`McsGuard`]; dropping the guard releases the lock.
///
/// # Example
///
/// ```
/// use ascylib_sync::McsLock;
///
/// let lock = McsLock::new();
/// {
///     let _guard = lock.lock();
///     // critical section
/// }
/// assert!(!lock.is_locked());
/// ```
#[derive(Debug)]
pub struct McsLock {
    tail: AtomicPtr<McsNode>,
}

/// RAII guard returned by [`McsLock::lock`]; releases the lock when dropped.
#[derive(Debug)]
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    node: *mut McsNode,
}

// SAFETY: the guard only releases the queue node it owns; moving it across
// threads would be unusual but is sound because the node pointer is private
// to this acquisition.
unsafe impl Send for McsGuard<'_> {}

impl McsLock {
    /// Creates a new, unlocked MCS lock.
    #[inline]
    pub const fn new() -> Self {
        Self { tail: AtomicPtr::new(ptr::null_mut()) }
    }

    /// Acquires the lock, spinning on a private queue node until the
    /// predecessor hands it over.
    pub fn lock(&self) -> McsGuard<'_> {
        let node = Box::into_raw(Box::new(McsNode {
            locked: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` was placed in the queue by its owner and is not
            // freed until that owner's guard drops, which cannot happen until
            // it has handed the lock to us (it must observe `next`).
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                let mut backoff = Backoff::new();
                while (*node).locked.load(Ordering::Acquire) {
                    backoff.snooze();
                }
            }
        }
        McsGuard { lock: self, node }
    }

    /// Returns `true` if some thread currently holds or waits for the lock.
    #[inline]
    pub fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        let node = self.node;
        // SAFETY: `node` was allocated by `lock` and is exclusively owned by
        // this guard until released below.
        unsafe {
            let next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No known successor: try to swing the tail back to null.
                if self
                    .lock
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    drop(Box::from_raw(node));
                    return;
                }
                // A successor is in the middle of enqueueing; wait for it.
                let mut next = (*node).next.load(Ordering::Acquire);
                let mut backoff = Backoff::new();
                while next.is_null() {
                    backoff.snooze();
                    next = (*node).next.load(Ordering::Acquire);
                }
                (*next).locked.store(false, Ordering::Release);
            } else {
                (*next).locked.store(false, Ordering::Release);
            }
            drop(Box::from_raw(node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_lock_unlock() {
        let l = McsLock::new();
        assert!(!l.is_locked());
        {
            let _g = l.lock();
            assert!(l.is_locked());
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(McsLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
    }
}
