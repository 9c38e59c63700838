//! Bounded exponential back-off used by the spin locks and by the lock-free
//! algorithms when a CAS fails under contention.

use std::hint;

/// Bounded exponential back-off.
///
/// Starts by spinning a handful of iterations and doubles the spin count on
/// every [`Backoff::spin`] call, up to a fixed ceiling. This mirrors the
/// `pause_rep`/back-off helpers of the original ASCYLIB C code.
///
/// # Example
///
/// ```
/// use ascylib_sync::Backoff;
///
/// let mut backoff = Backoff::new();
/// for _ in 0..4 {
///     backoff.spin();
/// }
/// assert!(backoff.rounds() == 4);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    current: u32,
    rounds: u32,
}

/// Initial number of `spin_loop` hints issued by the first back-off round.
const INITIAL_SPINS: u32 = 4;
/// Maximum number of `spin_loop` hints issued by a single back-off round.
const MAX_SPINS: u32 = 1 << 12;
/// Rounds [`Backoff::snooze`] spins before it starts yielding (4 + 8 + … +
/// 128 = 252 `spin_loop` hints in total).
const SNOOZE_SPIN_ROUNDS: u32 = 6;

impl Backoff {
    /// Creates a fresh back-off helper.
    #[inline]
    pub fn new() -> Self {
        Self { current: INITIAL_SPINS, rounds: 0 }
    }

    /// Spins for the current number of iterations and doubles it (bounded).
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..self.current {
            hint::spin_loop();
        }
        self.current = (self.current * 2).min(MAX_SPINS);
        self.rounds += 1;
    }

    /// Waits for another thread to make progress: spins like
    /// [`spin`](Self::spin) for the first few rounds, then yields the time
    /// slice to the OS scheduler on every call. Use it where the thread
    /// being waited for may need this core to run (more runnable threads
    /// than cores), which pure spinning would deny it for a whole slice.
    #[inline]
    pub fn snooze(&mut self) {
        if self.rounds < SNOOZE_SPIN_ROUNDS {
            self.spin();
        } else {
            std::thread::yield_now();
            self.rounds = self.rounds.saturating_add(1);
        }
    }

    /// Number of times [`Backoff::spin`] or [`Backoff::snooze`] has been
    /// called.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Returns `true` once the back-off has reached its maximum spin count,
    /// which callers may use as a hint to yield to the OS scheduler.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.current >= MAX_SPINS
    }

    /// Resets the back-off to its initial state.
    #[inline]
    pub fn reset(&mut self) {
        self.current = INITIAL_SPINS;
        self.rounds = 0;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_saturated() {
        let mut b = Backoff::new();
        assert!(!b.is_saturated());
        for _ in 0..32 {
            b.spin();
        }
        assert!(b.is_saturated());
        assert_eq!(b.rounds(), 32);
    }

    #[test]
    fn snooze_spins_a_few_rounds_then_yields_without_growing() {
        let mut b = Backoff::new();
        for _ in 0..SNOOZE_SPIN_ROUNDS {
            b.snooze();
        }
        let spun = b.current;
        for _ in 0..8 {
            b.snooze();
        }
        assert_eq!(b.current, spun, "yielding rounds spin no further");
        assert_eq!(b.rounds(), SNOOZE_SPIN_ROUNDS + 8);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut b = Backoff::new();
        b.spin();
        b.spin();
        b.reset();
        assert_eq!(b.rounds(), 0);
        assert!(!b.is_saturated());
    }

    #[test]
    fn default_matches_new() {
        let a = Backoff::new();
        let b = Backoff::default();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.is_saturated(), b.is_saturated());
    }
}
