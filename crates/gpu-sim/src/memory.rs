//! Device memory capacity modelling.
//!
//! The paper notes twice (Figures 2 and 5) that the Gaussian sketch bars are blank for
//! the largest problems "because the GPU ran out of memory": a `2n x d` dense Gaussian
//! at `d = 2^22, n = 256` is ~17 GB on top of `A` itself and the 80 GB card cannot hold
//! it alongside the workspace.  Rather than letting the host's RAM silently absorb such
//! allocations, kernels reserve their working set through [`MemoryTracker`], which
//! enforces the modelled capacity and returns [`MemoryError`] exactly where the paper
//! reports an OOM.

use sketch_obs::lock;
use std::fmt;
use std::sync::Mutex;

/// Error returned when a reservation would exceed the modelled device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryError {
    /// Bytes that were requested.
    pub requested: u64,
    /// Bytes already in use at the time of the request.
    pub in_use: u64,
    /// Total modelled capacity.
    pub capacity: u64,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes with {} of {} bytes already in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for MemoryError {}

/// Tracks modelled device memory usage.
#[derive(Debug)]
pub struct MemoryTracker {
    capacity: u64,
    state: Mutex<MemoryState>,
}

#[derive(Debug, Default)]
struct MemoryState {
    in_use: u64,
    peak: u64,
    allocations: u64,
}

impl Default for MemoryTracker {
    fn default() -> Self {
        Self::new(u64::MAX)
    }
}

impl MemoryTracker {
    /// Create a tracker with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            state: Mutex::new(MemoryState::default()),
        }
    }

    /// Total modelled capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> u64 {
        lock(&self.state).in_use
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        lock(&self.state).peak
    }

    /// Number of successful reservations made so far (the modelled `cudaMalloc`
    /// count).  Buffer-reusing kernels such as `SketchOperator::apply_into` are
    /// certified allocation-free by checking this counter does not move.
    pub fn allocations(&self) -> u64 {
        lock(&self.state).allocations
    }

    /// Try to reserve `bytes`; the reservation is released when the returned guard drops.
    pub fn try_reserve(&self, bytes: u64) -> Result<Reservation<'_>, MemoryError> {
        let mut state = lock(&self.state);
        let new_in_use = state.in_use.saturating_add(bytes);
        if new_in_use > self.capacity {
            return Err(MemoryError {
                requested: bytes,
                in_use: state.in_use,
                capacity: self.capacity,
            });
        }
        state.in_use = new_in_use;
        state.peak = state.peak.max(new_in_use);
        state.allocations += 1;
        Ok(Reservation {
            tracker: self,
            bytes,
        })
    }

    /// Check whether `bytes` additional bytes would fit right now, without reserving.
    pub fn would_fit(&self, bytes: u64) -> bool {
        let state = lock(&self.state);
        state
            .in_use
            .checked_add(bytes)
            .map(|total| total <= self.capacity)
            .unwrap_or(false)
    }

    fn release(&self, bytes: u64) {
        let mut state = lock(&self.state);
        state.in_use = state.in_use.saturating_sub(bytes);
    }
}

/// RAII guard for a modelled device allocation.
#[derive(Debug)]
pub struct Reservation<'a> {
    tracker: &'a MemoryTracker,
    bytes: u64,
}

impl Reservation<'_> {
    /// Size of this reservation in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let t = MemoryTracker::new(1000);
        {
            let r = t.try_reserve(400).unwrap();
            assert_eq!(r.bytes(), 400);
            assert_eq!(t.in_use(), 400);
            let _r2 = t.try_reserve(600).unwrap();
            assert_eq!(t.in_use(), 1000);
        }
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 1000);
    }

    #[test]
    fn over_capacity_fails_with_details() {
        let t = MemoryTracker::new(100);
        let _held = t.try_reserve(60).unwrap();
        let err = t.try_reserve(50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.in_use, 60);
        assert_eq!(err.capacity, 100);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn failed_reservation_does_not_leak() {
        let t = MemoryTracker::new(100);
        assert!(t.try_reserve(200).is_err());
        assert_eq!(t.in_use(), 0);
        assert!(t.try_reserve(100).is_ok());
    }

    #[test]
    fn allocation_counter_counts_successful_reservations_only() {
        let t = MemoryTracker::new(100);
        assert_eq!(t.allocations(), 0);
        {
            let _a = t.try_reserve(40).unwrap();
            let _b = t.try_reserve(40).unwrap();
            assert!(t.try_reserve(40).is_err());
        }
        // Releases do not decrement the counter: it counts mallocs, not residency.
        assert_eq!(t.allocations(), 2);
        let _c = t.try_reserve(10).unwrap();
        assert_eq!(t.allocations(), 3);
    }

    #[test]
    fn would_fit_is_consistent() {
        let t = MemoryTracker::new(100);
        assert!(t.would_fit(100));
        assert!(!t.would_fit(101));
        let _r = t.try_reserve(40).unwrap();
        assert!(t.would_fit(60));
        assert!(!t.would_fit(61));
    }

    #[test]
    fn overflowing_request_is_rejected() {
        let t = MemoryTracker::new(u64::MAX - 1);
        let _r = t.try_reserve(10).unwrap();
        assert!(t.try_reserve(u64::MAX).is_err());
        assert!(!t.would_fit(u64::MAX));
    }

    #[test]
    fn default_tracker_is_effectively_unlimited() {
        let t = MemoryTracker::default();
        assert!(t.try_reserve(1 << 50).is_ok());
    }
}
