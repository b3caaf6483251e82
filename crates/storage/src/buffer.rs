//! A strict page-budget buffer pool.
//!
//! The paper assumes each join operator gets a user-defined budget of *B*
//! pages (§4.1 "Enforcing Memory Constraints") and carefully accounts for
//! how those pages are split between the input page, the output page, the
//! in-memory hash table, partition output buffers and the skew-key
//! structures. The algorithms in this reproduction acquire every page they
//! use from a [`BufferPool`], so exceeding the budget is an observable error
//! rather than a silent modelling assumption.
//!
//! The pool only tracks *counts*; the actual page contents live wherever the
//! algorithm keeps them (hash tables, staging vectors, …). This matches how
//! the paper reasons about memory: in units of pages, inflated by the fudge
//! factor where appropriate.
//!
//! The pool is thread-safe: the parallel execution engine (`nocap-par`)
//! reserves and releases pages from many worker threads against one shared
//! budget. Per-worker quotas are carved from the global budget with
//! [`BufferPool::carve_quotas`] (one quota per given size), so the sum of
//! all quotas can never exceed *B*.

use std::sync::{Arc, Mutex};

use crate::sync::lock_unpoisoned;
use crate::{Result, StorageError};

#[derive(Debug)]
struct PoolState {
    capacity: usize,
    in_use: usize,
    peak: usize,
}

/// A shared page-budget accountant.
#[derive(Debug, Clone)]
pub struct BufferPool {
    state: Arc<Mutex<PoolState>>,
}

impl BufferPool {
    /// Creates a pool with a budget of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            state: Arc::new(Mutex::new(PoolState {
                capacity,
                in_use: 0,
                peak: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // Poison-tolerant: pool state mutates at counter granularity, so a
        // panicking holder can never leave it inconsistent.
        lock_unpoisoned(&self.state)
    }

    /// Total page budget (the paper's *B*).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Pages currently reserved.
    pub fn in_use(&self) -> usize {
        self.lock().in_use
    }

    /// Pages still available.
    pub fn available(&self) -> usize {
        let st = self.lock();
        st.capacity - st.in_use
    }

    /// Highest number of pages that were ever simultaneously reserved.
    pub fn peak(&self) -> usize {
        self.lock().peak
    }

    /// Reserves `pages` pages, failing if the budget would be exceeded.
    ///
    /// The returned [`Reservation`] releases the pages when dropped.
    pub fn reserve(&self, pages: usize) -> Result<Reservation> {
        {
            let mut st = self.lock();
            if st.in_use + pages > st.capacity {
                return Err(StorageError::OutOfMemory {
                    requested: pages,
                    available: st.capacity - st.in_use,
                });
            }
            st.in_use += pages;
            st.peak = st.peak.max(st.in_use);
        }
        Ok(Reservation {
            pool: self.clone(),
            pages,
        })
    }

    /// Carves one quota per entry of `pages` out of the remaining budget:
    /// quota `i` holds exactly `pages[i]` pages. Should the entries sum to
    /// more than is available — a quota geometry floors every quota at one
    /// page, even under a budget of none — the last quotas are cut short
    /// rather than the budget exceeded.
    pub fn carve_quotas(&self, pages: &[usize]) -> Vec<Reservation> {
        let mut st = self.lock();
        let quotas = pages
            .iter()
            .map(|&pages| {
                let pages = pages.min(st.capacity - st.in_use);
                st.in_use += pages;
                Reservation {
                    pool: self.clone(),
                    pages,
                }
            })
            .collect();
        st.peak = st.peak.max(st.in_use);
        quotas
    }

    fn release(&self, pages: usize) {
        let mut st = self.lock();
        debug_assert!(st.in_use >= pages, "released more pages than reserved");
        st.in_use -= pages.min(st.in_use);
    }
}

/// RAII guard for a number of reserved pages.
#[derive(Debug)]
pub struct Reservation {
    pool: BufferPool,
    pages: usize,
}

impl Reservation {
    /// Number of pages held by this reservation.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.release(self.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let pool = BufferPool::new(10);
        assert_eq!(pool.available(), 10);
        let r = pool.reserve(4).unwrap();
        assert_eq!(pool.in_use(), 4);
        assert_eq!(pool.available(), 6);
        drop(r);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn over_reservation_fails_without_leaking() {
        let pool = BufferPool::new(5);
        let _a = pool.reserve(3).unwrap();
        let err = pool.reserve(3).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfMemory { available: 2, .. }
        ));
        assert_eq!(pool.in_use(), 3);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let pool = BufferPool::new(8);
        {
            let _a = pool.reserve(5).unwrap();
            let _b = pool.reserve(2).unwrap();
        }
        let _c = pool.reserve(1).unwrap();
        assert_eq!(pool.peak(), 7);
    }

    #[test]
    fn zero_page_reservation_is_fine() {
        let pool = BufferPool::new(0);
        let r = pool.reserve(0).unwrap();
        assert_eq!(r.pages(), 0);
        assert!(pool.reserve(1).is_err());
    }

    #[test]
    fn carve_quotas_hands_out_exactly_the_sizes_asked_for() {
        let pool = BufferPool::new(10);
        let _fixed = pool.reserve(3).unwrap();
        let quotas = pool.carve_quotas(&[4, 1, 1]);
        let sizes: Vec<usize> = quotas.iter().map(Reservation::pages).collect();
        assert_eq!(sizes, [4, 1, 1]);
        assert_eq!((pool.available(), pool.peak()), (1, 9));
        // Asking for more than is left cuts the last quotas short.
        let more = pool.carve_quotas(&[1, 1]);
        assert_eq!(more[0].pages() + more[1].pages(), 1);
        assert_eq!(pool.available(), 0);
        drop((quotas, more));
        assert_eq!(pool.in_use(), 3);
    }

    #[test]
    fn concurrent_reservations_never_exceed_capacity() {
        let pool = BufferPool::new(64);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        if let Ok(r) = pool.reserve((t + i) % 9) {
                            let extra = pool.reserve(1);
                            assert!(pool.in_use() <= pool.capacity());
                            drop((r, extra));
                        }
                    }
                });
            }
        });
        assert_eq!(pool.in_use(), 0);
        assert!(pool.peak() <= 64);
    }
}
