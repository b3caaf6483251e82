//! The NOCAP plan: how the keys are split across memory, designated disk
//! partitions and the residual partitioner.
//!
//! A [`NocapPlan`] is produced by the planner ([`crate::planner::plan_nocap`],
//! Algorithm 10) from MCV statistics and consumed by the executor
//! ([`crate::exec::NocapJoin`], Algorithms 8/9). Keeping it as an explicit
//! value makes plans inspectable (see the `plan_inspect` example) and lets
//! tests assert planner decisions without running the join.

use std::collections::HashMap;

use nocap_model::JoinSpec;
use nocap_par::Route;
use nocap_storage::hash::BuildKeyHasher;

/// The plan's routing table (see [`NocapPlan::route_map`]).
pub type RouteMap = HashMap<u64, Route, BuildKeyHasher>;

/// The hybrid-partitioning plan chosen by NOCAP.
#[derive(Debug, Clone, PartialEq)]
pub struct NocapPlan {
    /// Keys cached in the in-memory hash table during partitioning
    /// (`K_mem`, the hottest MCVs).
    pub mem_keys: Vec<u64>,
    /// Designated disk partitions (`K_disk`): each inner vector holds the
    /// keys routed to one dedicated spill partition.
    pub disk_partitions: Vec<Vec<u64>>,
    /// Pages left for partitioning the residual keys (`m_rest`).
    pub m_rest: usize,
    /// Planner's estimate of the extra I/O (pages beyond the base scans).
    pub estimated_extra_io: f64,
    /// Number of residual R records the planner assumed (`n_R − |K_mem| −
    /// |K_disk|`).
    pub estimated_rest_keys: usize,
    /// Number of residual S records the planner assumed.
    pub estimated_rest_matches: u64,
}

impl NocapPlan {
    /// A plan that caches nothing and routes everything through the residual
    /// partitioner with `m_rest` pages — i.e. plain DHH behaviour. Used as a
    /// fallback and in tests.
    pub fn passthrough(m_rest: usize, rest_keys: usize, rest_matches: u64) -> Self {
        NocapPlan {
            mem_keys: Vec::new(),
            disk_partitions: Vec::new(),
            m_rest,
            estimated_extra_io: f64::INFINITY,
            estimated_rest_keys: rest_keys,
            estimated_rest_matches: rest_matches,
        }
    }

    /// Number of keys cached in memory (`|K_mem|`).
    pub fn k_mem(&self) -> usize {
        self.mem_keys.len()
    }

    /// Number of keys with designated disk partitions (`|K_disk|`).
    pub fn k_disk(&self) -> usize {
        self.disk_partitions.iter().map(|p| p.len()).sum()
    }

    /// Number of designated disk partitions (`m_disk`).
    pub fn num_designated(&self) -> usize {
        self.disk_partitions.len()
    }

    /// The MCV keys' routes in one table: a cached key maps to
    /// [`Route::Cached`], a designated key to [`Route::Designated`] with
    /// its partition (`f_disk`); a key absent from the table is residual.
    /// One lookup routes an R record, and an S record that missed the
    /// in-memory table.
    pub fn route_map(&self) -> RouteMap {
        let mut map = RouteMap::with_capacity_and_hasher(
            self.k_mem() + self.k_disk(),
            BuildKeyHasher::default(),
        );
        for (pid, keys) in self.disk_partitions.iter().enumerate() {
            map.extend(keys.iter().map(|&k| (k, Route::Designated(pid))));
        }
        map.extend(self.mem_keys.iter().map(|&k| (k, Route::Cached)));
        map
    }

    /// Pages the plan's in-memory structures and output buffers require
    /// before the residual partitioner gets anything:
    /// `B_HS + B_HT + B_f + m_disk` (§4.1).
    pub fn fixed_memory_pages(&self, spec: &JoinSpec) -> usize {
        spec.hash_table_pages(self.k_mem())
            + spec.hash_set_pages(self.k_mem())
            + spec.hash_map_pages(self.k_disk())
            + self.num_designated()
    }

    /// Checks the §4.1 memory constraint:
    /// `B_HS + B_HT + B_f + m_disk + m_rest ≤ B − 2`.
    pub fn fits_budget(&self, spec: &JoinSpec) -> bool {
        self.fixed_memory_pages(spec) + self.m_rest + 2 <= spec.buffer_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JoinSpec {
        JoinSpec::paper_synthetic(256, 128)
    }

    fn sample_plan() -> NocapPlan {
        NocapPlan {
            mem_keys: vec![10, 11, 12],
            disk_partitions: vec![vec![20, 21], vec![22]],
            m_rest: 40,
            estimated_extra_io: 123.0,
            estimated_rest_keys: 1_000,
            estimated_rest_matches: 8_000,
        }
    }

    #[test]
    fn cardinalities() {
        let plan = sample_plan();
        assert_eq!(plan.k_mem(), 3);
        assert_eq!(plan.k_disk(), 3);
        assert_eq!(plan.num_designated(), 2);
    }

    #[test]
    fn route_map_routes_keys_to_their_partition() {
        let plan = sample_plan();
        let map = plan.route_map();
        assert_eq!(map.get(&10), Some(&Route::Cached));
        assert_eq!(map.get(&20), Some(&Route::Designated(0)));
        assert_eq!(map.get(&21), Some(&Route::Designated(0)));
        assert_eq!(map.get(&22), Some(&Route::Designated(1)));
        assert_eq!(map.get(&13), None);
    }

    #[test]
    fn routing_tables_hash_keys_with_the_shared_mix() {
        // Thousands of designated keys, dense and strided, all found again.
        let plan = NocapPlan {
            mem_keys: (0..500).collect(),
            disk_partitions: vec![
                (500..4_000).collect(),
                (1..=3_000).map(|i| i << 20).collect(),
            ],
            ..sample_plan()
        };
        let map = plan.route_map();
        assert_eq!(map.len(), 7_000);
        assert!((0..500).all(|k| map[&k] == Route::Cached));
        assert_eq!(map.get(&3_999), Some(&Route::Designated(0)));
        assert_eq!(map.get(&(7 << 20)), Some(&Route::Designated(1)));
        assert_eq!(map.get(&4_000), None);
    }

    #[test]
    fn memory_accounting_follows_the_breakdown() {
        let plan = sample_plan();
        let s = spec();
        let expected = s.hash_table_pages(3) + s.hash_set_pages(3) + s.hash_map_pages(3) + 2;
        assert_eq!(plan.fixed_memory_pages(&s), expected);
        assert!(plan.fits_budget(&s));
    }

    #[test]
    fn oversized_plan_fails_the_budget_check() {
        let mut plan = sample_plan();
        plan.m_rest = 10_000;
        assert!(!plan.fits_budget(&spec()));
    }

    #[test]
    fn passthrough_plan_is_empty() {
        let plan = NocapPlan::passthrough(32, 500, 4_000);
        assert_eq!(plan.k_mem(), 0);
        assert_eq!(plan.k_disk(), 0);
        assert_eq!(plan.num_designated(), 0);
        assert_eq!(plan.fixed_memory_pages(&spec()), 0);
    }
}
