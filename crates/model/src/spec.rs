//! The join specification: geometry, memory budget and device asymmetry.
//!
//! Every quantity of the paper's cost model is derived from a handful of
//! parameters:
//!
//! | symbol | meaning | here |
//! |---|---|---|
//! | page size | 4 KB in all experiments | [`JoinSpec::page_size`] |
//! | `b_R`, `b_S` | records per page of R / S | [`JoinSpec::b_r`], [`JoinSpec::b_s`] |
//! | `B` | total buffer budget in pages | [`JoinSpec::buffer_pages`], checked by [`JoinSpec::pages_left`] |
//! | `F` | hash-table fudge factor (1.02) | [`JoinSpec::fudge`] |
//! | `c_R` | records of R per NBJ chunk, `⌊b_R·(B−2)/F⌋` | [`JoinSpec::c_r`] |
//! | μ, τ | write/read asymmetry | [`JoinSpec::mu`], [`JoinSpec::tau`] |
//!
//! A [`JoinSpec`] is immutable; the experiment harness creates one per point
//! of a buffer-size sweep.

use nocap_storage::page::records_per_page;
use nocap_storage::{DeviceProfile, RecordLayout, StorageError};

/// The geometry and budget of one PK–FK join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    /// Page size in bytes (4096 in the paper).
    pub page_size: usize,
    /// Record layout of the primary-key relation R (the dimension table).
    pub r_layout: RecordLayout,
    /// Record layout of the foreign-key relation S (the fact table).
    pub s_layout: RecordLayout,
    /// Total buffer budget in pages (the paper's B).
    pub buffer_pages: usize,
    /// Fudge factor F ≥ 1: space amplification of in-memory hash tables.
    pub fudge: f64,
    /// Device latency profile (provides μ and τ).
    pub device: DeviceProfile,
    /// Size of a join key in bytes (`k_s` in §4.1, used for the hash-set /
    /// hash-map footprints of NOCAP).
    pub key_bytes: usize,
}

impl JoinSpec {
    /// A spec mirroring the paper's synthetic workload geometry, with both
    /// relations using `record_bytes`-byte records, 4 KB pages, F = 1.02 and
    /// the no-sync SSD profile.
    pub fn paper_synthetic(record_bytes: usize, buffer_pages: usize) -> Self {
        let payload = record_bytes.saturating_sub(RecordLayout::KEY_BYTES);
        JoinSpec {
            page_size: 4096,
            r_layout: RecordLayout::new(payload),
            s_layout: RecordLayout::new(payload),
            buffer_pages,
            fudge: 1.02,
            device: DeviceProfile::osync_off(),
            key_bytes: 8,
        }
    }

    /// Returns a copy with a different buffer budget (used by sweeps).
    pub fn with_buffer_pages(mut self, buffer_pages: usize) -> Self {
        self.buffer_pages = buffer_pages;
        self
    }

    /// The one budget check, made before any I/O: `B − requested` for the
    /// pages a join declares, or [`OutOfMemory`](StorageError::OutOfMemory)
    /// `{ requested, available: B }` when they do not fit. Never saturates.
    pub fn pages_left(&self, requested: usize) -> nocap_storage::Result<usize> {
        let available = self.buffer_pages;
        available
            .checked_sub(requested)
            .ok_or(StorageError::OutOfMemory {
                requested,
                available,
            })
    }

    /// Records of R per page (`b_R`).
    pub fn b_r(&self) -> usize {
        records_per_page(self.page_size, self.r_layout.record_bytes())
    }

    /// Records of S per page (`b_S`).
    pub fn b_s(&self) -> usize {
        records_per_page(self.page_size, self.s_layout.record_bytes())
    }

    /// Records of R per NBJ chunk: `c_R = ⌊b_R · (B − 2) / F⌋`.
    ///
    /// Two pages of the budget are reserved for streaming the input and the
    /// join output; the rest (deflated by the fudge factor) holds the chunk's
    /// hash table.
    pub fn c_r(&self) -> usize {
        let usable = self.buffer_pages.saturating_sub(2);
        ((self.b_r() * usable) as f64 / self.fudge).floor() as usize
    }

    /// Pages needed to store `n_r` records of R (`‖R‖`).
    pub fn pages_r(&self, n_r: usize) -> usize {
        n_r.div_ceil(self.b_r().max(1))
    }

    /// Pages needed to store `n_s` records of S (`‖S‖`).
    pub fn pages_s(&self, n_s: usize) -> usize {
        n_s.div_ceil(self.b_s().max(1))
    }

    /// Random-write / sequential-read asymmetry μ.
    pub fn mu(&self) -> f64 {
        self.device.mu()
    }

    /// Sequential-write / sequential-read asymmetry τ.
    pub fn tau(&self) -> f64 {
        self.device.tau()
    }

    /// Number of pages an in-memory hash table for `records` R records needs
    /// (`B_HT` in §4.1): `⌈records · record_bytes · F / page_size⌉`.
    pub fn hash_table_pages(&self, records: usize) -> usize {
        if records == 0 {
            return 0;
        }
        let raw = records as f64 * self.r_layout.record_bytes() as f64;
        (raw * self.fudge / self.page_size as f64).ceil() as usize
    }

    /// Number of pages a hash *set* of `keys` keys needs (`B_HS` in §4.1):
    /// `⌈keys · key_bytes · F / page_size⌉`.
    ///
    /// Note: the paper's formula divides by F; since F is a space
    /// amplification (> 1), this reproduction multiplies instead, which is
    /// the conservative (never under-budgeting) reading. With F = 1.02 the
    /// difference is at most one page.
    pub fn hash_set_pages(&self, keys: usize) -> usize {
        if keys == 0 {
            return 0;
        }
        let raw = keys as f64 * self.key_bytes as f64;
        (raw * self.fudge / self.page_size as f64).ceil() as usize
    }

    /// Number of pages the `f_disk` hash map of `keys` keys needs (`B_f` in
    /// §4.1): a key plus a 4-byte partition id per entry, amplified by F.
    pub fn hash_map_pages(&self, keys: usize) -> usize {
        if keys == 0 {
            return 0;
        }
        let raw = keys as f64 * (self.key_bytes + 4) as f64;
        (raw * self.fudge / self.page_size as f64).ceil() as usize
    }

    /// The threshold below which Hybrid Hash degenerates to Grace Hash:
    /// `√(‖R‖ · F)` pages (§2.1), for a relation of `n_r` records.
    pub fn hhj_memory_threshold(&self, n_r: usize) -> f64 {
        (self.pages_r(n_r) as f64 * self.fudge).sqrt()
    }

    /// The DHH partition-count heuristic of §2.2:
    /// `m_DHH = max(20, ⌈(‖R‖·F − B) / (B − 1)⌉)` for `n_r` records of R.
    pub fn m_dhh(&self, n_r: usize) -> usize {
        let pages_r = self.pages_r(n_r) as f64;
        let b = self.buffer_pages as f64;
        let by_formula = ((pages_r * self.fudge - b) / (b - 1.0)).ceil();
        (by_formula.max(0.0) as usize).max(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_synthetic_derived_quantities() {
        // 1 KB records on 4 KB pages → 3 records per page (header-adjusted).
        let spec = JoinSpec::paper_synthetic(1024, 320);
        assert_eq!(spec.b_r(), 3);
        assert_eq!(spec.b_s(), 3);
        assert_eq!(spec.page_size, 4096);
        assert!((spec.fudge - 1.02).abs() < 1e-12);
        // c_R = ⌊3 · 318 / 1.02⌋ = ⌊935.29⌋ = 935
        assert_eq!(spec.c_r(), 935);
        assert!((spec.mu() - 1.28).abs() < 1e-9);
        assert!((spec.tau() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn pages_left_never_saturates() {
        let spec = JoinSpec::paper_synthetic(128, 5);
        assert_eq!(spec.pages_left(0), Ok(5));
        assert_eq!(spec.pages_left(5), Ok(0));
        assert_eq!(
            spec.pages_left(6),
            Err(StorageError::OutOfMemory {
                requested: 6,
                available: 5
            })
        );
    }

    #[test]
    fn page_counts_round_up() {
        let spec = JoinSpec::paper_synthetic(128, 100);
        let b = spec.b_r();
        assert_eq!(spec.pages_r(0), 0);
        assert_eq!(spec.pages_r(1), 1);
        assert_eq!(spec.pages_r(b), 1);
        assert_eq!(spec.pages_r(b + 1), 2);
        assert_eq!(spec.pages_s(10 * b + 1), 11);
    }

    #[test]
    fn c_r_shrinks_with_fudge_and_grows_with_budget() {
        let base = JoinSpec::paper_synthetic(256, 64);
        let more_mem = base.with_buffer_pages(128);
        assert!(more_mem.c_r() > base.c_r());
        let more_fudge = JoinSpec { fudge: 2.0, ..base };
        assert!(more_fudge.c_r() < base.c_r());
    }

    #[test]
    fn hash_table_pages_scale_with_records() {
        let spec = JoinSpec::paper_synthetic(1024, 320);
        assert_eq!(spec.hash_table_pages(0), 0);
        assert_eq!(spec.hash_table_pages(1), 1);
        let per_page_raw = 4096 / 1024;
        // With F = 1.02, slightly fewer than 4 records fit per page.
        assert!(spec.hash_table_pages(per_page_raw * 100) >= 100);
        assert!(spec.hash_table_pages(per_page_raw * 100) <= 103);
    }

    #[test]
    fn hash_set_and_map_pages_are_small() {
        let spec = JoinSpec::paper_synthetic(1024, 320);
        // 50K keys × 8 bytes ≈ 400 KB ≈ 100 pages.
        let hs = spec.hash_set_pages(50_000);
        assert!((100..=105).contains(&hs), "hash set pages = {hs}");
        let hm = spec.hash_map_pages(50_000);
        assert!(hm > hs, "the map stores a partition id per key");
    }

    #[test]
    fn m_dhh_has_floor_of_20() {
        let spec = JoinSpec::paper_synthetic(1024, 100_000);
        // Huge memory relative to R → formula would give < 20.
        assert_eq!(spec.m_dhh(1000), 20);
        // Small memory → formula dominates.
        let tight = spec.with_buffer_pages(300);
        let n_r = 1_000_000;
        let expected = ((tight.pages_r(n_r) as f64 * 1.02 - 300.0) / 299.0).ceil() as usize;
        assert_eq!(tight.m_dhh(n_r), expected.max(20));
    }

    #[test]
    fn hhj_threshold_is_sqrt_of_fr() {
        let spec = JoinSpec::paper_synthetic(1024, 320);
        let n_r = 300_000; // 100K pages at 3 records/page
        let expected = (spec.pages_r(n_r) as f64 * 1.02).sqrt();
        assert!((spec.hhj_memory_threshold(n_r) - expected).abs() < 1e-9);
    }
}
