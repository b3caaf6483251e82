//! In-memory build/probe hash table with fudge-factor space accounting.
//!
//! The paper's memory model charges an in-memory hash table `F` times the
//! raw size of the records it stores (`F` is the *fudge factor*, 1.02 in all
//! experiments). [`JoinHashTable`] keeps that accounting explicit: callers
//! ask [`pages_required`](JoinHashTable::pages_required) how many pages of
//! the budget the table occupies and size their plan's other structures on
//! what is left.
//!
//! # Layout
//!
//! The table is arena-backed — no per-record or per-key heap objects — and
//! is built in two steps. Inserting a record is a key push and a payload
//! `memcpy`:
//!
//! ```text
//! keys:    [ k0, k1, k2, ... ]       unzipped key array (one u64 per record)
//! payloads:[ p0 p1 p2 ............ ] contiguous payload arena (fixed width)
//! ```
//!
//! Once the build side is complete, [`seal`](JoinHashTable::seal) runs one
//! counting sort into `max(16, n.next_power_of_two())` Fibonacci-hashed
//! buckets, gathering every bucket's keys into one contiguous run plus an
//! index back into the arena:
//!
//! ```text
//! starts:  [ 0, 2, 2, 3, ... ]       bucket b's run is starts[b]..starts[b+1]
//! keys:    [ k5, k0, k7, ... ]       keys grouped by bucket
//! entries: [  5,  0,  7, ... ]       arena index of each grouped key
//! ```
//!
//! A probe is then a linear sweep of one run, compared
//! [`crate::simd::LANES`] keys per step by the vectorized kernels in
//! [`crate::simd`], yielding [`RecordRef`] views straight into the arena.
//! Probing ([`probe`](JoinHashTable::probe),
//! [`probe_count`](JoinHashTable::probe_count),
//! [`contains`](JoinHashTable::contains),
//! [`num_keys`](JoinHashTable::num_keys)) requires a sealed table and
//! panics otherwise; an insert after a seal drops the index until the next
//! seal. This replaces the former `HashMap` of owned records (SipHash + a
//! `Vec` per key + a `Box<[u8]>` per record), whose allocations dominated
//! build-side CPU once I/O was overlapped.
//!
//! The *accounting* is unchanged and deliberately independent of the
//! physical layout: `pages_required`/`pages_for`/`capacity_for_pages`
//! implement the paper's `⌈n·rec·F/page⌉` and `⌊b·pages/F⌋` formulas (now in
//! exact integer arithmetic — see [`JoinHashTable::pages_for`]).

use crate::hash::fib_bucket;
use crate::page::records_per_page;
use crate::record::{RecordLayout, RecordRef};
use crate::simd;

/// Parts-per-million scale used to carry the fudge factor in integers.
const PPM: u128 = 1_000_000;

/// The fudge factor as exact parts-per-million (`1.02 → 1_020_000`).
fn fudge_ppm(fudge: f64) -> u128 {
    (fudge * PPM as f64).round() as u128
}

/// An in-memory hash table mapping join keys to the (possibly multiple)
/// records carrying that key.
#[derive(Debug, Clone)]
pub struct JoinHashTable {
    /// Unzipped key array, one entry per inserted record.
    keys: Vec<u64>,
    /// Contiguous payload arena; entry `i`'s payload starts at
    /// `i × payload_bytes`.
    payloads: Vec<u8>,
    /// Bucket-contiguous probe index, present between [`seal`](Self::seal)
    /// and the next insert.
    packed: Option<PackedIndex>,
    layout: RecordLayout,
    page_size: usize,
    fudge: f64,
}

/// The sealed probe layout: every bucket's keys gathered into one
/// contiguous run so probes sweep linearly.
#[derive(Debug, Clone)]
struct PackedIndex {
    /// log2 shift turning a Fibonacci product into a bucket index.
    shift: u32,
    /// Keys grouped by bucket (insertion order within a bucket).
    keys: Vec<u64>,
    /// `entries[i]` is the arena entry index of `keys[i]`.
    entries: Vec<u32>,
    /// Per-bucket offsets into `keys`/`entries` (`buckets + 1` entries).
    starts: Vec<u32>,
}

impl JoinHashTable {
    /// Creates an empty hash table for records of the given layout.
    ///
    /// `fudge` is the paper's `F` (≥ 1): the in-memory footprint of the table
    /// is charged as `F ×` the raw record bytes.
    pub fn new(layout: RecordLayout, page_size: usize, fudge: f64) -> Self {
        assert!(
            fudge >= 1.0,
            "the fudge factor is a space amplification, F >= 1"
        );
        JoinHashTable {
            keys: Vec::new(),
            payloads: Vec::new(),
            packed: None,
            layout,
            page_size,
            fudge,
        }
    }

    /// Inserts a record: a key push and a payload `memcpy` into the
    /// arena — no allocation beyond amortized arena growth.
    pub fn insert_ref(&mut self, record: RecordRef<'_>) {
        debug_assert_eq!(
            record.payload().len(),
            self.layout.payload_bytes(),
            "record layout must match the table's layout"
        );
        // Any mutation invalidates the probe index; callers re-seal after
        // the build side is complete.
        self.packed = None;
        self.keys.push(record.key());
        self.payloads.extend_from_slice(record.payload());
    }

    #[inline]
    fn entry(&self, i: usize) -> RecordRef<'_> {
        let w = self.layout.payload_bytes();
        RecordRef::new(self.keys[i], &self.payloads[i * w..(i + 1) * w])
    }

    /// Builds the bucket-contiguous probe index (see the module docs): one
    /// counting sort of the entries into `max(16, n.next_power_of_two())`
    /// buckets. Idempotent; a later insert drops the index and the next
    /// seal rebuilds it.
    pub fn seal(&mut self) {
        if self.packed.is_some() {
            return;
        }
        let n = self.keys.len();
        let num_buckets = n.next_power_of_two().max(16);
        let shift = 64 - num_buckets.trailing_zeros();
        let mut starts = vec![0u32; num_buckets + 1];
        for &key in &self.keys {
            starts[fib_bucket(key, shift) + 1] += 1;
        }
        for b in 0..num_buckets {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut keys = vec![0u64; n];
        let mut entries = vec![0u32; n];
        for (i, &key) in self.keys.iter().enumerate() {
            let b = fib_bucket(key, shift);
            let pos = cursor[b] as usize;
            cursor[b] += 1;
            keys[pos] = key;
            entries[pos] = i as u32;
        }
        self.packed = Some(PackedIndex {
            shift,
            keys,
            entries,
            starts,
        });
    }

    /// The probe index.
    ///
    /// # Panics
    ///
    /// If the table is not sealed.
    #[inline]
    fn index(&self) -> &PackedIndex {
        self.packed
            .as_ref()
            .expect("JoinHashTable probed before seal(): seal the table after its last insert")
    }

    /// The probe index and the packed key run of `key`'s bucket.
    #[inline]
    fn bucket(&self, key: u64) -> (&PackedIndex, usize, usize) {
        let packed = self.index();
        let b = fib_bucket(key, packed.shift);
        (
            packed,
            packed.starts[b] as usize,
            packed.starts[b + 1] as usize,
        )
    }

    /// All records whose key equals `key`, as borrowed views into the arena
    /// (empty iterator if none), in unspecified order.
    ///
    /// # Panics
    ///
    /// If the table is not sealed.
    pub fn probe(&self, key: u64) -> ProbeIter<'_> {
        let (packed, start, end) = self.bucket(key);
        ProbeIter {
            table: self,
            keys: &packed.keys[..end],
            entries: &packed.entries,
            key,
            pos: start,
        }
    }

    /// Number of records whose key equals `key` (the probe-loop fast path:
    /// counting matches without materializing them) — one vectorized sweep
    /// over the bucket's contiguous key run.
    ///
    /// # Panics
    ///
    /// If the table is not sealed.
    #[inline]
    pub fn probe_count(&self, key: u64) -> u64 {
        let (packed, start, end) = self.bucket(key);
        simd::count_matches(&packed.keys[start..end], key)
    }

    /// Returns `true` if at least one record with `key` is present.
    ///
    /// # Panics
    ///
    /// If the table is not sealed.
    pub fn contains(&self, key: u64) -> bool {
        self.probe(key).next().is_some()
    }

    /// Number of records stored.
    pub fn num_records(&self) -> usize {
        self.keys.len()
    }

    /// Number of distinct keys stored: the entries that are the first of
    /// their key within their bucket's packed run, counted in place (no
    /// allocation; quadratic only in a run's length).
    ///
    /// # Panics
    ///
    /// If the table is not sealed.
    pub fn num_keys(&self) -> usize {
        let packed = self.index();
        packed
            .starts
            .windows(2)
            .map(|run| {
                let run = &packed.keys[run[0] as usize..run[1] as usize];
                (0..run.len())
                    .filter(|&i| simd::next_match(&run[..i], 0, run[i]).is_none())
                    .count()
            })
            .sum()
    }

    /// Returns `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Buffer-pool pages charged for the current contents:
    /// `⌈ records × record_bytes × F / page_size ⌉`.
    pub fn pages_required(&self) -> usize {
        Self::pages_for(self.keys.len(), self.layout, self.page_size, self.fudge)
    }

    /// Pages a table of `records` records would require (static helper used
    /// by planners before any record is actually inserted).
    ///
    /// Computed in exact integer arithmetic: the fudge factor is carried as
    /// parts-per-million and the whole product fits in `u128`, so the result
    /// is exact for any `records × record_bytes` — the former `f64` path
    /// misrounded once the product left the 53-bit mantissa.
    pub fn pages_for(records: usize, layout: RecordLayout, page_size: usize, fudge: f64) -> usize {
        if records == 0 {
            return 0;
        }
        let inflated = records as u128 * layout.record_bytes() as u128 * fudge_ppm(fudge);
        inflated.div_ceil(PPM * page_size as u128) as usize
    }

    /// Maximum number of records that fit in `pages` pages under the fudge
    /// factor, i.e. the paper's `c_R = ⌊ b_R · pages / F ⌋` when
    /// `pages = B − 2` (exact integer arithmetic, see
    /// [`pages_for`](Self::pages_for)).
    pub fn capacity_for_pages(
        pages: usize,
        layout: RecordLayout,
        page_size: usize,
        fudge: f64,
    ) -> usize {
        let b = records_per_page(page_size, layout.record_bytes());
        ((b * pages) as u128 * PPM / fudge_ppm(fudge)) as usize
    }

    /// Iterates over all stored records as borrowed views, in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.keys.len()).map(move |i| self.entry(i))
    }
}

/// Iterator over the records matching one probe key (borrowed views into
/// the table's arena): a vectorized sweep of the key's bucket run.
pub struct ProbeIter<'a> {
    table: &'a JoinHashTable,
    /// The packed keys up to the end of the probed bucket's run.
    keys: &'a [u64],
    entries: &'a [u32],
    key: u64,
    /// Next packed position to inspect.
    pos: usize,
}

impl<'a> Iterator for ProbeIter<'a> {
    type Item = RecordRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let hit = simd::next_match(self.keys, self.pos, self.key)?;
        self.pos = hit + 1;
        Some(self.table.entry(self.entries[hit] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> RecordLayout {
        RecordLayout::new(24) // 32-byte records
    }

    #[test]
    fn insert_and_probe() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.02);
        ht.insert_ref(RecordRef::new(1, &[0xA; 24]));
        ht.insert_ref(RecordRef::new(1, &[0xB; 24]));
        ht.insert_ref(RecordRef::new(2, &[0xC; 24]));
        ht.seal();
        assert_eq!(ht.probe(1).count(), 2);
        assert_eq!(ht.probe_count(1), 2);
        assert_eq!(ht.probe(2).count(), 1);
        assert_eq!(ht.probe(3).count(), 0);
        assert!(ht.contains(2));
        assert!(!ht.contains(99));
        assert_eq!(ht.num_records(), 3);
        assert_eq!(ht.num_keys(), 2);
    }

    #[test]
    fn probe_returns_the_right_payloads() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.02);
        ht.insert_ref(RecordRef::new(1, &[0xA; 24]));
        ht.insert_ref(RecordRef::new(1, &[0xB; 24]));
        ht.insert_ref(RecordRef::new(2, &[0xC; 24]));
        ht.seal();
        let mut fills: Vec<u8> = ht.probe(1).map(|r| r.payload()[0]).collect();
        fills.sort_unstable();
        assert_eq!(fills, vec![0xA, 0xB]);
        assert!(ht.probe(1).all(|r| r.key() == 1));
    }

    #[test]
    fn survives_growth_across_many_keys() {
        // Sealed at the 16-bucket minimum, then grown far past it: the next
        // seal sizes its directory for the new contents.
        let mut ht = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        for k in 0..10u64 {
            ht.insert_ref(RecordRef::new(k, &k.to_le_bytes()));
        }
        ht.seal();
        assert_eq!(ht.num_keys(), 10);
        for k in 10..10_000u64 {
            ht.insert_ref(RecordRef::new(k, &k.to_le_bytes()));
        }
        ht.seal();
        assert_eq!(ht.num_records(), 10_000);
        assert_eq!(ht.num_keys(), 10_000);
        for k in (0..10_000u64).step_by(997) {
            let matches: Vec<_> = ht.probe(k).collect();
            assert_eq!(matches.len(), 1, "key {k}");
            assert_eq!(matches[0].payload(), &k.to_le_bytes());
        }
        assert!(!ht.contains(10_000));
    }

    #[test]
    fn pages_required_includes_fudge_factor() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.5);
        // 4096 / 32 = 128 records fit raw in one page, but with F = 1.5 only
        // ~85 do.
        for k in 0..128u64 {
            ht.insert_ref(RecordRef::new(k, &[0; 24]));
        }
        assert_eq!(ht.pages_required(), 2);
        assert_eq!(JoinHashTable::pages_for(128, layout(), 4096, 1.0), 1);
    }

    #[test]
    fn capacity_for_pages_is_inverse_of_pages_for() {
        let l = layout();
        for pages in [1usize, 2, 7, 31] {
            let cap = JoinHashTable::capacity_for_pages(pages, l, 4096, 1.02);
            assert!(JoinHashTable::pages_for(cap, l, 4096, 1.02) <= pages);
            assert!(JoinHashTable::pages_for(cap + 8, l, 4096, 1.02) >= pages);
        }
    }

    /// The integer accounting must agree with the former `f64` formulas
    /// everywhere the floats were exact — these are the boundary cases the
    /// old implementation was pinned at.
    #[test]
    fn integer_accounting_matches_the_float_formula_at_old_boundaries() {
        let float_pages = |records: usize, rec_bytes: usize, page: usize, fudge: f64| -> usize {
            let raw = records as f64 * rec_bytes as f64;
            ((raw * fudge) / page as f64).ceil() as usize
        };
        let float_cap = |pages: usize, rec_bytes: usize, page: usize, fudge: f64| -> usize {
            let b = records_per_page(page, rec_bytes);
            ((b * pages) as f64 / fudge).floor() as usize
        };
        for fudge in [1.0, 1.02, 1.5, 2.0] {
            for rec_bytes in [32usize, 128, 1024] {
                let l = RecordLayout::new(rec_bytes - 8);
                // Exact-multiple boundaries and their neighbours.
                let b = records_per_page(4096, rec_bytes);
                for records in [1usize, b, b + 1, 51, 50 * b, 51 * b, 100_000] {
                    assert_eq!(
                        JoinHashTable::pages_for(records, l, 4096, fudge),
                        float_pages(records, rec_bytes, 4096, fudge),
                        "pages_for({records}, {rec_bytes}B, F={fudge})"
                    );
                }
                for pages in [1usize, 2, 46, 51, 318, 1000] {
                    assert_eq!(
                        JoinHashTable::capacity_for_pages(pages, l, 4096, fudge),
                        float_cap(pages, rec_bytes, 4096, fudge),
                        "capacity_for_pages({pages}, {rec_bytes}B, F={fudge})"
                    );
                }
            }
        }
    }

    /// Beyond the 53-bit mantissa the old float path misrounds; the integer
    /// path stays exact.
    #[test]
    fn integer_accounting_is_exact_beyond_f64_precision() {
        let l = RecordLayout::new(120); // 128-byte records
                                        // 2^52 + 14 records × 128 bytes × 1.02 overflows the f64 mantissa:
                                        // the float formula yields 143_552_238_122_435, one page short.
        let records = (1usize << 52) + 14;
        let exact = (records as u128 * 128 * 1_020_000).div_ceil(1_000_000u128 * 4096) as usize;
        assert_eq!(exact, 143_552_238_122_436);
        assert_eq!(JoinHashTable::pages_for(records, l, 4096, 1.02), exact);
        // And the exact value is NOT what the float formula produces.
        let float = ((records as f64 * 128.0 * 1.02) / 4096.0).ceil() as usize;
        assert_eq!(
            float, 143_552_238_122_435,
            "this case was chosen because the f64 path misrounds it"
        );
    }

    #[test]
    fn empty_table_needs_no_pages() {
        let ht = JoinHashTable::new(layout(), 4096, 1.02);
        assert!(ht.is_empty());
        assert_eq!(ht.pages_required(), 0);
    }

    #[test]
    fn iter_returns_everything_in_insertion_order() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.02);
        for k in (0..10u64).rev() {
            ht.insert_ref(RecordRef::new(k, &[0; 24]));
        }
        let keys: Vec<u64> = ht.iter().map(|r| r.key()).collect();
        assert_eq!(keys, (0..10).rev().collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "fudge factor")]
    fn fudge_below_one_is_rejected() {
        let _ = JoinHashTable::new(layout(), 4096, 0.5);
    }

    /// Reference check: every probe of a sealed table answers exactly what
    /// a `HashMap<u64, Vec<payload>>` holding the same records answers —
    /// same multiplicities, same payload multisets, same distinct-key count
    /// — across duplicate-heavy and unique keys.
    #[test]
    fn sealed_probes_match_a_hashmap_reference() {
        use std::collections::HashMap;
        let mut ht = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        let mut reference: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
        // Heavy duplication: key k appears (k % 5) + 1 times.
        for k in 0..2_000u64 {
            for copy in 0..(k % 5) + 1 {
                let payload = (k * 10 + copy).to_le_bytes();
                ht.insert_ref(RecordRef::new(k, &payload));
                reference.entry(k).or_default().push(payload.to_vec());
            }
        }
        ht.seal();
        assert_eq!(ht.num_keys(), reference.len());
        for k in 0..2_100u64 {
            let mut expected = reference.get(&k).cloned().unwrap_or_default();
            expected.sort();
            assert_eq!(ht.probe_count(k), expected.len() as u64, "count at key {k}");
            assert_eq!(
                ht.contains(k),
                !expected.is_empty(),
                "membership at key {k}"
            );
            let mut sealed: Vec<Vec<u8>> = ht.probe(k).map(|r| r.payload().to_vec()).collect();
            sealed.sort();
            assert_eq!(sealed, expected, "payloads at key {k}");
        }
    }

    #[test]
    #[should_panic(expected = "before seal()")]
    fn probing_an_unsealed_table_panics() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.02);
        ht.insert_ref(RecordRef::new(7, &[1; 24]));
        let _ = ht.probe_count(7);
    }

    #[test]
    fn seal_is_idempotent_and_inserts_unseal() {
        let mut ht = JoinHashTable::new(layout(), 4096, 1.02);
        ht.seal(); // Sealing an empty table is fine.
        assert!(ht.packed.is_some());
        assert_eq!(ht.probe_count(7), 0);
        ht.insert_ref(RecordRef::new(7, &[1; 24]));
        assert!(ht.packed.is_none(), "an insert must drop the packed index");
        ht.seal();
        ht.seal();
        assert!(ht.packed.is_some());
        assert_eq!(ht.probe_count(7), 1);
        assert!(ht.contains(7));
        assert_eq!(ht.num_keys(), 1);
    }

    #[test]
    fn sealed_probe_yields_bucket_runs_with_correct_records() {
        let mut ht = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        for k in 0..10_000u64 {
            ht.insert_ref(RecordRef::new(k, &k.to_le_bytes()));
        }
        ht.seal();
        for k in (0..10_000u64).step_by(997) {
            let matches: Vec<_> = ht.probe(k).collect();
            assert_eq!(matches.len(), 1, "key {k}");
            assert_eq!(matches[0].key(), k);
            assert_eq!(matches[0].payload(), &k.to_le_bytes());
        }
        assert!(!ht.contains(10_000));
    }
}
