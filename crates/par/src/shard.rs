//! Page ranges: a relation's scan spread over any number of workers.
//!
//! [`page_morsels`] cuts a relation's pages into fixed-length morsels
//! (`min(256, ⌈pages / 8T⌉)` pages) that the workers claim as
//! [`ordered_tasks`](crate::pool::ordered_tasks); together they cover every
//! page exactly once, so a scan costs `‖R‖` sequential reads at every
//! worker count while a slow worker simply claims fewer morsels instead of
//! holding the phase up. [`page_shards`] is the static even split, kept for
//! consumers whose decomposition must not depend on the worker count (the
//! statistics collector's fixed shard grid). What the workers write goes
//! through `nocap_storage`'s [`SpillSet`](nocap_storage::SpillSet).

use std::ops::Range;

/// Splits `total` into `parts` shares that differ by at most one and sum to
/// exactly `total` (earlier shares take the remainder).
fn even_split(total: usize, parts: usize) -> impl Iterator<Item = usize> {
    let parts = parts.max(1);
    let base = total / parts;
    let remainder = total % parts;
    (0..parts).map(move |i| base + usize::from(i < remainder))
}

/// Splits `0..num_pages` into `workers` contiguous ranges whose lengths
/// differ by at most one page. Trailing ranges may be empty when there are
/// fewer pages than workers.
pub fn page_shards(num_pages: usize, workers: usize) -> Vec<Range<usize>> {
    let mut start = 0usize;
    even_split(num_pages, workers)
        .map(|len| {
            let shard = start..start + len;
            start += len;
            shard
        })
        .collect()
}

/// Longest morsel, in pages. A multiple of the block layer's 8-page block,
/// so on large relations no two workers read-ahead the same block.
const MAX_MORSEL_PAGES: usize = 256;

/// Morsels a relation is cut into per worker (until [`MAX_MORSEL_PAGES`]
/// caps their length): enough that the slowest worker's last morsel is a
/// small share of the phase.
const MORSELS_PER_WORKER: usize = 8;

/// Morsel length for a relation of `num_pages` scanned by `workers`:
/// `min(256, ⌈num_pages / (8 · workers)⌉)` pages, so relations of a few
/// pages still spread over all workers.
fn morsel_len(num_pages: usize, workers: usize) -> usize {
    num_pages
        .div_ceil(MORSELS_PER_WORKER * workers.max(1))
        .clamp(1, MAX_MORSEL_PAGES)
}

/// Cuts `0..num_pages` into the morsels a scan by `workers` workers hands
/// out: contiguous ranges of `min(256, ⌈num_pages / 8 · workers⌉)` pages
/// (the last one shorter), covering every page exactly once.
pub fn page_morsels(num_pages: usize, workers: usize) -> Vec<Range<usize>> {
    let len = morsel_len(num_pages, workers);
    (0..num_pages)
        .step_by(len)
        .map(|start| start..(start + len).min(num_pages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ordered_tasks;
    use nocap_obs::{Obs, Phase};
    use nocap_storage::{Record, RecordLayout, Relation, SimDevice};

    fn layout() -> RecordLayout {
        RecordLayout::new(8)
    }

    /// Records per page of the test pages below.
    const B: usize = 4;
    const PAGE_SIZE: usize = 4 + B * 16;

    #[test]
    fn shards_partition_the_page_range() {
        assert_eq!(page_shards(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(page_shards(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(page_shards(0, 2), vec![0..0, 0..0]);
        for (pages, workers) in [(100, 7), (5, 5), (1, 8), (64, 2)] {
            let shards = page_shards(pages, workers);
            assert_eq!(shards.len(), workers);
            let covered: usize = shards.iter().map(|r| r.len()).sum();
            assert_eq!(covered, pages);
            for pair in shards.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    /// A relation of exactly `pages` full pages on a fresh device.
    fn relation_of(pages: usize) -> Relation {
        Relation::bulk_load(
            SimDevice::new_ref(),
            layout(),
            PAGE_SIZE,
            (0..(pages * B) as u64).map(|k| Record::with_fill(k, 8, 0)),
        )
        .unwrap()
    }

    #[test]
    fn morsels_cover_every_page_exactly_once() {
        for (pages, workers) in [(0usize, 2usize), (1, 8), (5, 8), (100, 3), (6_667, 2)] {
            let morsels = page_morsels(pages, workers);
            let len = morsel_len(pages, workers);
            let mut next = 0;
            for (i, range) in morsels.iter().enumerate() {
                assert_eq!(range.start, next, "morsels are contiguous");
                assert!(!range.is_empty() && range.len() <= MAX_MORSEL_PAGES);
                if i + 1 < morsels.len() {
                    assert_eq!(range.len(), len, "only the last morsel is shorter");
                }
                next = range.end;
            }
            assert_eq!(next, pages);
        }
        // Length rule: ⌈pages / 8T⌉ capped at 256 — small relations still
        // give every worker something to claim, large ones stay block-aligned.
        assert_eq!(morsel_len(100, 3), 5);
        assert_eq!(morsel_len(5, 8), 1);
        assert_eq!(morsel_len(0, 0), 1);
        assert_eq!(morsel_len(53_334, 2), 256);
        assert_eq!(MAX_MORSEL_PAGES % 8, 0);
        assert_eq!(page_morsels(100, 3)[0], 0..5);
        assert_eq!(page_morsels(6_667, 2).len(), 27, "256-page morsels");
    }

    #[test]
    fn concurrent_morsel_scans_read_every_page_exactly_once() {
        let relation = relation_of(1_000);
        relation.device().reset_stats();
        let morsels = page_morsels(relation.num_pages(), 4);
        let (_, seen) = ordered_tasks(
            4,
            &Obs::off(),
            Phase::Partition,
            morsels.len(),
            Vec::new,
            |keys, i| {
                let mut scan = relation.scan_range(morsels[i].clone());
                while let Some(page) = scan.next_page()? {
                    keys.extend(page.record_refs().map(|r| r.key()));
                }
                Ok(())
            },
        )
        .unwrap();
        let mut keys: Vec<u64> = seen.into_iter().flatten().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..(1_000 * B) as u64).collect::<Vec<_>>());
        assert_eq!(relation.device().stats().seq_reads, 1_000);
    }
}
