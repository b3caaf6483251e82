//! Page morsels and the spill write path, for any number of workers.
//!
//! **Scans.** [`PageMorsels`] hands out a relation's pages in fixed-length
//! morsels (`min(256, ⌈pages / 8T⌉)` pages) from an atomic cursor;
//! together the claimed ranges cover every page exactly once, so a scan
//! costs `‖R‖` sequential reads at every worker count while a slow worker
//! simply claims fewer morsels instead of holding the phase up. [`page_shards`] is the
//! static even split, kept for consumers whose decomposition must not
//! depend on timing (the statistics collector's fixed shard grid).
//!
//! **Writes.** A [`SharedWriterSet`] owns one [`PartitionWriter`] — one
//! spill file, one output-buffer page once the merge needs it — per
//! partition. Workers never push
//! records into it. Each worker takes a [`LocalWriter`] holding its *own* lazily
//! allocated page per partition, fills those without any synchronisation,
//! and takes a partition's lock only to append a page that is already full
//! ([`PartitionWriter::append_full_page`]): once per `b` records instead of
//! once per record, and never to copy into a page another core is also
//! writing. When the scan ends the workers hand their handles back and the
//! coordinator [`merge`](SharedWriterSet::merge)s the partial pages, in
//! worker order, through the partition's buffered writer.
//!
//! **Why the page count is one writer's.** Private pages follow
//! [`PartitionWriter`]'s lazy rule — a page is flushed only when a record
//! arrives and finds it full — so a worker that routed `n_w ≥ 1` records
//! to a partition has appended `⌈n_w / b⌉ − 1` pages and still holds
//! `1..=b` records. Pouring the `P = Σ pending` records through the shared
//! writer flushes `⌈P / b⌉ − 1` more and leaves `1..=b` buffered. Since
//! `n = b · Σ(⌈n_w / b⌉ − 1) + P`, the partition has exactly `⌈n / b⌉ − 1`
//! pages on the device after the merge and `finish` writes exactly one
//! more: the state one [`PartitionWriter`] pushed all `n` records would be
//! in, for any worker count and any split of the records among workers.
//! Private buffers do *not* write extra partial pages. The joins take
//! their partition-phase I/O snapshot after the merge and call `finish` in
//! the probe window, so the split of a partition's writes between the two
//! windows is `⌈n / b⌉ − 1` / `1` at every worker count.
//!
//! **What it costs.** Up to `workers × partitions touched` private pages
//! of physical memory outside the `BufferPool`. A [`PartitionWriter`]
//! allocates its output-buffer page on the first record *buffered* in it,
//! and during the scan the set's writers only ever see whole pages, so at
//! one worker — how the joins' sequential `run` executes — the scan holds
//! `m` physical output pages for `m` spill partitions, the `m` the model
//! charges (§4.1). The merge then moves each partition's tail from the
//! private page into the writer's, one partition at a time: `m` pages plus
//! the one being poured. At `T` workers it is up to `T × m`. The private
//! pages own no file, so a failed or cancelled run leaks nothing: the
//! set's writers delete their files on drop.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nocap_storage::device::DeviceRef;
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, IoKind, Page, PartitionHandle, PartitionWriter,
    RecordLayout, RecordRef, Relation, Result, SpillGuard,
};

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

/// A relation's pages handed out in fixed-length morsels from an atomic
/// cursor. Every page is claimed exactly once.
pub struct PageMorsels {
    relation: Relation,
    next: AtomicUsize,
    len: usize,
}

impl PageMorsels {
    /// Cuts `relation` into morsels for `workers` workers (see the module
    /// docs for the length rule).
    pub fn new(relation: &Relation, workers: usize) -> Self {
        PageMorsels {
            relation: relation.clone(),
            next: AtomicUsize::new(0),
            len: morsel_len(relation.num_pages(), workers),
        }
    }

    /// Claims the next unclaimed morsel, or `None` once the relation is
    /// exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        // Relaxed: the cursor publishes nothing but itself — the pages it
        // indexes were written before the workers started.
        let start = self.next.fetch_add(self.len, Ordering::Relaxed);
        let end = self.relation.num_pages();
        (start < end).then(|| start..(start + self.len).min(end))
    }

    /// One worker's share of the scan: claims morsels until none are left
    /// and hands every page of each to `on_page`, one sequential read per
    /// page.
    pub fn scan(&self, mut on_page: impl FnMut(&Page) -> Result<()>) -> Result<()> {
        while let Some(morsel) = self.claim() {
            let mut scan = self.relation.scan_range(morsel);
            while let Some(page) = scan.next_page()? {
                on_page(&page)?;
            }
        }
        Ok(())
    }
}

/// One worker's private output pages, one per partition, allocated on the
/// partition's first record. Shared by [`LocalWriter`] and the stager's
/// post-destage path.
pub(crate) struct PrivatePages {
    layout: RecordLayout,
    page_size: usize,
    pages: Vec<Option<Page>>,
}

impl PrivatePages {
    pub(crate) fn new(layout: RecordLayout, page_size: usize, partitions: usize) -> Self {
        PrivatePages {
            layout,
            page_size,
            pages: (0..partitions).map(|_| None).collect(),
        }
    }

    /// Appends `record` to partition `p`'s private page. If the page is
    /// already full it first goes to `append_full` (`PartitionWriter`'s
    /// lazy rule: a full page waits for the record that does not fit).
    pub(crate) fn push(
        &mut self,
        p: usize,
        record: RecordRef<'_>,
        append_full: impl FnOnce(&Page) -> Result<()>,
    ) -> Result<()> {
        let page = self.pages[p].get_or_insert_with(|| Page::empty(self.page_size, self.layout));
        if !page.push_ref(record)? {
            append_full(page)?;
            page.clear();
            let pushed = page.push_ref(record)?;
            debug_assert!(pushed, "freshly cleared page must accept a record");
        }
        Ok(())
    }

    /// Pours partition `p`'s pending records through its buffered writer
    /// and releases the page.
    pub(crate) fn pour(&mut self, p: usize, writer: &mut PartitionWriter) -> Result<()> {
        if let Some(page) = self.pages[p].take() {
            for record in page.record_refs() {
                writer.push_ref(record)?;
            }
        }
        Ok(())
    }
}

/// One spill writer per partition, fed by worker-private pages (see the
/// module docs).
///
/// Entries can be absent (`None`) so the NOCAP and DHH S-passes allocate
/// writers — and spill files — only for the partitions whose page-out bit
/// is set.
pub struct SharedWriterSet {
    layout: RecordLayout,
    page_size: usize,
    writers: Vec<Option<Mutex<PartitionWriter>>>,
}

impl SharedWriterSet {
    /// Creates `partitions` writers.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
        partitions: usize,
    ) -> Self {
        Self::new_masked(
            device,
            layout,
            page_size,
            write_kind,
            &vec![true; partitions],
        )
    }

    /// Creates a writer only for the positions where `mask` is `true`.
    pub fn new_masked(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
        mask: &[bool],
    ) -> Self {
        SharedWriterSet {
            layout,
            page_size,
            writers: mask
                .iter()
                .map(|&present| {
                    present.then(|| {
                        Mutex::new(PartitionWriter::new(
                            device.clone(),
                            layout,
                            page_size,
                            write_kind,
                        ))
                    })
                })
                .collect(),
        }
    }

    /// Number of partition slots (present or not).
    pub fn len(&self) -> usize {
        self.writers.len()
    }

    /// Returns `true` if the set has no partition slots.
    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }

    /// A worker's private handle on the set. Hand it back to
    /// [`merge`](Self::merge) when the worker is done — records still in
    /// its partial pages are not in any file until then.
    pub fn local(&self) -> LocalWriter<'_> {
        LocalWriter {
            set: self,
            pages: PrivatePages::new(self.layout, self.page_size, self.writers.len()),
        }
    }

    /// Pours the partial pages the workers hand back, in the order given
    /// (worker order), through each partition's buffered writer. Afterwards
    /// every partition is in exactly the state one `PartitionWriter` fed the
    /// same records would be in: `⌈n / b⌉ − 1` pages on the device, the
    /// last `1..=b` records buffered for `finish`. Call it before the
    /// phase's I/O snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a handle belongs to another set.
    pub fn merge<'a>(&'a self, locals: impl IntoIterator<Item = LocalWriter<'a>>) -> Result<()> {
        for mut local in locals {
            assert!(
                std::ptr::eq(local.set, self),
                "LocalWriter merged into a set it was not taken from"
            );
            for (p, writer) in self.writers.iter().enumerate() {
                if let Some(writer) = writer {
                    local.pages.pour(p, &mut lock_unpoisoned(writer))?;
                }
            }
        }
        Ok(())
    }

    /// Finishes every present writer, yielding one handle per slot.
    ///
    /// Fail-clean: if any writer fails to finish, the handles produced so
    /// far are deleted (and the remaining unfinished writers delete their
    /// own files on drop) before the error is returned.
    pub fn finish_all(self) -> Result<Vec<Option<PartitionHandle>>> {
        let mut guard = SpillGuard::new();
        let mut out = Vec::with_capacity(self.writers.len());
        for slot in self.writers {
            match slot {
                None => out.push(None),
                Some(writer) => {
                    let handle = into_inner_unpoisoned(writer).finish()?;
                    guard.adopt(handle.clone());
                    out.push(Some(handle));
                }
            }
        }
        let _ = guard.release();
        Ok(out)
    }

    /// Finishes a fully-populated set, yielding one handle per partition.
    /// Fail-clean like [`finish_all`](Self::finish_all).
    ///
    /// # Panics
    ///
    /// Panics if any slot was masked out; use [`finish_all`](Self::finish_all)
    /// for masked sets.
    pub fn finish_dense(self) -> Result<Vec<PartitionHandle>> {
        Ok(self
            .finish_all()?
            .into_iter()
            .map(|slot| slot.expect("finish_dense called on a masked writer set"))
            .collect())
    }
}

/// One worker's write handle on a [`SharedWriterSet`]: a private page per
/// partition, appended to the partition's file under its lock only when
/// full.
pub struct LocalWriter<'a> {
    set: &'a SharedWriterSet,
    pages: PrivatePages,
}

impl LocalWriter<'_> {
    /// Appends `record` to partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if partition `p` has no writer — routing a record to a masked
    /// -out partition is an executor logic error, not a runtime condition.
    pub fn push(&mut self, p: usize, record: RecordRef<'_>) -> Result<()> {
        let writer = self.set.writers[p]
            .as_ref()
            .expect("record routed to a partition without a writer");
        self.pages.push(p, record, |full| {
            lock_unpoisoned(writer).append_full_page(full)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_workers;
    use nocap_storage::{BlockDevice, FaultDevice, FaultKind, FaultSpec, Record, SimDevice};
    use std::sync::Arc;

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
            let relation = relation_of(pages);
            assert_eq!(relation.num_pages(), pages);
            let morsels = PageMorsels::new(&relation, workers);
            let mut next = 0;
            while let Some(range) = morsels.claim() {
                assert_eq!(range.start, next, "morsels are contiguous");
                assert!(!range.is_empty() && range.len() <= MAX_MORSEL_PAGES);
                next = range.end;
            }
            assert_eq!(next, pages);
            assert!(morsels.claim().is_none(), "exhaustion is sticky");
        }
        // Length rule: ⌈pages / 8T⌉ capped at 256 — small relations still
        // give every worker something to claim, large ones stay block-aligned.
        assert_eq!(morsel_len(100, 3), 5);
        assert_eq!(morsel_len(5, 8), 1);
        assert_eq!(morsel_len(0, 0), 1);
        assert_eq!(morsel_len(53_334, 2), 256);
        assert_eq!(MAX_MORSEL_PAGES % 8, 0);
    }

    #[test]
    fn concurrent_morsel_scans_read_every_page_exactly_once() {
        let relation = relation_of(1_000);
        relation.device().reset_stats();
        let morsels = PageMorsels::new(&relation, 4);
        let seen = run_workers(4, |_| {
            let mut keys = Vec::new();
            morsels.scan(|page| {
                keys.extend(page.record_refs().map(|r| r.key()));
                Ok(())
            })?;
            Ok(keys)
        })
        .unwrap();
        let mut keys: Vec<u64> = seen.into_iter().flatten().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..(1_000 * B) as u64).collect::<Vec<_>>());
        assert_eq!(relation.device().stats().seq_reads, 1_000);
    }

    /// Feeds partition 0 of a one-partition set `split[w]` records from
    /// worker `w` and checks every count against one sequential writer fed
    /// the same `n = Σ split` records.
    fn assert_page_arithmetic(split: &[usize]) {
        let n: usize = split.iter().sum();
        let key = |w: usize, i: usize| (w * 1_000_000 + i) as u64;

        let sequential = {
            let dev = SimDevice::new_ref();
            let mut writer =
                PartitionWriter::new(dev.clone(), layout(), PAGE_SIZE, IoKind::RandWrite);
            for (w, &count) in split.iter().enumerate() {
                for i in 0..count {
                    writer.push(&Record::with_fill(key(w, i), 8, 0)).unwrap();
                }
            }
            let before_finish = dev.stats().rand_writes;
            let handle = writer.finish().unwrap();
            (before_finish, dev.stats().rand_writes, handle)
        };

        let dev = SimDevice::new_ref();
        let set = SharedWriterSet::new(dev.clone(), layout(), PAGE_SIZE, IoKind::RandWrite, 1);
        let locals = run_workers(split.len(), |w| {
            let mut local = set.local();
            for i in 0..split[w] {
                local.push(0, Record::with_fill(key(w, i), 8, 0).as_record_ref())?;
            }
            Ok(local)
        })
        .unwrap();
        set.merge(locals).unwrap();
        let before_finish = dev.stats().rand_writes;
        let handle = set.finish_dense().unwrap().remove(0);

        let expected_before = n.div_ceil(B).saturating_sub(1) as u64;
        assert_eq!(before_finish, expected_before, "before finish, {split:?}");
        assert_eq!(before_finish, sequential.0, "vs sequential, {split:?}");
        let after_finish = dev.stats().rand_writes;
        assert_eq!(
            after_finish,
            n.div_ceil(B) as u64,
            "after finish, {split:?}"
        );
        assert_eq!(after_finish, sequential.1, "vs sequential, {split:?}");
        assert_eq!(handle.records(), sequential.2.records(), "{split:?}");
        assert_eq!(handle.pages(), sequential.2.pages(), "{split:?}");
        let keys = |h: &PartitionHandle| {
            let mut keys: Vec<u64> = h
                .read_all(IoKind::SeqRead)
                .unwrap()
                .iter()
                .map(Record::key)
                .collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(keys(&handle), keys(&sequential.2), "multiset, {split:?}");
    }

    #[test]
    fn tail_merge_writes_the_sequential_page_count_for_every_split() {
        let (k, r) = (5usize, 3usize);
        for n in [0, 1, B - 1, B, B + 1, k * B, k * B + r] {
            for workers in [1usize, 2, 3, 8] {
                // Even, front-loaded (later workers route nothing) and
                // back-loaded one-record-each splits of the same n.
                let even: Vec<usize> = even_split(n, workers).collect();
                let mut front = vec![0; workers];
                front[0] = n;
                let mut ragged = vec![0; workers];
                for slot in ragged.iter_mut().rev().take(n.min(workers - 1)) {
                    *slot = 1;
                }
                ragged[0] = n - ragged.iter().sum::<usize>();
                for split in [even, front, ragged] {
                    assert_eq!(split.iter().sum::<usize>(), n);
                    assert_page_arithmetic(&split);
                }
            }
        }
    }

    #[test]
    fn concurrent_pushes_write_the_sequential_page_count() {
        let dev = SimDevice::new_ref();
        let set = SharedWriterSet::new(dev.clone(), layout(), PAGE_SIZE, IoKind::RandWrite, 1);
        let per_worker = 250usize;
        let locals = run_workers(4, |t| {
            let mut local = set.local();
            for i in 0..per_worker {
                let rec = Record::with_fill((t * 1000 + i) as u64, 8, 0);
                local.push(0, rec.as_record_ref())?;
            }
            Ok(local)
        })
        .unwrap();
        set.merge(locals).unwrap();
        let handle = set.finish_dense().unwrap().remove(0);
        assert_eq!(handle.records(), 4 * per_worker);
        // 1000 records at 4 per page: exactly what one sequential writer
        // would have flushed.
        assert_eq!(handle.pages(), (4 * per_worker).div_ceil(B));
        assert_eq!(dev.stats().rand_writes, handle.pages() as u64);
    }

    #[test]
    fn masked_sets_only_create_requested_writers() {
        let sim = Arc::new(SimDevice::new());
        let set = SharedWriterSet::new_masked(
            sim.clone(),
            layout(),
            128,
            IoKind::RandWrite,
            &[true, false, true],
        );
        assert_eq!(set.len(), 3);
        assert_eq!(sim.live_files(), 2, "no file for the masked-out slot");
        // Two workers, each touching only one of the present partitions;
        // the merge must skip the absent slot and the untouched pages.
        let locals = run_workers(2, |w| {
            let mut local = set.local();
            for k in 0..(w * 6 + 1) as u64 {
                local.push(w * 2, Record::with_fill(k, 8, 0).as_record_ref())?;
            }
            Ok(local)
        })
        .unwrap();
        set.merge(locals).unwrap();
        let handles = set.finish_all().unwrap();
        assert_eq!(handles[0].as_ref().unwrap().records(), 1);
        assert!(handles[1].is_none());
        assert_eq!(handles[2].as_ref().unwrap().records(), 7);
        // 128-byte pages hold 7 records: one page each.
        assert_eq!(sim.stats().rand_writes, 2);
    }

    #[test]
    #[should_panic(expected = "without a writer")]
    fn routing_to_a_masked_out_partition_is_a_logic_error() {
        let set = SharedWriterSet::new_masked(
            SimDevice::new_ref(),
            layout(),
            128,
            IoKind::RandWrite,
            &[true, false],
        );
        let _ = set
            .local()
            .push(1, Record::with_fill(1, 8, 0).as_record_ref());
    }

    #[test]
    fn dense_set_round_trips_records() {
        let dev = SimDevice::new_ref();
        let set = SharedWriterSet::new(dev.clone(), layout(), 128, IoKind::RandWrite, 4);
        let mut local = set.local();
        for k in 0..100u64 {
            let rec = Record::with_fill(k, 8, 0);
            local.push((k % 4) as usize, rec.as_record_ref()).unwrap();
        }
        set.merge([local]).unwrap();
        let handles = set.finish_dense().unwrap();
        let total: usize = handles.iter().map(PartitionHandle::records).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn an_append_error_in_one_worker_leaves_no_live_files() {
        let sim = Arc::new(SimDevice::new());
        // The third full-page append fails, and so does every one after it.
        let faulty = FaultDevice::new_arc(
            sim.clone(),
            vec![FaultSpec::any(FaultKind::PersistentError)
                .appends()
                .after(2)],
        );
        faulty.arm();
        let set = SharedWriterSet::new(faulty, layout(), PAGE_SIZE, IoKind::RandWrite, 3);
        assert_eq!(sim.live_files(), 3);
        let result = run_workers(3, |w| {
            let mut local = set.local();
            for k in 0..200u64 {
                local.push(
                    (k % 3) as usize,
                    Record::with_fill(k + w as u64, 8, 0).as_record_ref(),
                )?;
            }
            Ok(local)
        });
        assert!(result.is_err(), "the injected append error must surface");
        drop(result);
        drop(set);
        assert_eq!(sim.live_files(), 0, "unfinished writers delete their files");
        assert_eq!(sim.resident_pages(), 0);
    }
}
