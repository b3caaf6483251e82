//! Spill partitions: the one write path of every hash join.
//!
//! Every partitioning join (GHJ, DHH, Histojoin, NOCAP) writes records that
//! cannot stay in memory into per-partition spill files. A spill partition
//! is a [`Relation`] like the join inputs, written by the one
//! [`RelationWriter`] with [`IoKind::RandWrite`]: each partition owns
//! exactly one output-buffer page (that is why a join with `m` disk
//! partitions needs `m` pages of its budget), and the buffer is flushed to
//! the device as a **random write** whenever it fills — this is the `μ`-
//! weighted cost in the paper's model. Reading a partition back during the
//! probe phase is a sequential scan of its pages.
//!
//! **The spill write path.** A [`SpillSet`] is the one way a hash join
//! writes a set of partitions — R's and S's in the partition passes, and
//! the sub-partitions of a re-partitioned pair. It holds one spill file per
//! partition, created with its writer on the partition's first page.
//! Workers never push records into the writers. Each worker holds its own
//! [`LocalPages`] — one lazily allocated page per partition — fills them
//! without any synchronisation through [`SpillSet::push`], and takes a
//! partition's lock only to append a page that is already full
//! ([`RelationWriter::append_full_page`]): once per `b` records instead of
//! once per record, and never to copy into a page another core is also
//! writing. When the scan ends the coordinator
//! [`merge`](SpillSet::merge)s the workers' partial pages, in worker
//! order, through each partition's buffered writer.
//!
//! **Why the page count is one writer's.** Local pages follow the
//! writer's lazy rule — a page is flushed only when a record arrives and
//! finds it full — so a worker that routed `n_w ≥ 1` records to a partition
//! has appended `⌈n_w / b⌉ − 1` pages and still holds `1..=b` records.
//! Pouring the `P = Σ pending` records through the shared writer flushes
//! `⌈P / b⌉ − 1` more and leaves `1..=b` buffered. Since
//! `n = b · Σ(⌈n_w / b⌉ − 1) + P`, the partition has exactly `⌈n / b⌉ − 1`
//! pages on the device after the merge and [`SpillSet::finish`] writes
//! exactly one more: the state one [`RelationWriter`] pushed all `n`
//! records would be in, for any worker count and any split of the records
//! among workers. The joins take their partition-phase I/O snapshot after
//! the merge and finish S's set in the probe window, so the split of an S
//! partition's writes between the two windows is `⌈n / b⌉ − 1` / `1` at
//! every worker count. A partition that receives no record costs nothing:
//! no file, no page, and `finish` reports it as `None`.
//!
//! **What it costs.** Up to `workers × partitions touched` local pages of
//! physical memory, which nothing counts at run time. A [`RelationWriter`]
//! allocates its output-buffer page on the first record *buffered* in it,
//! and during the scan the set's writers only ever see whole pages, so at
//! one worker — how the joins' sequential `run` executes — the scan holds
//! `m` physical output pages for `m` spill partitions, the `m` the model
//! charges (§4.1). The merge then moves each partition's tail from the
//! local page into the writer's, one partition at a time: `m` pages plus
//! the one being poured. At `T` workers it is up to `T × m`. Local pages
//! own no file, and every writer and finished partition owns its own, so
//! a failed or cancelled run leaks nothing: whatever it drops deletes its
//! file.

use std::sync::Mutex;

use crate::device::DeviceRef;
use crate::iostats::IoKind;
use crate::page::Page;
use crate::record::{RecordLayout, RecordRef};
use crate::relation::{Relation, RelationWriter};
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned};
use crate::Result;

/// One worker's private output pages of a [`SpillSet`], one per partition,
/// allocated on the partition's first record. They own no file: hand them
/// back to [`SpillSet::merge`] when the worker is done — records still in
/// them are not in any file until then.
pub struct LocalPages {
    pages: Vec<Option<Page>>,
}

/// One spill writer per partition, fed by worker-private pages (see the
/// module docs). A partition's writer and file are created on its first
/// page.
pub struct SpillSet {
    device: DeviceRef,
    layout: RecordLayout,
    page_size: usize,
    writers: Vec<Mutex<Option<RelationWriter>>>,
}

impl SpillSet {
    /// Creates an empty set of `partitions` partitions of `layout` records.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        partitions: usize,
    ) -> Self {
        SpillSet {
            device,
            layout,
            page_size,
            writers: (0..partitions).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Fresh private pages for one worker.
    pub fn local(&self) -> LocalPages {
        LocalPages {
            pages: (0..self.writers.len()).map(|_| None).collect(),
        }
    }

    /// Appends `record` to partition `p` through the worker's `local`
    /// page. A page that is already full first goes to the partition's
    /// file under its lock (the writer's lazy rule: a full page
    /// waits for the record that does not fit).
    pub fn push(&self, local: &mut LocalPages, p: usize, record: RecordRef<'_>) -> Result<()> {
        let page = local.pages[p].get_or_insert_with(|| Page::empty(self.page_size, self.layout));
        if !page.push_ref(record)? {
            self.writer(p, |writer| writer.append_full_page(page))?;
            page.clear();
            let pushed = page.push_ref(record)?;
            debug_assert!(pushed, "freshly cleared page must accept a record");
        }
        Ok(())
    }

    /// Pours the partial pages the workers hand back, in the order given
    /// (worker order), through each partition's buffered writer, releasing
    /// each page as it goes. Afterwards every partition is in exactly the
    /// state one [`RelationWriter`] fed the same records would be in:
    /// `⌈n / b⌉ − 1` pages on the device, the last `1..=b` records buffered
    /// for [`finish`](Self::finish). Call it before the phase's I/O
    /// snapshot.
    pub fn merge(&self, locals: impl IntoIterator<Item = LocalPages>) -> Result<()> {
        for local in locals {
            for (p, page) in local.pages.into_iter().enumerate() {
                if let Some(page) = page {
                    self.writer(p, |writer| {
                        page.record_refs()
                            .try_for_each(|record| writer.push_ref(record))
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Runs `f` on partition `p`'s writer under its lock, creating the
    /// writer — and its file — first if this is the partition's first page.
    fn writer<T>(&self, p: usize, f: impl FnOnce(&mut RelationWriter) -> T) -> T {
        let mut slot = lock_unpoisoned(&self.writers[p]);
        f(slot.get_or_insert_with(|| {
            RelationWriter::new(
                self.device.clone(),
                self.layout,
                self.page_size,
                IoKind::RandWrite,
            )
        }))
    }

    /// Finishes every partition, yielding its relation, or `None` for a
    /// partition that received no record.
    ///
    /// Fail-clean: if any writer fails to finish, the relations produced so
    /// far and the writers not yet finished drop, and with them their files.
    pub fn finish(self) -> Result<Vec<Option<Relation>>> {
        // A loop, not an in-place `collect`: reusing the writers' larger
        // allocation for the result moved SMJ's peak RSS at two workers on
        // the benchmark's `zipf_par2` from ≈ 550 to ≈ 600 MB (glibc).
        let mut out = Vec::with_capacity(self.writers.len());
        for slot in self.writers {
            out.push(
                into_inner_unpoisoned(slot)
                    .map(RelationWriter::finish)
                    .transpose()?,
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::device::{BlockDevice, SimDevice};
    use crate::record::RecordRef;
    use crate::relation::tests::keys;
    use crate::traced::{FaultKind, FaultSpec, TracedDevice};

    fn layout() -> RecordLayout {
        RecordLayout::new(8)
    }

    #[test]
    fn full_page_appends_bypass_the_buffer_and_keep_the_counts() {
        let dev = SimDevice::new_ref();
        let page_size = 4 + 4 * 16; // 4 records per page
        let mut w = RelationWriter::new(dev.clone(), layout(), page_size, IoKind::RandWrite);
        let mut full = Page::empty(page_size, layout());
        for k in 100..104u64 {
            assert!(full.push_ref(RecordRef::new(k, &[0; 8])).unwrap());
        }
        w.push_ref(RecordRef::new(1, &[0; 8])).unwrap();
        w.append_full_page(&full).unwrap();
        w.push_ref(RecordRef::new(2, &[0; 8])).unwrap();
        assert_eq!(
            dev.stats().rand_writes,
            1,
            "only the whole page is on the device"
        );
        let rel = w.finish().unwrap();
        assert_eq!((rel.num_records(), rel.num_pages()), (6, 2));
        assert_eq!(dev.stats().rand_writes, 2);
        assert_eq!(keys(rel.scan()), vec![100, 101, 102, 103, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "full page")]
    fn appending_a_partial_page_is_a_logic_error() {
        let dev = SimDevice::new_ref();
        let mut w = RelationWriter::new(dev, layout(), 128, IoKind::RandWrite);
        let mut partial = Page::empty(128, layout());
        partial.push_ref(RecordRef::new(1, &[0; 8])).unwrap();
        let _ = w.append_full_page(&partial);
    }

    #[test]
    fn dropping_an_unfinished_writer_deletes_its_file() {
        let sim = Arc::new(SimDevice::new());
        let dev: DeviceRef = sim.clone();
        {
            let mut w = RelationWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
            for k in 0..64u64 {
                w.push_ref(RecordRef::new(k, &[0; 8])).unwrap();
            }
            assert_eq!(sim.live_files(), 1);
        }
        assert_eq!(sim.live_files(), 0, "unfinished writer must clean up");
        assert_eq!(sim.resident_pages(), 0);
        // A finished writer hands ownership to the relation instead.
        let mut w = RelationWriter::new(dev, layout(), 128, IoKind::RandWrite);
        w.push_ref(RecordRef::new(1, &[0; 8])).unwrap();
        let rel = w.finish().unwrap();
        assert_eq!(sim.live_files(), 1);
        rel.delete().unwrap();
        assert_eq!(sim.live_files(), 0);
    }

    /// Records per page of the spill-set test pages below.
    const B: usize = 4;
    const PAGE_SIZE: usize = 4 + B * 16;

    fn spill_set(device: DeviceRef, partitions: usize) -> SpillSet {
        SpillSet::new(device, layout(), PAGE_SIZE, partitions)
    }

    fn sorted_keys(partition: &Relation) -> Vec<u64> {
        let mut keys = keys(partition.scan());
        keys.sort_unstable();
        keys
    }

    /// Feeds partition 0 of a one-partition set `split[w]` records from
    /// worker `w`'s local pages and checks every count against one
    /// sequential writer fed the same `n = Σ split` records.
    fn assert_page_arithmetic(split: &[usize]) {
        let n: usize = split.iter().sum();
        let key = |w: usize, i: usize| (w * 1_000_000 + i) as u64;

        let sequential = {
            let dev = SimDevice::new_ref();
            let mut writer =
                RelationWriter::new(dev.clone(), layout(), PAGE_SIZE, IoKind::RandWrite);
            for (w, &count) in split.iter().enumerate() {
                for i in 0..count {
                    writer.push_ref(RecordRef::new(key(w, i), &[0; 8])).unwrap();
                }
            }
            let before_finish = dev.stats().rand_writes;
            let partition = writer.finish().unwrap();
            (before_finish, dev.stats().rand_writes, partition)
        };

        let dev = SimDevice::new_ref();
        let set = spill_set(dev.clone(), 1);
        let locals: Vec<LocalPages> = split
            .iter()
            .enumerate()
            .map(|(w, &count)| {
                let mut local = set.local();
                for i in 0..count {
                    let rec = RecordRef::new(key(w, i), &[0; 8]);
                    set.push(&mut local, 0, rec).unwrap();
                }
                local
            })
            .collect();
        set.merge(locals).unwrap();
        let before_finish = dev.stats().rand_writes;
        let partition = set.finish().unwrap().remove(0);

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
        match partition {
            None => assert_eq!(n, 0, "only an empty partition has no relation"),
            Some(partition) => {
                let expected = &sequential.2;
                assert_eq!(partition.num_records(), expected.num_records(), "{split:?}");
                assert_eq!(partition.num_pages(), expected.num_pages(), "{split:?}");
                assert_eq!(
                    sorted_keys(&partition),
                    sorted_keys(&sequential.2),
                    "multiset, {split:?}"
                );
            }
        }
    }

    #[test]
    fn tail_merge_writes_the_sequential_page_count_for_every_split() {
        let (k, r) = (5usize, 3usize);
        for n in [0, 1, B - 1, B, B + 1, k * B, k * B + r] {
            for workers in [1usize, 2, 3, 8] {
                // Even, front-loaded (later workers route nothing) and
                // back-loaded one-record-each splits of the same n.
                let even: Vec<usize> = (0..workers)
                    .map(|w| n / workers + usize::from(w < n % workers))
                    .collect();
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
        let set = spill_set(dev.clone(), 1);
        let per_worker = 250usize;
        let locals: Vec<LocalPages> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut local = set.local();
                        for i in 0..per_worker {
                            let rec = RecordRef::new((t * 1000 + i) as u64, &[0; 8]);
                            set.push(&mut local, 0, rec).unwrap();
                        }
                        local
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        set.merge(locals).unwrap();
        let partition = set.finish().unwrap().remove(0).unwrap();
        assert_eq!(partition.num_records(), 4 * per_worker);
        // 1000 records at 4 per page: exactly what one sequential writer
        // would have flushed.
        assert_eq!(partition.num_pages(), (4 * per_worker).div_ceil(B));
        assert_eq!(dev.stats().rand_writes, partition.num_pages() as u64);
    }

    #[test]
    fn spill_set_round_trips_records() {
        let dev = SimDevice::new_ref();
        let set = spill_set(dev.clone(), 4);
        let mut local = set.local();
        for k in 0..100u64 {
            let rec = RecordRef::new(k, &[0; 8]);
            set.push(&mut local, (k % 4) as usize, rec).unwrap();
        }
        set.merge([local]).unwrap();
        let partitions = set.finish().unwrap();
        for (p, partition) in partitions.iter().enumerate() {
            let expected: Vec<u64> = (0..100).filter(|k| k % 4 == p as u64).collect();
            assert_eq!(sorted_keys(partition.as_ref().unwrap()), expected);
        }
        assert_eq!(dev.stats().rand_writes, 4 * 25usize.div_ceil(B) as u64);
    }

    #[test]
    fn a_partition_that_receives_no_record_creates_no_file() {
        let sim = Arc::new(SimDevice::new());
        let set = spill_set(sim.clone(), 3);
        assert_eq!(sim.live_files(), 0, "files come with the first page");
        // Two workers, each touching only one of partitions 0 and 2; the
        // merge skips partition 1 and every untouched page.
        let locals: Vec<LocalPages> = (0..2)
            .map(|w| {
                let mut local = set.local();
                for k in 0..(w * 6 + 1) as u64 {
                    let rec = RecordRef::new(k, &[0; 8]);
                    set.push(&mut local, w * 2, rec).unwrap();
                }
                local
            })
            .collect();
        set.merge(locals).unwrap();
        assert_eq!(sim.live_files(), 2, "no file for the empty partition");
        let partitions = set.finish().unwrap();
        assert_eq!(partitions[0].as_ref().unwrap().num_records(), 1);
        assert!(partitions[1].is_none());
        assert_eq!(partitions[2].as_ref().unwrap().num_records(), 7);
        // ⌈1 / 4⌉ + ⌈7 / 4⌉ pages.
        assert_eq!(sim.stats().rand_writes, 3);
    }

    #[test]
    fn an_append_error_in_one_worker_leaves_no_live_files() {
        let sim = Arc::new(SimDevice::new());
        // The third full-page append fails, and so does every one after it.
        let faulty = Arc::new(TracedDevice::new(sim.clone()).with_faults(vec![
            FaultSpec::any(FaultKind::PersistentError)
                .appends()
                .after(2),
        ]));
        faulty.arm();
        let set = spill_set(faulty, 3);
        let results: Vec<Result<LocalPages>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3u64)
                .map(|w| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut local = set.local();
                        for k in 0..200u64 {
                            let rec = RecordRef::new(k + w, &[0; 8]);
                            set.push(&mut local, (k % 3) as usize, rec)?;
                        }
                        Ok(local)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            results.iter().any(Result::is_err),
            "the injected append error must surface"
        );
        assert!(sim.live_files() > 0, "pages had been appended");
        drop(results);
        drop(set);
        assert_eq!(sim.live_files(), 0, "unfinished writers delete their files");
        assert_eq!(sim.resident_pages(), 0);
    }
}
