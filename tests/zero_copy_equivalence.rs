//! Zero-copy pipeline equivalence: the refactored executors must produce
//! the same join output AND the same per-phase modeled I/O as the
//! pre-refactor record pipelines.
//!
//! `legacy_nocap_run` below is a faithful reproduction of the NOCAP
//! executor as it existed before the zero-copy refactor — and, since the
//! executors were folded into one `threads`-parameterised body each, the
//! only straight-line single-threaded NOCAP left in the repository, which
//! makes it the independent check on quota destaging, POB routing and the
//! phase windows of `nocap_par::hybrid_hash_join` under NOCAP's plan: records are
//! materialized through the owned-record iterator path (`Record::read_from`
//! per record — one heap allocation each), the in-memory build side is a
//! `HashMap<u64, Vec<Record>>`, and the residual partitioner stages owned
//! `Vec<Record>`s. Everything that drives the *modeled I/O* — the plan, the
//! quota geometry, the rounded-hash router, the spill-page accounting, the
//! partition-wise probe — is shared, so if the zero-copy path routes even
//! one record differently, a phase trace diverges and this suite fails.
//!
//! `legacy_smj_run` does the same for the external sorter: run generation
//! through owned `Vec<Record>` chunk buffers with a stable sort, heap-based
//! (`BinaryHeap<Reverse<(key, run)>>`) merge passes and a fused merge-join
//! over peekable owned-record merges (`LegacySorter` / `merge_join_legacy`
//! below, moved here unchanged from the retired CPU bench) — pinning the
//! arena sorter + loser-tree rewrite to the exact output and per-phase I/O
//! of the pre-rewrite SMJ.
//!
//! Coverage: skewed (Zipf 1.1), uniform and JCC-H (tuned skew) workloads,
//! each checked against `run` (one worker on the calling thread) and
//! `run_parallel` at 1, 2 and 4 threads; and a Zipf workload whose hottest
//! MCV is an S key R lacks, the one case in which a cached key's S records
//! miss the in-memory table.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::iter::Peekable;

use nocap_suite::joins::{naive_join_count, DhhJoin, SortMergeJoin};
use nocap_suite::model::pairwise::smart_partition_join;
use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{plan_nocap, NocapConfig, NocapJoin, RestGeometry};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BufferPool, IoKind, IoStats, PartitionHandle, PartitionReader, PartitionWriter, Record,
    RecordLayout, Relation, Result,
};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// The pre-refactor NOCAP executor: owned records everywhere, map-of-vecs
/// build side, `Vec<Record>` staging, one `PartitionWriter` per spill
/// partition. Takes the same buffer-pool reservations as
/// `NocapJoin::run_with_plan` and the body it calls, in the same order, so
/// the residual budget and the quota geometry are identical.
fn legacy_nocap_run(
    spec: &JoinSpec,
    config: &NocapConfig,
    r: &Relation,
    s: &Relation,
    mcvs: &[(u64, u64)],
) -> (u64, IoStats, IoStats) {
    let plan = plan_nocap(
        mcvs,
        r.num_records(),
        s.num_records() as u64,
        spec,
        &config.planner,
    );
    let device = r.device().clone();
    let pool = BufferPool::new(spec.buffer_pages);
    let _io_pages = pool.reserve(2).unwrap();
    let _fixed = pool
        .reserve(plan.fixed_memory_pages(spec).min(pool.available()))
        .unwrap();
    let rest_budget = pool.available();
    let base_stats = device.stats();

    // Routing straight from the plan's key lists, not from the route map
    // the executor builds, so this stays an independent check of it.
    let mem_set: HashSet<u64> = plan.mem_keys.iter().copied().collect();
    let disk_map: HashMap<u64, usize> = plan
        .disk_partitions
        .iter()
        .enumerate()
        .flat_map(|(pid, keys)| keys.iter().map(move |&k| (k, pid)))
        .collect();
    let m_disk = plan.num_designated();

    let geometry = RestGeometry::new(
        spec,
        rest_budget,
        plan.estimated_rest_keys,
        config.planner.rh_params,
    );
    let num_rest = geometry.num_partitions();

    // ---- Phase 1: partition R (owned records, map build side) -----------
    let mut ht_mem: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut r_disk_writers: Vec<PartitionWriter> = (0..m_disk)
        .map(|_| {
            PartitionWriter::new(
                device.clone(),
                r.layout(),
                spec.page_size,
                IoKind::RandWrite,
            )
        })
        .collect();
    let mut staged: Vec<Vec<Record>> = vec![Vec::new(); num_rest];
    let mut rest_writers: Vec<Option<PartitionWriter>> = (0..num_rest).map(|_| None).collect();
    let mut pob = vec![false; num_rest];
    for rec in r.scan() {
        let rec = rec.unwrap();
        if mem_set.contains(&rec.key()) {
            ht_mem.entry(rec.key()).or_default().push(rec);
        } else if let Some(&pid) = disk_map.get(&rec.key()) {
            r_disk_writers[pid].push(&rec).unwrap();
        } else {
            let p = geometry.rh.partition_of(rec.key());
            if pob[p] {
                rest_writers[p].as_mut().unwrap().push(&rec).unwrap();
                continue;
            }
            staged[p].push(rec);
            if spec.hash_table_pages(staged[p].len()).max(1) > geometry.caps[p] {
                // Destage: drain the staged records into a fresh writer.
                let mut writer = PartitionWriter::new(
                    device.clone(),
                    r.layout(),
                    spec.page_size,
                    IoKind::RandWrite,
                );
                for staged_rec in staged[p].drain(..) {
                    writer.push(&staged_rec).unwrap();
                }
                rest_writers[p] = Some(writer);
                pob[p] = true;
            }
        }
    }
    for records in staged {
        for rec in records {
            ht_mem.entry(rec.key()).or_default().push(rec);
        }
    }
    let r_disk_handles: Vec<PartitionHandle> = r_disk_writers
        .into_iter()
        .map(|w| w.finish().unwrap())
        .collect();
    let rest_handles: Vec<Option<PartitionHandle>> = rest_writers
        .into_iter()
        .map(|w| w.map(|w| w.finish().unwrap()))
        .collect();

    // ---- Phase 2: partition / probe S ------------------------------------
    let mut output = 0u64;
    let mut s_disk_writers: Vec<PartitionWriter> = (0..m_disk)
        .map(|_| {
            PartitionWriter::new(
                device.clone(),
                s.layout(),
                spec.page_size,
                IoKind::RandWrite,
            )
        })
        .collect();
    let mut s_rest_writers: Vec<Option<PartitionWriter>> = pob
        .iter()
        .map(|&spilled| {
            spilled.then(|| {
                PartitionWriter::new(
                    device.clone(),
                    s.layout(),
                    spec.page_size,
                    IoKind::RandWrite,
                )
            })
        })
        .collect();
    for rec in s.scan() {
        let rec = rec.unwrap();
        if let Some(&pid) = disk_map.get(&rec.key()) {
            s_disk_writers[pid].push(&rec).unwrap();
            continue;
        }
        if let Some(matches) = ht_mem.get(&rec.key()) {
            output += matches.len() as u64;
            continue;
        }
        if mem_set.contains(&rec.key()) {
            // Every R record of a cached key is in the table: a cached key
            // that misses has no partner anywhere.
            continue;
        }
        let part = geometry.rh.partition_of(rec.key());
        if pob[part] {
            s_rest_writers[part].as_mut().unwrap().push(&rec).unwrap();
        }
    }
    let partition_io = device.stats().since(&base_stats);

    // ---- Phase 3: partition-wise joins ------------------------------------
    let probe_base = device.stats();
    let s_disk_handles: Vec<PartitionHandle> = s_disk_writers
        .into_iter()
        .map(|w| w.finish().unwrap())
        .collect();
    for (r_part, s_part) in r_disk_handles.iter().zip(s_disk_handles.iter()) {
        output += smart_partition_join(r_part, s_part, spec, 1).unwrap();
    }
    for (idx, maybe_r) in rest_handles.iter().enumerate() {
        let Some(r_part) = maybe_r else { continue };
        let Some(s_writer) = s_rest_writers[idx].take() else {
            continue;
        };
        let s_part = s_writer.finish().unwrap();
        output += smart_partition_join(r_part, &s_part, spec, 1).unwrap();
        s_part.delete().unwrap();
    }
    let probe_io = device.stats().since(&probe_base);

    for h in r_disk_handles.into_iter().chain(s_disk_handles) {
        h.delete().unwrap();
    }
    for h in rest_handles.into_iter().flatten() {
        h.delete().unwrap();
    }
    (output, partition_io, probe_io)
}

/// The pre-arena external sorter, reproduced faithfully: owned records are
/// materialized per scanned record, chunks are buffered in a `Vec<Record>`
/// and stable-sorted by key, and the multiway merge is a
/// `BinaryHeap<Reverse<(key, run)>>` over peekable owned-record readers.
/// Merged runs are written with the default page size and every merge pass
/// peeks one record off the first non-empty run to recover the layout —
/// exactly the code the repository shipped before the loser-tree rewrite,
/// I/O for I/O.
pub struct LegacySorter {
    device: DeviceRef,
    budget_pages: usize,
}

impl LegacySorter {
    /// Creates a sorter with the pre-arena implementation.
    pub fn new(device: DeviceRef, budget_pages: usize) -> Self {
        assert!(budget_pages >= 3, "external sort needs at least 3 pages");
        LegacySorter {
            device,
            budget_pages,
        }
    }

    /// Sorts `relation` into at most `max_final_runs` runs (run generation
    /// plus heap-based merge passes), legacy path.
    pub fn sort_to_runs(
        &mut self,
        relation: &Relation,
        max_final_runs: usize,
    ) -> Result<Vec<PartitionHandle>> {
        assert!(max_final_runs >= 2, "need at least a two-way final merge");
        let mut runs = self.generate_runs(relation)?;
        while runs.len() > max_final_runs {
            runs = self.merge_pass(runs)?;
        }
        Ok(runs)
    }

    /// Legacy run generation: one owned `Record` allocation per scanned
    /// record, `Vec<Record>` chunk buffer, stable by-key sort, owned pushes.
    pub fn generate_runs(&mut self, relation: &Relation) -> Result<Vec<PartitionHandle>> {
        let per_page = relation.records_per_page();
        let chunk_records = per_page * (self.budget_pages - 1).max(1);
        let mut runs = Vec::new();
        let mut buffer: Vec<Record> = Vec::with_capacity(chunk_records);
        for rec in relation.scan() {
            buffer.push(rec?);
            if buffer.len() == chunk_records {
                runs.push(self.write_run(relation, &mut buffer)?);
            }
        }
        if !buffer.is_empty() {
            runs.push(self.write_run(relation, &mut buffer)?);
        }
        Ok(runs)
    }

    fn write_run(&self, relation: &Relation, buffer: &mut Vec<Record>) -> Result<PartitionHandle> {
        buffer.sort_by_key(Record::key);
        let mut writer = PartitionWriter::new(
            self.device.clone(),
            relation.layout(),
            relation.page_size(),
            IoKind::SeqWrite,
        );
        for rec in buffer.drain(..) {
            writer.push(&rec)?;
        }
        writer.finish()
    }

    fn merge_pass(&mut self, runs: Vec<PartitionHandle>) -> Result<Vec<PartitionHandle>> {
        let fan_in = (self.budget_pages - 1).max(2);
        let mut next_level = Vec::new();
        let mut group = Vec::new();
        let mut layout = None;
        for run in &runs {
            if run.records() > 0 {
                // One-off geometry probe: a random access at the device,
                // mirroring the arena sorter's declaration.
                let first = run
                    .read(IoKind::RandRead)
                    .next()
                    .transpose()?
                    .expect("non-empty run yields a record");
                layout = Some(first.layout());
                break;
            }
        }
        let layout = match layout {
            Some(l) => l,
            None => return Ok(runs),
        };
        let page_size = nocap_suite::storage::DEFAULT_PAGE_SIZE;

        for run in runs {
            group.push(run);
            if group.len() == fan_in {
                next_level.push(self.merge_group(std::mem::take(&mut group), layout, page_size)?);
            }
        }
        if group.len() == 1 {
            next_level.push(group.pop().expect("single leftover run"));
        } else if !group.is_empty() {
            next_level.push(self.merge_group(group, layout, page_size)?);
        }
        Ok(next_level)
    }

    fn merge_group(
        &self,
        runs: Vec<PartitionHandle>,
        layout: RecordLayout,
        page_size: usize,
    ) -> Result<PartitionHandle> {
        let mut writer =
            PartitionWriter::new(self.device.clone(), layout, page_size, IoKind::SeqWrite);
        let mut merger = LegacyMergeIterator::new(&runs)?;
        while let Some(rec) = merger.next().transpose()? {
            writer.push(&rec)?;
        }
        let merged = writer.finish()?;
        for run in runs {
            run.delete()?;
        }
        Ok(merged)
    }
}

/// The pre-loser-tree k-way merge: a binary heap of `(key, run)` pairs over
/// peekable owned-record partition readers, yielding one freshly allocated
/// `Record` per merged record.
pub struct LegacyMergeIterator {
    readers: Vec<Peekable<PartitionReader>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl LegacyMergeIterator {
    /// Builds a merge iterator over `runs` (each must be internally sorted).
    pub fn new(runs: &[PartitionHandle]) -> Result<Self> {
        let mut readers: Vec<_> = runs
            .iter()
            .map(|r| r.read(IoKind::RandRead).peekable())
            .collect();
        let mut heap = BinaryHeap::new();
        for (idx, reader) in readers.iter_mut().enumerate() {
            if let Some(first) = reader.peek() {
                match first {
                    Ok(rec) => heap.push(Reverse((rec.key(), idx))),
                    Err(_) => {
                        // Force the error to surface on first `next()`.
                        heap.push(Reverse((0, idx)));
                    }
                }
            }
        }
        Ok(LegacyMergeIterator { readers, heap })
    }
}

impl Iterator for LegacyMergeIterator {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, idx)) = self.heap.pop()?;
        let rec = match self.readers[idx].next() {
            Some(Ok(rec)) => rec,
            Some(Err(e)) => return Some(Err(e)),
            None => return self.next(),
        };
        if let Some(peeked) = self.readers[idx].peek() {
            match peeked {
                Ok(next_rec) => self.heap.push(Reverse((next_rec.key(), idx))),
                Err(_) => self.heap.push(Reverse((0, idx))),
            }
        }
        Some(Ok(rec))
    }
}

/// The pre-refactor fused merge-join loop: owned records off two
/// [`LegacyMergeIterator`]s, with the matching S group buffered in a
/// `Vec<Record>`. Returns the join output count.
pub fn merge_join_legacy(r_runs: &[PartitionHandle], s_runs: &[PartitionHandle]) -> Result<u64> {
    let mut r_merge = LegacyMergeIterator::new(r_runs)?.peekable();
    let mut s_merge = LegacyMergeIterator::new(s_runs)?.peekable();
    let mut output = 0u64;
    let mut s_group: Vec<Record> = Vec::new();
    let mut s_group_key: Option<u64> = None;
    'outer: loop {
        let r_rec = match r_merge.next() {
            Some(rec) => rec?,
            None => break 'outer,
        };
        let key = r_rec.key();
        if s_group_key != Some(key) {
            s_group.clear();
            loop {
                match s_merge.peek() {
                    Some(Ok(s_rec)) if s_rec.key() < key => {
                        s_merge.next();
                    }
                    Some(Err(_)) => {
                        s_merge.next().transpose()?;
                    }
                    _ => break,
                }
            }
            loop {
                match s_merge.peek() {
                    Some(Ok(s_rec)) if s_rec.key() == key => {
                        s_group.push(s_merge.next().expect("peeked")?);
                    }
                    Some(Err(_)) => {
                        s_merge.next().transpose()?;
                    }
                    _ => break,
                }
            }
            s_group_key = Some(key);
        }
        output += s_group.len() as u64;
    }
    Ok(output)
}

/// The pre-rewrite SMJ executor: owned-record run generation (stable
/// `Vec<Record>` chunk sorts), heap-based merge passes, and the fused
/// merge-join over peekable owned-record merge iterators. Mirrors the old
/// `SortMergeJoin::run` line for line — including the `.max(4)` budget
/// fallback and the size-proportional fan-in split — so output and
/// per-phase I/O pin the arena sorter + loser-tree rewrite exactly.
fn legacy_smj_run(spec: &JoinSpec, r: &Relation, s: &Relation) -> (u64, IoStats, IoStats) {
    let device = r.device().clone();
    let base = device.stats();

    let budget = spec.buffer_pages.max(4);
    let fan_in = (budget - 1).max(4);
    let total_pages = (r.num_pages() + s.num_pages()).max(1);
    let r_share = ((fan_in * r.num_pages()) / total_pages).clamp(2, fan_in - 2);
    let s_share = (fan_in - r_share).max(2);

    let mut r_sorter = LegacySorter::new(device.clone(), budget);
    let r_runs = r_sorter.sort_to_runs(r, r_share).unwrap();
    let mut s_sorter = LegacySorter::new(device.clone(), budget);
    let s_runs = s_sorter.sort_to_runs(s, s_share).unwrap();
    let partition_io = device.stats().since(&base);

    let probe_base = device.stats();
    let output = merge_join_legacy(&r_runs, &s_runs).unwrap();
    let probe_io = device.stats().since(&probe_base);

    for run in r_runs.into_iter().chain(s_runs) {
        run.delete().unwrap();
    }
    (output, partition_io, probe_io)
}

enum Workload {
    Synthetic(Correlation),
    Jcch(JcchSkew),
}

/// Generates the workload fresh on its own device (same seed → identical
/// relations).
fn generate(workload: &Workload, record_bytes: usize) -> GeneratedWorkload {
    let device = nocap_suite::storage::SimDevice::new_ref();
    let wl = match workload {
        Workload::Synthetic(correlation) => {
            let config = SyntheticConfig {
                n_r: 5_000,
                n_s: 40_000,
                record_bytes,
                correlation: *correlation,
                mcv_count: 250,
                seed: 0xEC0,
            };
            synthetic::generate(device.clone(), &config).expect("synthetic workload")
        }
        Workload::Jcch(skew) => {
            let config = JcchConfig {
                n_orders: 5_000,
                n_lineitems: 40_000,
                skew: *skew,
                record_bytes,
                mcv_count: 250,
                seed: 0x1CC4,
            };
            jcch::generate(device.clone(), &config).expect("jcch workload")
        }
    };
    device.reset_stats();
    wl
}

#[test]
fn zero_copy_executors_match_the_legacy_pipeline_exactly() {
    let record_bytes = 128;
    let workloads = [
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ];
    for (name, workload) in &workloads {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(record_bytes, budget);
            let config = NocapConfig::default();
            let join = NocapJoin::new(spec, config);

            // The pre-refactor reference.
            let wl = generate(workload, record_bytes);
            let (legacy_out, legacy_part, legacy_probe) =
                legacy_nocap_run(&spec, &config, &wl.r, &wl.s, &wl.mcvs);
            assert_eq!(
                legacy_out,
                wl.expected_join_output(),
                "{name}/B={budget}: legacy reference must be correct"
            );

            // Sequential zero-copy executor.
            let wl = generate(workload, record_bytes);
            let seq = join.run(&wl.r, &wl.s, &wl.mcvs).expect("run");
            assert_eq!(
                seq.output_records, legacy_out,
                "{name}/B={budget}: output diverged from the legacy pipeline"
            );
            assert_eq!(
                seq.partition_io, legacy_part,
                "{name}/B={budget}: partition-phase I/O diverged"
            );
            assert_eq!(
                seq.probe_io, legacy_probe,
                "{name}/B={budget}: probe-phase I/O diverged"
            );

            // Parallel zero-copy executor at 1, 2 and 4 workers.
            for threads in [1usize, 2, 4] {
                let wl = generate(workload, record_bytes);
                let par = join
                    .run_parallel(&wl.r, &wl.s, &wl.mcvs, threads)
                    .expect("run_parallel");
                assert_eq!(
                    par.output_records, legacy_out,
                    "{name}/B={budget}/n={threads}: output diverged"
                );
                assert_eq!(
                    par.partition_io, legacy_part,
                    "{name}/B={budget}/n={threads}: partition-phase I/O diverged"
                );
                assert_eq!(
                    par.probe_io, legacy_probe,
                    "{name}/B={budget}/n={threads}: probe-phase I/O diverged"
                );
            }
        }
    }
}

#[test]
fn arena_sorter_matches_the_legacy_sorter_pipeline_exactly() {
    let record_bytes = 128;
    let workloads = [
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ];
    for (name, workload) in &workloads {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(record_bytes, budget);
            let smj = SortMergeJoin::new(spec);

            // The pre-rewrite reference: owned-record sorter + heap merge.
            let wl = generate(workload, record_bytes);
            let (legacy_out, legacy_part, legacy_probe) = legacy_smj_run(&spec, &wl.r, &wl.s);
            assert_eq!(
                legacy_out,
                wl.expected_join_output(),
                "{name}/B={budget}: legacy SMJ reference must be correct"
            );

            // Sequential arena sorter + loser-tree merge.
            let wl = generate(workload, record_bytes);
            let seq = smj.run(&wl.r, &wl.s).expect("run");
            assert_eq!(
                seq.output_records, legacy_out,
                "{name}/B={budget}: SMJ output diverged from the legacy sorter"
            );
            assert_eq!(
                seq.partition_io, legacy_part,
                "{name}/B={budget}: sort-phase I/O diverged from the legacy sorter"
            );
            assert_eq!(
                seq.probe_io, legacy_probe,
                "{name}/B={budget}: fused-merge I/O diverged from the legacy sorter"
            );

            // Parallel run generation at 1, 2 and 4 workers.
            for threads in [1usize, 2, 4] {
                let wl = generate(workload, record_bytes);
                let par = smj
                    .run_parallel(&wl.r, &wl.s, threads)
                    .expect("run_parallel");
                assert_eq!(
                    par.output_records, legacy_out,
                    "{name}/B={budget}/n={threads}: SMJ output diverged"
                );
                assert_eq!(
                    par.partition_io, legacy_part,
                    "{name}/B={budget}/n={threads}: sort-phase I/O diverged"
                );
                assert_eq!(
                    par.probe_io, legacy_probe,
                    "{name}/B={budget}/n={threads}: fused-merge I/O diverged"
                );
            }
        }
    }
}

/// A key S holds and R does not. [`with_ghost_key`] heads the MCV list
/// with it.
const GHOST_KEY: u64 = u64::MAX - 7;

/// The Zipf workload with [`GHOST_KEY`] spliced into S as every 17th
/// record and put at the head of the MCV list: the hottest key the
/// statistics report has no R record, so a planner that caches it sends S
/// records to the in-memory table that can only miss.
fn with_ghost_key() -> GeneratedWorkload {
    let wl = generate(&Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }), 128);
    let payload = wl.s.layout().payload_bytes();
    let mut records = Vec::new();
    for (i, rec) in wl.s.scan().enumerate() {
        if i % 16 == 0 {
            records.push(Record::with_fill(GHOST_KEY, payload, 3));
        }
        records.push(rec.expect("scan S"));
    }
    let ghosts = (records.len() - wl.s.num_records()) as u64;
    let device = wl.s.device().clone();
    let s = Relation::bulk_load(device.clone(), wl.s.layout(), wl.s.page_size(), records)
        .expect("S with the ghost key");
    let mcvs = std::iter::once((GHOST_KEY, ghosts))
        .chain(wl.mcvs.iter().copied())
        .collect();
    device.reset_stats();
    GeneratedWorkload { s, mcvs, ..wl }
}

#[test]
fn a_cached_s_key_that_r_lacks_is_dropped_by_every_hybrid_join() {
    // Synthetic MCVs always exist in R, so this is the one workload where a
    // cached key's S records miss the table. NOCAP, DHH and Histojoin must
    // drop them — not spill them to a destaged residual partition — so the
    // output is the oracle's, NOCAP's per-phase I/O is the reference's, and
    // every join reports the same at every thread count.
    let wl = with_ghost_key();
    assert!(wl
        .r
        .scan()
        .all(|rec| rec.expect("scan R").key() != GHOST_KEY));
    let expected = naive_join_count(&wl.r, &wl.s).expect("oracle");
    for budget in [32usize, 96] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        let config = NocapConfig::default();
        let n_s = wl.s.num_records() as u64;
        let plan = plan_nocap(&wl.mcvs, wl.r.num_records(), n_s, &spec, &config.planner);
        assert!(
            plan.mem_keys.contains(&GHOST_KEY),
            "B={budget}: NOCAP must cache the ghost key for this test to bite"
        );
        let (ref_out, ref_part, ref_probe) =
            legacy_nocap_run(&spec, &config, &wl.r, &wl.s, &wl.mcvs);
        assert_eq!(ref_out, expected, "B={budget}: the reference is correct");

        let nocap = NocapJoin::new(spec, config);
        let dhh = DhhJoin::with_defaults(spec);
        let histojoin = DhhJoin::histojoin(spec);
        type Run<'a> = &'a dyn Fn(Option<usize>) -> Result<JoinRunReport>;
        let runs: [(&str, Run); 3] = [
            ("nocap", &|t| match t {
                None => nocap.run(&wl.r, &wl.s, &wl.mcvs),
                Some(n) => nocap.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
            }),
            ("dhh", &|t| match t {
                None => dhh.run(&wl.r, &wl.s, &wl.mcvs),
                Some(n) => dhh.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
            }),
            ("histojoin", &|t| match t {
                None => histojoin.run(&wl.r, &wl.s, &wl.mcvs),
                Some(n) => histojoin.run_parallel(&wl.r, &wl.s, &wl.mcvs, n),
            }),
        ];
        for (algo, run) in runs {
            let sequential = run(None).expect(algo);
            assert_eq!(
                sequential.output_records, expected,
                "{algo}/B={budget}: join output"
            );
            if algo == "nocap" {
                assert_eq!(
                    (sequential.partition_io, sequential.probe_io),
                    (ref_part, ref_probe),
                    "B={budget}: NOCAP's per-phase I/O diverged from the reference"
                );
            }
            for threads in [1usize, 2, 3, 8] {
                let parallel = run(Some(threads)).expect(algo);
                assert_eq!(
                    parallel, sequential,
                    "{algo}/B={budget}/T={threads}: whole report"
                );
            }
        }
    }
}
