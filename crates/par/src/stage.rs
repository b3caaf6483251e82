//! The stager: per-worker staging buffers with deterministic,
//! quota-triggered destaging.
//!
//! This is the DHH-style partitioner every hash join routes its build side
//! into, at every worker count — one worker included. Each worker stages
//! the records it routes in private, lock-free buffers (one per partition).
//! The *accounting* is shared: a per-partition atomic record count, charged
//! with the model's `hash_table_pages` formula. The moment a partition's
//! global staged footprint exceeds its quota, the worker that crossed the
//! threshold flips the partition's page-out bit. The quotas are the
//! caller's — the executors take them from [`nocap_model::staging_quotas`],
//! which sizes the leading partitions' quotas to keep them resident
//! (expected table plus a slack) and splits what is left evenly over the
//! others; the stager treats every quota alike, so a resident-designated
//! partition that outgrows its quota is destaged exactly like one that was
//! never meant to stay. A partition of quota 0 — each of GHJ's partitions
//! and NOCAP's `K_disk` groups — is destaged by its first record; its
//! output page is one of the plan's fixed pages, not part of a quota.
//! From then on every worker routes the partition's records — first its own
//! staged ones, on its next touch of the partition — through its private
//! pages of the stager's [`SpillSet`], which appends a page to the
//! partition's one spill file only when it is full. [`ParallelStager::finish`]
//! drains what the workers still stage of destaged partitions into their
//! private pages, merges those in worker order and finishes the set.
//!
//! **The closed form.** The staged count of a partition only grows until
//! the partition is destaged, so for a partition that receives `n_p`
//! records in total under quota `cap_p`:
//!
//! * `pob[p] ⇔ hash_table_pages(n_p).max(1) > cap_p` — a function of the
//!   partition's total record count, independent of both the scan order and
//!   the thread interleaving;
//! * a destaged partition writes exactly `⌈n_p / b⌉` pages — the page
//!   identity of [`SpillSet`];
//! * every record of a partition that is not destaged is handed back
//!   staged.
//!
//! The unit tests check the stager against exactly this form at 1, 2 and 4
//! workers; nothing else defines what a run's destaged set and spill page
//! counts must be.
//!
//! **Why the memory model stays honest.** The staged charge is computed
//! from the global count, partitions stay within their quotas, and the
//! quotas sum to the staging budget — so the total staged footprint plus
//! one output-buffer page per destaged partition of non-zero quota never
//! exceeds the budget, the §4.1 invariant ([`ParallelStager::pages_in_use`]
//! `≤ budget` after every insert, exactly, at one worker, when no quota is
//! 0). Two physical slacks sit outside the model: records a worker staged
//! in the instant before it observed a concurrent destage (bounded by one
//! insert per *other* worker, drained on first touch — none at one worker),
//! and the private output pages — one per worker per destaged partition,
//! next to the one page of the partition's buffered writer that the model
//! charges.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nocap_model::JoinSpec;
use nocap_storage::device::DeviceRef;
use nocap_storage::{LocalPages, RecordBatch, RecordLayout, RecordRef, Relation, Result, SpillSet};

struct PartShared {
    /// Records staged globally (stops growing once the partition destages).
    staged_count: AtomicU64,
    /// Page-out bit: set exactly once, by the worker that crossed the quota.
    spilled: AtomicBool,
}

/// Per-worker staging state. Create one per worker with
/// [`ParallelStager::worker_stage`]; it holds the worker's private staged
/// records in columnar [`RecordBatch`] arenas and, for destaged partitions,
/// its private output pages — so neither staging nor spilling a record
/// touches a lock or allocates.
pub struct WorkerStage {
    staged: Vec<RecordBatch>,
    out: LocalPages,
}

/// What the stager hands back after all workers finished their scans.
pub struct StagerBuild {
    /// Records of partitions that stayed in memory, merged across workers
    /// (destined for the executor's in-memory hash table).
    pub staged_records: RecordBatch,
    /// Spilled partitions by partition id (`None` if the partition stayed
    /// in memory or received no record).
    pub spilled: Vec<Option<Relation>>,
    /// Page-out bits, by partition id.
    pub pob: Vec<bool>,
}

/// Deterministic quota-destaging stager (see the module docs).
pub struct ParallelStager {
    layout: RecordLayout,
    spec: JoinSpec,
    caps: Vec<usize>,
    parts: Vec<PartShared>,
    set: SpillSet,
}

impl ParallelStager {
    /// Creates a stager for `caps.len()` partitions; `caps[p]` is partition
    /// `p`'s staging quota in pages ([`nocap_model::staging_quotas`]).
    pub fn new(device: DeviceRef, layout: RecordLayout, spec: JoinSpec, caps: Vec<usize>) -> Self {
        let parts = caps
            .iter()
            .map(|_| PartShared {
                staged_count: AtomicU64::new(0),
                spilled: AtomicBool::new(false),
            })
            .collect();
        ParallelStager {
            layout,
            spec,
            set: SpillSet::new(device, layout, spec.page_size, caps.len()),
            caps,
            parts,
        }
    }

    /// Creates the private staging state for one worker.
    pub fn worker_stage(&self) -> WorkerStage {
        WorkerStage {
            staged: vec![RecordBatch::new(self.layout); self.parts.len()],
            out: self.set.local(),
        }
    }

    /// Pages currently charged against the staging budget: staged records
    /// (by the model's `hash_table_pages` formula over the global counts)
    /// plus one output-buffer page per destaged partition. A quota-0
    /// partition's page is one of the plan's fixed pages, so the total
    /// exceeds the quotas' sum by the destaged quota-0 partitions.
    pub fn pages_in_use(&self) -> usize {
        self.parts
            .iter()
            .map(|part| {
                if part.spilled.load(Ordering::Acquire) {
                    1
                } else {
                    let n = part.staged_count.load(Ordering::Acquire) as usize;
                    if n == 0 {
                        0
                    } else {
                        self.spec.hash_table_pages(n).max(1)
                    }
                }
            })
            .sum()
    }

    /// Routes one borrowed record of partition `p` through worker state
    /// `stage` — a key push plus payload `memcpy`, into the staging arena
    /// or (once the partition is destaged) the worker's private output page.
    pub fn insert(&self, stage: &mut WorkerStage, p: usize, rec: RecordRef<'_>) -> Result<()> {
        let part = &self.parts[p];
        if part.spilled.load(Ordering::Acquire) {
            // Already destaged: drain any of our leftovers, then append.
            self.spill_staged(stage, p)?;
            return self.set.push(&mut stage.out, p, rec);
        }
        stage.staged[p].push(rec);
        let n = part.staged_count.fetch_add(1, Ordering::AcqRel) + 1;
        if self.spec.hash_table_pages(n as usize).max(1) > self.caps[p] {
            part.spilled.store(true, Ordering::Release);
            return self.spill_staged(stage, p);
        }
        Ok(())
    }

    /// Moves the worker's staged records for `p` into its private output
    /// page.
    fn spill_staged(&self, stage: &mut WorkerStage, p: usize) -> Result<()> {
        for rec in stage.staged[p].iter() {
            self.set.push(&mut stage.out, p, rec)?;
        }
        stage.staged[p].clear();
        Ok(())
    }

    /// Merges the per-worker runs: staged records of in-memory partitions
    /// are concatenated for the caller's hash table; what the workers still
    /// stage of destaged partitions is drained into their private pages,
    /// the private pages are merged in worker order, and the spill set is
    /// finished into one relation per destaged partition.
    pub fn finish(self, mut stages: Vec<WorkerStage>) -> Result<StagerBuild> {
        let mut staged_records = RecordBatch::new(self.layout);
        let pob: Vec<bool> = self
            .parts
            .iter()
            .map(|part| part.spilled.load(Ordering::Acquire))
            .collect();
        for (p, &spilled) in pob.iter().enumerate() {
            for stage in &mut stages {
                if spilled {
                    self.spill_staged(stage, p)?;
                } else {
                    staged_records.append(&mut stage.staged[p]);
                }
            }
        }
        self.set.merge(stages.into_iter().map(|stage| stage.out))?;
        Ok(StagerBuild {
            staged_records,
            spilled: self.set.finish()?,
            pob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ordered_tasks;
    use nocap_model::{staging_quotas, StagingRouter};
    use nocap_obs::{Obs, Phase};
    use nocap_storage::{FaultDevice, FaultKind, FaultSpec, Record, SimDevice};

    fn spec() -> JoinSpec {
        JoinSpec::paper_synthetic(128, 16)
    }

    /// Runs `records` keys through the stager with `threads` workers, the
    /// quotas `caps` and a plain modulo router, returning (pob, spill page
    /// counts, total I/O, staged records). The budget pin inside allows one
    /// in-flight insert per *other* worker, so at one worker it is exact.
    fn run_stager(
        threads: usize,
        caps: &[usize],
        keys: &[u64],
    ) -> (Vec<bool>, Vec<usize>, u64, usize) {
        let device = SimDevice::new_ref();
        let spec = spec();
        let (budget, parts) = (caps.iter().sum::<usize>(), caps.len());
        let stager = ParallelStager::new(device.clone(), spec.r_layout, spec, caps.to_vec());
        let shard = keys.len().div_ceil(threads);
        let (_, stages) = ordered_tasks(
            threads,
            &Obs::off(),
            Phase::Partition,
            threads,
            || stager.worker_stage(),
            |stage, w| {
                let lo = (w * shard).min(keys.len());
                let hi = ((w + 1) * shard).min(keys.len());
                for &k in &keys[lo..hi] {
                    let rec = Record::with_fill(k, 120, 0);
                    stager.insert(stage, (k % parts as u64) as usize, rec.as_record_ref())?;
                    assert!(stager.pages_in_use() < budget + threads, "quota blown");
                }
                Ok(())
            },
        )
        .unwrap();
        let build = stager.finish(stages).unwrap();
        let spill_pages: Vec<usize> = build
            .spilled
            .iter()
            .map(|h| h.as_ref().map_or(0, Relation::num_pages))
            .collect();
        let total_records: usize = build
            .spilled
            .iter()
            .flatten()
            .map(Relation::num_records)
            .sum::<usize>()
            + build.staged_records.len();
        assert_eq!(total_records, keys.len(), "records conserved");
        (
            build.pob,
            spill_pages,
            device.stats().total(),
            build.staged_records.len(),
        )
    }

    #[test]
    fn destaging_is_identical_across_worker_counts() {
        // Skewed routing: partition 0 gets 10x the records of the others.
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..3_000u64 {
            keys.push(k);
            if k % 8 == 0 {
                for j in 0..10 {
                    keys.push(8 * (k + j)); // extra mass on partition 0
                }
            }
        }
        let caps = [2, 2, 2, 2, 1, 1, 1, 1];
        let baseline = run_stager(1, &caps, &keys);
        for threads in [2, 4] {
            let run = run_stager(threads, &caps, &keys);
            assert_eq!(
                run.0, baseline.0,
                "page-out bits differ at {threads} workers"
            );
            assert_eq!(run.1, baseline.1, "spill pages differ at {threads} workers");
            assert_eq!(run.2, baseline.2, "I/O differs at {threads} workers");
            assert_eq!(run.3, baseline.3, "staged differs at {threads} workers");
        }
    }

    #[test]
    fn partitions_under_quota_stay_in_memory() {
        let keys: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let (pob, _, ios, staged) = run_stager(threads, &[16; 4], &keys);
            assert!(pob.iter().all(|&b| !b), "tiny partitions must stay staged");
            assert_eq!(ios, 0, "nothing should be written");
            assert_eq!(staged, keys.len());
        }
    }

    #[test]
    fn parallel_stager_matches_the_closed_form_exactly() {
        // The determinism bridge both DHH and NOCAP stand on, checked
        // against the form the module docs state rather than against
        // another run: for per-partition totals n_p under quotas cap_p,
        // pob[p] ⇔ hash_table_pages(n_p).max(1) > cap_p, a destaged
        // partition spills ⌈n_p / b⌉ pages, and everything else is staged.
        // The quotas are the executors': 600 expected keys over 6 plain-hash
        // partitions under 17 pages — two resident quotas of 5 pages (100
        // expected records plus 4σ), the other four share 7 pages.
        let spec = spec();
        let parts = 6usize;
        let caps = staging_quotas(600, &spec, 17, StagingRouter::PlainHash { parts }).caps();
        assert_eq!(caps, [5, 5, 2, 2, 2, 1]);
        // One partition exactly at and one a record over its resident
        // quota, one exactly at and one a record over a shared quota, and
        // two far over theirs.
        let fits = |cap: usize| {
            (1usize..)
                .take_while(|&n| spec.hash_table_pages(n) <= cap)
                .last()
                .expect("a page holds a record")
        };
        let counts = [
            fits(caps[0]),
            fits(caps[1]) + 1,
            1_200,
            fits(caps[3]),
            fits(caps[4]) + 1,
            500,
        ];
        let mut keys: Vec<u64> = (0..parts)
            .flat_map(|p| (0..counts[p]).map(move |i| (p + parts * i) as u64))
            .collect();
        keys.sort_by_key(|&k| nocap_storage::hash::mix64(k));

        let pob: Vec<bool> = (0..parts)
            .map(|p| spec.hash_table_pages(counts[p]).max(1) > caps[p])
            .collect();
        assert_eq!(pob, [false, true, true, false, true, true]);
        let destaged = |p: usize| if pob[p] { counts[p] } else { 0 };
        let spill_pages: Vec<usize> = (0..parts)
            .map(|p| destaged(p).div_ceil(spec.b_r()))
            .collect();
        let ios = spill_pages.iter().sum::<usize>() as u64;
        let staged = keys.len() - (0..parts).map(destaged).sum::<usize>();
        for threads in [1usize, 2, 4] {
            assert_eq!(
                run_stager(threads, &caps, &keys),
                (pob.clone(), spill_pages.clone(), ios, staged),
                "(pob, spill pages, I/O, staged) at {threads} workers"
            );
        }
    }

    #[test]
    fn oversized_partitions_destage_exactly() {
        // One partition receives everything; its quota cannot hold it.
        let keys: Vec<u64> = (0..4_000).map(|k| k * 4).collect(); // all ≡ 0 mod 4
        let (pob, spill_pages, ..) = run_stager(3, &[2; 4], &keys);
        assert!(pob[0], "the loaded partition must destage");
        assert!(!pob[1] && !pob[2] && !pob[3]);
        // Three workers' private pages plus the tail merge: exactly the
        // ⌈4000 / b_R⌉ pages of one sequential writer.
        let b_r = spec().b_r();
        assert_eq!(spill_pages[0], 4_000usize.div_ceil(b_r));
    }

    #[test]
    fn an_append_error_after_destaging_leaves_no_live_files() {
        // Private pages own no file: when a worker's full-page append fails
        // mid-scan, dropping the stager deletes every spill file.
        let sim = std::sync::Arc::new(SimDevice::new());
        let faulty = FaultDevice::new_arc(
            sim.clone(),
            vec![FaultSpec::any(FaultKind::PersistentError)
                .appends()
                .after(5)],
        );
        faulty.arm();
        let spec = spec();
        let stager = ParallelStager::new(faulty, spec.r_layout, spec, vec![2; 4]);
        let result = ordered_tasks(
            3,
            &Obs::off(),
            Phase::Partition,
            3,
            || stager.worker_stage(),
            |stage, w| {
                for k in 0..2_000u64 {
                    let rec = Record::with_fill(k * 3 + w as u64, 120, 0);
                    stager.insert(stage, (k % 4) as usize, rec.as_record_ref())?;
                }
                Ok(())
            },
        );
        assert!(result.is_err(), "the injected append error must surface");
        assert!(sim.live_files() > 0, "destaging had started");
        drop(stager);
        assert_eq!(sim.live_files(), 0);
        assert_eq!(sim.resident_pages(), 0);
    }
}
