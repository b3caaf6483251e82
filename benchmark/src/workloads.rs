//! The four workloads: what they generate, on which device, at which budget.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nocap_model::JoinSpec;
use nocap_storage::device::DeviceRef;
use nocap_storage::{BlockStats, FileDevice, SimDevice, TracedDevice, DEFAULT_PAGES_PER_BLOCK};
use nocap_workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

pub const RECORD_BYTES: usize = 256;

/// Input sizes and the number of timed rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    pub n_r: usize,
    pub n_s: usize,
    /// Timed rounds are added until this many have run and `--seconds`
    /// have passed.
    pub min_rounds: usize,
    /// Upper limit on timed rounds (the smoke geometry runs exactly three).
    pub max_rounds: usize,
}

impl Geometry {
    /// The measured geometry: ‖R‖ = 6 667 pages, ‖S‖ = 53 334 pages,
    /// √(F·‖R‖) ≈ 82 pages.
    pub const FULL: Geometry = Geometry {
        n_r: 100_000,
        n_s: 800_000,
        min_rounds: 11,
        max_rounds: usize::MAX,
    };
    /// Seconds-scale geometry for tests and a quick look.
    pub const SMOKE: Geometry = Geometry {
        n_r: 5_000,
        n_s: 40_000,
        min_rounds: 3,
        max_rounds: 3,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A multiple of √(F·‖R‖), the memory below which hybrid hash
    /// degenerates to Grace hash.
    SqrtFactor(f64),
    /// A share of ‖R‖.
    ShareOfR(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Bare `SimDevice`: pages in memory, I/Os counted.
    Sim,
    /// `FileDevice::builder()` defaults over a scratch directory.
    File,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub correlation: Correlation,
    pub budget: Budget,
    pub device: DeviceKind,
    /// Whether the joins go through `run_parallel` (at `parallel_threads`).
    pub parallel: bool,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "zipf_tight",
        correlation: Correlation::Zipf { alpha: 1.0 },
        budget: Budget::SqrtFactor(0.5),
        device: DeviceKind::Sim,
        parallel: false,
    },
    WorkloadDef {
        name: "uniform_roomy",
        correlation: Correlation::Uniform,
        budget: Budget::ShareOfR(0.25),
        device: DeviceKind::Sim,
        parallel: false,
    },
    WorkloadDef {
        name: "zipf_file",
        correlation: Correlation::Zipf { alpha: 1.0 },
        budget: Budget::SqrtFactor(2.0),
        device: DeviceKind::File,
        parallel: false,
    },
    WorkloadDef {
        name: "zipf_par2",
        correlation: Correlation::Zipf { alpha: 1.0 },
        budget: Budget::SqrtFactor(2.0),
        device: DeviceKind::Sim,
        parallel: true,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count of the parallel workload. The harness thread blocks inside
/// the call, so runnable threads never exceed the hardware's.
pub fn parallel_threads() -> usize {
    nproc().min(2)
}

impl WorkloadDef {
    pub fn spec(&self, geometry: &Geometry) -> JoinSpec {
        let spec = JoinSpec::paper_synthetic(RECORD_BYTES, 0);
        let pages_r = spec.pages_r(geometry.n_r) as f64;
        let buffer_pages = match self.budget {
            Budget::SqrtFactor(f) => (f * spec.hhj_memory_threshold(geometry.n_r)).round(),
            Budget::ShareOfR(share) => (share * pages_r).floor(),
        };
        spec.with_buffer_pages(buffer_pages as usize)
    }

    pub fn config(&self, geometry: &Geometry, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n_r: geometry.n_r,
            n_s: geometry.n_s,
            record_bytes: RECORD_BYTES,
            correlation: self.correlation,
            // The paper's catalog statistics: the top 5 % of keys.
            mcv_count: geometry.n_r / 20,
            seed,
        }
    }

    /// The device settings a result record echoes.
    pub fn device_description(&self) -> String {
        match self.device {
            DeviceKind::Sim => "{\"kind\": \"SimDevice\"}".to_string(),
            DeviceKind::File => format!(
                "{{\"kind\": \"FileDevice\", \"pages_per_block\": {DEFAULT_PAGES_PER_BLOCK}, \
                 \"read_ahead\": true, \"write_behind\": true, \"sync_policy\": \"none\"}}"
            ),
        }
    }
}

/// A scratch directory removed when dropped — on success, error and panic.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(out_dir: &Path) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir.join(format!(
            "scratch-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The concrete device under a workload, kept for the checks and counters
/// the `BlockDevice` trait does not carry.
enum Base {
    Sim(Arc<SimDevice>),
    // The device is declared before its directory: it flushes on drop and
    // the directory must still be there.
    File(Arc<FileDevice>, ScratchDir),
}

/// A loaded workload: relations R and S on a fresh device.
pub struct Loaded {
    // Dropped before `base`, so the relations release the device first.
    pub wl: GeneratedWorkload,
    /// What the joins see: the base device, wrapped in a latency-measuring
    /// `TracedDevice` for a traced run.
    pub device: DeviceRef,
    base: Base,
}

impl Loaded {
    /// Generates the workload from `seed` and bulk-loads it on a fresh
    /// device. Returns the loaded workload and the seconds it took.
    pub fn generate(
        def: &WorkloadDef,
        geometry: &Geometry,
        seed: u64,
        out_dir: &Path,
        traced: bool,
    ) -> Result<(Loaded, f64), String> {
        let started = Instant::now();
        let (base_ref, base): (DeviceRef, Base) = match def.device {
            DeviceKind::Sim => {
                let dev = Arc::new(SimDevice::new());
                (dev.clone(), Base::Sim(dev))
            }
            DeviceKind::File => {
                let dir = ScratchDir::create(out_dir)?;
                let dev = FileDevice::builder()
                    .at_dir(dir.path().to_path_buf())
                    .build_arc()
                    .map_err(|e| e.to_string())?;
                (dev.clone(), Base::File(dev, dir))
            }
        };
        let device = if traced {
            TracedDevice::with_latency_ref(base_ref)
        } else {
            base_ref
        };
        let wl = synthetic::generate(device.clone(), &def.config(geometry, seed))
            .map_err(|e| format!("workload generation: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        Ok((Loaded { wl, device, base }, secs))
    }

    /// The device under any tracing wrapper.
    pub fn base_device(&self) -> DeviceRef {
        match &self.base {
            Base::Sim(dev) => dev.clone(),
            Base::File(dev, _) => dev.clone(),
        }
    }

    /// Files on the device. Between joins only R and S may exist: anything
    /// else is a leaked spill file.
    pub fn live_files(&self) -> Result<usize, String> {
        match &self.base {
            Base::Sim(dev) => Ok(dev.live_files()),
            Base::File(_, dir) => std::fs::read_dir(dir.path())
                .map(|entries| entries.count())
                .map_err(|e| format!("{}: {e}", dir.path().display())),
        }
    }

    /// Syscall-shape counters of the block layer (all zero on `SimDevice`,
    /// which issues no syscalls).
    pub fn block_stats(&self) -> BlockStats {
        match &self.base {
            Base::Sim(_) => BlockStats::default(),
            Base::File(dev, _) => dev.block_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_follow_the_geometry() {
        let g = Geometry::FULL;
        let budgets: Vec<usize> = WORKLOADS.iter().map(|w| w.spec(&g).buffer_pages).collect();
        // ‖R‖ = 6 667 pages, √(1.02 · 6 667) = 82.46.
        assert_eq!(budgets, [41, 1666, 165, 165]);
        let smoke: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| w.spec(&Geometry::SMOKE).buffer_pages)
            .collect();
        assert!(smoke
            .iter()
            .all(|&b| b >= nocap_joins::SMJ_MIN_BUDGET_PAGES));
    }

    #[test]
    fn the_scratch_directory_goes_away_with_the_workload() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-scratch-{}", std::process::id()));
        let def = find("zipf_file").unwrap();
        let (loaded, _) = Loaded::generate(def, &Geometry::SMOKE, 1, &out, false).unwrap();
        assert_eq!(loaded.live_files().unwrap(), 2);
        let scratch: Vec<_> = std::fs::read_dir(&out).unwrap().collect();
        assert_eq!(scratch.len(), 1);
        drop(loaded);
        assert_eq!(std::fs::read_dir(&out).unwrap().count(), 0);
        std::fs::remove_dir_all(&out).unwrap();
    }
}
