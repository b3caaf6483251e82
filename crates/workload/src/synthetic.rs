//! The §5.1 synthetic sensitivity-analysis workload.
//!
//! Two relations: R holds the primary keys `0..n_R`, S holds `n_S` foreign
//! keys whose distribution over R's keys is either uniform or Zipf(α). The
//! paper uses `n_R` = 1 M, `n_S` = 8 M and 1 KB records (‖R‖ = 250 K pages,
//! ‖S‖ = 2 M pages); the scaled-down defaults here keep the same geometry
//! relative to the buffer-size sweep (see DESIGN.md §2).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nocap_model::CorrelationTable;
use nocap_storage::device::DeviceRef;
use nocap_storage::{RecordLayout, RecordRef, Relation, DEFAULT_PAGE_SIZE};

use crate::mcv::extract_mcvs;
use crate::zipf::ZipfSampler;

/// Shape of the join correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Correlation {
    /// Every primary key matches (approximately) the same number of S
    /// records.
    Uniform,
    /// Foreign keys are drawn from a Zipf distribution with the given
    /// exponent (the paper uses α ∈ {0.7, 1.0, 1.3}).
    Zipf {
        /// The Zipf exponent α.
        alpha: f64,
    },
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of R records (primary keys).
    pub n_r: usize,
    /// Number of S records (foreign keys).
    pub n_s: usize,
    /// Serialized record size in bytes (key + payload), for both relations.
    pub record_bytes: usize,
    /// Join correlation shape.
    pub correlation: Correlation,
    /// How many most-common values are tracked as statistics (the paper
    /// tracks 5 % of the keys, k = 50 K for n_R = 1 M).
    pub mcv_count: usize,
    /// PRNG seed (all generation is deterministic given the seed).
    pub seed: u64,
}

impl SyntheticConfig {
    /// A laptop-scale version of the paper's workload: `n_R` = 20 K,
    /// `n_S` = 160 K, 256-byte records, 5 % MCVs.
    pub fn scaled_default(correlation: Correlation) -> Self {
        SyntheticConfig {
            n_r: 20_000,
            n_s: 160_000,
            record_bytes: 256,
            correlation,
            mcv_count: 1_000,
            seed: 0x0CA9,
        }
    }
}

/// A generated workload: the stored relations plus the exact correlation and
/// the MCV statistics handed to the skew-aware algorithms.
pub struct GeneratedWorkload {
    /// The dimension (primary-key) relation R.
    pub r: Relation,
    /// The fact (foreign-key) relation S.
    pub s: Relation,
    /// The exact correlation table (used by OCAP and as ground truth).
    pub ct: CorrelationTable,
    /// The tracked most-common values (key, frequency), most frequent first.
    pub mcvs: Vec<(u64, u64)>,
}

impl GeneratedWorkload {
    /// Record layout shared by both relations.
    pub fn layout(&self) -> RecordLayout {
        self.r.layout()
    }

    /// The exact join output cardinality, derived from the correlation
    /// table (every S record matches exactly one R key in this PK–FK
    /// setting). Lets tests and benches verify a join's output without
    /// paying for a naive reference join.
    pub fn expected_join_output(&self) -> u64 {
        self.ct.total_matches()
    }
}

/// Generates per-key match counts for the requested correlation shape.
pub fn correlation_counts(config: &SyntheticConfig) -> Vec<u64> {
    match config.correlation {
        Correlation::Uniform => {
            let base = (config.n_s / config.n_r) as u64;
            let remainder = config.n_s % config.n_r;
            (0..config.n_r)
                .map(|i| base + u64::from(i < remainder))
                .collect()
        }
        Correlation::Zipf { alpha } => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let sampler = ZipfSampler::new(config.n_r, alpha);
            sampler.tally(config.n_s, &mut rng)
        }
    }
}

/// Materializes a workload from explicit per-key match counts.
///
/// `counts[i]` is the number of S records whose foreign key is `i`. R gets
/// one record per key; S's records are shuffled so that hot keys are not
/// physically clustered. Every R payload is filled with byte 1 and every S
/// payload with byte 2; each relation is one [`Relation::bulk_load`], one
/// page write per page, with every record borrowing one shared payload
/// buffer, so generation allocates nothing per record.
pub fn materialize(
    device: DeviceRef,
    counts: &[u64],
    record_bytes: usize,
    mcv_count: usize,
    seed: u64,
) -> nocap_storage::Result<GeneratedWorkload> {
    let payload = record_bytes.saturating_sub(RecordLayout::KEY_BYTES);
    let layout = RecordLayout::new(payload);
    let r_payload = vec![1; payload];
    let r_records = (0..counts.len() as u64).map(|key| RecordRef::new(key, &r_payload));
    let r = Relation::bulk_load(device.clone(), layout, DEFAULT_PAGE_SIZE, r_records)?;

    let mut s_keys: Vec<u64> = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
    for (key, &count) in counts.iter().enumerate() {
        s_keys.extend(std::iter::repeat_n(key as u64, count as usize));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    s_keys.shuffle(&mut rng);
    let s_payload = vec![2; payload];
    let s_records = s_keys.iter().map(|&key| RecordRef::new(key, &s_payload));
    let s = Relation::bulk_load(device, layout, DEFAULT_PAGE_SIZE, s_records)?;

    let ct = CorrelationTable::from_counts(counts.iter().copied());
    let mcvs = extract_mcvs(&ct, mcv_count);
    Ok(GeneratedWorkload { r, s, ct, mcvs })
}

/// Generates the §5.1 synthetic workload.
pub fn generate(
    device: DeviceRef,
    config: &SyntheticConfig,
) -> nocap_storage::Result<GeneratedWorkload> {
    let counts = correlation_counts(config);
    materialize(
        device,
        &counts,
        config.record_bytes,
        config.mcv_count,
        config.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::SimDevice;

    fn config(correlation: Correlation) -> SyntheticConfig {
        SyntheticConfig {
            n_r: 2_000,
            n_s: 16_000,
            record_bytes: 64,
            correlation,
            mcv_count: 100,
            seed: 7,
        }
    }

    #[test]
    fn uniform_counts_are_flat_and_sum_to_n_s() {
        let cfg = config(Correlation::Uniform);
        let counts = correlation_counts(&cfg);
        assert_eq!(counts.len(), 2_000);
        assert_eq!(counts.iter().sum::<u64>() as usize, 16_000);
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    fn zipf_counts_sum_to_n_s_and_are_skewed() {
        let cfg = config(Correlation::Zipf { alpha: 1.0 });
        let counts = correlation_counts(&cfg);
        assert_eq!(counts.iter().sum::<u64>() as usize, 16_000);
        let max = *counts.iter().max().unwrap();
        let mean = 16_000 / 2_000;
        assert!(
            max > 20 * mean,
            "Zipf(1.0) should have a very hot head (max={max})"
        );
    }

    #[test]
    fn materialized_relations_match_the_counts() {
        let device = SimDevice::new_ref();
        let cfg = config(Correlation::Zipf { alpha: 0.7 });
        let wl = generate(device, &cfg).unwrap();
        assert_eq!(wl.r.num_records(), 2_000);
        assert_eq!(wl.s.num_records(), 16_000);
        assert_eq!(wl.ct.total_matches(), 16_000);
        // Spot-check: the number of S records carrying the hottest key equals
        // that key's CT entry.
        let (hot_key, hot_count) = wl.mcvs[0];
        let mut actual = 0;
        let mut scan = wl.s.scan();
        while let Some(page) = scan.next_page().unwrap() {
            actual += page
                .record_refs()
                .filter(|rec| rec.key() == hot_key)
                .count() as u64;
        }
        assert_eq!(actual, hot_count);
    }

    #[test]
    fn mcvs_are_sorted_descending_and_limited() {
        let device = SimDevice::new_ref();
        let wl = generate(device, &config(Correlation::Zipf { alpha: 1.3 })).unwrap();
        assert_eq!(wl.mcvs.len(), 100);
        assert!(wl.mcvs.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = correlation_counts(&config(Correlation::Zipf { alpha: 1.0 }));
        let b = correlation_counts(&config(Correlation::Zipf { alpha: 1.0 }));
        assert_eq!(a, b);
    }

    #[test]
    fn record_size_is_respected() {
        let device = SimDevice::new_ref();
        let mut cfg = config(Correlation::Uniform);
        cfg.record_bytes = 128;
        let wl = generate(device, &cfg).unwrap();
        assert_eq!(wl.layout().record_bytes(), 128);
        // 4 KB page → 31 records of 128 bytes (after the 4-byte header).
        assert_eq!(wl.r.records_per_page(), 31);
    }
}
