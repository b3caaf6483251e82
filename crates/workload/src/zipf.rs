//! Zipf(α) sampling over a fixed key domain.
//!
//! The §5.1 sensitivity analysis shapes the join correlation by drawing the
//! foreign keys of S from a Zipfian distribution over R's primary keys with
//! exponent α ∈ {0.7, 1.0, 1.3}. [`ZipfSampler`] implements exact inverse-CDF
//! sampling: a uniform draw `u` maps to the first rank whose CDF value
//! exceeds it.
//!
//! Generation takes one draw per S record (800 k draws over 100 k keys at
//! the benchmark's geometry), so an O(log n) binary search over the whole
//! CDF per draw is not negligible: it was over a quarter of generating the
//! workload. The sampler therefore keeps a guide table beside the CDF,
//! `n + 1` `u32`s (`4·(n + 1)` bytes), whose entry `j` is the first rank
//! with CDF ≥ `j / n`. A draw with `j = ⌊u·n⌋` searches only the ranks from
//! entry `j − 1` to entry `j + 2`, a bracket wide enough to absorb the
//! rounding of `u·n` and `j / n`; on the Zipf tail that is a few dozen
//! ranks. On an exact hit (a CDF value equal to `u`) the rank on a plateau
//! of equal values is whichever one the binary search's probes land on, so
//! such a draw takes the full binary search. Every draw therefore maps to
//! the rank the plain binary search picks, draw for draw.

use rand::Rng;

/// Exact Zipf(α) sampler over the domain `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF value is ≥ `j / n` (the last
    /// rank if none is), for `j` in `0..=n`.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha ≥ 0`.
    ///
    /// Rank 0 is the most probable key (probability ∝ 1), rank `i` has
    /// probability ∝ `1 / (i + 1)^alpha`. `alpha = 0` degenerates to the
    /// uniform distribution. `n` must fit in a `u32`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(u32::try_from(n).is_ok(), "domain must fit in a u32");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self::from_cdf(cdf)
    }

    /// A sampler over a non-decreasing CDF ending at 1.0: builds the guide
    /// table.
    fn from_cdf(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n + 1);
        let mut rank = 0;
        for j in 0..=n {
            let edge = j as f64 / n as f64;
            while rank < n - 1 && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        ZipfSampler { cdf, guide }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the domain is empty (never true — kept for API
    /// symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u ∈ [0, 1)` maps to: the first rank whose
    /// CDF value exceeds `u`, or on an exact hit the binary search's rank.
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let j = ((u * n as f64) as usize).min(n - 1);
        let lo = self.guide[j.saturating_sub(1)] as usize;
        let hi = self.guide[(j + 2).min(n)] as usize;
        let i = (lo + self.cdf[lo..=hi].partition_point(|&c| c < u)).min(n - 1);
        if self.cdf[i] != u {
            return i;
        }
        // An exact hit: on a plateau of values equal to `u` the rank is the
        // one the full binary search's probes land on.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(n - 1),
        }
    }

    /// Tallies `samples` draws into per-rank counts (a direct way to build a
    /// correlation table).
    pub fn tally<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> Vec<u64> {
        let mut counts = vec![0u64; self.len()];
        for _ in 0..samples {
            counts[self.sample(rng)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The plain inverse-CDF search the guide table stands in for: one
    /// binary search over the whole CDF per draw.
    fn reference_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Asserts that `u` and its ±1-ulp neighbours, those of them in
    /// `[0, 1)`, map to the reference's rank.
    fn assert_neighbourhood_matches(z: &ZipfSampler, u: f64) {
        for v in [u.next_down(), u, u.next_up()] {
            if (0.0..1.0).contains(&v) {
                assert_eq!(
                    z.rank_of(v),
                    reference_rank(&z.cdf, v),
                    "u = {v:e}, n = {}",
                    z.len()
                );
            }
        }
    }

    /// Asserts the guide-table search equals the reference on every CDF
    /// value and every bucket edge `j / n`, each with its neighbours.
    fn assert_edges_match(z: &ZipfSampler) {
        for &c in &z.cdf {
            assert_neighbourhood_matches(z, c);
        }
        for j in 0..=z.len() {
            assert_neighbourhood_matches(z, j as f64 / z.len() as f64);
        }
    }

    const GRID_N: [usize; 6] = [1, 2, 3, 50, 1_000, 100_000];
    const GRID_ALPHA: [f64; 5] = [0.0, 0.7, 1.0, 1.3, 3.0];

    #[test]
    fn sample_matches_the_full_binary_search_on_a_seeded_grid() {
        for (seed, (n, alpha)) in GRID_N
            .iter()
            .flat_map(|&n| GRID_ALPHA.iter().map(move |&alpha| (n, alpha)))
            .enumerate()
        {
            let z = ZipfSampler::new(n, alpha);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut reference_rng = rng.clone();
            for _ in 0..10_000 {
                let expected = reference_rank(&z.cdf, reference_rng.gen());
                assert_eq!(z.sample(&mut rng), expected, "n = {n}, alpha = {alpha}");
            }
        }
    }

    #[test]
    fn cdf_values_and_bucket_edges_map_like_the_full_binary_search() {
        for n in GRID_N {
            for alpha in GRID_ALPHA {
                assert_edges_match(&ZipfSampler::new(n, alpha));
            }
        }
    }

    #[test]
    fn a_cdf_plateau_maps_like_the_full_binary_search() {
        // At α = 3 the tail's terms vanish against the head's sum, so most of
        // a million-rank CDF rounds to the same few values.
        let z = ZipfSampler::new(1_000_000, 3.0);
        let plateau = z.cdf.iter().filter(|&&c| c == 1.0).count();
        assert!(plateau > 700_000, "{plateau} ranks at CDF 1.0");
        assert_edges_match(&z);
    }

    #[test]
    fn an_exact_hit_on_a_plateau_takes_the_full_binary_search() {
        // The generated CDFs only repeat 1.0, which no draw reaches, so the
        // exact-hit rule needs a hand-made CDF with a plateau below it.
        let mut cdf = vec![0.25];
        cdf.extend([0.5; 40]);
        cdf.extend([0.75, 1.0]);
        let z = ZipfSampler::from_cdf(cdf);
        let plain = reference_rank(&z.cdf, 0.5);
        assert_ne!(plain, 1, "the probes must land inside the plateau");
        assert_eq!(z.rank_of(0.5), plain);
        assert_edges_match(&z);
    }

    #[test]
    fn tally_matches_the_full_binary_search_at_the_benchmark_geometry() {
        let z = ZipfSampler::new(100_000, 1.0);
        let mut rng = StdRng::seed_from_u64(0x0CA9);
        let mut reference_rng = rng.clone();
        let mut expected = vec![0u64; z.len()];
        for _ in 0..800_000 {
            expected[reference_rank(&z.cdf, reference_rng.gen())] += 1;
        }
        assert_eq!(z.tally(800_000, &mut rng), expected);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(1_000, 1.0);
        let total: f64 = (0..z.len()).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        for i in 0..100 {
            assert!((z.probability(i) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_alpha_concentrates_mass_on_the_head() {
        let low = ZipfSampler::new(10_000, 0.7);
        let high = ZipfSampler::new(10_000, 1.3);
        let head_low: f64 = (0..10).map(|i| low.probability(i)).sum();
        let head_high: f64 = (0..10).map(|i| high.probability(i)).sum();
        assert!(head_high > 3.0 * head_low);
    }

    #[test]
    fn tally_matches_expected_shape() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = z.tally(100_000, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 100_000);
        // Rank 0 must be clearly hotter than rank 25.
        assert!(counts[0] > 4 * counts[25]);
    }

    #[test]
    fn sampling_is_reproducible_with_a_seed() {
        let z = ZipfSampler::new(500, 1.1);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
