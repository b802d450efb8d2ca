//! Property-based tests for the CSN power-law tail fit.

use obscor_stats::powerlaw::{fit_power_law, PowerLawFit, ALPHA_MAX};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Heavy-tailed integers with ties: continuous power-law draws
/// `(1 − u)^{−1/(α−1)}` floored, capped at 2^40, plus `zeros` zeros.
fn degrees(draws: &[f64], alpha: f64, zeros: usize) -> Vec<u64> {
    let mut out: Vec<u64> = draws
        .iter()
        .map(|&u| ((1.0 - u).powf(-1.0 / (alpha - 1.0)).floor() as u64).min(1 << 40))
        .collect();
    out.extend(std::iter::repeat_n(0, zeros));
    out
}

fn shuffled(values: &[u64], seed: u64) -> Vec<u64> {
    let mut out = values.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}

fn bits(fit: Option<PowerLawFit>) -> Option<(u64, u64, usize, u64)> {
    fit.map(|f| (f.alpha.to_bits(), f.d_min, f.n_tail, f.ks.to_bits()))
}

proptest! {
    /// The fit sees its input only through the sorted runs, so any
    /// permutation gives a bit-identical result.
    #[test]
    fn tail_fit_is_permutation_invariant(
        draws in prop::collection::vec(0.0f64..1.0, 0..400),
        alpha in 1.2f64..3.5,
        zeros in 0usize..20,
        min_tail in 0usize..60,
        seed in any::<u64>(),
    ) {
        let d = degrees(&draws, alpha, zeros);
        prop_assert_eq!(bits(fit_power_law(&d, min_tail)), bits(fit_power_law(&shuffled(&d, seed), min_tail)));
    }

    /// A reported fit is well formed: its tail is exactly the observations
    /// at or above the cutoff, at least `min_tail` of them, with α inside
    /// the search bracket and a KS distance in [0, 1].
    #[test]
    fn tail_fit_is_well_formed(
        draws in prop::collection::vec(0.0f64..1.0, 0..400),
        alpha in 1.2f64..3.5,
        zeros in 0usize..20,
        min_tail in 0usize..60,
    ) {
        let d = degrees(&draws, alpha, zeros);
        if let Some(fit) = fit_power_law(&d, min_tail) {
            prop_assert!(fit.d_min >= 1);
            prop_assert_eq!(fit.n_tail, d.iter().filter(|&&v| v >= fit.d_min).count());
            prop_assert!(fit.n_tail >= min_tail);
            prop_assert!((0.0..=1.0).contains(&fit.ks), "ks {}", fit.ks);
            prop_assert!(fit.alpha > 1.0 && fit.alpha < ALPHA_MAX, "alpha {}", fit.alpha);
        }
    }
}
