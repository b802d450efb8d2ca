//! Discrete power-law tail estimation (Clauset–Shalizi–Newman).
//!
//! The paper's grid fit treats the whole Zipf–Mandelbrot body; the CSN
//! method estimates the *tail* exponent by maximum likelihood above a
//! cutoff `d_min` chosen to minimize the Kolmogorov–Smirnov distance —
//! the standard of the paper's own ref 48. Having both estimators lets
//! experiments cross-check the Fig 3 exponents.
//!
//! The model is the exact discrete power law `p(d) = d^{-α} / ζ(α, d_min)`
//! for `d ≥ d_min`, normalized by the Hurwitz zeta function. The fit sorts
//! its input once, collapses it to `(value, count)` runs with suffix counts
//! and suffix log-sums, and then prices every candidate cutoff from those
//! runs alone: O(n log n + cutoffs × tail-distinct) in all.

/// Upper end of the α search bracket `(1, ALPHA_MAX]`. A tail steeper than
/// `d^{-20}` loses six decades of probability between `d` and `2d`; a
/// cutoff whose likelihood still rises at this exponent has no power-law
/// tail to report and is skipped.
pub const ALPHA_MAX: f64 = 20.0;

/// Width of the final α bracket of the likelihood search.
const ALPHA_TOL: f64 = 1e-9;

/// A fitted discrete power-law tail `p(d) ∝ d^{-α}` for `d ≥ d_min`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLawFit {
    /// Tail exponent.
    pub alpha: f64,
    /// Tail cutoff.
    pub d_min: u64,
    /// Number of observations in the tail.
    pub n_tail: usize,
    /// KS distance between the empirical tail and the fitted model.
    pub ks: f64,
}

/// Full CSN fit: scan candidate cutoffs, fit α by the exact discrete MLE
/// at each, keep the cutoff with the smallest KS distance.
///
/// Candidates are the distinct positive degrees in ascending order, up to
/// the point where fewer than `min_tail` observations remain; zeros are
/// ignored. A cutoff is skipped when its tail holds a single distinct value
/// (the MLE diverges) or its likelihood still rises at [`ALPHA_MAX`].
/// Returns `None` exactly when no cutoff qualifies.
pub fn fit_power_law(degrees: &[u64], min_tail: usize) -> Option<PowerLawFit> {
    let mut sorted: Vec<u64> = degrees.iter().copied().filter(|&d| d > 0).collect();
    sorted.sort_unstable();
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for d in sorted {
        match runs.last_mut() {
            Some((v, c)) if *v == d => *c += 1,
            _ => runs.push((d, 1)),
        }
    }
    // suffix[i] = (observations ≥ runs[i].0, Σ ln d over them).
    let mut suffix: Vec<(usize, f64)> = runs
        .iter()
        .rev()
        .scan((0, 0.0), |acc: &mut (usize, f64), &(v, c)| {
            *acc = (acc.0 + c, acc.1 + c as f64 * (v as f64).ln());
            Some(*acc)
        })
        .collect();
    suffix.reverse();

    let mut best: Option<PowerLawFit> = None;
    for (i, (&(d_min, _), &(n_tail, log_sum))) in runs.iter().zip(&suffix).enumerate() {
        if n_tail < min_tail {
            break;
        }
        let tail = &runs[i..];
        if tail.len() < 2 {
            continue;
        }
        let Some(alpha) = mle_alpha(d_min, log_sum / n_tail as f64) else { continue };
        let ks = ks_distance(tail, d_min, n_tail, alpha);
        if best.is_none_or(|b| ks < b.ks) {
            best = Some(PowerLawFit { alpha, d_min, n_tail, ks });
        }
    }
    best
}

/// Exact discrete MLE of α above `d_min`, given the tail's mean `ln d`.
///
/// Maximizes the per-observation log-likelihood `−α·mean_ln − ln ζ(α,
/// d_min)` over `(1, ALPHA_MAX]` by golden-section search. The objective is
/// concave (`ln ζ` is a cumulant generating function in α), so the search
/// converges on the unique maximum; if the upper end of the bracket never
/// moves, the likelihood still rises at `ALPHA_MAX` and there is no fit.
fn mle_alpha(d_min: u64, mean_ln: f64) -> Option<f64> {
    let q = d_min as f64;
    let loglik = |alpha: f64| -alpha * mean_ln - hurwitz_zeta(alpha, q).ln();
    let shrink = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (1.0, ALPHA_MAX);
    let (mut x1, mut x2) = (hi - shrink * (hi - lo), lo + shrink * (hi - lo));
    let (mut f1, mut f2) = (loglik(x1), loglik(x2));
    while hi - lo > ALPHA_TOL {
        if f1 < f2 {
            (lo, x1, f1) = (x1, x2, f2);
            x2 = lo + shrink * (hi - lo);
            f2 = loglik(x2);
        } else {
            (hi, x2, f2) = (x2, x1, f1);
            x1 = hi - shrink * (hi - lo);
            f1 = loglik(x1);
        }
    }
    (hi < ALPHA_MAX).then_some(0.5 * (lo + hi))
}

/// KS distance between the empirical tail (`(value, count)` runs, all
/// `≥ d_min`, `n_tail` observations) and the model CDF
/// `1 − ζ(α, v+1)/ζ(α, d_min)`, taken at the tail's distinct values.
fn ks_distance(tail: &[(u64, usize)], d_min: u64, n_tail: usize, alpha: f64) -> f64 {
    let norm = hurwitz_zeta(alpha, d_min as f64);
    let n = n_tail as f64;
    let mut seen = 0;
    tail.iter().fold(0.0, |worst: f64, &(v, c)| {
        seen += c;
        let model = 1.0 - hurwitz_zeta(alpha, v as f64 + 1.0) / norm;
        worst.max((model - seen as f64 / n).abs())
    })
}

/// `B_{2j} / (2j)!` for j = 1..=7: the Euler–Maclaurin coefficients.
const EULER_MACLAURIN: [f64; 7] = [
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30_240.0,
    -1.0 / 1_209_600.0,
    1.0 / 47_900_160.0,
    -691.0 / 1_307_674_368_000.0,
    1.0 / 74_724_249_600.0,
];

/// Hurwitz zeta `ζ(s, q) = Σ_{k≥0} (q + k)^{-s}` for `s > 1`, `q ≥ 1`.
///
/// Sums terms directly until `a = q + N ≥ 12 + s`, then adds the
/// Euler–Maclaurin tail `a^{1−s}/(s−1) + a^{−s}/2 + Σ_{j=1}^{7} B_{2j}/(2j)!
/// · s(s+1)…(s+2j−2) · a^{−s−2j+1}`. For `x^{-s}` the remainder is bounded
/// by the first omitted (B₁₆) term, so the relative error is below
/// `3.4e-13 · (s−1)·s(s+1)…(s+14) / a^16`: below 1.3e-14 on `(1, 20]` and
/// 9e-14 at `s = 60`.
fn hurwitz_zeta(s: f64, q: f64) -> f64 {
    let mut sum = 0.0;
    let mut a = q;
    while a < 12.0 + s {
        sum += a.powf(-s);
        a += 1.0;
    }
    let a_s = a.powf(-s);
    let inv_a2 = (a * a).recip();
    let mut tail = a * a_s / (s - 1.0) + 0.5 * a_s;
    let mut rising = s; // s(s+1)…(s+2j−2)
    let mut power = a_s / a; // a^{−s−2j+1}
    for (j, b) in EULER_MACLAURIN.iter().enumerate() {
        tail += b * rising * power;
        let k = (2 * j + 1) as f64;
        rising *= (s + k) * (s + k + 1.0);
        power *= inv_a2;
    }
    sum + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The fit as it stood before the sort-once rewrite, kept verbatim as a
    /// naive oracle: continuous-approximation MLE, and a KS distance whose
    /// model normalizer is a `powf` sum truncated at `4·d_max`.
    mod oracle {
        use std::collections::BTreeMap;

        pub use super::super::PowerLawFit;

        /// MLE of the tail exponent above a fixed `d_min` (CSN eq. 3.7, the
        /// continuous approximation `α ≈ 1 + n / Σ ln(d_i / (d_min − 1/2))`,
        /// accurate for `d_min ≳ 6` and serviceable above 2).
        ///
        /// Returns `None` if fewer than 2 observations lie in the tail.
        pub fn mle_alpha(degrees: &[u64], d_min: u64) -> Option<f64> {
            assert!(d_min >= 1, "cutoff must be positive");
            let tail: Vec<u64> = degrees.iter().copied().filter(|&d| d >= d_min).collect();
            if tail.len() < 2 {
                return None;
            }
            let shift = d_min as f64 - 0.5;
            let log_sum: f64 = tail.iter().map(|&d| (d as f64 / shift).ln()).sum();
            if log_sum <= 0.0 {
                return None;
            }
            Some(1.0 + tail.len() as f64 / log_sum)
        }

        /// KS distance between the empirical tail distribution (of `degrees ≥
        /// d_min`) and the fitted power law with exponent `alpha`.
        pub fn ks_distance(degrees: &[u64], d_min: u64, alpha: f64) -> f64 {
            let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
            for &d in degrees.iter().filter(|&&d| d >= d_min) {
                *counts.entry(d).or_insert(0) += 1;
            }
            let n: usize = counts.values().sum();
            if n == 0 {
                return 1.0;
            }
            // Model tail normalization via the (generalized) zeta over d >= d_min,
            // truncated once terms are negligible.
            let d_max = *counts.keys().next_back().unwrap();
            let horizon = (d_max * 4).max(d_min + 1000);
            let zeta: f64 = (d_min..=horizon).map(|d| (d as f64).powf(-alpha)).sum();
            let mut model_cdf = 0.0;
            let mut empirical_cdf = 0.0;
            let mut worst: f64 = 0.0;
            let mut next_model_d = d_min;
            for (&d, &c) in &counts {
                // advance model cdf through every degree up to d.
                while next_model_d <= d {
                    model_cdf += (next_model_d as f64).powf(-alpha) / zeta;
                    next_model_d += 1;
                }
                empirical_cdf += c as f64 / n as f64;
                worst = worst.max((model_cdf - empirical_cdf).abs());
            }
            worst
        }

        /// Full CSN fit: scan candidate cutoffs, fit α by MLE at each, keep the
        /// cutoff with the smallest KS distance. Candidates are the distinct
        /// observed degrees up to the point where fewer than `min_tail`
        /// observations remain.
        pub fn fit_power_law(degrees: &[u64], min_tail: usize) -> Option<PowerLawFit> {
            let mut distinct: Vec<u64> = degrees.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let mut best: Option<PowerLawFit> = None;
            for &d_min in &distinct {
                let n_tail = degrees.iter().filter(|&&d| d >= d_min).count();
                if n_tail < min_tail {
                    break;
                }
                let Some(alpha) = mle_alpha(degrees, d_min) else { continue };
                let ks = ks_distance(degrees, d_min, alpha);
                if best.map(|b| ks < b.ks).unwrap_or(true) {
                    best = Some(PowerLawFit { alpha, d_min, n_tail, ks });
                }
            }
            best
        }
    }

    /// Largest draw the planted sampler keeps: above 2^53 a `u64` degree
    /// no longer round-trips through `f64`.
    const DRAW_CAP: u64 = 1 << 53;

    /// Exact discrete power law `p(d) = d^{-α}/ζ(α, d_min)`, `d ≥ d_min`,
    /// by inverse CDF: the smallest `d` with survival `ζ(α, d+1)/ζ(α,
    /// d_min) < u`, found by galloping then bisecting on ζ. Draws above
    /// [`DRAW_CAP`] are rejected, so the sample is the law conditioned on
    /// `d ≤ 2^53` (a visible cut only at α near 1).
    fn planted_sample(alpha: f64, d_min: u64, n: usize, seed: u64) -> Vec<u64> {
        let norm = hurwitz_zeta(alpha, d_min as f64);
        let survival = |d: u64| hurwitz_zeta(alpha, d as f64 + 1.0) / norm;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let u = 1.0 - rng.random::<f64>(); // (0, 1]
            if survival(DRAW_CAP) >= u {
                continue;
            }
            let (mut lo, mut hi) = (d_min, d_min);
            while survival(hi) >= u {
                lo = hi + 1;
                hi = (hi * 2).min(DRAW_CAP);
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if survival(mid) < u {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            out.push(lo);
        }
        out
    }

    fn rel_err(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs()
    }

    #[test]
    fn zeta_matches_closed_forms() {
        let pi = std::f64::consts::PI;
        for (s, want) in
            [(2.0, pi * pi / 6.0), (4.0, pi.powi(4) / 90.0), (1.1, 10.584_448_464_950_81)]
        {
            let got = hurwitz_zeta(s, 1.0);
            assert!(rel_err(got, want) < 1e-14, "zeta({s}, 1) = {got}, want {want}");
        }
    }

    #[test]
    fn zeta_within_brute_force_bracket() {
        // Σ_{k<M} (q+k)^{-s} plus the integral bounds on the rest:
        // ∫_{q+M}^∞ x^{-s} ≤ Σ_{k≥M} (q+k)^{-s} ≤ ∫_{q+M−1}^∞ x^{-s}.
        const M: u32 = 100_000;
        for s in [1.01, 1.1, 1.5, 2.0, 3.0, 6.0] {
            for q in [1.0, 2.0, 11.0, 12.0, 13.0, 40.0, 1e3, 1e6] {
                let partial: f64 = (0..M).rev().map(|k| (q + f64::from(k)).powf(-s)).sum();
                let end = q + f64::from(M);
                let lo = partial + end.powf(1.0 - s) / (s - 1.0);
                let hi = partial + (end - 1.0).powf(1.0 - s) / (s - 1.0);
                let got = hurwitz_zeta(s, q);
                assert!(
                    got >= lo * (1.0 - 1e-12) && got <= hi * (1.0 + 1e-12),
                    "zeta({s}, {q}) = {got} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn zeta_recurrence_holds_across_the_direct_sum_threshold() {
        // ζ(s, q) = q^{-s} + ζ(s, q+1): one side sums q directly, the other
        // may already be in the Euler–Maclaurin regime.
        for s in [1.05, 2.5, 7.0, ALPHA_MAX] {
            for q in 1..=40 {
                let q = f64::from(q);
                let lhs = hurwitz_zeta(s, q);
                let rhs = q.powf(-s) + hurwitz_zeta(s, q + 1.0);
                assert!(rel_err(lhs, rhs) < 1e-13, "s={s} q={q}: {lhs} vs {rhs}");
            }
        }
    }

    /// Planted exponents with their recovery tolerance. With n = 20_000
    /// draws from d_min = 1 the MLE's standard error is about 0.001 at
    /// α = 1.1, 0.004 at 1.5 and 0.013 at 2.5; each tolerance is ~4σ. At
    /// α = 1.1 the 2^53 cap also removes ~2.4% of the mass, which biases
    /// the estimate up by ~0.010 and floors the KS distance near 0.024,
    /// so its tolerance is that bias plus 4σ.
    const PLANTED: [(f64, f64); 3] = [(1.1, 0.015), (1.5, 0.02), (2.5, 0.05)];

    #[test]
    fn mle_recovers_planted_exponent_at_the_true_cutoff() {
        for (alpha, tol) in PLANTED {
            let degrees = planted_sample(alpha, 1, 20_000, 7);
            let mean_ln = degrees.iter().map(|&d| (d as f64).ln()).sum::<f64>() / 20_000.0;
            let got = mle_alpha(1, mean_ln).unwrap();
            assert!((got - alpha).abs() < tol, "planted {alpha}: MLE {got}");
        }
    }

    #[test]
    fn full_fit_recovers_planted_exponent() {
        for (alpha, tol) in PLANTED {
            let degrees = planted_sample(alpha, 1, 20_000, 11);
            let fit = fit_power_law(&degrees, 100).unwrap();
            assert!((fit.alpha - alpha).abs() < tol, "planted {alpha}: {fit:?}");
            assert!(fit.d_min <= 16, "pure sample should not need a big cutoff: {fit:?}");
            assert!(fit.n_tail >= 100, "planted {alpha}: {fit:?}");
            assert!(fit.ks < 0.03, "planted {alpha}: {fit:?}");
        }
    }

    #[test]
    fn ks_prefers_the_true_exponent() {
        let degrees = planted_sample(2.0, 1, 50_000, 2);
        let mut counts = std::collections::BTreeMap::new();
        for &d in degrees.iter().filter(|&&d| d >= 4) {
            *counts.entry(d).or_insert(0) += 1;
        }
        let tail: Vec<(u64, usize)> = counts.into_iter().collect();
        let n = tail.iter().map(|&(_, c)| c).sum();
        let ks = |alpha| ks_distance(&tail, 4, n, alpha);
        let (at_truth, too_steep, too_flat) = (ks(2.0), ks(3.0), ks(1.3));
        assert!(at_truth < too_steep, "{at_truth} vs steep {too_steep}");
        assert!(at_truth < too_flat, "{at_truth} vs flat {too_flat}");
    }

    #[test]
    fn cutoff_skips_a_corrupted_head() {
        // Flatten the head: replace every draw below 4 with uniform 1..=8
        // noise; the scan must move d_min past it.
        let mut degrees = planted_sample(2.0, 1, 40_000, 4);
        for (i, d) in degrees.iter_mut().enumerate() {
            if *d <= 3 {
                *d = 1 + (i as u64 % 8);
            }
        }
        let fit = fit_power_law(&degrees, 200).unwrap();
        assert!(fit.d_min > 3, "cutoff {} should skip the corrupted head", fit.d_min);
        assert!((fit.alpha - 2.0).abs() < 0.2, "alpha {}", fit.alpha);
    }

    #[test]
    fn agrees_with_the_oracle_where_its_approximations_vanish() {
        // At α ≥ 2.5 and cutoffs ≥ 6 the truncated normalizer is exact to
        // machine precision and the continuous approximation is within ~1%
        // of the exact discrete MLE (CSN's estimate; 0.9% at α = 3, d_min = 6
        // here), so the two estimators agree to 1.5% of α.
        for alpha in [2.5, 3.0] {
            let degrees = planted_sample(alpha, 6, 20_000, 3);
            for d_min in [6, 8, 12] {
                let tail: Vec<f64> =
                    degrees.iter().filter(|&&d| d >= d_min).map(|&d| (d as f64).ln()).collect();
                let exact = mle_alpha(d_min, tail.iter().sum::<f64>() / tail.len() as f64).unwrap();
                let naive = oracle::mle_alpha(&degrees, d_min).unwrap();
                assert!(
                    (exact - naive).abs() < 0.015 * alpha,
                    "α={alpha} d_min={d_min}: {exact} vs {naive}"
                );
            }
            let (new, old) = (
                fit_power_law(&degrees, 100).unwrap(),
                oracle::fit_power_law(&degrees, 100).unwrap(),
            );
            assert_eq!(new.d_min, old.d_min);
            assert!((new.alpha - old.alpha).abs() < 0.015 * alpha, "α={alpha}: {new:?} vs {old:?}");
        }
    }

    #[test]
    fn zero_degrees_are_ignored() {
        let with_zeros: Vec<u64> = (0..200).map(|i| i % 7).collect();
        let without: Vec<u64> = with_zeros.iter().copied().filter(|&d| d > 0).collect();
        let fit = fit_power_law(&with_zeros, 10);
        assert!(fit.is_some());
        assert_eq!(fit, fit_power_law(&without, 10));
        assert_eq!(fit_power_law(&[0; 50], 1), None);
        // Zeros do not count towards min_tail: ten positive values cannot
        // fill a tail of twelve however many zeros ride along.
        let padded = [0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        assert_eq!(fit_power_law(&padded, 12), None);
    }

    #[test]
    fn single_valued_tails_are_skipped() {
        // One distinct value: the MLE diverges, so there is no fit at all.
        assert_eq!(fit_power_law(&[5; 100], 10), None);
        assert_eq!(fit_power_law(&[], 0), None);
        // Cutoff 2 holds only 2s and is skipped; cutoff 1 is the fit.
        let degrees: Vec<u64> = (0..100).map(|i| 1 + i % 2).collect();
        let fit = fit_power_law(&degrees, 1).unwrap();
        assert_eq!((fit.d_min, fit.n_tail), (1, 100));
    }

    #[test]
    fn likelihood_rising_at_alpha_max_is_skipped_not_clamped() {
        // 99 × 1000 and one 1001: the MLE at cutoff 1000 is far above
        // ALPHA_MAX, and cutoff 1001 is single-valued.
        let mut degrees = vec![1000; 99];
        degrees.push(1001);
        assert_eq!(fit_power_law(&degrees, 1), None);
        assert_eq!(
            mle_alpha(1000, degrees.iter().map(|&d| (d as f64).ln()).sum::<f64>() / 100.0),
            None
        );
        // Just inside the bracket the same search returns an interior α.
        let inside = mle_alpha(1, 2f64.powf(-(ALPHA_MAX - 2.0)) * 2f64.ln()).unwrap();
        assert!(inside > 1.0 && inside < ALPHA_MAX, "{inside}");
    }

    #[test]
    fn bounded_fan_in_tail_is_pinned() {
        // Seed 42's Fig 2 destination fan-in at N_V = 2^18 takes only the
        // values 1, 2 and 3. Cutoff 3 leaves 2 < 50 observations, so the
        // scan sees cutoffs 1 and 2. The two-valued tail above 2 is matched
        // almost exactly by its MLE (α ≈ 15.6, inside the bracket), so it
        // wins on KS.
        let degrees: Vec<u64> = [(1, 193_208), (2, 1_115), (3, 2)]
            .into_iter()
            .flat_map(|(d, c)| std::iter::repeat_n(d, c))
            .collect();
        let fit = fit_power_law(&degrees, 50).unwrap();
        assert_eq!((fit.d_min, fit.n_tail), (2, 1_117));
        assert!((fit.alpha - 15.643_980_6).abs() < 1e-6, "{fit:?}");
        assert!(fit.ks < 1e-4, "{fit:?}");
    }
}
