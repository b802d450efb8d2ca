//! Differential property: the correlation entry points equal the D4M
//! string set algebra bit for bit.
//!
//! [`peak_correlation`] and [`temporal_curves`] take `KeySet`s but count
//! overlaps on compressed bitmaps. The reference here is the paper's
//! definition spelled out on strings: group the window's sources into
//! degree bins ([`WindowDegrees::bin_key_sets`]) and divide each bin's
//! [`KeySet::overlap_fraction`] against the month. The honeyfarm sets mix
//! canonical `ip_key` spellings with non-padded dotted quads, signed
//! octets, misplaced padding and labels, which as strings never equal a
//! window key.

use obscor_assoc::convert::ip_key;
use obscor_assoc::KeySet;
use obscor_core::peak::{peak_correlation, PeakCorrelation, PeakPoint};
use obscor_core::temporal::{temporal_curves, TemporalCurve};
use obscor_core::WindowDegrees;
use obscor_stats::binning::bin_representative;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// String reference for [`peak_correlation`].
fn peak_reference(
    w: &WindowDegrees,
    coeval: &KeySet,
    bright_log2: f64,
    min: usize,
) -> PeakCorrelation {
    let points = w
        .bin_key_sets(min)
        .into_iter()
        .map(|(bin, keys)| {
            let d = bin_representative(bin);
            let fraction = keys.overlap_fraction(coeval).unwrap_or(0.0);
            let empirical_law = ((d as f64).log2() / bright_log2).clamp(0.0, 1.0);
            PeakPoint { bin, d, n_sources: keys.len(), fraction, empirical_law }
        })
        .collect();
    PeakCorrelation { window_label: w.label.clone(), month: w.month, points }
}

/// String reference for [`temporal_curves`].
fn curves_reference(w: &WindowDegrees, months: &[KeySet], min: usize) -> Vec<TemporalCurve> {
    w.bin_key_sets(min)
        .into_iter()
        .map(|(bin, keys)| TemporalCurve {
            window_label: w.label.clone(),
            coord: w.coord,
            bin,
            d: bin_representative(bin),
            n_sources: keys.len(),
            months: (0..months.len()).collect(),
            lags: (0..months.len()).map(|m| (m as f64 + 0.5) - w.coord).collect(),
            fractions: months.iter().map(|m| keys.overlap_fraction(m).unwrap_or(0.0)).collect(),
        })
        .collect()
}

/// An address near a shared base (so windows and months collide) or,
/// one time in four, anywhere in the u32 space.
fn gen_ip(rng: &mut StdRng) -> u32 {
    if rng.random_range(0u32..4) == 0 {
        rng.random()
    } else {
        0x0A00_0000 + rng.random_range(0u32..3_000)
    }
}

/// A random window: up to 400 sources with degrees over ~12 log2 bins.
fn gen_window(rng: &mut StdRng, n_months: usize) -> WindowDegrees {
    let mut degrees: Vec<(u32, u64)> = (0..rng.random_range(0usize..400))
        .map(|_| {
            let ip = gen_ip(rng);
            let d = (1u64 << rng.random_range(0u32..12)) + rng.random_range(0u64..3);
            (ip, d)
        })
        .collect();
    degrees.sort_unstable_by_key(|&(ip, _)| ip);
    degrees.dedup_by_key(|&mut (ip, _)| ip);
    WindowDegrees {
        label: "w".into(),
        coord: rng.random_range(0u32..30) as f64 / 2.0,
        month: rng.random_range(0..n_months.max(1)),
        degrees,
    }
}

/// One honeyfarm key: canonical, or a spelling `ip_key` never renders.
fn gen_key(rng: &mut StdRng, w: &WindowDegrees) -> String {
    let ip = match w.degrees.len() {
        0 => gen_ip(rng),
        n if rng.random_range(0u32..2) == 0 => w.degrees[rng.random_range(0..n)].0,
        _ => gen_ip(rng),
    };
    let [a, b, c, d] = ip.to_be_bytes();
    match rng.random_range(0u32..8) {
        0..=3 => ip_key(ip),
        4 => format!("{a}.{b}.{c}.{d}"),
        5 => format!("+{a}.{b}.{c}.{d}"),
        // Fifteen bytes when `c < 100`, but with the dots in the wrong places.
        6 => format!("{a:03}.{b:03}.{c:02}.{d:04}"),
        _ => format!("scanner-{ip}"),
    }
}

fn gen_month(rng: &mut StdRng, w: &WindowDegrees) -> KeySet {
    (0..rng.random_range(0usize..300)).map(|_| gen_key(rng, w)).collect()
}

proptest! {
    /// Peak fractions and temporal curves equal the string reference
    /// exactly, including every `f64`.
    #[test]
    fn correlation_equals_string_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_months = rng.random_range(0usize..16);
        let w = gen_window(&mut rng, n_months);
        let months: Vec<KeySet> = (0..n_months).map(|_| gen_month(&mut rng, &w)).collect();
        let min = rng.random_range(1usize..4);
        let bright_log2 = rng.random_range(2u32..12) as f64;
        let coeval = months.get(w.month).cloned().unwrap_or_else(|| gen_month(&mut rng, &w));
        prop_assert_eq!(
            peak_correlation(&w, &coeval, bright_log2, min),
            peak_reference(&w, &coeval, bright_log2, min)
        );
        prop_assert_eq!(temporal_curves(&w, &months, min), curves_reference(&w, &months, min));
    }
}
