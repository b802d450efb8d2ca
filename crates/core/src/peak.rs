//! Fig 4: peak (coeval) correlation.
//!
//! "A first step is to ask what fraction of the CAIDA Telescope sources
//! are also seen in the GreyNoise observations during the same month."
//! For each log2 degree bin of a window, the fraction of its sources
//! present in the same-month honeyfarm row-key set, next to the paper's
//! empirical law `log2(d)/log2(sqrt(N_V))`.

use crate::degree::WindowDegrees;
use obscor_assoc::{BitSet, KeySet};
use obscor_stats::binning::bin_representative;

/// One point of the Fig 4 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeakPoint {
    /// Bin index `i` (degrees in `(2^{i-1}, 2^i]`).
    pub bin: u32,
    /// Representative degree `d_i = 2^i`.
    pub d: u64,
    /// Sources in the bin.
    pub n_sources: usize,
    /// Fraction of the bin's sources present in the honeyfarm month.
    pub fraction: f64,
    /// The paper's empirical prediction
    /// `min(1, log2(d_i)/log2(sqrt(N_V)))`.
    pub empirical_law: f64,
}

/// The Fig 4 series for one window.
#[derive(Clone, Debug, PartialEq)]
pub struct PeakCorrelation {
    /// Window label.
    pub window_label: String,
    /// Month the fractions are taken against (the window's own month).
    pub month: usize,
    /// Per-bin points, in increasing degree order.
    pub points: Vec<PeakPoint>,
}

impl PeakCorrelation {
    /// The fraction at the bin containing degree `d`, if measured.
    pub fn fraction_at(&self, d: u64) -> Option<f64> {
        let bin = obscor_stats::binning::log2_bin(d);
        self.points.iter().find(|p| p.bin == bin).map(|p| p.fraction)
    }
}

/// Compute the Fig 4 series: per-bin overlap of `window` sources with the
/// coeval honeyfarm source set.
///
/// Converts the key set once ([`BitSet::from_ip_keys`]) and runs
/// [`peak_correlation_bits`]. Fractions equal the [`KeySet`] string
/// intersections bit for bit: a key that is not a canonical
/// [`obscor_assoc::convert::ip_key`] spelling matches no window source.
/// Callers holding the coeval set for many windows should convert once
/// and call the `_bits` variant directly.
pub fn peak_correlation(
    window: &WindowDegrees,
    coeval_sources: &KeySet,
    bright_log2: f64,
    min_bin_sources: usize,
) -> PeakCorrelation {
    let coeval = BitSet::from_ip_keys(coeval_sources);
    peak_correlation_bits(window, &coeval, bright_log2, min_bin_sources)
}

/// Compressed-bitmap form of [`peak_correlation`]: per-bin overlaps are
/// popcount-only [`BitSet::overlap_count`]s — word-parallel `AND` on
/// dense chunks, never materializing an intersection.
pub fn peak_correlation_bits(
    window: &WindowDegrees,
    coeval_sources: &BitSet,
    bright_log2: f64,
    min_bin_sources: usize,
) -> PeakCorrelation {
    let _span = obscor_obs::span("core.peak_correlation");
    obscor_obs::counter("core.peak_correlation.windows_total").inc();
    let points = window
        .bin_bit_sets(min_bin_sources)
        .into_iter()
        .map(|(bin, keys)| {
            let d = bin_representative(bin);
            let fraction = keys.overlap_fraction(coeval_sources).unwrap_or(0.0);
            let empirical_law = ((d as f64).log2() / bright_log2).clamp(0.0, 1.0);
            PeakPoint { bin, d, n_sources: keys.len(), fraction, empirical_law }
        })
        .collect();
    PeakCorrelation { window_label: window.label.clone(), month: window.month, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_assoc::KeySet;

    fn window_with_bins() -> WindowDegrees {
        // Sources 1..=8 with degree 2 (bin 1), sources 11..=18 with
        // degree 32 (bin 5).
        let mut degrees: Vec<(u32, u64)> = (1..=8u32).map(|ip| (ip, 2u64)).collect();
        degrees.extend((11..=18u32).map(|ip| (ip, 32u64)));
        WindowDegrees { label: "w".into(), coord: 4.5, month: 4, degrees }
    }

    fn keys_of(ips: &[u32]) -> KeySet {
        ips.iter().map(|&ip| obscor_assoc::convert::ip_key(ip)).collect()
    }

    #[test]
    fn fractions_count_overlap_per_bin() {
        let w = window_with_bins();
        // Honeyfarm saw half of each bin.
        let gn = keys_of(&[1, 2, 3, 4, 11, 12, 13, 14]);
        let peak = peak_correlation(&w, &gn, 8.0, 1);
        assert_eq!(peak.points.len(), 2);
        assert_eq!(peak.points[0].bin, 1);
        assert_eq!(peak.points[0].n_sources, 8);
        assert!((peak.points[0].fraction - 0.5).abs() < 1e-12);
        assert!((peak.points[1].fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empirical_law_is_log_linear_and_clamped() {
        let w = window_with_bins();
        let gn = KeySet::new();
        let peak = peak_correlation(&w, &gn, 4.0, 1);
        // Bin 1 (d=2): log2(2)/4 = 0.25; bin 5 (d=32): 5/4 clamped to 1.
        assert!((peak.points[0].empirical_law - 0.25).abs() < 1e-12);
        assert_eq!(peak.points[1].empirical_law, 1.0);
    }

    #[test]
    fn empty_honeyfarm_gives_zero_fractions() {
        let w = window_with_bins();
        let peak = peak_correlation(&w, &KeySet::new(), 8.0, 1);
        assert!(peak.points.iter().all(|p| p.fraction == 0.0));
    }

    #[test]
    fn min_sources_prunes_bins() {
        let mut w = window_with_bins();
        w.degrees.push((100, 1024)); // a lone bright source (bin 10)
        let peak = peak_correlation(&w, &KeySet::new(), 8.0, 2);
        assert!(peak.points.iter().all(|p| p.bin != 10));
    }

    #[test]
    fn wrapper_equals_the_bitmap_path() {
        let w = window_with_bins();
        let gn = keys_of(&[1, 2, 3, 11, 12, 13, 14, 99]);
        let via_bits = peak_correlation_bits(&w, &BitSet::from_ip_keys(&gn), 8.0, 1);
        assert_eq!(peak_correlation(&w, &gn, 8.0, 1), via_bits);
        assert!((via_bits.points[0].fraction - 0.375).abs() < 1e-12);
        assert!((via_bits.points[1].fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_canonical_keys_count_as_absent() {
        // Window sources 1..=8 render as "000.000.000.001".."000.000.000.008".
        // Only canonical spellings can equal them; "0.0.0.2", "+0.0.0.3" and
        // labels are other strings, exactly as under `KeySet` intersection.
        let w = window_with_bins();
        let loose: Vec<String> = vec![
            obscor_assoc::convert::ip_key(1),
            "0.0.0.2".into(),
            "+0.0.0.3".into(),
            "000.000.000.04".into(),
        ];
        let labelled = [loose.clone(), vec!["scanner-x".into()]].concat();
        for gn in [loose, labelled] {
            let gn: KeySet = gn.into_iter().collect();
            let peak = peak_correlation(&w, &gn, 8.0, 1);
            assert_eq!(peak.points[0].n_sources, 8);
            assert_eq!(peak.points[0].fraction, 0.125, "{gn:?}");
            assert_eq!(peak.points[1].fraction, 0.0);
        }
    }

    #[test]
    fn fraction_at_looks_up_by_degree() {
        let w = window_with_bins();
        let gn = keys_of(&[1, 2]);
        let peak = peak_correlation(&w, &gn, 8.0, 1);
        assert!((peak.fraction_at(2).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(peak.fraction_at(1 << 20), None);
    }
}
