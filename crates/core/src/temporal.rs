//! Figs 5 & 6: temporal correlation curves.
//!
//! For each log2 degree bin of each telescope window, the fraction of the
//! bin's sources found in the honeyfarm's source set of every month of
//! the 15-month span — overlap as a function of the month lag `t − t0`.

use crate::degree::WindowDegrees;
use obscor_assoc::{BitSet, KeySet, MonthMatrix};
use obscor_stats::binning::bin_representative;

/// One temporal correlation curve (one window × one degree bin).
#[derive(Clone, Debug, PartialEq)]
pub struct TemporalCurve {
    /// Window label (`t0`).
    pub window_label: String,
    /// Window coordinate in months.
    pub coord: f64,
    /// Degree bin index.
    pub bin: u32,
    /// Representative degree `d_i = 2^i`.
    pub d: u64,
    /// Sources in the bin.
    pub n_sources: usize,
    /// Month indices, in grid order.
    pub months: Vec<usize>,
    /// Month lags `t − t0` (month midpoints minus window coordinate).
    pub lags: Vec<f64>,
    /// Fraction of the bin's sources in each month's honeyfarm set.
    pub fractions: Vec<f64>,
}

impl TemporalCurve {
    /// The fraction at the month closest to zero lag.
    pub fn peak_fraction(&self) -> f64 {
        let mut best = (f64::INFINITY, 0.0);
        for (&lag, &frac) in self.lags.iter().zip(&self.fractions) {
            if lag.abs() < best.0 {
                best = (lag.abs(), frac);
            }
        }
        best.1
    }
}

/// Compute the temporal curves of one window against all honeyfarm
/// months (`monthly_sources[m]` is month `m`'s row-key set).
///
/// Converts each month once ([`BitSet::from_ip_keys`]), builds one
/// [`MonthMatrix`] and runs [`temporal_curves_bits`]. Fractions equal the
/// [`KeySet`] string intersections bit for bit: a key that is not a
/// canonical [`obscor_assoc::convert::ip_key`] spelling matches no window
/// source. Callers running many windows against the same months should
/// build the matrix once and call the `_bits` variant directly — that is
/// what the pipeline does.
pub fn temporal_curves(
    window: &WindowDegrees,
    monthly_sources: &[KeySet],
    min_bin_sources: usize,
) -> Vec<TemporalCurve> {
    let months: Vec<BitSet> = monthly_sources.iter().map(BitSet::from_ip_keys).collect();
    temporal_curves_bits(window, &MonthMatrix::from_bit_sets(&months), min_bin_sources)
}

/// Compressed-bitmap form of [`temporal_curves`]: instead of one
/// pairwise intersection per month (each re-walking the bin's keys), a
/// single [`MonthMatrix::overlap_counts`] sweep visits every bin chunk
/// once and scores it against all months sharing that chunk, with
/// word-parallel popcounts on dense container pairs. Each fraction
/// divides the exact overlap count by the bin size.
pub fn temporal_curves_bits(
    window: &WindowDegrees,
    months_matrix: &MonthMatrix,
    min_bin_sources: usize,
) -> Vec<TemporalCurve> {
    let _span = obscor_obs::span("core.temporal_curves");
    let n_months = months_matrix.n_months();
    let curves: Vec<TemporalCurve> = window
        .bin_bit_sets(min_bin_sources)
        .into_iter()
        .map(|(bin, keys)| {
            let months: Vec<usize> = (0..n_months).collect();
            let lags: Vec<f64> =
                months.iter().map(|&m| (m as f64 + 0.5) - window.coord).collect();
            let n_sources = keys.len();
            let counts = months_matrix.overlap_counts(&keys);
            // Bins are non-empty by construction; the guard keeps the
            // empty-probe convention aligned with `overlap_fraction`.
            let fractions: Vec<f64> = counts
                .into_iter()
                .map(|c| if n_sources == 0 { 0.0 } else { c as f64 / n_sources as f64 })
                .collect();
            TemporalCurve {
                window_label: window.label.clone(),
                coord: window.coord,
                bin,
                d: bin_representative(bin),
                n_sources,
                months,
                lags,
                fractions,
            }
        })
        .collect();
    obscor_obs::counter("core.temporal_curves.curves_total").add(curves.len() as u64);
    curves
}

/// Select the Fig 5 curve: the first window's bin at degrees
/// `(sqrt(N_V)/2, sqrt(N_V)]` (the paper's `2^14 ≤ d < 2^15` for
/// `N_V = 2^30`), if measured.
pub fn fig5_curve<'a>(
    curves: &'a [TemporalCurve],
    first_window_label: &str,
    bright_log2: f64,
) -> Option<&'a TemporalCurve> {
    let target_bin = bright_log2.round() as u32;
    curves
        .iter()
        .find(|c| c.window_label == first_window_label && c.bin == target_bin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_assoc::convert::ip_key;

    fn window() -> WindowDegrees {
        let mut degrees: Vec<(u32, u64)> = (1..=10u32).map(|ip| (ip, 4u64)).collect();
        degrees.extend((21..=30u32).map(|ip| (ip, 256u64)));
        WindowDegrees { label: "w0".into(), coord: 4.5, month: 4, degrees }
    }

    fn months(present_per_month: &[&[u32]]) -> Vec<KeySet> {
        present_per_month
            .iter()
            .map(|ips| ips.iter().map(|&ip| ip_key(ip)).collect())
            .collect()
    }

    #[test]
    fn curves_have_one_point_per_month() {
        let w = window();
        let gn = months(&[&[1, 2], &[1], &[], &[21, 22, 23]]);
        let curves = temporal_curves(&w, &gn, 1);
        assert_eq!(curves.len(), 2); // bins 2 and 8
        for c in &curves {
            assert_eq!(c.months.len(), 4);
            assert_eq!(c.lags.len(), 4);
            assert_eq!(c.fractions.len(), 4);
        }
    }

    #[test]
    fn fractions_match_overlaps() {
        let w = window();
        let gn = months(&[&[1, 2], &[1], &[], &[21, 22, 23]]);
        let curves = temporal_curves(&w, &gn, 1);
        let dim = curves.iter().find(|c| c.bin == 2).unwrap();
        assert!((dim.fractions[0] - 0.2).abs() < 1e-12);
        assert!((dim.fractions[1] - 0.1).abs() < 1e-12);
        assert_eq!(dim.fractions[2], 0.0);
        let bright = curves.iter().find(|c| c.bin == 8).unwrap();
        assert!((bright.fractions[3] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn wrapper_equals_the_month_matrix_path() {
        let w = window();
        let gn = months(&[&[1, 2], &[1], &[], &[21, 22, 23], &[1, 21, 99]]);
        let bits: Vec<BitSet> = gn.iter().map(BitSet::from_ip_keys).collect();
        let mm = MonthMatrix::from_bit_sets(&bits);
        mm.check_invariants().unwrap();
        let via_bits = temporal_curves_bits(&w, &mm, 1);
        assert_eq!(temporal_curves(&w, &gn, 1), via_bits);
        let bright = via_bits.iter().find(|c| c.bin == 8).unwrap();
        assert!((bright.fractions[4] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn non_canonical_keys_count_as_absent() {
        // Window sources render zero-padded ("000.000.000.001"); only those
        // spellings can equal them, exactly as under `KeySet` intersection.
        let w = window();
        let padded = |ips: &[u32]| ips.iter().map(|&ip| ip_key(ip)).collect::<Vec<_>>();
        let loose = |ips: &[u32]| ips.iter().map(|ip| format!("0.0.0.{ip}")).collect::<Vec<_>>();
        let signed = |ips: &[u32]| ips.iter().map(|ip| format!("+0.0.0.{ip}")).collect::<Vec<_>>();
        let month0 = [padded(&[1]), loose(&[2, 3]), signed(&[4, 21])].concat();
        let gn: Vec<KeySet> =
            [month0, loose(&[1, 2, 3])].into_iter().map(KeySet::from_iter).collect();
        let curves = temporal_curves(&w, &gn, 1);
        let dim = curves.iter().find(|c| c.bin == 2).unwrap();
        assert_eq!(dim.fractions, vec![0.1, 0.0]);
        let bright = curves.iter().find(|c| c.bin == 8).unwrap();
        assert_eq!(bright.fractions, vec![0.0, 0.0]);
        // Labels and the empty key are absent too.
        let labelled = [padded(&[1, 2]), vec!["scanner-x".into(), String::new()]].concat();
        let curves = temporal_curves(&w, &[KeySet::from_iter(labelled)], 1);
        let dim = curves.iter().find(|c| c.bin == 2).unwrap();
        assert_eq!(dim.fractions, vec![0.2]);
    }

    #[test]
    fn lags_are_centered_on_window() {
        let w = window();
        let gn = months(&[&[], &[], &[], &[], &[], &[]]);
        let curves = temporal_curves(&w, &gn, 1);
        let lags = &curves[0].lags;
        // Month 4 midpoint = 4.5 = window coord -> lag 0.
        assert!((lags[4] - 0.0).abs() < 1e-12);
        assert!((lags[0] + 4.0).abs() < 1e-12);
        assert!((lags[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_fraction_is_at_zero_lag() {
        let w = window();
        let gn = months(&[&[], &[], &[], &[], &[1, 2, 3, 4, 5], &[]]);
        let curves = temporal_curves(&w, &gn, 1);
        let dim = curves.iter().find(|c| c.bin == 2).unwrap();
        assert!((dim.peak_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fig5_selection_picks_the_bright_knee_bin() {
        let w = window();
        let gn = months(&[&[]]);
        let curves = temporal_curves(&w, &gn, 1);
        // bright_log2 = 8 -> bin 8 (degrees 129..=256).
        let c = fig5_curve(&curves, "w0", 8.0).unwrap();
        assert_eq!(c.bin, 8);
        assert!(fig5_curve(&curves, "nope", 8.0).is_none());
        assert!(fig5_curve(&curves, "w0", 3.0).is_none());
    }
}
