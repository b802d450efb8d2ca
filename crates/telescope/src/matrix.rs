//! Traffic-matrix construction from captured windows.
//!
//! The paper's pipeline: packets → CryptoPAN anonymization → hierarchical
//! hypersparse GraphBLAS matrices (`2^13` leaves of `2^17` packets for a
//! `2^30` window). The same architecture is used here with the leaf count
//! held at `2^13` by default so leaf size scales with `N_V`.

use crate::capture::TelescopeWindow;
use obscor_anonymize::{CryptoPan, MemoCryptoPan};
use obscor_hypersparse::{Csr, DirMedium, HierarchicalAccumulator, SpillReport};
use std::path::Path;
use std::sync::Arc;

/// The paper's leaf count: a window is the hierarchical sum of `2^13`
/// leaf matrices.
pub const PAPER_LEAF_COUNT: usize = 1 << 13;

/// Triples per leaf for a window of `packets` packets: the paper's
/// [`PAPER_LEAF_COUNT`] leaves per window, but never fewer than 1024
/// triples per leaf.
pub fn leaf_capacity(packets: usize) -> usize {
    (packets / PAPER_LEAF_COUNT).max(1024)
}

/// The window fold every build runs, batch or streaming: `feed` pushes the
/// window into the accumulator, which is then finalized. Without a
/// `budget` the fold is in memory. With one it spills carry parts to a
/// fresh directory under `spill_dir` (the system temp dir when `None`); if
/// that directory cannot be created the fold stays in memory — the matrix
/// is bit-identical either way, only the footprint differs. The
/// [`SpillReport`] is `Some` only when the fold had a spill store.
pub(crate) fn window_fold(
    leaf_capacity: usize,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
    feed: impl FnOnce(&mut HierarchicalAccumulator<u64>),
) -> (Csr<u64>, Option<SpillReport>) {
    let base = || spill_dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
    match budget.and_then(|_| DirMedium::create_in(&base()).ok()) {
        Some(medium) => {
            let mut acc = HierarchicalAccumulator::spilling(leaf_capacity, budget, Arc::new(medium));
            feed(&mut acc);
            let (matrix, report) = acc.finalize_with_report();
            (matrix, Some(report))
        }
        None => {
            let mut acc = HierarchicalAccumulator::with_leaf_capacity(leaf_capacity);
            feed(&mut acc);
            (acc.finalize(), None)
        }
    }
}

/// Build the window's traffic matrix with raw (non-anonymized) indices.
pub fn build_matrix(w: &TelescopeWindow) -> Csr<u64> {
    build_matrix_with(w, |ip| ip)
}

/// Build the window's traffic matrix with CryptoPAN-anonymized indices —
/// what the archive actually stores. Kept as the differential oracle for
/// [`build_anonymized_matrix_memo`], the ingest fast path.
pub fn build_anonymized_matrix(w: &TelescopeWindow, cp: &CryptoPan) -> Csr<u64> {
    build_matrix_with(w, |ip| cp.anonymize(ip))
}

/// Build the window's anonymized traffic matrix through the memoized
/// CryptoPAN (prefix-table + 16 AES calls per address). Bit-identical to
/// [`build_anonymized_matrix`] under the same key.
pub fn build_anonymized_matrix_memo(w: &TelescopeWindow, cp: &MemoCryptoPan) -> Csr<u64> {
    build_matrix_with(w, |ip| cp.anonymize(ip))
}

/// Build with an arbitrary index transform, using hierarchical
/// accumulation with the paper's leaf count.
pub fn build_matrix_with(w: &TelescopeWindow, map: impl Fn(u32) -> u32) -> Csr<u64> {
    fold_packets(w, map, None, None).0
}

/// Build the window's traffic matrix under a live-byte `budget`: carry
/// parts spill to a fresh directory under `spill_dir` whenever tracked live
/// bytes exceed it. Bit-identical to [`build_matrix`]; the [`SpillReport`]
/// (eviction/reload traffic and any quarantined spill frames) is `Some`
/// only when the fold had a spill store.
pub fn build_matrix_spilled(
    w: &TelescopeWindow,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
) -> (Csr<u64>, Option<SpillReport>) {
    fold_packets(w, |ip| ip, budget, spill_dir)
}

/// The one push loop behind every window build.
fn fold_packets(
    w: &TelescopeWindow,
    map: impl Fn(u32) -> u32,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
) -> (Csr<u64>, Option<SpillReport>) {
    let _span = obscor_obs::span("telescope.build_matrix");
    let leaf = leaf_capacity(w.window.packets.len());
    obscor_obs::gauge("telescope.build_matrix.leaf_capacity").set_max(leaf as u64);
    window_fold(leaf, budget, spill_dir, |acc| {
        for p in &w.window.packets {
            acc.push_edge(map(p.src.0), map(p.dst.0));
        }
        obscor_obs::counter("telescope.build_matrix.edges_total").add(acc.len_pushed());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_window;
    use obscor_hypersparse::reduce;
    use obscor_netmodel::Scenario;

    fn window() -> TelescopeWindow {
        let s = Scenario::paper_scaled(1 << 14, 5);
        capture_window(&s, &s.caida_windows[0])
    }

    #[test]
    fn matrix_conserves_packets() {
        let w = window();
        let m = build_matrix(&w);
        assert_eq!(reduce::valid_packets(&m), w.packets() as u64);
    }

    #[test]
    fn matrix_sources_match_window_sources() {
        let w = window();
        let m = build_matrix(&w);
        assert_eq!(reduce::unique_sources(&m) as usize, w.unique_sources());
    }

    #[test]
    fn only_external_to_internal_quadrant_is_populated() {
        // Fig 1: a darkspace has data only in the upper-left quadrant:
        // every row (source) is external, every column (dest) internal.
        let w = window();
        let m = build_matrix(&w);
        for &src in m.row_keys() {
            assert_ne!((src >> 24) as u8, 44, "internal source in darkspace matrix");
        }
        for &dst in m.col_indices() {
            assert_eq!((dst >> 24) as u8, 44, "external destination in darkspace matrix");
        }
    }

    #[test]
    fn anonymized_matrix_preserves_all_quantities() {
        let w = window();
        let raw = build_matrix(&w);
        let cp = CryptoPan::new(&[3u8; 32]);
        let anon = build_anonymized_matrix(&w, &cp);
        assert_eq!(
            reduce::NetworkQuantities::compute(&raw),
            reduce::NetworkQuantities::compute(&anon)
        );
        // But the index sets differ.
        assert_ne!(raw.row_keys(), anon.row_keys());
    }

    #[test]
    fn memoized_anonymized_matrix_is_bit_identical() {
        let w = window();
        let key = [0x5Au8; 32];
        let uncached = build_anonymized_matrix(&w, &CryptoPan::new(&key));
        let memoized = build_anonymized_matrix_memo(&w, &MemoCryptoPan::new(&key));
        assert_eq!(uncached, memoized);
    }

    #[test]
    fn spilled_matrix_is_bit_identical_under_any_budget() {
        let w = window();
        let oracle = build_matrix(&w);
        let (m, report) = build_matrix_spilled(&w, None, None);
        assert_eq!(m, oracle);
        assert!(report.is_none(), "no budget, no store, no report");
        for budget in [0, 1 << 20] {
            let (m, report) = build_matrix_spilled(&w, Some(budget), None);
            assert_eq!(m, oracle, "budget {budget}");
            let report = report.expect("a budgeted fold reports");
            assert!(report.is_exact(), "budget {budget}: {report:?}");
        }
        // A zero budget cannot hold anything resident: every carry evicts.
        let (_, tight) = build_matrix_spilled(&w, Some(0), None);
        let tight = tight.expect("a budgeted fold reports");
        assert!(tight.stats.evictions > 0);
        assert!(tight.stats.reloads > 0);
    }

    #[test]
    fn unusable_spill_dir_degrades_to_the_in_memory_fold() {
        let w = window();
        let file = std::env::temp_dir().join(format!("obscor-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let (m, report) = build_matrix_spilled(&w, Some(0), Some(&file));
        std::fs::remove_file(&file).unwrap();
        assert_eq!(m, build_matrix(&w));
        assert!(report.is_none());
    }

    #[test]
    fn leaf_capacity_follows_the_paper_leaf_count_with_a_floor() {
        assert_eq!(leaf_capacity(0), 1024);
        assert_eq!(leaf_capacity(1 << 20), 1024);
        assert_eq!(leaf_capacity(1 << 24), 1 << 11);
        assert_eq!(leaf_capacity(1 << 30), 1 << 17);
    }

    #[test]
    fn anonymized_sources_deanonymize_back() {
        let w = window();
        let cp = CryptoPan::new(&[9u8; 32]);
        let raw = build_matrix(&w);
        let anon = build_anonymized_matrix(&w, &cp);
        let mut recovered: Vec<u32> =
            anon.row_keys().iter().map(|&r| cp.deanonymize(r)).collect();
        recovered.sort_unstable();
        assert_eq!(recovered, raw.row_keys());
    }
}
