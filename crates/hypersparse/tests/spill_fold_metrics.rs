//! A spilling fold runs the same push path as an in-memory one, so it
//! records the leaf-compaction span and the accumulator counters too.
//!
//! One test, alone in its binary, so the registry delta is exactly this
//! fold's.

use obscor_hypersparse::spill::MemMedium;
use obscor_hypersparse::HierarchicalAccumulator;
use std::sync::Arc;

#[test]
fn spilled_fold_records_leaf_compaction_and_accumulator_counters() {
    let before = obscor_obs::snapshot();
    // 30 triples in leaves of 4: seven full leaves and one partial leaf
    // flushed by finalize, every carry evicted under the zero budget.
    let mut acc = HierarchicalAccumulator::<u64>::spilling(4, Some(0), Arc::new(MemMedium::new()));
    for i in 0..30u32 {
        acc.push_edge(i % 8, i % 3);
    }
    let (m, report) = acc.finalize_with_report();
    let d = obscor_obs::snapshot().delta_since(&before);
    assert!(report.is_exact() && report.stats.evictions > 0, "{report:?}");
    assert_eq!(obscor_hypersparse::reduce::valid_packets(&m), 30);
    assert_eq!(d.counters["span.hypersparse.leaf_compact.calls_total"], 8);
    assert_eq!(d.histograms["span.hypersparse.leaf_compact.ns"].count, 8);
    assert_eq!(d.histograms["hypersparse.leaf_compact.triples"].count, 8);
    assert_eq!(d.histograms["hypersparse.leaf_compact.triples"].sum, 30);
    assert_eq!(d.counters["hypersparse.accumulator.pushed_total"], 30);
    assert_eq!(d.counters["hypersparse.accumulator.leaves_total"], 8);
    assert_eq!(d.counters["hypersparse.accumulator.merges_total"], report.stats.carry_merges);
    assert_eq!(d.counters["hypersparse.accumulator.carry_merges_total"], 7);
}
