//! Integration: the top-level `stage.*` spans account for the run.
//!
//! `pipeline::run` opens one `pipeline.run` span and a sequence of
//! non-overlapping `stage.*` spans inside it. Work that falls between
//! stages is invisible in a `--metrics` dump, so this pins the attributed
//! share: the stage spans must sum to at least 95% of the whole run.
//!
//! This binary holds a single test on purpose. Span timings live in the
//! process-global registry, and the pipeline's snapshot is the delta over
//! its own run, so another test recording spans concurrently in this
//! process would inflate the stage sums.

use obscor::core::{pipeline, AnalysisConfig};
use obscor::netmodel::Scenario;

#[test]
fn stage_spans_cover_the_pipeline_run() {
    let scenario = Scenario::paper_scaled(1 << 13, 42);
    let metrics = pipeline::run(&scenario, &AnalysisConfig::default()).metrics;
    let run_ns = metrics.histograms["span.pipeline.run.ns"].sum;
    let stages: Vec<(&str, u64)> = metrics
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("span.stage.") && name.ends_with(".ns"))
        .map(|(name, h)| (name.as_str(), h.sum))
        .collect();
    let staged_ns: u64 = stages.iter().map(|(_, ns)| ns).sum();
    assert!(run_ns > 0, "pipeline.run recorded no time");
    assert!(
        staged_ns <= run_ns,
        "stage spans ({staged_ns} ns) exceed the run ({run_ns} ns)"
    );
    let coverage = staged_ns as f64 / run_ns as f64;
    assert!(
        coverage >= 0.95,
        "stage spans cover {:.1}% of pipeline.run ({staged_ns} of {run_ns} ns): {stages:?}",
        coverage * 100.0
    );
}
