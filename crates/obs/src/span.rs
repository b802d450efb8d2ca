//! RAII timing spans.
//!
//! A [`SpanTimer`] measures the wall-clock time between its creation and its
//! drop and records the duration into the registry: one observation in the
//! histogram `span.<name>.ns` and one increment of the counter
//! `span.<name>.calls_total`. This module is the single sanctioned home of
//! `Instant::now()` in the workspace — the `instant-timing` audit rule
//! rejects ad-hoc timing everywhere else so that all measurements flow
//! through the registry and show up in the metrics snapshot.

use std::time::Instant;

use crate::registry::{global, Registry};

/// Guard that records elapsed wall-clock time into a registry on drop.
///
/// ```
/// {
///     let _span = obscor_obs::span("demo.work");
///     // ... timed work ...
/// } // drop records span.demo.work.ns and span.demo.work.calls_total
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    registry: &'static Registry,
    name: String,
    started: Instant,
}

impl SpanTimer {
    /// Start timing `name` against the global registry.
    pub fn start(name: &str) -> Self {
        Self::start_in(global(), name)
    }

    /// Start timing `name` against a specific registry (tests).
    pub fn start_in(registry: &'static Registry, name: &str) -> Self {
        Self { registry, name: name.to_owned(), started: Instant::now() }
    }

    /// The span name this timer records under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let elapsed_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry.histogram(&format!("span.{}.ns", self.name)).observe(elapsed_ns);
        self.registry.counter(&format!("span.{}.calls_total", self.name)).inc();
    }
}

/// Run `f` and return its result together with the elapsed wall-clock
/// nanoseconds, without touching the registry.
///
/// This is the sanctioned stopwatch for code that needs a raw duration to
/// *keep* (e.g. the ingest bench's before/after rows) rather than to
/// report through the registry. Reporting still goes through
/// [`SpanTimer`]; `time_fn` exists so callers outside `obs` never need
/// `Instant::now()` directly, keeping the `instant-timing` audit rule
/// airtight.
pub fn time_fn<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let out = f();
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (out, elapsed_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_records_histogram_and_counter() {
        {
            let _s = SpanTimer::start("obs.test.drop_records");
        }
        {
            let _s = SpanTimer::start("obs.test.drop_records");
        }
        let snap = global().snapshot();
        assert_eq!(snap.counters["span.obs.test.drop_records.calls_total"], 2);
        let h = &snap.histograms["span.obs.test.drop_records.ns"];
        assert_eq!(h.count, 2);
    }

    #[test]
    fn name_accessor() {
        let s = SpanTimer::start("obs.test.name_accessor");
        assert_eq!(s.name(), "obs.test.name_accessor");
    }

    #[test]
    fn time_fn_returns_result_and_duration() {
        let (value, ns) = time_fn(|| (0..1000u64).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(ns > 0);
        // No registry traffic: time_fn is a raw stopwatch.
        let snap = global().snapshot();
        assert!(!snap.histograms.keys().any(|k| k.contains("time_fn")));
    }
}
