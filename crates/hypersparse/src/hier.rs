//! Hierarchical hypersparse accumulation, in memory or under a memory
//! budget.
//!
//! The paper's traffic matrices are built by hierarchically summing small
//! matrices: the telescope archives leaf matrices of `N_V = 2^17` contiguous
//! packets; a `2^30`-packet study window is the sum of `2^13` leaves. The
//! same architecture (Kepner et al., "75,000,000,000 streaming
//! inserts/second using hierarchical hypersparse GraphBLAS matrices",
//! IPDPS-W 2020) is what makes streaming construction fast: instead of one
//! gigantic sort at the end, packets are compacted in cache-sized leaves and
//! merged pairwise like a binary counter, so every merge is between two
//! matrices of comparable size.
//!
//! [`HierarchicalAccumulator`] is that binary counter, and the only window
//! fold: batch, streaming and out-of-core builds all run it. Built with
//! [`HierarchicalAccumulator::with_leaf_capacity`] it keeps every carry part
//! resident. Built with [`HierarchicalAccumulator::spilling`] it also owns a
//! [`SpillStore`]: whenever placing or reloading a part would push the
//! tracked live bytes over the budget, the coldest (least recently touched)
//! resident part is *evicted* to the store as a CRC-checked codec-v2 frame,
//! and *reloaded* when the carry chain or the final reduction needs it.
//!
//! # Accounting model
//!
//! "Live bytes" counts the length-based heap footprint
//! ([`Csr::heap_bytes`]) of every resident carry part **plus** the part
//! currently in flight through the carry chain, and a merge pre-charges
//! its output before releasing its inputs — so the tracked peak covers the
//! two inputs and the output of every pairwise merge. The partial-leaf COO
//! buffer (bounded by `leaf_capacity`) and transient codec buffers are
//! outside the budget; DESIGN.md §16 documents the boundary.
//!
//! # Determinism and degradation
//!
//! `ewise_add` is associative and commutative and CSR is a canonical form,
//! so eviction/reload schedules cannot change the final matrix: a spilling
//! fold is bit-identical to an in-memory one and to [`accumulate_flat`] for
//! any budget (`tests/ooc_differential.rs`). A spill frame that fails to
//! decode after bounded retry is **quarantined** — its contiguous leaf
//! interval and packet count go into the [`SpillReport`] and the fold
//! continues with the surviving parts — so the result is either exact or
//! explicitly coverage-qualified, never silently wrong.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::ops::ewise_add;
use crate::spill::{QuarantinedPart, SpillHandle, SpillMedium, SpillReport, SpillStore};
use crate::value::Value;
use crate::Index;
use std::sync::Arc;

/// Default leaf size, matching the paper's archived `2^17`-packet matrices.
pub const DEFAULT_LEAF_CAPACITY: usize = 1 << 17;

/// Streaming matrix builder that compacts input in leaves of
/// `leaf_capacity` triples and merges leaves pairwise (binary-counter
/// carry), yielding the same matrix as compacting everything at once.
/// With a spill store it keeps the carry parts within a live-byte budget;
/// see the module docs for the accounting and determinism contracts.
pub struct HierarchicalAccumulator<V: Value> {
    leaf_capacity: usize,
    buffer: Coo<V>,
    /// `levels[k]` holds the carry part covering `2^k` leaves, if any.
    levels: Vec<Option<Part<V>>>,
    /// Where evicted parts go; `None` for an in-memory fold, which never
    /// evicts.
    store: Option<SpillStore>,
    budget: Option<u64>,
    clock: u64,
    live_bytes: u64,
    stats: AccumulatorStats,
    quarantined: Vec<QuarantinedPart>,
}

/// Lifetime counters of a [`HierarchicalAccumulator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccumulatorStats {
    /// Triples pushed in total.
    pub pushed: u64,
    /// Leaves compacted (or accepted pre-compacted).
    pub leaves: u64,
    /// Pairwise merges performed by the binary-counter carry chain.
    pub carry_merges: u64,
    /// Pairwise merges performed by the finalize reduction.
    pub tree_merges: u64,
    /// Resident parts written out to the spill store.
    pub evictions: u64,
    /// Spilled parts read back for a merge.
    pub reloads: u64,
    /// Times the tracked live bytes exceeded the budget with nothing left
    /// to evict (infeasibly small budget); the fold continues and stays
    /// bit-identical, but the budget promise is void for that window.
    pub budget_overruns: u64,
    /// High-water mark of the tracked live bytes.
    pub peak_live_bytes: u64,
}

impl AccumulatorStats {
    /// Total pairwise merges. Closed form with no quarantined parts:
    /// `leaves - popcount(leaves)` carry merges mid-stream, and after
    /// finalize the reduction brings the total to `leaves - 1` — *any*
    /// pairwise merge tree over `L` parts performs exactly `L - 1` merges
    /// (each merge destroys one part).
    pub fn merges(&self) -> u64 {
        self.carry_merges + self.tree_merges
    }
}

/// A carry part: its leaf interval, packet count, and residency state.
struct Part<V: Value> {
    first_leaf: u64,
    n_leaves: u64,
    packets: u64,
    state: PartState<V>,
}

enum PartState<V: Value> {
    /// In memory, charged against the budget; `touch` is the LRU clock.
    Resident { csr: Csr<V>, bytes: u64, touch: u64 },
    /// Offloaded; `est_bytes` is the heap size it had when evicted.
    Spilled { handle: SpillHandle, est_bytes: u64 },
}

impl<V: Value> Part<V> {
    fn size_est(&self) -> u64 {
        match &self.state {
            PartState::Resident { bytes, .. } => *bytes,
            PartState::Spilled { est_bytes, .. } => *est_bytes,
        }
    }
}

/// A loaded part ready to merge.
struct Loaded<V: Value> {
    csr: Csr<V>,
    bytes: u64,
    first_leaf: u64,
    n_leaves: u64,
    packets: u64,
}

/// `floor(log2(n))` for `n >= 1` (`0` for `n == 0`), used to label merge
/// spans and quarantined parts by carry level.
fn floor_log2(n: u64) -> usize {
    usize::try_from(u64::BITS - 1 - n.max(1).leading_zeros()).unwrap_or(63)
}

impl<V: Value> std::fmt::Debug for HierarchicalAccumulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalAccumulator")
            .field("leaf_capacity", &self.leaf_capacity)
            .field("store", &self.store)
            .field("budget", &self.budget)
            .field("live_bytes", &self.live_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<V: Value> HierarchicalAccumulator<V> {
    /// Create an in-memory accumulator with the paper's default leaf size.
    pub fn new() -> Self {
        Self::with_leaf_capacity(DEFAULT_LEAF_CAPACITY)
    }

    /// Create an in-memory accumulator compacting every `leaf_capacity`
    /// triples. It has no spill store and never evicts.
    ///
    /// # Panics
    /// Panics if `leaf_capacity == 0`.
    pub fn with_leaf_capacity(leaf_capacity: usize) -> Self {
        Self::build(leaf_capacity, None, None)
    }

    /// Create an accumulator that evicts carry parts to `medium` whenever
    /// the tracked live bytes would exceed `budget` (`None`: unbounded
    /// until [`set_budget`](Self::set_budget) imposes one).
    ///
    /// # Panics
    /// Panics if `leaf_capacity == 0`.
    pub fn spilling(
        leaf_capacity: usize,
        budget: Option<u64>,
        medium: Arc<dyn SpillMedium>,
    ) -> Self {
        Self::build(leaf_capacity, budget, Some(SpillStore::new(medium)))
    }

    fn build(leaf_capacity: usize, budget: Option<u64>, store: Option<SpillStore>) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        Self {
            leaf_capacity,
            buffer: Coo::with_capacity(leaf_capacity),
            levels: Vec::new(),
            store,
            budget,
            clock: 0,
            live_bytes: 0,
            stats: AccumulatorStats::default(),
            quarantined: Vec::new(),
        }
    }

    /// Append one triple, carrying if the leaf fills.
    #[inline]
    pub fn push(&mut self, row: Index, col: Index, val: V) {
        self.buffer.push(row, col, val);
        self.stats.pushed += 1;
        if self.buffer.len() >= self.leaf_capacity {
            self.flush_leaf();
        }
    }

    /// Append one unit-valued triple (a single packet).
    #[inline]
    pub fn push_edge(&mut self, row: Index, col: Index) {
        self.push(row, col, V::one());
    }

    /// Compact the current partial leaf and carry it up the level chain.
    pub fn flush_leaf(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let _span = obscor_obs::span("hypersparse.leaf_compact");
        let packets = self.buffer.len() as u64;
        obscor_obs::histogram("hypersparse.leaf_compact.triples").observe(packets);
        let leaf = std::mem::replace(&mut self.buffer, Coo::with_capacity(self.leaf_capacity));
        self.carry_in(leaf.into_csr(), packets);
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(msg) = self.check_invariants() {
                // audit:allow(panic-path) — strict-invariants mode aborts on broken invariants by contract
                panic!("accumulator invalid after leaf flush: {msg}");
            }
        }
    }

    /// Insert a pre-compacted CSR leaf directly into the binary carry chain.
    ///
    /// This is the streaming-ingest entry point (`telescope::stream`): worker
    /// threads compact their own leaves through the radix kernel, and the
    /// window collector folds them — in deterministic sequence order — into
    /// one accumulator without round-tripping back through triples. Any
    /// buffered partial leaf is flushed first so it keeps its place ahead of
    /// the incoming leaf in the merge order. Empty leaves are ignored.
    ///
    /// Counting convention: the leaf's stored entries are added to
    /// `stats.pushed` (the original pre-dedup triple count is gone after
    /// compaction), and the leaf itself increments `stats.leaves`, so the
    /// binary-counter law `carry_merges == leaves - popcount(leaves)` keeps
    /// holding.
    pub fn push_csr_leaf(&mut self, leaf: Csr<V>) {
        if leaf.is_empty() {
            return;
        }
        self.flush_leaf();
        let packets = leaf.nnz() as u64;
        self.stats.pushed += packets;
        self.carry_in(leaf, packets);
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(msg) = self.check_invariants() {
                // audit:allow(panic-path) — strict-invariants mode aborts on broken invariants by contract
                panic!("accumulator invalid after csr leaf push: {msg}");
            }
        }
    }

    /// Replace the memory budget mid-stream (the random-budget-schedule
    /// property tests drive this) and enforce it immediately.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
        self.make_room(0);
    }

    /// The current memory budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> AccumulatorStats {
        self.stats
    }

    /// Total triples pushed (buffered plus compacted).
    pub fn len_pushed(&self) -> u64 {
        self.stats.pushed
    }

    /// Tracked live bytes right now.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Triples currently buffered in the partial leaf (not yet compacted).
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Internal consistency check: positive leaf capacity, a partial leaf
    /// strictly below capacity, a consistent COO buffer, every resident
    /// carry part internally valid with current byte accounting, live
    /// bytes equal to the resident sum, and counters within the
    /// binary-counter law. Used by tests and the `strict-invariants` push
    /// checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.leaf_capacity == 0 {
            return Err("leaf_capacity is zero".into());
        }
        if self.buffer.len() >= self.leaf_capacity {
            return Err("partial leaf at or above capacity (missed flush)".into());
        }
        self.buffer.check_invariants().map_err(|e| format!("buffer: {e}"))?;
        let mut resident = 0u64;
        for (k, slot) in self.levels.iter().enumerate() {
            let Some(part) = slot else { continue };
            if part.n_leaves == 0 {
                return Err(format!("level {k}: part covers zero leaves"));
            }
            if let PartState::Resident { csr, bytes, .. } = &part.state {
                csr.check_invariants().map_err(|e| format!("level {k}: {e}"))?;
                if *bytes != csr.heap_bytes() {
                    return Err(format!("level {k}: stale byte accounting"));
                }
                resident += bytes;
            }
        }
        if resident != self.live_bytes {
            return Err(format!(
                "live bytes {} disagree with resident sum {resident}",
                self.live_bytes
            ));
        }
        if self.stats.leaves > self.stats.pushed {
            return Err("more leaves than pushed triples".into());
        }
        if self.stats.carry_merges >= self.stats.leaves.max(1) {
            return Err("more carry merges than a binary carry chain allows".into());
        }
        Ok(())
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn charge(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        if self.live_bytes > self.stats.peak_live_bytes {
            self.stats.peak_live_bytes = self.live_bytes;
        }
    }

    fn release(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Make room for `bytes` *before* charging them. Counting the overrun
    /// here (rather than after the fact) keeps the tracked peak within the
    /// budget whenever the budget is feasible at all.
    fn reserve(&mut self, bytes: u64) {
        self.make_room(bytes);
        self.charge(bytes);
    }

    /// Evict coldest-first until `extra` more bytes fit the budget; count
    /// an overrun if nothing evictable remains.
    fn make_room(&mut self, extra: u64) {
        let Some(budget) = self.budget else { return };
        while self.live_bytes.saturating_add(extra) > budget {
            match self.coldest_resident() {
                Some(k) if self.evict_level(k) => {}
                _ => {
                    self.stats.budget_overruns += 1;
                    break;
                }
            }
        }
    }

    /// Index of the least-recently-touched resident level, if any.
    fn coldest_resident(&self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (k, slot) in self.levels.iter().enumerate() {
            if let Some(Part { state: PartState::Resident { touch, .. }, .. }) = slot {
                if best.is_none_or(|(t, _)| *touch < t) {
                    best = Some((*touch, k));
                }
            }
        }
        best.map(|(_, k)| k)
    }

    /// Spill the resident part at level `k`; `false` if it stayed resident.
    fn evict_level(&mut self, k: usize) -> bool {
        let Some(part) = self.levels[k].take() else { return false };
        let (part, evicted) = self.evict(part);
        self.levels[k] = Some(part);
        evicted
    }

    /// Write a resident part to the store, releasing its bytes. The part
    /// comes back unchanged (and `false`) when there is no store, it is
    /// already spilled, or the medium refuses the write — the budget is
    /// then best-effort rather than the data lost.
    fn evict(&mut self, mut part: Part<V>) -> (Part<V>, bool) {
        let (Some(store), PartState::Resident { csr, bytes, .. }) = (&self.store, &part.state)
        else {
            return (part, false);
        };
        let bytes = *bytes;
        let Ok(handle) = store.store_csr(csr) else { return (part, false) };
        self.stats.evictions += 1;
        obscor_obs::counter("hypersparse.spill.evictions_total").inc();
        self.release(bytes);
        part.state = PartState::Spilled { handle, est_bytes: bytes };
        (part, true)
    }

    /// Bring a part into memory (charging its bytes) or quarantine it.
    fn load_part(&mut self, part: Part<V>) -> Result<Loaded<V>, QuarantinedPart> {
        let Part { first_leaf, n_leaves, packets, state } = part;
        let handle = match state {
            PartState::Resident { csr, bytes, .. } => {
                return Ok(Loaded { csr, bytes, first_leaf, n_leaves, packets })
            }
            PartState::Spilled { handle, .. } => handle,
        };
        // A spilled part implies a store; a missing one reads as a lost
        // frame rather than a panic.
        let fetched = match &self.store {
            Some(store) => {
                let fetched = store.fetch_csr::<V>(&handle);
                store.discard(&handle);
                fetched
            }
            None => Err(crate::spill::SpillFault::Missing),
        };
        match fetched {
            Ok(csr) => {
                self.stats.reloads += 1;
                obscor_obs::counter("hypersparse.spill.reloads_total").inc();
                let bytes = csr.heap_bytes();
                self.reserve(bytes);
                Ok(Loaded { csr, bytes, first_leaf, n_leaves, packets })
            }
            Err(fault) => Err(QuarantinedPart {
                level: floor_log2(n_leaves),
                first_leaf,
                n_leaves,
                packets,
                error: fault.to_string(),
            }),
        }
    }

    /// One pairwise merge; a spilling fold times it under its per-level
    /// span.
    fn merge(&self, level: usize, a: &Csr<V>, b: &Csr<V>) -> Csr<V> {
        let _span = self
            .store
            .as_ref()
            .map(|_| obscor_obs::span(&format!("hypersparse.spill.merge.level{level}")));
        ewise_add(a, b)
    }

    /// Place a resident carry part at level `k` and enforce the budget.
    fn place(&mut self, k: usize, csr: Csr<V>, bytes: u64, meta: (u64, u64, u64)) {
        self.levels[k] = Some(self.resident(csr, bytes, meta));
        self.make_room(0);
    }

    /// Number one compacted leaf and carry it up the level chain, merging
    /// binary-counter style: level `k` holds the sum of `2^k` leaves, a
    /// collision merges and propagates upward, evicting and reloading
    /// around the budget.
    fn carry_in(&mut self, leaf: Csr<V>, packets: u64) {
        let mut meta = (self.stats.leaves, 1u64, packets);
        self.stats.leaves += 1;
        let mut carry = leaf;
        let mut carry_bytes = carry.heap_bytes();
        self.reserve(carry_bytes);
        let mut k = 0usize;
        loop {
            if k == self.levels.len() {
                self.levels.push(None);
            }
            let Some(existing) = self.levels[k].take() else {
                return self.place(k, carry, carry_bytes, meta);
            };
            let loaded = match self.load_part(existing) {
                Ok(loaded) => loaded,
                Err(q) => {
                    // The stored sibling is unrecoverable: quarantine it and
                    // let the carry take the slot — degraded coverage,
                    // never a wrong matrix.
                    self.quarantined.push(q);
                    return self.place(k, carry, carry_bytes, meta);
                }
            };
            let merged = self.merge(k, &loaded.csr, &carry);
            let merged_bytes = merged.heap_bytes();
            // Reserve the output before the inputs release so the tracked
            // peak covers the merge working set (the inputs are out of the
            // level table, so the reservation can only evict colder levels).
            self.reserve(merged_bytes);
            self.release(loaded.bytes + carry_bytes);
            carry = merged;
            carry_bytes = merged_bytes;
            // The existing part covers leaves before the carry's. The merged
            // part is labelled with the full span up to the carry's end: a
            // quarantine may have punched a hole between the two, and a span
            // keeps later quarantine reports a superset of the true loss
            // (holes are already reported by their own quarantine entries).
            meta =
                (loaded.first_leaf, (meta.0 + meta.1) - loaded.first_leaf, loaded.packets + meta.2);
            self.stats.carry_merges += 1;
            obscor_obs::counter("hypersparse.accumulator.carry_merges_total").inc();
            k += 1;
        }
    }

    /// Finish: flush the partial leaf and fold all levels into one matrix.
    ///
    /// Surfaces the lifetime counters into the global metrics registry
    /// (`hypersparse.accumulator.{pushed,leaves,merges}_total`, where
    /// `merges_total` counts carry merges only; the reduction's merges are
    /// counted by `hypersparse.merge_all.pair_merges_total`).
    pub fn finalize(self) -> Csr<V> {
        self.finalize_with_report().0
    }

    /// [`finalize`](Self::finalize), also returning the coverage report and
    /// the lifetime stats *including* the reduction's merges.
    ///
    /// When twice the parts' size fits the budget (always, without a
    /// store) the reduction is the rayon pairwise tree
    /// ([`crate::ops::merge_all`]); otherwise an adjacent-pair tree runs
    /// sequentially, loading pairs and re-spilling intermediates so the
    /// tracked live bytes stay budgeted. Both shapes perform exactly
    /// `parts - 1` merges and yield the identical matrix, so the
    /// post-finalize closed form is `stats.merges() == leaves - 1` (for
    /// `leaves >= 1` and no quarantined part).
    pub fn finalize_with_report(mut self) -> (Csr<V>, SpillReport) {
        let _span = obscor_obs::span("hypersparse.accumulator.finalize");
        self.flush_leaf();
        obscor_obs::counter("hypersparse.accumulator.pushed_total").add(self.stats.pushed);
        obscor_obs::counter("hypersparse.accumulator.leaves_total").add(self.stats.leaves);
        obscor_obs::counter("hypersparse.accumulator.merges_total").add(self.stats.carry_merges);
        let mut work: Vec<Part<V>> = self.levels.drain(..).flatten().collect();
        // Adjacent parts in leaf order cover contiguous spans; merging
        // neighbours keeps every intermediate's span contiguous, so
        // quarantine reports stay span-exact even for intermediates.
        work.sort_by_key(|p| p.first_leaf);
        let total_est: u64 = work.iter().map(Part::size_est).sum();
        // merge_all's transient working set is bounded by twice the input
        // total (outputs of a round never exceed its inputs).
        let fits =
            self.store.is_none() || self.budget.is_none_or(|b| total_est.saturating_mul(2) <= b);
        let matrix = if fits { self.reduce_in_memory(work) } else { self.reduce_budgeted(work) };
        let lost: u64 = self.quarantined.iter().map(|q| q.packets).sum();
        let report = SpillReport {
            packets_expected: self.stats.pushed,
            packets_restored: self.stats.pushed.saturating_sub(lost),
            quarantined: std::mem::take(&mut self.quarantined),
            stats: self.stats,
        };
        (matrix, report)
    }

    /// Everything fits: load all parts and hand them to the rayon tree.
    fn reduce_in_memory(&mut self, work: Vec<Part<V>>) -> Csr<V> {
        let mut parts: Vec<Csr<V>> = Vec::with_capacity(work.len());
        let mut loaded_bytes = 0u64;
        for part in work {
            match self.load_part(part) {
                Ok(loaded) => {
                    loaded_bytes += loaded.bytes;
                    parts.push(loaded.csr);
                }
                Err(q) => self.quarantined.push(q),
            }
        }
        self.stats.tree_merges += (parts.len() as u64).saturating_sub(1);
        let matrix = crate::ops::merge_all(parts);
        self.release(loaded_bytes);
        self.reserve(matrix.heap_bytes());
        matrix
    }

    /// Budget-aware sequential pairwise tree: rounds of adjacent-pair
    /// merges, spilling each round's outputs so the live set stays one
    /// pair plus its output.
    fn reduce_budgeted(&mut self, mut work: Vec<Part<V>>) -> Csr<V> {
        // Park every input on the medium first: within a round the live
        // set is then exactly one pair plus its output, so the peak stays
        // at the merge working set instead of a whole round's residue.
        work = work.into_iter().map(|p| self.evict(p).0).collect();
        while work.len() > 1 {
            let mut next: Vec<Part<V>> = Vec::with_capacity(work.len() / 2 + 1);
            let mut pending: Option<Part<V>> = None;
            for part in work {
                let Some(a) = pending.take() else {
                    pending = Some(part);
                    continue;
                };
                let a = match self.load_part(a) {
                    Ok(l) => l,
                    Err(q) => {
                        self.quarantined.push(q);
                        pending = Some(part);
                        continue;
                    }
                };
                let b = match self.load_part(part) {
                    Ok(l) => l,
                    Err(q) => {
                        self.quarantined.push(q);
                        // `a` survives: re-wrap it, park it, keep pairing.
                        let a =
                            self.resident(a.csr, a.bytes, (a.first_leaf, a.n_leaves, a.packets));
                        pending = Some(self.evict(a).0);
                        continue;
                    }
                };
                let merged = self.merge(floor_log2(a.n_leaves.max(b.n_leaves)), &a.csr, &b.csr);
                let merged_bytes = merged.heap_bytes();
                self.reserve(merged_bytes);
                self.release(a.bytes + b.bytes);
                self.stats.tree_merges += 1;
                // Span, not sum: quarantined holes between the pair are
                // already reported by their own entries.
                let meta = (
                    a.first_leaf,
                    (b.first_leaf + b.n_leaves) - a.first_leaf,
                    a.packets + b.packets,
                );
                let out = self.resident(merged, merged_bytes, meta);
                // The output is not needed again until the next round:
                // park it so the next pair starts from an empty live set.
                next.push(self.evict(out).0);
            }
            // An odd tail rejoins the reduction next round, untouched.
            next.extend(pending.take());
            work = next;
        }
        match work.pop() {
            Some(last) => match self.load_part(last) {
                Ok(loaded) => loaded.csr,
                Err(q) => {
                    self.quarantined.push(q);
                    Csr::empty()
                }
            },
            None => Csr::empty(),
        }
    }

    /// Wrap an already-charged matrix as a resident [`Part`].
    fn resident(&mut self, csr: Csr<V>, bytes: u64, meta: (u64, u64, u64)) -> Part<V> {
        let touch = self.tick();
        Part {
            first_leaf: meta.0,
            n_leaves: meta.1,
            packets: meta.2,
            state: PartState::Resident { csr, bytes, touch },
        }
    }
}

impl<V: Value> Default for HierarchicalAccumulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Extend<(Index, Index, V)> for HierarchicalAccumulator<V> {
    fn extend<I: IntoIterator<Item = (Index, Index, V)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

/// Flat accumulation baseline: buffer everything, sort once. Used by the
/// `hypersparse_insert` ablation bench and by correctness tests as the
/// reference implementation.
pub fn accumulate_flat<V: Value, I: IntoIterator<Item = (Index, Index, V)>>(iter: I) -> Csr<V> {
    Coo::from_triples(iter).into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::MemMedium;

    fn triples(n: usize) -> Vec<(Index, Index, u64)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 33) % 512) as Index, ((state >> 10) % 512) as Index, 1u64)
            })
            .collect()
    }

    /// Budgets of a spilling fold, from "never evicts" through "evicts
    /// every carry".
    const BUDGETS: [Option<u64>; 3] = [None, Some(0), Some(1 << 16)];

    /// Number of fold modes: in memory, then spilling under each of
    /// [`BUDGETS`].
    const MODES: usize = 1 + BUDGETS.len();

    /// Fold mode `i` (`0` is in memory, `1..` spill to a [`MemMedium`]
    /// under `BUDGETS[i - 1]`), with its name for assertion messages.
    fn mode(i: usize, leaf_capacity: usize) -> (String, HierarchicalAccumulator<u64>) {
        match i.checked_sub(1) {
            None => {
                ("in-memory".to_string(), HierarchicalAccumulator::with_leaf_capacity(leaf_capacity))
            }
            Some(b) => {
                let budget = BUDGETS[b];
                let medium = Arc::new(MemMedium::new());
                let acc = HierarchicalAccumulator::spilling(leaf_capacity, budget, medium);
                (format!("spilling {budget:?}"), acc)
            }
        }
    }

    /// The same fold in every mode. Every law below must hold in each.
    fn modes(leaf_capacity: usize) -> Vec<(String, HierarchicalAccumulator<u64>)> {
        (0..MODES).map(|i| mode(i, leaf_capacity)).collect()
    }

    /// Push counts for the closed-form laws in mode `i`: every count below
    /// 200 in memory; the spilling modes, slow in debug builds, take every
    /// count up to 70, then the edges of a power of two and an odd tail.
    fn push_counts(i: usize) -> Vec<usize> {
        if i == 0 {
            (0..200).collect()
        } else {
            (0..70).chain([127, 128, 129, 199]).collect()
        }
    }

    #[test]
    fn every_mode_equals_flat() {
        let t = triples(10_000);
        let flat = accumulate_flat(t.clone());
        for (mode, mut acc) in modes(256) {
            acc.extend(t.iter().copied());
            acc.check_invariants().unwrap();
            let (m, report) = acc.finalize_with_report();
            assert_eq!(m, flat, "{mode}");
            assert!(report.is_exact(), "{mode}: {report:?}");
            report.check_invariants().unwrap();
        }
    }

    #[test]
    fn exact_multiple_of_leaf_capacity() {
        let t = triples(1024);
        for (mode, mut acc) in modes(256) {
            acc.extend(t.iter().copied());
            assert_eq!(acc.stats().leaves, 4, "{mode}");
            assert_eq!(acc.finalize(), accumulate_flat(t.clone()), "{mode}");
        }
    }

    #[test]
    fn stats_obey_binary_counter_law_for_every_push_count() {
        // Property: after pushing n triples into leaves of capacity c,
        //   pushed == leaves * c + buffered_len()   (conservation), and
        //   carry_merges == leaves - popcount(leaves) (binary-counter
        // carries: every full leaf enters the counter and each pairwise
        // merge destroys exactly one entry, leaving one per set bit).
        for c in [1usize, 2, 3, 7, 16] {
            for i in 0..MODES {
                for n in push_counts(i) {
                    let (mode, mut acc) = mode(i, c);
                    acc.extend(triples(n));
                    let s = acc.stats();
                    assert_eq!(s.pushed, n as u64, "pushed ({mode}, c={c}, n={n})");
                    assert_eq!(s.leaves, (n / c) as u64, "leaves ({mode}, c={c}, n={n})");
                    assert_eq!(
                        s.pushed,
                        s.leaves * c as u64 + acc.buffered_len() as u64,
                        "conservation ({mode}, c={c}, n={n})"
                    );
                    assert_eq!(
                        s.carry_merges,
                        s.leaves - u64::from(s.leaves.count_ones()),
                        "carry count ({mode}, c={c}, n={n})"
                    );
                    assert_eq!(s.tree_merges, 0, "no reduction before finalize ({mode})");
                }
            }
        }
    }

    #[test]
    fn finalize_restores_the_leaves_minus_one_closed_form() {
        // The carry law above stops short of the finalize reduction. After
        // finalize, ANY pairwise merge tree over L leaves has performed
        // exactly L - 1 merges: (leaves - popcount) carries plus
        // (popcount - 1) reduction merges, whichever reduction shape the
        // budget picked.
        for c in [1usize, 2, 3, 7, 16] {
            for i in 0..MODES {
                for n in push_counts(i) {
                    let (mode, mut acc) = mode(i, c);
                    acc.extend(triples(n));
                    let mid = acc.stats();
                    let (m, report) = acc.finalize_with_report();
                    let s = report.stats;
                    // finalize flushes the partial leaf, so leaves = ceil(n/c).
                    assert_eq!(s.leaves, n.div_ceil(c) as u64, "leaves ({mode}, c={c}, n={n})");
                    assert_eq!(s.pushed, n as u64);
                    assert_eq!(
                        s.merges(),
                        s.leaves.saturating_sub(1),
                        "post-finalize closed form ({mode}, c={c}, n={n})"
                    );
                    assert!(s.carry_merges >= mid.carry_merges, "finalize never forgets carries");
                    assert_eq!(m, accumulate_flat(triples(n)), "matrix ({mode}, c={c}, n={n})");
                }
            }
        }
    }

    #[test]
    fn carry_chain_of_64_leaves_does_63_merges() {
        // 64 = 2^6 leaves: the counter ends as one part at level 6, so
        // every leaf but one was merged away mid-stream.
        for (mode, mut acc) in modes(16) {
            acc.extend(triples(16 * 64));
            let stats = acc.stats();
            assert_eq!(stats.leaves, 64, "{mode}");
            assert_eq!(stats.carry_merges, 63, "{mode}");
            let (_, report) = acc.finalize_with_report();
            assert_eq!(report.stats.tree_merges, 0, "one part needs no reduction ({mode})");
        }
    }

    #[test]
    fn empty_accumulator_finalizes_empty() {
        for (mode, acc) in modes(DEFAULT_LEAF_CAPACITY) {
            acc.check_invariants().unwrap();
            let (m, report) = acc.finalize_with_report();
            assert!(m.is_empty(), "{mode}");
            assert!(report.is_exact(), "{mode}");
            assert_eq!(report.packets_expected, 0);
            assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
        }
        assert!(HierarchicalAccumulator::<u64>::new().finalize().is_empty());
    }

    #[test]
    fn single_partial_leaf() {
        let mut acc = HierarchicalAccumulator::with_leaf_capacity(1000);
        acc.push(1, 2, 3u64);
        acc.push(1, 2, 4u64);
        let m = acc.finalize();
        assert_eq!(m.get(1, 2), Some(7));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn stats_pushed_counts_everything() {
        let mut acc = HierarchicalAccumulator::<u64>::with_leaf_capacity(8);
        for i in 0..100 {
            acc.push_edge(i % 10, i % 7);
        }
        assert_eq!(acc.len_pushed(), 100);
        assert_eq!(crate::reduce::valid_packets(&acc.finalize()), 100);
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn zero_leaf_capacity_panics() {
        let _ = HierarchicalAccumulator::<u64>::with_leaf_capacity(0);
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn zero_leaf_capacity_panics_when_spilling() {
        let _ = HierarchicalAccumulator::<u64>::spilling(0, None, Arc::new(MemMedium::new()));
    }

    #[test]
    fn csr_leaves_equal_triple_pushes() {
        // Pushing pre-compacted CSR leaves reproduces the matrix built from
        // the underlying triples, for every partition of the input.
        let t = triples(4_000);
        let flat = accumulate_flat(t.clone());
        for chunk in [1usize, 37, 256, 4_000] {
            for (mode, mut acc) in modes(64) {
                for part in t.chunks(chunk) {
                    acc.push_csr_leaf(Coo::from_triples(part.iter().copied()).into_csr());
                }
                let (m, report) = acc.finalize_with_report();
                assert_eq!(m, flat, "{mode}, chunk = {chunk}");
                assert!(report.is_exact());
            }
        }
    }

    #[test]
    fn csr_leaves_interleave_with_triples() {
        // A buffered partial leaf is flushed ahead of an incoming CSR leaf,
        // so mixing the two entry points still conserves every triple.
        let t = triples(1_000);
        for (mode, mut acc) in modes(128) {
            acc.extend(t[..300].iter().copied());
            acc.push_csr_leaf(Coo::from_triples(t[300..700].iter().copied()).into_csr());
            acc.extend(t[700..].iter().copied());
            assert_eq!(acc.finalize(), accumulate_flat(t.clone()), "{mode}");
        }
    }

    #[test]
    fn csr_leaf_stats_obey_binary_counter_law() {
        let t = triples(2_048);
        let leaves: Vec<Csr<u64>> =
            t.chunks(128).map(|part| Coo::from_triples(part.iter().copied()).into_csr()).collect();
        // A CSR leaf counts its stored entries, not its pre-dedup triples.
        let stored: u64 = leaves.iter().map(|l| l.nnz() as u64).sum();
        for (mode, mut acc) in modes(64) {
            for leaf in &leaves {
                acc.push_csr_leaf(leaf.clone());
            }
            let s = acc.stats();
            assert_eq!(s.leaves, 16, "{mode}");
            assert_eq!(s.pushed, stored, "{mode}");
            assert_eq!(s.carry_merges, s.leaves - u64::from(s.leaves.count_ones()), "{mode}");
            acc.check_invariants().unwrap();
        }
    }

    #[test]
    fn empty_csr_leaf_is_ignored() {
        for (mode, mut acc) in modes(8) {
            acc.push_csr_leaf(Csr::empty());
            assert_eq!(acc.stats().leaves, 0, "{mode}");
            assert!(acc.finalize().is_empty(), "{mode}");
        }
    }

    #[test]
    fn only_a_budget_evicts() {
        let t = triples(10_000);
        let mut in_memory = HierarchicalAccumulator::with_leaf_capacity(128);
        let mut unbounded =
            HierarchicalAccumulator::spilling(128, None, Arc::new(MemMedium::new()));
        let mut starved =
            HierarchicalAccumulator::spilling(128, Some(0), Arc::new(MemMedium::new()));
        for &(r, c, v) in &t {
            in_memory.push(r, c, v);
            unbounded.push(r, c, v);
            starved.push(r, c, v);
        }
        for acc in [in_memory, unbounded] {
            let (_, report) = acc.finalize_with_report();
            assert_eq!((report.stats.evictions, report.stats.reloads), (0, 0));
        }
        let (m, report) = starved.finalize_with_report();
        assert_eq!(m, accumulate_flat(t));
        assert!(report.stats.evictions > 0, "{:?}", report.stats);
        assert!(report.stats.reloads > 0, "{:?}", report.stats);
    }

    #[test]
    fn mid_stream_budget_changes_preserve_identity() {
        let t = triples(5_000);
        let mut acc = HierarchicalAccumulator::spilling(64, None, Arc::new(MemMedium::new()));
        for (i, &(r, c, v)) in t.iter().enumerate() {
            acc.push(r, c, v);
            match i {
                1_000 => acc.set_budget(Some(0)),
                2_500 => acc.set_budget(Some(1 << 14)),
                4_000 => acc.set_budget(None),
                _ => {}
            }
        }
        assert_eq!(acc.budget(), None);
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, accumulate_flat(t));
        assert!(report.is_exact());
        assert!(report.stats.evictions > 0);
    }

    #[test]
    fn feasible_budget_bounds_tracked_peak() {
        let t = triples(20_000);
        let budget = 1 << 20; // 1 MiB: ample for 512-key leaves, forces order
        let mut acc =
            HierarchicalAccumulator::spilling(512, Some(budget), Arc::new(MemMedium::new()));
        acc.extend(t.iter().copied());
        assert!(acc.live_bytes() <= budget);
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, accumulate_flat(t));
        assert_eq!(report.stats.budget_overruns, 0, "{:?}", report.stats);
        assert!(report.stats.peak_live_bytes <= budget, "{:?}", report.stats);
    }

    #[test]
    fn floor_log2_matches_ilog2() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(1 << 13), 13);
        assert_eq!(floor_log2(u64::MAX), 63);
    }
}
