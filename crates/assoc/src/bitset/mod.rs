//! Compressed bitmap substrate for correlation sets.
//!
//! A [`BitSet`] is a roaring-style hybrid set over `u32` keys: the key
//! space is cut into 2^16-key chunks addressed by the high 16 bits, and
//! each non-empty chunk stores its low-16 residues in whichever of three
//! container forms is cheapest for its density (sorted array, packed
//! 1024-word bitmap, or run intervals — see [`container`]). On dense
//! chunks, intersection and overlap counting become word-parallel
//! `AND` + popcount over `u64` words; on sparse chunks they stay a
//! sorted-array merge/gallop, so the hybrid never loses to either pure
//! form. This is the only set-overlap engine the correlation stages use;
//! D4M key sets enter it through [`BitSet::from_ip_keys`].
//!
//! [`MonthMatrix`] (in [`matrix`]) layers a month×source membership
//! matrix on the same containers so the temporal-curve analysis counts a
//! bin's overlap with **all** months in one sweep over the bin's chunks.
//!
//! # Determinism
//!
//! Every count is an exact integer no matter which container forms meet;
//! [`BitSet::overlap_fraction`] divides the same two integers as
//! [`KeySet::overlap_fraction`] on the canonical `ip_key` spellings, so the
//! resulting `f64` is bit-identical to the string set algebra. The
//! differential suites in `crates/assoc/tests/` (against `BTreeSet<u32>`)
//! and `crates/core` (against `KeySet`) pin this.
//!
//! # Metrics (opt-in)
//!
//! Gated behind [`enable_bitset_metrics`] so the pinned default metrics
//! schema never changes (same contract as `telescope.ingest.*`):
//! `assoc.bitset.containers_{array,bitmap,runs}_total`,
//! `assoc.bitset.{promotions,demotions}_total`, and
//! `assoc.bitset.words_scanned_total`, all pinned by
//! `tests/metrics_optin.rs`.

mod container;
mod matrix;

pub use matrix::MonthMatrix;

use crate::convert::parse_ip_key;
use crate::keys::KeySet;
use container::Container;
use std::sync::atomic::{AtomicBool, Ordering};

static BITSET_METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Opt in to `assoc.bitset.*` metrics emission for this process.
///
/// Off by default so the pinned default metrics schema never changes.
pub fn enable_bitset_metrics() {
    BITSET_METRICS_ENABLED.store(true, Ordering::Relaxed); // ordering: set-once enable flag; callers tolerate a stale false
}

/// Whether [`enable_bitset_metrics`] has been called.
pub fn bitset_metrics_enabled() -> bool {
    BITSET_METRICS_ENABLED.load(Ordering::Relaxed) // ordering: enable-flag read; staleness only delays metric emission
}

/// Internal metric sinks, no-ops until [`enable_bitset_metrics`].
pub(crate) mod metrics {
    /// Physical container form, for the per-kind construction counters.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Kind {
        Array,
        Bitmap,
        Runs,
    }

    pub(crate) fn container_built(kind: Kind) {
        if super::bitset_metrics_enabled() {
            let name = match kind {
                Kind::Array => "assoc.bitset.containers_array_total",
                Kind::Bitmap => "assoc.bitset.containers_bitmap_total",
                Kind::Runs => "assoc.bitset.containers_runs_total",
            };
            obscor_obs::counter(name).inc();
        }
    }

    pub(crate) fn promotion() {
        if super::bitset_metrics_enabled() {
            obscor_obs::counter("assoc.bitset.promotions_total").inc();
        }
    }

    pub(crate) fn demotion() {
        if super::bitset_metrics_enabled() {
            obscor_obs::counter("assoc.bitset.demotions_total").inc();
        }
    }

    pub(crate) fn words_scanned(n: u64) {
        if super::bitset_metrics_enabled() {
            obscor_obs::counter("assoc.bitset.words_scanned_total").add(n);
        }
    }
}

/// Split a key into its (chunk, residue) halves.
#[inline]
fn split(key: u32) -> (u16, u16) {
    ((key >> 16) as u16, (key & 0xFFFF) as u16)
}

/// Rejoin a (chunk, residue) pair into the full key.
#[inline]
fn join(hi: u16, lo: u16) -> u32 {
    (u32::from(hi) << 16) | u32::from(lo)
}

/// A roaring-style compressed set of `u32` keys.
///
/// Semantically a sorted set of unique `u32`s — same keys, same counts,
/// same overlap fractions bit-for-bit as a sorted vector — but with
/// density-adaptive physical containers that make dense-set intersection
/// word-parallel.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    /// Non-empty chunks in strictly increasing `hi` order.
    chunks: Vec<(u16, Container)>,
}

impl BitSet {
    /// The empty set.
    pub fn new() -> Self {
        Self { chunks: Vec::new() }
    }

    /// Build from any iterator of keys; sorts and deduplicates.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut keys: Vec<u32> = iter.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Self::from_sorted_unique(&keys)
    }

    /// Build from keys known to be sorted and unique (checked in debug).
    pub fn from_sorted_unique(keys: &[u32]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        let mut lows: Vec<u16> = Vec::new();
        let mut i = 0usize;
        while i < keys.len() {
            let (hi, _) = split(keys[i]);
            lows.clear();
            while i < keys.len() {
                let (h, lo) = split(keys[i]);
                if h != hi {
                    break;
                }
                lows.push(lo);
                i += 1;
            }
            let mut c = Container::from_sorted(&lows);
            c.optimize();
            chunks.push((hi, c));
        }
        Self { chunks }
    }

    /// The addresses whose canonical [`crate::convert::ip_key`] spelling
    /// is in `keys` — the one place a D4M key set becomes an address set.
    ///
    /// Any other key (a non-padded dotted quad, a label) can never equal
    /// a window's source key, so skipping it is exact: overlap counts
    /// against the result equal the [`KeySet`] string intersections.
    /// Canonical keys are zero-padded, so they arrive in numeric order
    /// and need no sort.
    pub fn from_ip_keys(keys: &KeySet) -> Self {
        let ips: Vec<u32> = keys.iter().filter_map(parse_ip_key).collect();
        Self::from_sorted_unique(&ips)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.card()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, key: u32) -> bool {
        let (hi, lo) = split(key);
        match self.chunks.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(i) => self.chunks[i].1.contains(lo),
            Err(_) => false,
        }
    }

    /// Insert a key; returns whether it was new. Containers promote
    /// array → bitmap across [`container::ARRAY_MAX`] with hysteresis.
    pub fn insert(&mut self, key: u32) -> bool {
        let (hi, lo) = split(key);
        match self.chunks.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(i) => self.chunks[i].1.insert(lo),
            Err(i) => {
                self.chunks.insert(i, (hi, Container::from_sorted(&[lo])));
                true
            }
        }
    }

    /// Remove a key; returns whether it was present. Dense containers
    /// demote back to arrays below [`container::BITMAP_MIN`].
    pub fn remove(&mut self, key: u32) -> bool {
        let (hi, lo) = split(key);
        match self.chunks.binary_search_by_key(&hi, |&(h, _)| h) {
            Ok(i) => {
                let removed = self.chunks[i].1.remove(lo);
                if removed && self.chunks[i].1.card() == 0 {
                    self.chunks.remove(i);
                }
                removed
            }
            Err(_) => false,
        }
    }

    /// Re-pick the cheapest container form for every chunk (discovers run
    /// structure the mutation path never creates).
    pub fn optimize(&mut self) {
        for (_, c) in &mut self.chunks {
            c.optimize();
        }
    }

    /// Iterate over keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|(hi, c)| {
            let hi = *hi;
            c.to_vec().into_iter().map(move |lo| join(hi, lo))
        })
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// correlation hot path. Chunks merge-join on the high half; matched
    /// chunks count word-parallel (bitmap forms) or by merge/interval
    /// arithmetic (sparse forms).
    pub fn overlap_count(&self, other: &BitSet) -> usize {
        let (mut i, mut j) = (0, 0);
        let mut count = 0usize;
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].0.cmp(&other.chunks[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += self.chunks[i].1.overlap_count(&other.chunks[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &BitSet) -> BitSet {
        let (mut i, mut j) = (0, 0);
        let mut chunks = Vec::new();
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].0.cmp(&other.chunks[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(c) = self.chunks[i].1.intersect(&other.chunks[j].1) {
                        chunks.push((self.chunks[i].0, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        BitSet { chunks }
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let (mut i, mut j) = (0, 0);
        let mut chunks = Vec::new();
        loop {
            match (self.chunks.get(i), other.chunks.get(j)) {
                (Some((ha, ca)), Some((hb, cb))) => match ha.cmp(hb) {
                    std::cmp::Ordering::Less => {
                        chunks.push((*ha, ca.clone()));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        chunks.push((*hb, cb.clone()));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        chunks.push((*ha, ca.union(cb)));
                        i += 1;
                        j += 1;
                    }
                },
                (Some((ha, ca)), None) => {
                    chunks.push((*ha, ca.clone()));
                    i += 1;
                }
                (None, Some((hb, cb))) => {
                    chunks.push((*hb, cb.clone()));
                    j += 1;
                }
                (None, None) => break,
            }
        }
        BitSet { chunks }
    }

    /// Number of keys strictly below `key` — the positional index a
    /// sorted vector would give, without the vector.
    pub fn rank(&self, key: u32) -> usize {
        let (hi, lo) = split(key);
        let mut count = 0usize;
        for (h, c) in &self.chunks {
            match h.cmp(&hi) {
                std::cmp::Ordering::Less => count += c.card(),
                std::cmp::Ordering::Equal => {
                    count += c.rank(lo);
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        count
    }

    /// The `i`-th smallest key (0-based), if `i < len`.
    pub fn select(&self, i: usize) -> Option<u32> {
        let mut remaining = i;
        for (hi, c) in &self.chunks {
            let card = c.card();
            if remaining < card {
                return c.select(remaining).map(|lo| join(*hi, lo));
            }
            remaining -= card;
        }
        None
    }

    /// The fraction of `self`'s keys also present in `other` — the
    /// paper's correlation measure. `None` for an empty `self`.
    /// Bit-identical to [`KeySet::overlap_fraction`] on the canonical key
    /// spellings: same two integer operands, same single `f64` division.
    pub fn overlap_fraction(&self, other: &BitSet) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.overlap_count(other) as f64 / self.len() as f64)
    }

    /// Container census `(arrays, bitmaps, runs)` — used by benches and
    /// the metrics tests to confirm density-driven form selection.
    pub fn container_census(&self) -> (usize, usize, usize) {
        let mut census = (0usize, 0usize, 0usize);
        for (_, c) in &self.chunks {
            match c.kind() {
                metrics::Kind::Array => census.0 += 1,
                metrics::Kind::Bitmap => census.1 += 1,
                metrics::Kind::Runs => census.2 += 1,
            }
        }
        census
    }

    /// Internal consistency check: chunk keys strictly increasing, no
    /// empty chunks, and every container upholding its form invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.chunks.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("chunks not strictly increasing at {} >= {}", w[0].0, w[1].0));
            }
        }
        for (hi, c) in &self.chunks {
            if c.card() == 0 {
                return Err(format!("empty container retained for chunk {hi}"));
            }
            c.check_invariants().map_err(|e| format!("chunk {hi}: {e}"))?;
        }
        Ok(())
    }

    /// Chunk view for [`MonthMatrix`] construction and probes.
    pub(crate) fn chunks(&self) -> &[(u16, Container)] {
        &self.chunks
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        BitSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests;
