//! Sorted string key sets with set algebra.
//!
//! Row/column axes of an associative array, and the D4M form of the
//! paper's correlation primitive: the intersection of a telescope window's
//! source set with a honeyfarm month's source set. The correlation stages
//! compute that intersection on [`crate::BitSet`]s instead; IP-keyed sets
//! cross over through [`crate::BitSet::from_ip_keys`].

use serde::{Deserialize, Serialize};

/// A sorted, deduplicated set of string keys supporting binary-search
/// lookup and linear-merge set algebra.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySet {
    keys: Vec<String>,
}

impl KeySet {
    /// The empty key set.
    pub fn new() -> Self {
        Self { keys: Vec::new() }
    }

    /// Build from any iterator of keys; sorts and deduplicates.
    ///
    /// Also reachable through the `FromIterator` impls below; the inherent
    /// name stays because it reads better at call sites that build sets
    /// explicitly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut keys: Vec<String> = iter.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Build from keys known to be sorted and unique (checked in debug).
    pub fn from_sorted_unique(keys: Vec<String>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        Self { keys }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys as a slice.
    pub fn as_slice(&self) -> &[String] {
        &self.keys
    }

    /// Positional index of `key`, if present.
    pub fn index_of(&self, key: &str) -> Option<usize> {
        self.keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
    }

    /// Membership test.
    pub fn contains(&self, key: &str) -> bool {
        self.index_of(key).is_some()
    }

    /// Key at position `i`.
    pub fn key(&self, i: usize) -> &str {
        &self.keys[i]
    }

    /// Iterate over keys in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.keys.iter().map(|s| s.as_str())
    }

    /// Set intersection by linear merge: `O(|a| + |b|)`.
    pub fn intersect(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.keys[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        KeySet { keys: out }
    }

    /// Set union by linear merge.
    pub fn union(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        loop {
            match (self.keys.get(i), other.keys.get(j)) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    std::cmp::Ordering::Less => {
                        out.push(a.clone());
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(b.clone());
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(a.clone());
                        i += 1;
                        j += 1;
                    }
                },
                (Some(a), None) => {
                    out.push(a.clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    out.push(b.clone());
                    j += 1;
                }
                // Both sides exhausted: the merge is complete.
                (None, None) => break,
            }
        }
        KeySet { keys: out }
    }

    /// Set difference `self \ other` by linear merge.
    pub fn minus(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() {
            if j >= other.keys.len() {
                out.extend(self.keys[i..].iter().cloned());
                break;
            }
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.keys[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        KeySet { keys: out }
    }

    /// The fraction of `self`'s keys also present in `other` — the paper's
    /// correlation measure. Returns `None` for an empty `self`.
    pub fn overlap_fraction(&self, other: &KeySet) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.intersect(other).len() as f64 / self.len() as f64)
    }

    /// Internal consistency check: keys must be strictly increasing (sorted
    /// and unique). Used by tests and the pipeline's `strict-invariants`
    /// stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("keys not strictly increasing at `{}` >= `{}`", w[0], w[1]));
            }
        }
        Ok(())
    }

    /// Keys with the given prefix (contiguous range via binary search).
    pub fn with_prefix(&self, prefix: &str) -> KeySet {
        let start = self.keys.partition_point(|k| k.as_str() < prefix);
        let mut end = start;
        while end < self.keys.len() && self.keys[end].starts_with(prefix) {
            end += 1;
        }
        KeySet { keys: self.keys[start..end].to_vec() }
    }
}

impl FromIterator<String> for KeySet {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        KeySet::from_iter(iter)
    }
}

impl<'a> FromIterator<&'a str> for KeySet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        KeySet::from_iter(iter.into_iter().map(String::from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(items: &[&str]) -> KeySet {
        items.iter().copied().collect()
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let k = ks(&["b", "a", "b", "c", "a"]);
        assert_eq!(k.as_slice(), &["a", "b", "c"]);
    }

    #[test]
    fn lookup_and_contains() {
        let k = ks(&["alpha", "beta", "gamma"]);
        assert_eq!(k.index_of("beta"), Some(1));
        assert!(k.contains("gamma"));
        assert!(!k.contains("delta"));
        assert_eq!(k.key(0), "alpha");
    }

    #[test]
    fn intersect_union_minus() {
        let a = ks(&["a", "b", "c", "d"]);
        let b = ks(&["b", "d", "e"]);
        assert_eq!(a.intersect(&b).as_slice(), &["b", "d"]);
        assert_eq!(a.union(&b).as_slice(), &["a", "b", "c", "d", "e"]);
        assert_eq!(a.minus(&b).as_slice(), &["a", "c"]);
        assert_eq!(b.minus(&a).as_slice(), &["e"]);
    }

    #[test]
    fn empty_set_algebra() {
        let a = ks(&["x"]);
        let e = KeySet::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.minus(&e), a);
        assert_eq!(e.minus(&a), e);
    }

    #[test]
    fn overlap_fraction_basics() {
        let a = ks(&["a", "b", "c", "d"]);
        let b = ks(&["b", "d", "e"]);
        assert_eq!(a.overlap_fraction(&b), Some(0.5));
        assert_eq!(KeySet::new().overlap_fraction(&a), None);
        assert_eq!(a.overlap_fraction(&KeySet::new()), Some(0.0));
    }

    #[test]
    fn prefix_selection() {
        let k = ks(&["10.0.0.1", "10.0.0.2", "10.1.0.1", "192.168.0.1"]);
        assert_eq!(k.with_prefix("10.0.").len(), 2);
        assert_eq!(k.with_prefix("10.").len(), 3);
        assert_eq!(k.with_prefix("172.").len(), 0);
        assert_eq!(k.with_prefix("").len(), 4);
    }

    #[test]
    fn prefix_at_boundaries() {
        let k = ks(&["aa", "ab", "b"]);
        assert_eq!(k.with_prefix("a").as_slice(), &["aa", "ab"]);
        assert_eq!(k.with_prefix("b").as_slice(), &["b"]);
    }
}
