//! Differential properties: `BitSet ≡ BTreeSet<u32>`.
//!
//! Every public operation of the compressed bitmap substrate is compared
//! against a plain `BTreeSet<u32>` reference over random density regimes
//! and the adversarial shapes that sit on the container representation
//! boundaries (empty, singleton, dense runs, full chunks, the
//! array→bitmap promotion edge). Fractions must match *bit for bit*, not
//! approximately: both sides divide the same two integers.
//!
//! Replay seeds live in `proptest-regressions/bitset_differential.txt`.

use obscor_assoc::convert::ip_key;
use obscor_assoc::{BitSet, KeySet, MonthMatrix};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

/// One random set in a density regime chosen by `shape`, as sorted
/// unique keys. The regimes deliberately include every container form
/// and both sides of the promotion threshold (`ARRAY_MAX` = 4096).
fn gen_keys(rng: &mut StdRng, shape: u32) -> Vec<u32> {
    let mut keys: Vec<u32> = match shape % 8 {
        // Empty and singleton sets.
        0 => Vec::new(),
        1 => vec![rng.random_range(0u32..1 << 24)],
        // One dense run, possibly crossing a chunk boundary.
        2 => {
            let start = rng.random_range(0u32..100_000);
            let len = rng.random_range(1u32..30_000);
            (start..start + len).collect()
        }
        // A full 2^16 chunk.
        3 => {
            let base = rng.random_range(0u32..4) << 16;
            (base..base + 65_536).collect()
        }
        // The promotion boundary: 4095..=4097 distinct keys in one chunk.
        4 => {
            let target = 4095 + rng.random_range(0u32..3);
            let mut v: Vec<u32> = (0..target * 2).step_by(2).collect();
            v.truncate(target as usize);
            v
        }
        // Sparse scatter across many chunks.
        5 => (0..rng.random_range(1u32..2000))
            .map(|_| rng.random_range(0u32..1 << 28))
            .collect(),
        // Dense scatter confined to one chunk (bitmap container).
        6 => {
            let base = rng.random_range(0u32..8) << 16;
            (0..rng.random_range(4200u32..20_000))
                .map(|_| base + rng.random_range(0u32..65_536))
                .collect()
        }
        // Mixture: run + scatter, so chunks of different kinds coexist.
        _ => {
            let mut v: Vec<u32> = (200_000..210_000).collect();
            v.extend((0..500).map(|_| rng.random_range(0u32..1 << 26)));
            v
        }
    };
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// A key list as the bitmap under test and the `BTreeSet` reference.
fn pair(keys: &[u32]) -> (BitSet, BTreeSet<u32>) {
    (BitSet::from_sorted_unique(keys), keys.iter().copied().collect())
}

/// The reference overlap fraction: `|a ∩ b| / |a|`, `None` for empty `a`.
fn fraction(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> Option<f64> {
    (!a.is_empty()).then(|| a.intersection(b).count() as f64 / a.len() as f64)
}

proptest! {
    /// Overlap count, overlap fraction (bit-identical `f64`), intersect,
    /// and union agree with the reference across random density pairings.
    #[test]
    fn random_density_sets_agree_with_oracles(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape_a = rng.random_range(0u32..8);
        let shape_b = rng.random_range(0u32..8);
        let (ba, ra) = pair(&gen_keys(&mut rng, shape_a));
        let (bb, rb) = pair(&gen_keys(&mut rng, shape_b));
        ba.check_invariants().unwrap();
        bb.check_invariants().unwrap();
        prop_assert_eq!(ba.len(), ra.len());
        prop_assert_eq!(ba.overlap_count(&bb), ra.intersection(&rb).count());
        // Fractions bit-identical to the reference division.
        prop_assert_eq!(ba.overlap_fraction(&bb), fraction(&ra, &rb));
        // Materialized set algebra.
        let isect = ba.intersect(&bb);
        isect.check_invariants().unwrap();
        prop_assert!(isect.iter().eq(ra.intersection(&rb).copied()));
        let un = ba.union(&bb);
        un.check_invariants().unwrap();
        prop_assert!(un.iter().eq(ra.union(&rb).copied()));
        // Inclusion-exclusion ties all four numbers together.
        prop_assert_eq!(un.len() + isect.len(), ba.len() + bb.len());
    }

    /// Round trips through the key list and the canonical string domain
    /// are lossless.
    #[test]
    fn round_trips_are_lossless(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.random_range(0u32..8);
        let (bits, reference) = pair(&gen_keys(&mut rng, shape));
        prop_assert!(bits.iter().eq(reference.iter().copied()));
        let keys: Vec<u32> = bits.iter().collect();
        prop_assert!(BitSet::from_sorted_unique(&keys).iter().eq(bits.iter()));
        let strings: KeySet = keys.iter().map(|&k| ip_key(k)).collect();
        let via_strings = BitSet::from_ip_keys(&strings);
        via_strings.check_invariants().unwrap();
        prop_assert!(via_strings.iter().eq(bits.iter()));
        // from_iter over shuffled duplicates builds the same set.
        let mut noisy: Vec<u32> = bits.iter().collect();
        noisy.extend(bits.iter().take(10));
        let rebuilt = BitSet::from_iter(noisy);
        rebuilt.check_invariants().unwrap();
        prop_assert!(rebuilt.iter().eq(bits.iter()));
    }

    /// Random insert/remove streams match a `BTreeSet` model, with
    /// invariants (including promotion/demotion hysteresis bounds)
    /// holding at every checkpoint.
    #[test]
    fn mutation_stream_matches_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = BitSet::new();
        let mut model = BTreeSet::new();
        // Concentrate keys in two chunks so containers actually cross the
        // promotion/demotion thresholds during the stream.
        for step in 0..rng.random_range(500u32..6000) {
            let key = (rng.random_range(0u32..2) << 16) + rng.random_range(0u32..9000);
            if rng.random_range(0u32..3) == 0 {
                prop_assert_eq!(bits.remove(key), model.remove(&key));
            } else {
                prop_assert_eq!(bits.insert(key), model.insert(key));
            }
            if step % 512 == 0 {
                bits.check_invariants().unwrap();
            }
        }
        bits.check_invariants().unwrap();
        prop_assert_eq!(bits.len(), model.len());
        let keys: Vec<u32> = bits.iter().collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(keys, expect);
        // contains agrees on hits and misses.
        for _ in 0..100 {
            let probe = (rng.random_range(0u32..2) << 16) + rng.random_range(0u32..9000);
            prop_assert_eq!(bits.contains(probe), model.contains(&probe));
        }
        // optimize() may change physical form but never contents.
        bits.optimize();
        bits.check_invariants().unwrap();
        prop_assert_eq!(bits.len(), model.len());
    }

    /// `rank`/`select` agree with positional indexing of the sorted vector.
    #[test]
    fn rank_select_match_sorted_vector(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.random_range(0u32..8);
        let keys = gen_keys(&mut rng, shape);
        let bits = BitSet::from_sorted_unique(&keys);
        // Every 37th member plus random probes (members or not).
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            prop_assert_eq!(bits.rank(k), i);
            prop_assert_eq!(bits.select(i), Some(k));
        }
        prop_assert_eq!(bits.select(keys.len()), None);
        for _ in 0..50 {
            let probe = rng.random_range(0u32..1 << 28);
            prop_assert_eq!(bits.rank(probe), keys.partition_point(|&k| k < probe));
        }
    }

    /// The month-matrix one-sweep overlap equals the pairwise overlaps
    /// for every month, across random month populations and probes.
    #[test]
    fn month_matrix_sweep_matches_pairwise(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_months = rng.random_range(1u32..16) as usize;
        let months: Vec<(BitSet, BTreeSet<u32>)> = (0..n_months)
            .map(|_| {
                let shape = rng.random_range(0u32..8);
                pair(&gen_keys(&mut rng, shape))
            })
            .collect();
        let sets: Vec<BitSet> = months.iter().map(|(b, _)| b.clone()).collect();
        let mm = MonthMatrix::from_bit_sets(&sets);
        mm.check_invariants().unwrap();
        prop_assert_eq!(mm.n_months(), n_months);
        for (m, (_, month)) in months.iter().enumerate() {
            prop_assert_eq!(mm.month_len(m), month.len());
        }
        for _ in 0..3 {
            let shape = rng.random_range(0u32..8);
            let (probe, reference) = pair(&gen_keys(&mut rng, shape));
            let counts = mm.overlap_counts(&probe);
            for (m, (_, month)) in months.iter().enumerate() {
                prop_assert_eq!(counts[m], reference.intersection(month).count());
            }
        }
    }
}
