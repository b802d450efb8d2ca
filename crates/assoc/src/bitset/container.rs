//! Roaring-style containers over one 2^16-key chunk.
//!
//! Every [`Container`] holds the low 16 bits of the keys that share one
//! high-16-bit chunk, in whichever of three physical forms is cheapest
//! for its density:
//!
//! * **Array** — sorted unique `Vec<u16>`, 2 bytes/key; the sparse form.
//! * **Bitmap** — 1024 packed `u64` words (8 KiB flat) with a cached
//!   cardinality; the dense form, where intersection and overlap counting
//!   are word-parallel `AND` + popcount.
//! * **Runs** — sorted, non-adjacent inclusive `(start, end)` intervals,
//!   4 bytes/run; the form for contiguous slabs (full chunks, scanned
//!   prefixes).
//!
//! Mutations move between the forms with *hysteresis*: an array promotes
//! to a bitmap only above [`ARRAY_MAX`] keys, a bitmap demotes to an
//! array only below [`BITMAP_MIN`] — the gap means a workload oscillating
//! across the boundary does not thrash representations. `optimize()`
//! additionally discovers run structure the mutation path never creates.
//!
//! Every operation returns exact integer counts regardless of physical
//! form — representation is a performance choice, never a semantic one —
//! which is the determinism argument DESIGN.md §17 spells out.

use super::metrics;

/// Words in one chunk bitmap: 2^16 bits / 64.
pub(crate) const CHUNK_WORDS: usize = 1 << 10;
/// An array container promotes to a bitmap when it grows *above* this.
pub(crate) const ARRAY_MAX: usize = 4096;
/// A bitmap container demotes to an array when it shrinks *below* this.
/// Strictly less than [`ARRAY_MAX`]: the `[BITMAP_MIN, ARRAY_MAX]` band
/// is the hysteresis zone where either form is left alone.
pub(crate) const BITMAP_MIN: usize = 3840;
/// Byte cost of a bitmap container (the ceiling for every other form).
const BITMAP_BYTES: usize = CHUNK_WORDS * 8;

/// One chunk's key set, in its current physical form.
#[derive(Clone, Debug)]
pub(crate) enum Container {
    /// Sorted unique low-16 keys, at most [`ARRAY_MAX`] of them
    /// (except transiently inside a mutation, before reshaping).
    Array(Vec<u16>),
    /// Packed bitmap with cached cardinality (`card` > 0).
    Bitmap { words: Box<[u64; CHUNK_WORDS]>, card: usize },
    /// Sorted inclusive intervals with at least one key of gap between
    /// consecutive runs (adjacent runs must have been merged).
    Runs(Vec<(u16, u16)>),
}

/// Byte cost of `n` runs.
fn runs_bytes(n_runs: usize) -> usize {
    n_runs * 4
}

/// Build a bitmap word array from sorted unique keys.
fn bitmap_from_sorted(keys: &[u16]) -> Box<[u64; CHUNK_WORDS]> {
    let mut words = Box::new([0u64; CHUNK_WORDS]);
    for &k in keys {
        words[usize::from(k >> 6)] |= 1u64 << (k & 63);
    }
    words
}

/// Count set bits of `words` within the inclusive key range `[s, e]`,
/// word-parallel: masked popcount on the edge words, full popcount on the
/// interior. Returns `(count, words_touched)`.
fn bitmap_range_count(words: &[u64; CHUNK_WORDS], s: u16, e: u16) -> (usize, u64) {
    let (ws, we) = (usize::from(s >> 6), usize::from(e >> 6));
    let lo_mask = !0u64 << (s & 63);
    let hi_mask = !0u64 >> (63 - (e & 63));
    if ws == we {
        return ((words[ws] & lo_mask & hi_mask).count_ones() as usize, 1);
    }
    let mut count = (words[ws] & lo_mask).count_ones() as usize;
    for &w in &words[ws + 1..we] {
        count += w.count_ones() as usize;
    }
    count += (words[we] & hi_mask).count_ones() as usize;
    (count, (we - ws + 1) as u64)
}

/// Set every bit of the inclusive key range `[s, e]`, word-parallel.
fn bitmap_set_range(words: &mut [u64; CHUNK_WORDS], s: u16, e: u16) {
    let (ws, we) = (usize::from(s >> 6), usize::from(e >> 6));
    let lo_mask = !0u64 << (s & 63);
    let hi_mask = !0u64 >> (63 - (e & 63));
    if ws == we {
        words[ws] |= lo_mask & hi_mask;
        return;
    }
    words[ws] |= lo_mask;
    for w in &mut words[ws + 1..we] {
        *w = !0;
    }
    words[we] |= hi_mask;
}

/// Collect the set bits of `words` in ascending key order into `out`,
/// restricted to the inclusive range `[s, e]`.
fn bitmap_collect_range(words: &[u64; CHUNK_WORDS], s: u16, e: u16, out: &mut Vec<u16>) {
    let (ws, we) = (usize::from(s >> 6), usize::from(e >> 6));
    let lo_mask = !0u64 << (s & 63);
    let hi_mask = !0u64 >> (63 - (e & 63));
    for (wi, &word) in words.iter().enumerate().take(we + 1).skip(ws) {
        let mut w = word;
        if wi == ws {
            w &= lo_mask;
        }
        if wi == we {
            w &= hi_mask;
        }
        let base = (wi << 6) as u16;
        while w != 0 {
            let bit = w.trailing_zeros() as u16;
            out.push(base + bit);
            w &= w - 1;
        }
    }
}

/// Number of maximal runs in a sorted unique key slice.
fn count_runs_array(keys: &[u16]) -> usize {
    if keys.is_empty() {
        return 0;
    }
    1 + keys.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

/// Number of maximal runs in a bitmap, word-parallel: a run starts at
/// every set bit whose predecessor bit is clear, so per word it is
/// `popcount(w & !(w << 1 | carry))` with the carry threading the
/// previous word's top bit across the boundary.
fn count_runs_bitmap(words: &[u64; CHUNK_WORDS]) -> usize {
    let mut runs = 0usize;
    let mut carry = 0u64; // previous word's bit 63, shifted into bit 0
    for &w in words.iter() {
        runs += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    runs
}

impl Container {
    /// Build from sorted unique low-16 keys: array at or below
    /// [`ARRAY_MAX`], bitmap above. Call [`Container::optimize`] after to
    /// discover run structure.
    pub(crate) fn from_sorted(keys: &[u16]) -> Container {
        if keys.len() <= ARRAY_MAX {
            metrics::container_built(metrics::Kind::Array);
            Container::Array(keys.to_vec())
        } else {
            metrics::container_built(metrics::Kind::Bitmap);
            Container::Bitmap { words: bitmap_from_sorted(keys), card: keys.len() }
        }
    }

    /// Number of keys in the container.
    pub(crate) fn card(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { card, .. } => *card,
            Container::Runs(r) => {
                r.iter().map(|&(s, e)| usize::from(e - s) + 1).sum()
            }
        }
    }

    /// Membership test.
    pub(crate) fn contains(&self, k: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&k).is_ok(),
            Container::Bitmap { words, .. } => {
                words[usize::from(k >> 6)] & (1u64 << (k & 63)) != 0
            }
            Container::Runs(r) => {
                let i = r.partition_point(|&(s, _)| s <= k);
                i > 0 && r[i - 1].1 >= k
            }
        }
    }

    /// Insert `k`; returns whether it was new. May promote array → bitmap
    /// or runs → bitmap once the cheaper form's cost ceiling is crossed.
    pub(crate) fn insert(&mut self, k: u16) -> bool {
        let added = match self {
            Container::Array(v) => match v.binary_search(&k) {
                Ok(_) => false,
                Err(i) => {
                    v.insert(i, k);
                    true
                }
            },
            Container::Bitmap { words, card } => {
                let w = &mut words[usize::from(k >> 6)];
                let mask = 1u64 << (k & 63);
                let added = *w & mask == 0;
                *w |= mask;
                *card += usize::from(added);
                added
            }
            Container::Runs(r) => insert_into_runs(r, k),
        };
        if added {
            self.reshape_after_insert();
        }
        added
    }

    /// Remove `k`; returns whether it was present. May demote a bitmap
    /// that falls below [`BITMAP_MIN`] back to an array.
    pub(crate) fn remove(&mut self, k: u16) -> bool {
        let removed = match self {
            Container::Array(v) => match v.binary_search(&k) {
                Ok(i) => {
                    v.remove(i);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { words, card } => {
                let w = &mut words[usize::from(k >> 6)];
                let mask = 1u64 << (k & 63);
                let removed = *w & mask != 0;
                *w &= !mask;
                *card -= usize::from(removed);
                removed
            }
            Container::Runs(r) => remove_from_runs(r, k),
        };
        if removed {
            self.reshape_after_remove();
        }
        removed
    }

    /// Promotion edge: applied after a successful insert.
    fn reshape_after_insert(&mut self) {
        match self {
            Container::Array(v) if v.len() > ARRAY_MAX => {
                metrics::promotion();
                metrics::container_built(metrics::Kind::Bitmap);
                let card = v.len();
                *self = Container::Bitmap { words: bitmap_from_sorted(v), card };
            }
            Container::Runs(r) if runs_bytes(r.len()) > BITMAP_BYTES => {
                // Pathologically fragmented runs cost more than the flat
                // bitmap; promote (insert-driven, so cost only grows).
                metrics::promotion();
                metrics::container_built(metrics::Kind::Bitmap);
                let card = self.card();
                let mut words = Box::new([0u64; CHUNK_WORDS]);
                if let Container::Runs(r) = self {
                    for &(s, e) in r.iter() {
                        bitmap_set_range(&mut words, s, e);
                    }
                }
                *self = Container::Bitmap { words, card };
            }
            _ => {}
        }
    }

    /// Demotion edge: applied after a successful remove. The demote
    /// threshold sits *below* the promote threshold, so flapping across a
    /// single boundary key cannot thrash representations.
    fn reshape_after_remove(&mut self) {
        if let Container::Bitmap { words, card } = self {
            if *card < BITMAP_MIN {
                metrics::demotion();
                metrics::container_built(metrics::Kind::Array);
                let mut keys = Vec::with_capacity(*card);
                bitmap_collect_range(words, 0, u16::MAX, &mut keys);
                *self = Container::Array(keys);
            }
        }
    }

    /// Re-pick the cheapest physical form for the current contents:
    /// converts to a run container when the run count makes intervals
    /// strictly cheaper than both the array and the bitmap form (with a
    /// 2× stickiness margin so near-ties keep the simpler form), and
    /// otherwise restores the canonical array/bitmap split.
    pub(crate) fn optimize(&mut self) {
        let card = self.card();
        let n_runs = match self {
            Container::Array(v) => count_runs_array(v),
            Container::Bitmap { words, .. } => count_runs_bitmap(words),
            Container::Runs(r) => r.len(),
        };
        let dense_bytes = if card > ARRAY_MAX { BITMAP_BYTES } else { card * 2 };
        if runs_bytes(n_runs) * 2 < dense_bytes {
            if !matches!(self, Container::Runs(_)) {
                metrics::container_built(metrics::Kind::Runs);
                let mut runs = Vec::with_capacity(n_runs);
                self.for_each_run(|s, e| runs.push((s, e)));
                *self = Container::Runs(runs);
            }
        } else if matches!(self, Container::Runs(_)) {
            let mut keys = Vec::with_capacity(card);
            self.for_each_key(|k| keys.push(k));
            *self = Container::from_sorted(&keys);
        }
    }

    /// Visit every maximal run `(start, end)` in ascending order.
    fn for_each_run(&self, mut f: impl FnMut(u16, u16)) {
        match self {
            Container::Runs(r) => {
                for &(s, e) in r {
                    f(s, e);
                }
            }
            _ => {
                // Derive runs from the ascending key stream.
                let mut cur: Option<(u16, u16)> = None;
                self.for_each_key(|k| match cur {
                    Some((s, e)) if k == e + 1 => cur = Some((s, k)),
                    Some((s, e)) => {
                        f(s, e);
                        cur = Some((k, k));
                    }
                    None => cur = Some((k, k)),
                });
                if let Some((s, e)) = cur {
                    f(s, e);
                }
            }
        }
    }

    /// Visit every key in ascending order.
    pub(crate) fn for_each_key(&self, mut f: impl FnMut(u16)) {
        match self {
            Container::Array(v) => {
                for &k in v {
                    f(k);
                }
            }
            Container::Bitmap { words, .. } => {
                for (wi, &word) in words.iter().enumerate() {
                    let mut w = word;
                    let base = (wi << 6) as u16;
                    while w != 0 {
                        let bit = w.trailing_zeros() as u16;
                        f(base + bit);
                        w &= w - 1;
                    }
                }
            }
            Container::Runs(r) => {
                for &(s, e) in r {
                    for k in s..=e {
                        f(k);
                    }
                }
            }
        }
    }

    /// All keys as a sorted vector.
    pub(crate) fn to_vec(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.card());
        self.for_each_key(|k| out.push(k));
        out
    }

    /// `|self ∩ other|` without materializing the intersection: pure
    /// popcount / merge / interval arithmetic on whichever two forms meet.
    pub(crate) fn overlap_count(&self, other: &Container) -> usize {
        use Container::{Array, Bitmap, Runs};
        match (self, other) {
            (Array(a), Array(b)) => overlap_array_array(a, b),
            (Array(a), Bitmap { words, .. }) | (Bitmap { words, .. }, Array(a)) => {
                metrics::words_scanned(a.len() as u64);
                a.iter()
                    .filter(|&&k| words[usize::from(k >> 6)] & (1u64 << (k & 63)) != 0)
                    .count()
            }
            (Bitmap { words: wa, .. }, Bitmap { words: wb, .. }) => {
                metrics::words_scanned(2 * CHUNK_WORDS as u64);
                wa.iter().zip(wb.iter()).map(|(&x, &y)| (x & y).count_ones() as usize).sum()
            }
            (Runs(r), Bitmap { words, .. }) | (Bitmap { words, .. }, Runs(r)) => {
                let mut count = 0;
                let mut touched = 0u64;
                for &(s, e) in r {
                    let (c, t) = bitmap_range_count(words, s, e);
                    count += c;
                    touched += t;
                }
                metrics::words_scanned(touched);
                count
            }
            (Runs(r), Array(a)) | (Array(a), Runs(r)) => overlap_runs_array(r, a),
            (Runs(a), Runs(b)) => overlap_runs_runs(a, b),
        }
    }

    /// `self ∩ other`, or `None` when the intersection is empty. The
    /// result takes the canonical form for its cardinality (array at or
    /// below [`ARRAY_MAX`], else bitmap; runs ∩ runs stays runs).
    pub(crate) fn intersect(&self, other: &Container) -> Option<Container> {
        use Container::{Array, Bitmap, Runs};
        let out = match (self, other) {
            (Array(a), Array(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                Container::Array(out)
            }
            (Array(a), Bitmap { words, .. }) | (Bitmap { words, .. }, Array(a)) => {
                metrics::words_scanned(a.len() as u64);
                Container::Array(
                    a.iter()
                        .copied()
                        .filter(|&k| words[usize::from(k >> 6)] & (1u64 << (k & 63)) != 0)
                        .collect(),
                )
            }
            (Bitmap { words: wa, .. }, Bitmap { words: wb, .. }) => {
                metrics::words_scanned(2 * CHUNK_WORDS as u64);
                let mut words = Box::new([0u64; CHUNK_WORDS]);
                let mut card = 0usize;
                for ((o, &x), &y) in words.iter_mut().zip(wa.iter()).zip(wb.iter()) {
                    *o = x & y;
                    card += o.count_ones() as usize;
                }
                if card <= ARRAY_MAX {
                    let mut keys = Vec::with_capacity(card);
                    bitmap_collect_range(&words, 0, u16::MAX, &mut keys);
                    Container::Array(keys)
                } else {
                    Container::Bitmap { words, card }
                }
            }
            (Runs(r), Bitmap { words, .. }) | (Bitmap { words, .. }, Runs(r)) => {
                let mut keys = Vec::new();
                for &(s, e) in r {
                    bitmap_collect_range(words, s, e, &mut keys);
                }
                Container::from_sorted(&keys)
            }
            (Runs(r), Array(a)) | (Array(a), Runs(r)) => {
                let mut out = Vec::new();
                let mut i = 0usize;
                for &(s, e) in r {
                    i += a[i..].partition_point(|&k| k < s);
                    let j = i + a[i..].partition_point(|&k| k <= e);
                    out.extend_from_slice(&a[i..j]);
                    i = j;
                    if i >= a.len() {
                        break;
                    }
                }
                Container::Array(out)
            }
            (Runs(a), Runs(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
                    if s <= e {
                        out.push((s, e));
                    }
                    if a[i].1 <= b[j].1 {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                Container::Runs(out)
            }
        };
        (out.card() > 0).then_some(out)
    }

    /// `self ∪ other`, in canonical form for the result cardinality
    /// (runs ∪ runs stays runs via interval merging).
    pub(crate) fn union(&self, other: &Container) -> Container {
        use Container::{Array, Bitmap, Runs};
        match (self, other) {
            (Bitmap { words: wa, .. }, Bitmap { words: wb, .. }) => {
                metrics::words_scanned(2 * CHUNK_WORDS as u64);
                let mut words = Box::new([0u64; CHUNK_WORDS]);
                let mut card = 0usize;
                for ((o, &x), &y) in words.iter_mut().zip(wa.iter()).zip(wb.iter()) {
                    *o = x | y;
                    card += o.count_ones() as usize;
                }
                Container::Bitmap { words, card }
            }
            (Bitmap { words, .. }, other_c) | (other_c, Bitmap { words, .. }) => {
                let mut out = Box::new(**words);
                match other_c {
                    Array(a) => {
                        for &k in a {
                            out[usize::from(k >> 6)] |= 1u64 << (k & 63);
                        }
                    }
                    Runs(r) => {
                        for &(s, e) in r {
                            bitmap_set_range(&mut out, s, e);
                        }
                    }
                    Bitmap { .. } => {} // handled by the arm above
                }
                let card = out.iter().map(|w| w.count_ones() as usize).sum();
                Container::Bitmap { words: out, card }
            }
            (Runs(a), Runs(b)) => Container::Runs(union_runs(a, b)),
            (Array(a), Array(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) if x < y => {
                            out.push(x);
                            i += 1;
                        }
                        (Some(&x), Some(&y)) if y < x => {
                            out.push(y);
                            j += 1;
                        }
                        (Some(&x), Some(_)) => {
                            out.push(x);
                            i += 1;
                            j += 1;
                        }
                        (Some(&x), None) => {
                            out.push(x);
                            i += 1;
                        }
                        (None, Some(&y)) => {
                            out.push(y);
                            j += 1;
                        }
                        (None, None) => {}
                    }
                }
                Container::from_sorted(&out)
            }
            (Runs(r), Array(a)) | (Array(a), Runs(r)) => {
                // Merge the array into the interval set, then re-pick the
                // canonical form (the merged result may no longer be
                // run-cheap).
                let mut runs = r.clone();
                for &k in a {
                    insert_into_runs(&mut runs, k);
                }
                let mut out = Container::Runs(runs);
                out.optimize();
                out
            }
        }
    }

    /// Number of keys strictly below `k`.
    pub(crate) fn rank(&self, k: u16) -> usize {
        match self {
            Container::Array(v) => v.partition_point(|&x| x < k),
            Container::Bitmap { words, .. } => {
                if k == 0 {
                    return 0;
                }
                let (count, touched) = bitmap_range_count(words, 0, k - 1);
                metrics::words_scanned(touched);
                count
            }
            Container::Runs(r) => {
                let mut count = 0;
                for &(s, e) in r {
                    if s >= k {
                        break;
                    }
                    count += usize::from(e.min(k - 1) - s) + 1;
                }
                count
            }
        }
    }

    /// The `i`-th smallest key (0-based), if `i < card`.
    pub(crate) fn select(&self, i: usize) -> Option<u16> {
        match self {
            Container::Array(v) => v.get(i).copied(),
            Container::Bitmap { words, card } => {
                if i >= *card {
                    return None;
                }
                let mut remaining = i;
                for (wi, &word) in words.iter().enumerate() {
                    let pop = word.count_ones() as usize;
                    if remaining < pop {
                        // Select the `remaining`-th set bit of `word` by
                        // clearing the lower set bits one at a time.
                        let mut w = word;
                        for _ in 0..remaining {
                            w &= w - 1;
                        }
                        return Some(((wi << 6) as u16) + w.trailing_zeros() as u16);
                    }
                    remaining -= pop;
                }
                None
            }
            Container::Runs(r) => {
                let mut remaining = i;
                for &(s, e) in r {
                    let len = usize::from(e - s) + 1;
                    if remaining < len {
                        return Some(s + remaining as u16);
                    }
                    remaining -= len;
                }
                None
            }
        }
    }

    /// Which physical form the container currently uses.
    pub(crate) fn kind(&self) -> metrics::Kind {
        match self {
            Container::Array(_) => metrics::Kind::Array,
            Container::Bitmap { .. } => metrics::Kind::Bitmap,
            Container::Runs(_) => metrics::Kind::Runs,
        }
    }

    /// Representation invariants of the current form.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        match self {
            Container::Array(v) => {
                if v.is_empty() {
                    return Err("empty array container".into());
                }
                if v.len() > ARRAY_MAX {
                    return Err(format!("array container holds {} > {ARRAY_MAX} keys", v.len()));
                }
                for w in v.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("array keys not increasing at {} >= {}", w[0], w[1]));
                    }
                }
            }
            Container::Bitmap { words, card } => {
                let real: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                if real != *card {
                    return Err(format!("bitmap cached card {card} != popcount {real}"));
                }
                if *card < BITMAP_MIN {
                    return Err(format!("bitmap card {card} below demote floor {BITMAP_MIN}"));
                }
            }
            Container::Runs(r) => {
                if r.is_empty() {
                    return Err("empty runs container".into());
                }
                for &(s, e) in r {
                    if s > e {
                        return Err(format!("inverted run ({s}, {e})"));
                    }
                }
                for w in r.windows(2) {
                    if w[1].0 <= w[0].1 || w[1].0 - w[0].1 < 2 {
                        return Err(format!("runs {:?} and {:?} overlap or touch", w[0], w[1]));
                    }
                }
                if runs_bytes(r.len()) > BITMAP_BYTES {
                    return Err(format!("{} runs cost more than a bitmap", r.len()));
                }
            }
        }
        Ok(())
    }
}

/// Linear-merge overlap count of two sorted arrays, galloping through the
/// larger when the sizes differ by 16× or more.
fn overlap_array_array(a: &[u16], b: &[u16]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len() >= 16 {
        let mut lo = 0usize;
        let mut count = 0usize;
        for &k in small {
            match large[lo..].binary_search(&k) {
                Ok(p) => {
                    count += 1;
                    lo += p + 1;
                }
                Err(p) => lo += p,
            }
            if lo >= large.len() {
                break;
            }
        }
        return count;
    }
    let (mut i, mut j) = (0, 0);
    let mut count = 0usize;
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Overlap count of an interval set against a sorted array: each run
/// contributes `rank(end+1) - rank(start)` of the array, computed with a
/// moving lower bound so the whole pass is `O(runs · log card)`.
fn overlap_runs_array(runs: &[(u16, u16)], a: &[u16]) -> usize {
    let mut count = 0usize;
    let mut i = 0usize;
    for &(s, e) in runs {
        i += a[i..].partition_point(|&k| k < s);
        let j = i + a[i..].partition_point(|&k| k <= e);
        count += j - i;
        i = j;
        if i >= a.len() {
            break;
        }
    }
    count
}

/// Overlap count of two interval sets: sum of pairwise overlap lengths.
fn overlap_runs_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if s <= e {
            count += usize::from(e - s) + 1;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    count
}

/// Insert one key into a sorted non-adjacent interval set, merging with
/// its neighbors when it closes a gap. Returns whether the key was new.
fn insert_into_runs(runs: &mut Vec<(u16, u16)>, k: u16) -> bool {
    let i = runs.partition_point(|&(s, _)| s <= k);
    if i > 0 && runs[i - 1].1 >= k {
        return false; // already inside run i-1
    }
    let extends_prev = i > 0 && k > 0 && runs[i - 1].1 == k - 1;
    let extends_next = i < runs.len() && k < u16::MAX && runs[i].0 == k + 1;
    match (extends_prev, extends_next) {
        (true, true) => {
            runs[i - 1].1 = runs[i].1;
            runs.remove(i);
        }
        (true, false) => runs[i - 1].1 = k,
        (false, true) => runs[i].0 = k,
        (false, false) => runs.insert(i, (k, k)),
    }
    true
}

/// Remove one key from a sorted interval set, splitting a run when the
/// key is interior. Returns whether the key was present.
fn remove_from_runs(runs: &mut Vec<(u16, u16)>, k: u16) -> bool {
    let i = runs.partition_point(|&(s, _)| s <= k);
    if i == 0 || runs[i - 1].1 < k {
        return false;
    }
    let (s, e) = runs[i - 1];
    match (s == k, e == k) {
        (true, true) => {
            runs.remove(i - 1);
        }
        (true, false) => runs[i - 1].0 = s + 1,
        (false, true) => runs[i - 1].1 = e - 1,
        (false, false) => {
            runs[i - 1].1 = k - 1;
            runs.insert(i, (k + 1, e));
        }
    }
    true
}

/// Interval union of two sorted non-adjacent interval sets.
fn union_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> Vec<(u16, u16)> {
    let mut out: Vec<(u16, u16)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x.0 <= y.0 {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        match out.last_mut() {
            // Merge when overlapping or adjacent (gap of zero keys).
            Some(last) if next.0 <= last.1 || next.0 - last.1 <= 1 => {
                last.1 = last.1.max(next.1);
            }
            _ => out.push(next),
        }
    }
    out
}
