//! The spill store behind an out-of-core window fold.
//!
//! A [`crate::hier::HierarchicalAccumulator`] built with
//! [`spilling`](crate::hier::HierarchicalAccumulator::spilling) evicts
//! carry-level CSR parts through a [`SpillStore`]: each part is encoded with
//! the CRC-protected codec-v2 frames from [`crate::serialize`] and written
//! to a [`SpillMedium`] — a real directory ([`DirMedium`]) or memory
//! ([`MemMedium`], for tests). Transient faults are retried up to
//! [`SPILL_MAX_ATTEMPTS`] times (the archive restore's policy); permanent
//! ones ([`FaultClass`] taxonomy) go back to the fold, which quarantines the
//! part and records it in the [`SpillReport`].
//!
//! # Metrics
//!
//! Only a spilling fold reaches the store, so its metrics need no switch
//! and the default schema never sees them:
//! `hypersparse.spill.{bytes_written,bytes_read,evictions,reloads}_total`
//! and the per-level merge spans
//! `span.hypersparse.spill.merge.level{k}.{ns,calls_total}`, pinned by
//! `tests/metrics_optin.rs`.

use crate::csr::Csr;
use crate::hier::AccumulatorStats;
use crate::serialize;
use crate::value::Value;
use obscor_obs::FaultClass;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Attempts a [`SpillStore`] makes before a transient fault counts as
/// permanent, matching the archive restore policy.
pub const SPILL_MAX_ATTEMPTS: u32 = 4;

/// A fault raised by a [`SpillMedium`] or by decoding a spill frame,
/// classified by the workspace fault taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillFault {
    /// A read failed in a way a retry may fix (short read, interrupted
    /// syscall, injected transient fault).
    TransientRead,
    /// The slot does not exist in the medium (permanent).
    Missing,
    /// An OS-level I/O failure (permanent).
    Io(String),
    /// The frame was fetched but failed CRC/structural decoding
    /// (permanent).
    Corrupt(String),
}

impl SpillFault {
    /// Classify for retry/quarantine policy: only transient reads are
    /// worth retrying.
    pub fn class(&self) -> FaultClass {
        match self {
            SpillFault::TransientRead => FaultClass::Transient,
            _ => FaultClass::Permanent,
        }
    }
}

impl std::fmt::Display for SpillFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillFault::TransientRead => write!(f, "transient read failure"),
            SpillFault::Missing => write!(f, "spill slot missing"),
            SpillFault::Io(e) => write!(f, "spill i/o error: {e}"),
            SpillFault::Corrupt(e) => write!(f, "spill frame corrupt: {e}"),
        }
    }
}

impl std::error::Error for SpillFault {}

/// Byte-level storage behind a [`SpillStore`]: a flat map from slot id to
/// encoded frame. Implementations must be usable from multiple threads
/// (the streaming collector owns one per service).
pub trait SpillMedium: Send + Sync {
    /// Human-readable label for reports and errors.
    fn label(&self) -> String;
    /// Persist `bytes` under `slot`, overwriting any previous content.
    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault>;
    /// Read back the bytes stored under `slot`.
    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault>;
    /// Best-effort space reclaim once a slot is no longer needed.
    fn discard(&self, _slot: u64) {}
    /// Internal consistency of the medium itself.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// In-memory [`SpillMedium`] for tests and differential harnesses: same
/// code path as the disk medium, no filesystem.
#[derive(Debug, Default)]
pub struct MemMedium {
    slots: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemMedium {
    /// An empty in-memory medium.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of slots currently stored.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no slots are stored.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Internal consistency: every stored frame is non-empty (the codec
    /// never emits zero-length encodings).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (slot, bytes) in self.lock().iter() {
            if bytes.is_empty() {
                return Err(format!("slot {slot} holds an empty frame"));
            }
        }
        Ok(())
    }
}

impl SpillMedium for MemMedium {
    fn label(&self) -> String {
        "mem".into()
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        self.lock().insert(slot, bytes.to_vec());
        Ok(())
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        self.lock().get(&slot).cloned().ok_or(SpillFault::Missing)
    }

    fn discard(&self, slot: u64) {
        self.lock().remove(&slot);
    }

    fn check_invariants(&self) -> Result<(), String> {
        MemMedium::check_invariants(self)
    }
}

/// Disk-backed [`SpillMedium`]: one codec-v2 file per slot inside a
/// uniquely named directory that is removed (best effort) on drop.
#[derive(Debug)]
pub struct DirMedium {
    dir: PathBuf,
}

impl DirMedium {
    /// Create a fresh uniquely named spill directory under `base`
    /// (`obscor-spill-<pid>-<n>`), creating `base` itself if needed. The
    /// directory and its frames are deleted when the medium is dropped.
    pub fn create_in(base: &Path) -> Result<Self, SpillFault> {
        std::fs::create_dir_all(base).map_err(|e| SpillFault::Io(e.to_string()))?;
        let pid = std::process::id();
        // A create_dir race (two media picking the same name) surfaces as
        // AlreadyExists; retry with the next suffix — no global counter.
        for attempt in 0..4096u32 {
            let dir = base.join(format!("obscor-spill-{pid}-{attempt}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(Self { dir }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(SpillFault::Io(e.to_string())),
            }
        }
        Err(SpillFault::Io("no unique spill directory name available".into()))
    }

    /// The directory frames are written into.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn slot_path(&self, slot: u64) -> PathBuf {
        self.dir.join(format!("part-{slot:08x}.obsc"))
    }

    /// Internal consistency: the spill directory still exists.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.dir.is_dir() {
            return Err(format!("spill directory {} is gone", self.dir.display()));
        }
        Ok(())
    }
}

impl Drop for DirMedium {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl SpillMedium for DirMedium {
    fn label(&self) -> String {
        self.dir.display().to_string()
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        std::fs::write(self.slot_path(slot), bytes).map_err(io_fault)
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        std::fs::read(self.slot_path(slot)).map_err(io_fault)
    }

    fn discard(&self, slot: u64) {
        let _ = std::fs::remove_file(self.slot_path(slot));
    }

    fn check_invariants(&self) -> Result<(), String> {
        DirMedium::check_invariants(self)
    }
}

/// Map an OS error onto the fault taxonomy: interrupted reads are
/// transient, a missing file is [`SpillFault::Missing`], everything else
/// is a permanent I/O fault.
fn io_fault(e: std::io::Error) -> SpillFault {
    match e.kind() {
        std::io::ErrorKind::Interrupted => SpillFault::TransientRead,
        std::io::ErrorKind::NotFound => SpillFault::Missing,
        _ => SpillFault::Io(e.to_string()),
    }
}

/// Handle to one spilled CSR part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillHandle {
    slot: u64,
    encoded_len: u64,
}

impl SpillHandle {
    /// The medium slot this part lives in.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Encoded frame size in bytes.
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len
    }
}

/// CRC-framed CSR offload store over a [`SpillMedium`], with bounded retry
/// ([`SPILL_MAX_ATTEMPTS`]) for transient faults. Permanent faults (bad
/// magic, CRC mismatch, missing slot) are returned to the caller for
/// quarantine.
pub struct SpillStore {
    medium: Arc<dyn SpillMedium>,
    next_slot: AtomicU64,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore").field("medium", &self.medium.label()).finish()
    }
}

impl SpillStore {
    /// A store writing frames to `medium`.
    pub fn new(medium: Arc<dyn SpillMedium>) -> Self {
        Self { medium, next_slot: AtomicU64::new(0) }
    }

    /// Label of the underlying medium.
    pub fn label(&self) -> String {
        self.medium.label()
    }

    /// Encode `a` as a codec-v2 frame and persist it, returning the slot
    /// handle.
    pub fn store_csr<V: Value>(&self, a: &Csr<V>) -> Result<SpillHandle, SpillFault> {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed); // ordering: slot ids only need uniqueness, not ordering
        let bytes = serialize::encode(a);
        let mut last = SpillFault::TransientRead;
        for _ in 0..SPILL_MAX_ATTEMPTS {
            match self.medium.store(slot, &bytes) {
                Ok(()) => {
                    obscor_obs::counter("hypersparse.spill.bytes_written_total")
                        .add(bytes.len() as u64);
                    return Ok(SpillHandle { slot, encoded_len: bytes.len() as u64 });
                }
                Err(f) if f.class() == FaultClass::Transient => last = f,
                Err(f) => return Err(f),
            }
        }
        Err(last)
    }

    /// Fetch and decode the part behind `handle`, retrying transient
    /// faults (including truncated frames) up to [`SPILL_MAX_ATTEMPTS`].
    pub fn fetch_csr<V: Value>(&self, handle: &SpillHandle) -> Result<Csr<V>, SpillFault> {
        let mut last = SpillFault::TransientRead;
        for _ in 0..SPILL_MAX_ATTEMPTS {
            let bytes = match self.medium.fetch(handle.slot) {
                Ok(b) => b,
                Err(f) if f.class() == FaultClass::Transient => {
                    last = f;
                    continue;
                }
                Err(f) => return Err(f),
            };
            match serialize::decode::<V>(&bytes) {
                Ok(csr) => {
                    obscor_obs::counter("hypersparse.spill.bytes_read_total")
                        .add(bytes.len() as u64);
                    return Ok(csr);
                }
                Err(e) if e.class() == FaultClass::Transient => {
                    // A truncated frame may be a short read; retry.
                    last = SpillFault::TransientRead;
                }
                Err(e) => return Err(SpillFault::Corrupt(e.to_string())),
            }
        }
        Err(last)
    }

    /// Best-effort space reclaim for a no-longer-needed slot.
    pub fn discard(&self, handle: &SpillHandle) {
        self.medium.discard(handle.slot);
    }

    /// Internal consistency: the medium's own check.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.medium.check_invariants().map_err(|e| format!("{}: {e}", self.medium.label()))
    }
}

/// One part dropped from the build because its spill frame could not be
/// recovered. Parts are labelled with a contiguous leaf *span* (the merge
/// tree only ever joins adjacent runs): the span covers every leaf the
/// part folded, plus any hole a previous quarantine punched between them
/// — re-reporting a hole is idempotent, so the union of all quarantined
/// spans is exactly the set of lost leaves and a differential harness can
/// reconstruct the loss from the report alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedPart {
    /// Carry level (`log2` of the covered leaf count) at quarantine time.
    pub level: usize,
    /// First leaf index (in push order) the part covered.
    pub first_leaf: u64,
    /// Number of consecutive leaves the part covered.
    pub n_leaves: u64,
    /// Pushed triples the part covered.
    pub packets: u64,
    /// The classified fault that exhausted retry.
    pub error: String,
}

/// Coverage-qualified outcome of a spilled build, mirroring the archive
/// restore's `RestoreReport`: exact packet accounting, the quarantined
/// parts, and the fold's lifetime [`AccumulatorStats`].
#[derive(Clone, Debug)]
pub struct SpillReport {
    /// Triples pushed into the accumulator over its lifetime.
    pub packets_expected: u64,
    /// Triples covered by parts that made it into the final matrix.
    pub packets_restored: u64,
    /// Parts lost to unrecoverable spill faults (empty on clean media).
    pub quarantined: Vec<QuarantinedPart>,
    /// Lifetime counters.
    pub stats: AccumulatorStats,
}

impl SpillReport {
    /// Fraction of pushed triples represented in the final matrix, in
    /// `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.packets_expected == 0 {
            1.0
        } else {
            self.packets_restored as f64 / self.packets_expected as f64
        }
    }

    /// Whether the build lost nothing (the bit-identity case).
    pub fn is_exact(&self) -> bool {
        self.quarantined.is_empty() && self.packets_restored == self.packets_expected
    }

    /// Integer-exact internal consistency: restored plus quarantined
    /// packets account for every pushed triple, and stats agree.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lost: u64 = self.quarantined.iter().map(|q| q.packets).sum();
        if self.packets_restored + lost != self.packets_expected {
            return Err(format!(
                "packet accounting broken: {} restored + {} lost != {} expected",
                self.packets_restored, lost, self.packets_expected
            ));
        }
        if self.stats.pushed != self.packets_expected {
            return Err("stats.pushed disagrees with packets_expected".into());
        }
        for q in &self.quarantined {
            if q.n_leaves == 0 {
                return Err("quarantined part covers zero leaves".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::hier::{accumulate_flat, HierarchicalAccumulator};
    use crate::Index;

    fn triples(n: usize, seed: u64) -> Vec<(Index, Index, u64)> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 33) % 512) as Index, ((state >> 10) % 512) as Index, 1u64)
            })
            .collect()
    }

    #[test]
    fn dir_medium_round_trips_and_cleans_up() {
        let medium = DirMedium::create_in(&std::env::temp_dir()).unwrap();
        let dir = medium.path().to_path_buf();
        assert!(dir.is_dir());
        let t = triples(3_000, 5);
        let mut acc = HierarchicalAccumulator::spilling(128, Some(0), Arc::new(medium));
        acc.extend(t.iter().copied());
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, accumulate_flat(t));
        assert!(report.stats.evictions > 0);
        // finalize consumed the accumulator (and with it the store's Arc
        // on the medium), so the directory is already gone.
        assert!(!dir.exists(), "spill dir should be removed on drop");
    }

    #[test]
    fn two_dir_media_never_collide() {
        let base = std::env::temp_dir();
        let a = DirMedium::create_in(&base).unwrap();
        let b = DirMedium::create_in(&base).unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn store_round_trips_through_codec_v2() {
        let store = SpillStore::new(Arc::new(MemMedium::new()));
        let a: Csr<u64> = Coo::from_triples(triples(1_000, 2)).into_csr();
        let h = store.store_csr(&a).unwrap();
        assert_eq!(h.encoded_len(), 28 + 16 * a.nnz() as u64);
        assert_eq!(store.fetch_csr::<u64>(&h).unwrap(), a);
    }

    #[test]
    fn corrupt_frame_is_a_permanent_fault() {
        let medium = Arc::new(MemMedium::new());
        let store = SpillStore::new(Arc::clone(&medium) as Arc<dyn SpillMedium>);
        let a: Csr<u64> = Coo::from_triples(triples(100, 2)).into_csr();
        let h = store.store_csr(&a).unwrap();
        // Flip a payload bit behind the store's back.
        let mut bytes = medium.fetch(h.slot()).unwrap();
        bytes[30] ^= 1;
        medium.store(h.slot(), &bytes).unwrap();
        let err = store.fetch_csr::<u64>(&h).unwrap_err();
        assert_eq!(err.class(), FaultClass::Permanent);
        assert!(matches!(err, SpillFault::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn missing_slot_is_missing() {
        let store = SpillStore::new(Arc::new(MemMedium::new()));
        let h = SpillHandle { slot: 99, encoded_len: 0 };
        assert_eq!(store.fetch_csr::<u64>(&h).unwrap_err(), SpillFault::Missing);
    }

    #[test]
    fn constructors_satisfy_invariants() {
        let mem = MemMedium::new();
        mem.check_invariants().unwrap();
        mem.store(0, b"x").unwrap();
        mem.check_invariants().unwrap();
        let dir = DirMedium::create_in(&std::env::temp_dir()).unwrap();
        dir.check_invariants().unwrap();
        let store = SpillStore::new(Arc::new(MemMedium::new()));
        store.check_invariants().unwrap();
        assert_eq!(store.label(), "mem");
        let acc = HierarchicalAccumulator::<u64>::spilling(8, Some(0), Arc::new(mem));
        acc.check_invariants().unwrap();
    }
}
