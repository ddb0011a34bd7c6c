//! The persistent on-disk trace store.
//!
//! A [`TraceStore`] is a flat directory (pointed at by the
//! `MEDSIM_TRACE_DIR` environment variable) of write-once trace files,
//! one per `(slot, isa, scale, seed)` content key. File layout, all
//! little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"MTRC"
//!      4     4  format version (FORMAT_VERSION)
//!      8     8  instruction count
//!     16     8  sidecar length in bytes
//!     24     8  FNV-1a checksum of the payload
//!     32     —  payload: count × u64 words, then the sidecar bytes
//! ```
//!
//! The file holds the full word plane, one word per instruction; a
//! load rebuilds the trace's index plane and table of distinct words
//! from it (see [`crate::packed`]).
//!
//! The store is a *cache*, never a source of truth: every load verifies
//! magic, version, lengths and checksum, and any mismatch — a truncated
//! file, flipped bits, a format bump — is reported as a miss (with a
//! [`StoreStats`] counter) so the caller falls back to synthesizing the
//! trace. Writes go through a temp file + atomic rename, so concurrent
//! writers and readers never observe a partial file.

use crate::packed::PackedTrace;
use medsim_workloads::trace::SimdIsa;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version; bump on any change to the header or the
/// packed encoding. Mismatching files are ignored (synthesis fallback).
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"MTRC";
const HEADER_LEN: usize = 32;

/// Content key of one stored trace. The workload scale participates via
/// its exact bit pattern, so a file is only ever reused for an
/// identical spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Program-list slot (0..8, after §5.1 cycling).
    pub slot: usize,
    /// μ-SIMD ISA of the trace.
    pub isa: SimdIsa,
    /// `WorkloadSpec::scale` as raw bits.
    pub scale_bits: u64,
    /// Workload seed.
    pub seed: u64,
}

impl TraceKey {
    /// Stable 64-bit content hash of the key. Deliberately excludes
    /// the format version: a key must map to the *same* file across
    /// format bumps, so the header check can detect the stale version
    /// and self-heal it (hashing the version in would orphan old
    /// files forever instead).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(&(self.slot as u64).to_le_bytes());
        h.update(&[match self.isa {
            SimdIsa::Mmx => 0u8,
            SimdIsa::Mom => 1u8,
        }]);
        h.update(&self.scale_bits.to_le_bytes());
        h.update(&self.seed.to_le_bytes());
        h.finish()
    }

    /// File name of this key inside a store directory, e.g.
    /// `slot3-mom-9f1c2a338e55d01b.mtrc` — human-scannable prefix,
    /// content-hash suffix.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "slot{}-{}-{:016x}.mtrc",
            self.slot,
            self.isa.label().to_ascii_lowercase(),
            self.content_hash()
        )
    }
}

/// Counters describing how the store behaved (surfaced in bench output
/// and asserted by the corruption tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful loads.
    pub hits: u64,
    /// Keys with no file present.
    pub misses: u64,
    /// Files rejected by magic/length/checksum/payload validation.
    pub corrupt: u64,
    /// Files rejected by a format-version mismatch.
    pub version_mismatch: u64,
    /// Traces written back.
    pub writes: u64,
    /// I/O errors on load or store (treated as misses).
    pub io_errors: u64,
}

impl StoreStats {
    /// Total loads that fell back to synthesis for any reason.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.misses + self.corrupt + self.version_mismatch + self.io_errors
    }
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    writes: AtomicU64,
    io_errors: AtomicU64,
}

/// A write-once directory of packed trace files. See the module docs.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    stats: StatCells,
}

impl TraceStore {
    /// A store rooted at `dir` (created on first write).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            dir: dir.into(),
            stats: StatCells::default(),
        }
    }

    /// The store configured by `MEDSIM_TRACE_DIR`, or `None` when the
    /// variable is unset or empty (persistence disabled).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var("MEDSIM_TRACE_DIR") {
            Ok(dir) if !dir.is_empty() => Some(TraceStore::at(dir)),
            _ => None,
        }
    }

    /// The directory this store reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a key maps to.
    #[must_use]
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Snapshot of the store counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            version_mismatch: self.stats.version_mismatch.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
        }
    }

    /// Load the trace stored under `key`, or `None` — counting the
    /// reason — when the file is absent, unreadable, corrupt or from a
    /// different format version. Never panics, never errors: the caller
    /// is expected to fall back to synthesis.
    #[must_use]
    pub fn load(&self, key: &TraceKey) -> Option<PackedTrace> {
        let path = self.path_for(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let mut bytes = Vec::new();
        if file.read_to_end(&mut bytes).is_err() {
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match parse_file(&bytes) {
            Ok(trace) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(trace)
            }
            Err(ParseError::VersionMismatch) => {
                self.stats.version_mismatch.fetch_add(1, Ordering::Relaxed);
                // Self-heal: drop the stale file so the caller's
                // write-back can replace it with the current format.
                std::fs::remove_file(&path).ok();
                None
            }
            Err(ParseError::Corrupt) => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                std::fs::remove_file(&path).ok();
                None
            }
        }
    }

    /// Persist `trace` under `key` (write-once: an existing file is kept
    /// as-is). The write lands via a temp file + rename, so readers only
    /// ever see complete files.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (also counted in
    /// [`StoreStats::io_errors`]).
    pub fn store(&self, key: &TraceKey, trace: &PackedTrace) -> std::io::Result<()> {
        let path = self.path_for(key);
        if path.exists() {
            return Ok(());
        }
        let result = (|| {
            std::fs::create_dir_all(&self.dir)?;
            let tmp = self.dir.join(unique_tmp_name(&key.file_name()));
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&serialize_file(trace))?;
                f.sync_all()?;
            }
            std::fs::rename(&tmp, &path)
        })();
        match result {
            Ok(()) => {
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

enum ParseError {
    VersionMismatch,
    Corrupt,
}

/// FNV-1a digest of a packed payload (`words` then `sidecar`) — the
/// checksum [`serialize_file`] records in the header, shared with
/// [`PackedTrace::content_checksum`] so content-addressed consumers
/// agree with the on-disk format byte for byte.
pub(crate) fn payload_fnv(words: impl IntoIterator<Item = u64>, sidecar: &[u8]) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.update(sidecar);
    h.finish()
}

/// A collision-free temp-file name for the atomic write-once protocol:
/// unique per `(process, sequence)`, so concurrent writers — racing
/// threads inside one process as much as racing processes — never
/// write through the same temp path. Each writer renames its own
/// complete file over the final path; with deterministic producers the
/// losers' bytes are identical to the winner's, so any interleaving of
/// renames publishes a valid file.
#[must_use]
pub fn unique_tmp_name(file_name: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        ".tmp-{}-{}-{file_name}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// Serialize a trace with the versioned, checksummed header.
fn serialize_file(trace: &PackedTrace) -> Vec<u8> {
    let sidecar = trace.sidecar();
    let mut out = Vec::with_capacity(HEADER_LEN + trace.len() * 8 + sidecar.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    out.extend_from_slice(&(sidecar.len() as u64).to_le_bytes());
    out.extend_from_slice(&trace.content_checksum().to_le_bytes());
    for w in trace.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(sidecar);
    out
}

fn parse_file(bytes: &[u8]) -> Result<PackedTrace, ParseError> {
    let header = bytes.get(..HEADER_LEN).ok_or(ParseError::Corrupt)?;
    if header[..4] != MAGIC {
        return Err(ParseError::Corrupt);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(ParseError::VersionMismatch);
    }
    let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let side_len = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    let words_bytes = count.checked_mul(8).ok_or(ParseError::Corrupt)?;
    let expected = (HEADER_LEN as u64)
        .checked_add(words_bytes)
        .and_then(|v| v.checked_add(side_len))
        .ok_or(ParseError::Corrupt)?;
    if bytes.len() as u64 != expected {
        return Err(ParseError::Corrupt);
    }
    let payload = &bytes[HEADER_LEN..];
    let mut h = Fnv::new();
    h.update(payload);
    if h.finish() != checksum {
        return Err(ParseError::Corrupt);
    }
    let (word_part, side_part) = payload.split_at(words_bytes as usize);
    let words = word_part
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
    // The checksum above vouches for the payload; skip the validating
    // decode pass, so a warm load decodes only the table's distinct
    // words.
    Ok(PackedTrace::from_parts_trusted(words, side_part.to_vec()))
}

/// FNV-1a 64-bit — tiny, dependency-free, good enough for content
/// addressing and corruption detection of locally produced files.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "medsim-trace-test-{tag}-{}-{n}",
            std::process::id()
        ))
    }

    fn sample_trace() -> PackedTrace {
        let mut insts = Vec::new();
        for i in 0..200u64 {
            insts.push(Inst::load(MemOp::LoadW, int(1), int(2), 0x1000 + i * 4).at(i * 4));
            insts.push(Inst::int_rrr(IntOp::Add, int(3), int(1), int(3)).at(i * 4 + 4));
        }
        PackedTrace::pack(insts)
    }

    fn key() -> TraceKey {
        TraceKey {
            slot: 3,
            isa: SimdIsa::Mom,
            scale_bits: 0.001f64.to_bits(),
            seed: 7,
        }
    }

    #[test]
    fn store_round_trip_and_stats() {
        let dir = unique_dir("roundtrip");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();

        assert!(store.load(&key()).is_none(), "empty store misses");
        store.store(&key(), &trace).expect("write");
        let back = store.load(&key()).expect("warm load");
        assert_eq!(back, trace);

        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.fallbacks(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_are_write_once() {
        let dir = unique_dir("once");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();
        store.store(&key(), &trace).expect("first write");
        store
            .store(&key(), &trace)
            .expect("second write is a no-op");
        assert_eq!(store.stats().writes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_falls_back() {
        let dir = unique_dir("trunc");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();
        store.store(&key(), &trace).expect("write");
        let path = store.path_for(&key());
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(store.load(&key()).is_none());
        assert_eq!(store.stats().corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbled_payload_falls_back() {
        let dir = unique_dir("garble");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();
        store.store(&key(), &trace).expect("write");
        let path = store.path_for(&key());
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xa5;
        std::fs::write(&path, &bytes).expect("garble");
        assert!(store.load(&key()).is_none(), "checksum catches bit flips");
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists(), "corrupt file removed for self-healing");
        store.store(&key(), &trace).expect("repair write");
        assert_eq!(store.load(&key()).expect("repaired"), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_bump_falls_back() {
        let dir = unique_dir("version");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();
        store.store(&key(), &trace).expect("write");
        let path = store.path_for(&key());
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("bump version");
        assert!(store.load(&key()).is_none());
        let stats = store.stats();
        assert_eq!(stats.version_mismatch, 1);
        assert_eq!(stats.corrupt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_falls_back() {
        let dir = unique_dir("magic");
        let store = TraceStore::at(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(store.path_for(&key()), b"not a trace file at all").expect("write junk");
        assert!(store.load(&key()).is_none());
        assert_eq!(store.stats().corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_keys_get_distinct_files() {
        let a = key();
        let mut b = key();
        b.seed ^= 1;
        let mut c = key();
        c.isa = SimdIsa::Mmx;
        let mut d = key();
        d.scale_bits = 0.002f64.to_bits();
        let names: std::collections::HashSet<String> =
            [a, b, c, d].iter().map(TraceKey::file_name).collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| n.ends_with(".mtrc")));
    }

    #[test]
    fn tmp_names_are_unique_per_call() {
        let a = unique_tmp_name("x.mtrc");
        let b = unique_tmp_name("x.mtrc");
        assert_ne!(a, b, "same key from the same process must not collide");
        assert!(a.starts_with(".tmp-") && a.ends_with("x.mtrc"));
    }

    #[test]
    fn concurrent_writers_race_to_one_valid_file() {
        // Many threads hammer the same key in one store. The write-once
        // protocol (unique temp names + atomic rename) must leave
        // exactly one valid file and no temp debris, whatever the
        // interleaving of renames.
        let dir = unique_dir("race");
        let store = TraceStore::at(&dir);
        let trace = sample_trace();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        store.store(&key(), &trace).expect("racing write");
                    }
                });
            }
        });
        assert_eq!(store.load(&key()).expect("winner is valid"), trace);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips_through_disk() {
        let dir = unique_dir("empty");
        let store = TraceStore::at(&dir);
        let trace = PackedTrace::pack([]);
        store.store(&key(), &trace).expect("write");
        assert_eq!(store.load(&key()).expect("load"), trace);
        std::fs::remove_dir_all(&dir).ok();
    }
}
