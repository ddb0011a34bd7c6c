//! Set-associative cache with banking, LRU replacement and in-flight
//! (pending-fill) line tracking.
//!
//! Used for all three caches of the hierarchy (direct-mapped L1D is the
//! 1-way special case). The cache tracks *tags only* — data values live
//! with the functional workload model; a timing simulator needs presence,
//! dirtiness and fill times, not contents.
//!
//! A line allocated by a miss carries a **fill time**; accesses that
//! arrive while the fill is still in flight are *delayed hits* — they
//! coalesce onto the fill (no new next-level request, so they behave
//! like MSHR "half misses" structurally) but are **counted as hits**:
//! the reference did not cause a new miss, and its extra wait shows up
//! in the latency statistics instead of the hit rate.
//!
//! ## Two implementations, one behavior
//!
//! The default model ([`CacheModel::Packed`]) is data-oriented: a
//! contiguous tag plane, a fill-time plane, and one `u64` metadata word
//! per set packing the valid/dirty bitmaps and the LRU order as a way
//! permutation, plus a per-access-kind MRU line filter (last line
//! address + way) that short-circuits the tag walk for the same-line
//! repeat hits that dominate streaming media kernels. The seed's
//! array-of-structs model survives as [`CacheModel::Ref`]
//! (`MEDSIM_CACHE=ref`), and the two are proven access-for-access
//! identical — hit/pending/writeback outcomes and every statistic — by
//! the property suite in `crates/mem/tests/model_equivalence.rs` and
//! the pipeline differential suites.

use crate::stats::CacheStats;
use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Geometry and policy of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Number of banks the cache is interleaved across (power of two).
    pub banks: usize,
    /// Write-back (`true`) or write-through (`false`).
    pub write_back: bool,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways × line_bytes` or not a power of two).
    #[must_use]
    pub fn sets(&self) -> u64 {
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "inconsistent cache geometry"
        );
        sets
    }
}

/// Which line-state implementation a [`Cache`] (and the MSHR/write-buffer
/// structures that follow the same knob) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheModel {
    /// Split-plane tag/fill arrays with per-set packed metadata words
    /// and MRU line filters — the default.
    Packed,
    /// The seed's array-of-structs `Vec<Line>` model, kept as the
    /// differential reference (`MEDSIM_CACHE=ref`).
    Ref,
}

impl CacheModel {
    /// Model selected by the `MEDSIM_CACHE` environment variable
    /// (`ref` selects the reference model; anything else, the packed
    /// planes). Read at construction time.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MEDSIM_CACHE") {
            Ok(v) if v.eq_ignore_ascii_case("ref") => CacheModel::Ref,
            _ => CacheModel::Packed,
        }
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Tag matched and the data is ready: a true hit.
    pub hit: bool,
    /// Tag matched but the fill is still in flight: data ready at the
    /// given cycle (delayed hit — coalesces onto the outstanding fill).
    pub pending: Option<Cycle>,
    /// On a miss that evicted a dirty victim, the victim's address.
    pub writeback: Option<u64>,
}

// ---------------------------------------------------------------------
// Reference model: the seed's array-of-structs layout, verbatim.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Cycle at which the line's data arrives (allocation sets it to the
    /// allocation cycle; `set_fill_time` moves it out for real misses).
    fill_at: Cycle,
    /// LRU timestamp (larger = more recent).
    last_use: Cycle,
}

/// The seed's banked set-associative tag store: one 40-byte record per
/// line, timestamp LRU, linear per-way scans. Kept bit-for-bit as the
/// reference the packed planes are differenced against.
#[derive(Debug, Clone)]
struct RefCache {
    config: CacheConfig,
    sets: u64,
    lines: Vec<Line>,
    stats: CacheStats,
    use_counter: Cycle,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        RefCache {
            config,
            sets,
            lines: vec![Line::default(); (sets as usize) * config.ways],
            stats: CacheStats::default(),
            use_counter: 0,
        }
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr / self.config.line_bytes) % self.sets
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes / self.sets
    }

    fn set_slice_mut(&mut self, set: u64) -> &mut [Line] {
        let w = self.config.ways;
        let base = set as usize * w;
        &mut self.lines[base..base + w]
    }

    fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set as usize * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn access(&mut self, now: Cycle, addr: u64, is_store: bool) -> Access {
        self.use_counter += 1;
        let lru_now = self.use_counter;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let write_back = self.config.write_back;
        let line_bytes = self.config.line_bytes;
        let sets = self.sets;

        // Hit / delayed-hit path.
        let tag_match = {
            let lines = self.set_slice_mut(set);
            lines
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
                .map(|line| {
                    line.last_use = lru_now;
                    if is_store && write_back {
                        line.dirty = true;
                    }
                    line.fill_at
                })
        };
        if let Some(fill_at) = tag_match {
            if fill_at <= now {
                self.stats.record(is_store, true);
                return Access {
                    hit: true,
                    pending: None,
                    writeback: None,
                };
            }
            // Delayed hit: the tag matches but the fill is still in
            // flight. Counted as a hit (the reference did not cause a new
            // miss); its extra latency shows up in the latency statistics.
            self.stats.record(is_store, true);
            return Access {
                hit: false,
                pending: Some(fill_at),
                writeback: None,
            };
        }

        self.stats.record(is_store, false);

        // Write-allocate under both policies: media staging patterns
        // (write a block, read it right back) need the line installed or
        // every reload pays an L2 round trip. The write itself still
        // drains through the write buffer in a write-through cache.
        // Allocate: choose the LRU way among the set.
        let writeback = {
            let lines = self.set_slice_mut(set);
            let victim = lines
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_use } else { 0 })
                .expect("ways >= 1");
            let wb = if victim.valid && victim.dirty {
                Some((victim.tag * sets + set) * line_bytes)
            } else {
                None
            };
            *victim = Line {
                valid: true,
                dirty: is_store && write_back,
                tag,
                fill_at: now,
                last_use: lru_now,
            };
            wb
        };
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        Access {
            hit: false,
            pending: None,
            writeback,
        }
    }

    fn retouch_many(&mut self, addr: u64, is_store: bool, n: u64) {
        self.use_counter += n;
        let lru_now = self.use_counter;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let write_back = self.config.write_back;
        let line = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .expect("retouch of a line that is not resident");
        line.last_use = lru_now;
        if is_store && write_back {
            line.dirty = true;
        }
        if is_store {
            self.stats.stores += n;
        } else {
            self.stats.hits += n;
        }
    }

    fn fill_time_of(&self, addr: u64) -> Option<Cycle> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set as usize * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| l.fill_at)
    }

    fn set_fill_time(&mut self, addr: u64, fill_at: Cycle) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.fill_at = fill_at;
            }
        }
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                return true;
            }
        }
        false
    }

    fn clean(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_slice_mut(set) {
            if line.valid && line.tag == tag {
                line.dirty = false;
            }
        }
    }

    fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

// ---------------------------------------------------------------------
// Packed model: split planes + per-set metadata words + MRU filters.
// ---------------------------------------------------------------------

/// Most ways one packed metadata word can describe: 8 valid bits,
/// 8 dirty bits and an 8-slot × 3-bit LRU permutation fit a `u64` with
/// room to spare. Geometries beyond this fall back to the reference
/// model (none of the paper's caches exceed 2 ways).
const PACKED_MAX_WAYS: usize = 8;
/// Bit offset of the dirty bitmap within a metadata word.
const DIRTY_SHIFT: u32 = 8;
/// Bit offset of the LRU permutation within a metadata word.
const PERM_SHIFT: u32 = 16;

/// One remembered (line, set, way) mapping: the MRU filter. `valid` is
/// cleared whenever the line leaves that slot (eviction or explicit
/// invalidation), so a valid memo always names a resident line.
#[derive(Debug, Clone, Copy, Default)]
struct MruMemo {
    line: u64,
    set: u32,
    way: u8,
    valid: bool,
}

/// Split-plane tag store: `tags` and `fill_at` are contiguous per-line
/// planes indexed `set * ways + way`; `meta` holds one `u64` per set
/// with the valid bitmap (bits 0–7), dirty bitmap (bits 8–15) and the
/// LRU order as a way permutation (3 bits per slot from bit 16, slot 0
/// = least recently used). Two MRU memos (loads, stores) short-circuit
/// the tag walk for same-line repeat accesses.
#[derive(Debug, Clone)]
struct PackedCache {
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    write_back: bool,
    tags: Box<[u64]>,
    fill_at: Box<[Cycle]>,
    meta: Box<[u64]>,
    memos: [MruMemo; 2],
    stats: CacheStats,
}

impl PackedCache {
    /// Whether the packed planes can represent this geometry.
    fn supports(config: &CacheConfig) -> bool {
        config.ways >= 1
            && config.ways <= PACKED_MAX_WAYS
            && config.line_bytes.is_power_of_two()
            && (config.banks as u64).is_power_of_two()
    }

    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        debug_assert!(PackedCache::supports(&config));
        let n = sets as usize * config.ways;
        // Initial LRU permutation: way `w` in slot `w`. The order among
        // never-used ways is irrelevant — allocation fills invalid ways
        // by index before the permutation is ever consulted.
        let mut perm = 0u64;
        for w in 0..config.ways as u64 {
            perm |= w << (PERM_SHIFT + 3 * w as u32);
        }
        PackedCache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            ways: config.ways,
            write_back: config.write_back,
            tags: vec![0; n].into_boxed_slice(),
            fill_at: vec![0; n].into_boxed_slice(),
            meta: vec![perm; sets as usize].into_boxed_slice(),
            memos: [MruMemo::default(); 2],
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.set_shift)
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.line_shift) - 1)
    }

    #[inline]
    fn valid_mask(&self) -> u64 {
        (1u64 << self.ways) - 1
    }

    /// Move `way` to the MRU end of the set's LRU permutation.
    #[inline]
    fn perm_touch(&self, meta: u64, way: usize) -> u64 {
        let ways = self.ways as u32;
        if ways == 1 {
            return meta;
        }
        let perm = (meta >> PERM_SHIFT) & ((1u64 << (3 * ways)) - 1);
        // Find the slot currently holding `way` (the permutation always
        // contains every way exactly once).
        let mut slot = 0u32;
        while (perm >> (3 * slot)) & 7 != way as u64 {
            slot += 1;
        }
        let below = perm & ((1u64 << (3 * slot)) - 1);
        let above = (perm >> (3 * (slot + 1))) << (3 * slot);
        let mut p = (below | above) & ((1u64 << (3 * (ways - 1))) - 1);
        p |= (way as u64) << (3 * (ways - 1));
        (meta & !(((1u64 << (3 * ways)) - 1) << PERM_SHIFT)) | (p << PERM_SHIFT)
    }

    /// The LRU way of a fully-valid set (permutation slot 0).
    #[inline]
    fn lru_way(meta: u64) -> usize {
        ((meta >> PERM_SHIFT) & 7) as usize
    }

    /// Tag-walk a set for `tag`, valid ways only.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut valid = self.meta[set] & self.valid_mask();
        while valid != 0 {
            let w = valid.trailing_zeros() as usize;
            if self.tags[base + w] == tag {
                return Some(w);
            }
            valid &= valid - 1;
        }
        None
    }

    /// The resident way serving `addr`, via the MRU filter when it
    /// matches, else a tag walk. Read-only — does not refresh the memo.
    #[inline]
    fn find_resident(&self, addr: u64) -> Option<(usize, usize)> {
        let line = self.line_of(addr);
        for m in &self.memos {
            if m.valid && m.line == line {
                return Some((m.set as usize, m.way as usize));
            }
        }
        let set = self.set_of(addr);
        self.find(set, self.tag_of(addr)).map(|w| (set, w))
    }

    /// Clear any memo naming `(set, way)` — the slot is being reused or
    /// invalidated, so the remembered line is no longer there.
    #[inline]
    fn forget_slot(&mut self, set: usize, way: usize) {
        for m in &mut self.memos {
            if m.valid && m.set as usize == set && m.way as usize == way {
                m.valid = false;
            }
        }
    }

    fn access(&mut self, now: Cycle, addr: u64, is_store: bool) -> Access {
        let line = self.line_of(addr);
        let kind = usize::from(is_store);
        // MRU filter: a repeat access to the last line this kind
        // touched skips the set walk entirely.
        let memo = self.memos[kind];
        let found = if memo.valid && memo.line == line {
            Some((memo.set as usize, memo.way as usize))
        } else {
            let set = self.set_of(addr);
            self.find(set, self.tag_of(addr)).map(|w| (set, w))
        };

        if let Some((set, way)) = found {
            let mut meta = self.perm_touch(self.meta[set], way);
            if is_store && self.write_back {
                meta |= 1 << (DIRTY_SHIFT + way as u32);
            }
            self.meta[set] = meta;
            self.memos[kind] = MruMemo {
                line,
                set: set as u32,
                way: way as u8,
                valid: true,
            };
            let fill_at = self.fill_at[set * self.ways + way];
            self.stats.record(is_store, true);
            if fill_at <= now {
                return Access {
                    hit: true,
                    pending: None,
                    writeback: None,
                };
            }
            // Delayed hit: the fill is still in flight (see the module
            // docs — a hit for the rate, a wait for the latency sum).
            return Access {
                hit: false,
                pending: Some(fill_at),
                writeback: None,
            };
        }

        self.stats.record(is_store, false);

        // Write-allocate under both policies (see the reference model).
        // Victim: first invalid way by index, else the LRU way.
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        let meta = self.meta[set];
        let valid = meta & self.valid_mask();
        let victim = if valid != self.valid_mask() {
            (!valid).trailing_zeros() as usize
        } else {
            PackedCache::lru_way(meta)
        };
        let vbit = 1u64 << victim;
        let writeback = if valid & vbit != 0 && meta & (vbit << DIRTY_SHIFT) != 0 {
            self.stats.writebacks += 1;
            Some(((self.tags[base + victim] << self.set_shift) | set as u64) << self.line_shift)
        } else {
            None
        };
        self.forget_slot(set, victim);
        let mut meta = self.perm_touch(meta, victim);
        meta |= vbit;
        if is_store && self.write_back {
            meta |= vbit << DIRTY_SHIFT;
        } else {
            meta &= !(vbit << DIRTY_SHIFT);
        }
        self.meta[set] = meta;
        self.tags[base + victim] = tag;
        self.fill_at[base + victim] = now;
        self.memos[kind] = MruMemo {
            line,
            set: set as u32,
            way: victim as u8,
            valid: true,
        };
        Access {
            hit: false,
            pending: None,
            writeback,
        }
    }

    fn retouch_many(&mut self, addr: u64, is_store: bool, n: u64) {
        let (set, way) = self
            .find_resident(addr)
            .expect("retouch of a line that is not resident");
        let mut meta = self.perm_touch(self.meta[set], way);
        if is_store && self.write_back {
            meta |= 1 << (DIRTY_SHIFT + way as u32);
        }
        self.meta[set] = meta;
        self.memos[usize::from(is_store)] = MruMemo {
            line: self.line_of(addr),
            set: set as u32,
            way: way as u8,
            valid: true,
        };
        if is_store {
            self.stats.stores += n;
        } else {
            self.stats.hits += n;
        }
    }

    fn probe(&self, addr: u64) -> bool {
        self.find_resident(addr).is_some()
    }

    fn fill_time_of(&self, addr: u64) -> Option<Cycle> {
        self.find_resident(addr)
            .map(|(set, way)| self.fill_at[set * self.ways + way])
    }

    fn set_fill_time(&mut self, addr: u64, fill_at: Cycle) {
        if let Some((set, way)) = self.find_resident(addr) {
            self.fill_at[set * self.ways + way] = fill_at;
        }
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        match self.find_resident(addr) {
            Some((set, way)) => {
                let bit = 1u64 << way;
                self.meta[set] &= !(bit | (bit << DIRTY_SHIFT));
                self.forget_slot(set, way);
                true
            }
            None => false,
        }
    }

    fn clean(&mut self, addr: u64) {
        if let Some((set, way)) = self.find_resident(addr) {
            self.meta[set] &= !(1u64 << (DIRTY_SHIFT + way as u32));
        }
    }

    fn valid_lines(&self) -> usize {
        let mask = self.valid_mask();
        self.meta
            .iter()
            .map(|&m| (m & mask).count_ones() as usize)
            .sum()
    }
}

// ---------------------------------------------------------------------
// The public cache: precomputed geometry + model dispatch.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Model {
    Packed(PackedCache),
    Ref(RefCache),
}

/// A banked set-associative cache (tags only). Pure geometry helpers
/// (`line_addr`, `bank_of`) use precomputed shift/mask
/// pairs regardless of model; line state lives in the selected
/// [`CacheModel`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_mask: u64,
    line_shift: u32,
    /// `banks - 1` when the bank count is a power of two (always, per
    /// the [`CacheConfig`] contract — asserted for the packed model).
    bank_mask: u64,
    inner: Model,
}

impl Cache {
    /// Build a cache from its configuration, using the model selected
    /// by `MEDSIM_CACHE` (see [`CacheModel::from_env`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Cache::with_model(config, CacheModel::from_env())
    }

    /// Build a cache with an explicit model (differential tests and
    /// benches compare both in one process). Geometries the packed
    /// planes cannot represent (more than 8 ways, non-power-of-two
    /// banks) fall back to the reference model.
    #[must_use]
    pub fn with_model(config: CacheConfig, model: CacheModel) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let inner = match model {
            CacheModel::Packed if PackedCache::supports(&config) => {
                Model::Packed(PackedCache::new(config))
            }
            _ => Model::Ref(RefCache::new(config)),
        };
        Cache {
            line_mask: !(config.line_bytes - 1),
            line_shift: config.line_bytes.trailing_zeros(),
            bank_mask: config.banks as u64 - 1,
            inner,
            config,
        }
    }

    /// The model actually in use (after any geometry fallback).
    #[must_use]
    pub fn model(&self) -> CacheModel {
        match self.inner {
            Model::Packed(_) => CacheModel::Packed,
            Model::Ref(_) => CacheModel::Ref,
        }
    }

    /// The configuration this cache was built from.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        match &self.inner {
            Model::Packed(p) => &p.stats,
            Model::Ref(r) => &r.stats,
        }
    }

    /// Line-aligned address of `addr`.
    #[inline]
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & self.line_mask
    }

    /// Bank index serving `addr` (line-interleaved).
    #[inline]
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.bank_mask) as usize
    }

    /// Pure presence probe (tag match, ready or in flight) — no
    /// statistics, no LRU update.
    #[inline]
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        match &self.inner {
            Model::Packed(p) => p.probe(addr),
            Model::Ref(r) => r.probe(addr),
        }
    }

    /// Access the cache at cycle `now`: updates LRU and statistics; on a
    /// miss, allocates the line (evicting the LRU way) and reports any
    /// dirty victim. The caller should follow a real miss with
    /// [`Cache::set_fill_time`] once the next-level completion is known.
    ///
    /// `is_store` marks the line dirty in a write-back cache. In a
    /// write-through cache store misses do **not** allocate
    /// (write-around), matching the L1's no-allocate-on-write-miss policy.
    pub fn access(&mut self, now: Cycle, addr: u64, is_store: bool) -> Access {
        match &mut self.inner {
            Model::Packed(p) => p.access(now, addr, is_store),
            Model::Ref(r) => r.access(now, addr, is_store),
        }
    }

    /// Re-access a line known to be resident (tag present, possibly with
    /// a fill still in flight): exactly the bookkeeping [`Cache::access`]
    /// does on its tag-match path — LRU touch, hit/store accounting,
    /// dirty marking — without re-deciding hit vs miss. The batched
    /// stream path uses this for the second and later elements that
    /// land on a line the first element already walked the tags for.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (protocol violation: the
    /// caller just accessed it).
    pub fn retouch(&mut self, addr: u64, is_store: bool) {
        self.retouch_many(addr, is_store, 1);
    }

    /// [`Cache::retouch`] for `n` back-to-back accesses to the same
    /// resident line: one tag walk, with the LRU counter and statistics
    /// advanced exactly as `n` sequential accesses would have left them
    /// (only the final LRU position is ever observable, since nothing
    /// else touches the cache in between).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (protocol violation: the
    /// caller just accessed it).
    pub fn retouch_many(&mut self, addr: u64, is_store: bool, n: u64) {
        match &mut self.inner {
            Model::Packed(p) => p.retouch_many(addr, is_store, n),
            Model::Ref(r) => r.retouch_many(addr, is_store, n),
        }
    }

    /// Fill time of the line holding `addr`, if resident. A past value
    /// means the data is there; a future one, that the fill is still in
    /// flight. No statistics, no LRU update.
    #[must_use]
    pub fn fill_time_of(&self, addr: u64) -> Option<Cycle> {
        match &self.inner {
            Model::Packed(p) => p.fill_time_of(addr),
            Model::Ref(r) => r.fill_time_of(addr),
        }
    }

    /// Record when the fill for the line holding `addr` completes.
    pub fn set_fill_time(&mut self, addr: u64, fill_at: Cycle) {
        match &mut self.inner {
            Model::Packed(p) => p.set_fill_time(addr, fill_at),
            Model::Ref(r) => r.set_fill_time(addr, fill_at),
        }
    }

    /// Invalidate the line containing `addr` if present (exclusive-bit
    /// coherence probe from the decoupled hierarchy). Returns whether a
    /// line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        match &mut self.inner {
            Model::Packed(p) => p.invalidate(addr),
            Model::Ref(r) => r.invalidate(addr),
        }
    }

    /// Mark the line containing `addr` clean (after a write-back drains).
    pub fn clean(&mut self, addr: u64) {
        match &mut self.inner {
            Model::Packed(p) => p.clean(addr),
            Model::Ref(r) => r.clean(addr),
        }
    }

    /// Number of valid lines (testing / occupancy inspection).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        match &self.inner {
            Model::Packed(p) => p.valid_lines(),
            Model::Ref(r) => r.valid_lines(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: [CacheModel; 2] = [CacheModel::Packed, CacheModel::Ref];

    fn small_with(model: CacheModel) -> Cache {
        // 4 sets × 2 ways × 32B = 256 B
        Cache::with_model(
            CacheConfig {
                size_bytes: 256,
                ways: 2,
                line_bytes: 32,
                banks: 2,
                write_back: true,
            },
            model,
        )
    }

    fn small() -> Cache {
        small_with(CacheModel::Packed)
    }

    #[test]
    fn geometry() {
        for model in MODELS {
            let c = small_with(model);
            assert_eq!(c.config().sets(), 4);
            assert_eq!(c.line_addr(0x47), 0x40);
            assert_eq!(c.bank_of(0x00), 0);
            assert_eq!(c.bank_of(0x20), 1);
            assert_eq!(c.bank_of(0x40), 0);
        }
    }

    #[test]
    fn model_selection_and_fallback() {
        let cfg = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
            banks: 2,
            write_back: true,
        };
        assert_eq!(
            Cache::with_model(cfg, CacheModel::Packed).model(),
            CacheModel::Packed
        );
        assert_eq!(
            Cache::with_model(cfg, CacheModel::Ref).model(),
            CacheModel::Ref
        );
        // 16 ways exceed one packed metadata word: silently fall back.
        let wide = CacheConfig {
            size_bytes: 16 * 1024,
            ways: 16,
            line_bytes: 32,
            banks: 2,
            write_back: true,
        };
        assert_eq!(
            Cache::with_model(wide, CacheModel::Packed).model(),
            CacheModel::Ref
        );
    }

    #[test]
    fn miss_then_hit() {
        for model in MODELS {
            let mut c = small_with(model);
            assert!(!c.access(0, 0x100, false).hit);
            assert!(c.access(1, 0x100, false).hit);
            assert!(c.access(2, 0x11f, false).hit, "same line");
            assert!(!c.access(3, 0x120, false).hit, "next line");
            assert_eq!(c.stats().hits, 2);
            assert_eq!(c.stats().misses, 2);
        }
    }

    #[test]
    fn delayed_hit_while_fill_in_flight() {
        for model in MODELS {
            let mut c = small_with(model);
            let m = c.access(0, 0x100, false);
            assert!(!m.hit);
            c.set_fill_time(0x100, 90);
            // Access at cycle 5: tag matches, data not ready until 90.
            let d = c.access(5, 0x100, false);
            assert!(!d.hit);
            assert_eq!(d.pending, Some(90));
            // Access at cycle 90: true hit.
            let h = c.access(90, 0x100, false);
            assert!(h.hit);
            assert_eq!(c.stats().misses, 1, "only the original miss counts");
            assert_eq!(c.stats().hits, 2, "the delayed hit counts as a hit");
        }
    }

    /// Dedicated pin of the delayed-hit ("half miss") accounting: a
    /// tag-matching access to an in-flight line increments `hits` (or
    /// `stores` for stores), never `misses` — the fill it coalesces
    /// onto already counted. Mirrors the MSHR half-miss convention and
    /// the module docs.
    #[test]
    fn delayed_hit_accounting_is_half_miss_style() {
        for model in MODELS {
            let mut c = small_with(model);
            assert!(!c.access(0, 0x200, false).hit); // the real miss
            c.set_fill_time(0x200, 100);
            for t in 1..=5 {
                let a = c.access(t, 0x200, false);
                assert!(!a.hit);
                assert_eq!(a.pending, Some(100), "coalesces onto the fill");
            }
            let s = c.access(6, 0x208, true); // store into the same in-flight line
            assert_eq!(s.pending, Some(100));
            assert_eq!(c.stats().misses, 1, "one miss, not six");
            assert_eq!(c.stats().hits, 5, "every delayed load counts as a hit");
            assert_eq!(c.stats().stores, 1, "delayed stores count as stores");
            assert_eq!(c.stats().writebacks, 0);
        }
    }

    #[test]
    fn lru_replacement_within_set() {
        for model in MODELS {
            let mut c = small_with(model);
            // Three lines mapping to the same set (set stride = 4 lines × 32B = 128B).
            let a = 0x000;
            let b = 0x080;
            let d = 0x100;
            c.access(0, a, false);
            c.access(1, b, false);
            c.access(2, a, false); // a is MRU
            c.access(3, d, false); // evicts b
            assert!(c.probe(a));
            assert!(!c.probe(b));
            assert!(c.probe(d));
        }
    }

    #[test]
    fn writeback_of_dirty_victim() {
        for model in MODELS {
            let mut c = small_with(model);
            c.access(0, 0x000, true); // dirty
            c.access(1, 0x080, false);
            let r = c.access(2, 0x100, false); // evicts 0x000 (LRU, dirty)
            assert_eq!(r.writeback, Some(0x000));
            assert_eq!(c.stats().writebacks, 1);
        }
    }

    #[test]
    fn clean_prevents_writeback() {
        for model in MODELS {
            let mut c = small_with(model);
            c.access(0, 0x000, true);
            c.clean(0x000);
            c.access(1, 0x080, false);
            let r = c.access(2, 0x100, false);
            assert_eq!(r.writeback, None);
        }
    }

    #[test]
    fn write_through_store_miss_allocates_for_later_loads() {
        for model in MODELS {
            let mut c = Cache::with_model(
                CacheConfig {
                    size_bytes: 256,
                    ways: 1,
                    line_bytes: 32,
                    banks: 1,
                    write_back: false,
                },
                model,
            );
            let r = c.access(0, 0x40, true);
            assert!(!r.hit);
            assert!(c.probe(0x40), "write-allocate installs the line");
            // The staging pattern: store then load hits.
            assert!(c.access(1, 0x40, false).hit);
            // Store accounting stays out of the read hit rate.
            assert_eq!(c.stats().stores, 1);
            assert_eq!(c.stats().hits, 1);
            assert_eq!(c.stats().misses, 0, "store misses are not read misses");
        }
    }

    #[test]
    fn write_through_lines_never_dirty() {
        for model in MODELS {
            let mut c = Cache::with_model(
                CacheConfig {
                    size_bytes: 256,
                    ways: 1,
                    line_bytes: 32,
                    banks: 1,
                    write_back: false,
                },
                model,
            );
            c.access(0, 0x40, false);
            c.access(1, 0x40, true);
            // Evict 0x40's line: direct-mapped, 8 sets; same-set stride = 256.
            let r = c.access(2, 0x40 + 256, false);
            assert_eq!(r.writeback, None, "write-through cache never writes back");
        }
    }

    #[test]
    fn invalidate_removes_line() {
        for model in MODELS {
            let mut c = small_with(model);
            c.access(0, 0x200, false);
            assert!(c.probe(0x200));
            assert!(c.invalidate(0x200));
            assert!(!c.probe(0x200));
            assert!(!c.invalidate(0x200), "second invalidate finds nothing");
        }
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        for model in MODELS {
            let mut c = small_with(model);
            c.access(0, 0x000, false);
            let hits_before = c.stats().hits;
            for _ in 0..10 {
                let _ = c.probe(0x000);
            }
            assert_eq!(c.stats().hits, hits_before);
        }
    }

    #[test]
    fn direct_mapped_conflicts() {
        for model in MODELS {
            let mut c = Cache::with_model(
                CacheConfig {
                    size_bytes: 128,
                    ways: 1,
                    line_bytes: 32,
                    banks: 1,
                    write_back: false,
                },
                model,
            );
            // 4 sets; addresses 0x00 and 0x80 collide in set 0.
            c.access(0, 0x00, false);
            c.access(1, 0x80, false);
            assert!(!c.probe(0x00));
            assert!(c.probe(0x80));
        }
    }

    #[test]
    fn valid_line_count() {
        for model in MODELS {
            let mut c = small_with(model);
            assert_eq!(c.valid_lines(), 0);
            c.access(0, 0x000, false);
            c.access(1, 0x080, false);
            assert_eq!(c.valid_lines(), 2);
        }
    }

    #[test]
    fn store_to_pending_writeback_line_marks_dirty() {
        for model in MODELS {
            let mut c = small_with(model);
            c.access(0, 0x300, false); // allocate (set 0)
            c.set_fill_time(0x300, 50);
            let s = c.access(10, 0x300, true);
            assert_eq!(s.pending, Some(50), "store while fill in flight is delayed");
            // Fill lands; the merged store left the line dirty, so filling the
            // set (same-set stride 128: 0x380, 0x400) must write 0x300 back.
            c.access(60, 0x380, false);
            let r = c.access(61, 0x400, false);
            assert_eq!(r.writeback, Some(0x300));
        }
    }

    /// The MRU filter must never outlive the line it remembers: evict
    /// the remembered line via a conflicting allocation, then re-access
    /// it — the access must be a miss, not a stale filter hit.
    #[test]
    fn mru_filter_is_invalidated_by_eviction() {
        let mut c = Cache::with_model(
            CacheConfig {
                size_bytes: 128,
                ways: 1,
                line_bytes: 32,
                banks: 1,
                write_back: false,
            },
            CacheModel::Packed,
        );
        assert!(!c.access(0, 0x00, false).hit);
        assert!(c.access(1, 0x00, false).hit, "filter hit");
        assert!(!c.access(2, 0x80, false).hit, "conflict evicts 0x00");
        assert!(
            !c.access(3, 0x00, false).hit,
            "filter must have been cleared"
        );
        assert!(!c.probe(0x80 + 0x80), "probe via filter only when resident");
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().hits, 1);
    }

    /// Same, via explicit invalidation (the decoupled hierarchy's
    /// coherence probe) and for the store-kind filter.
    #[test]
    fn mru_filter_is_invalidated_by_invalidate() {
        let mut c = small();
        c.access(0, 0x100, true); // store filter remembers 0x100
        c.access(1, 0x100, false); // load filter remembers 0x100
        assert!(c.invalidate(0x100));
        assert!(!c.probe(0x100));
        assert!(!c.access(2, 0x100, true).hit, "store filter cleared");
        // The store re-allocated the line; the load filter was cleared
        // too, so this goes through a fresh tag walk and hits.
        assert!(
            c.access(3, 0x100, false).hit,
            "load filter cleared, tag walk hits"
        );
        assert_eq!(c.stats().stores, 2);
    }

    /// Alternating loads and stores to lines in the same set keep both
    /// filters live at once; LRU order must still match the reference.
    #[test]
    fn interleaved_kinds_keep_lru_exact() {
        let mut packed = small_with(CacheModel::Packed);
        let mut reference = small_with(CacheModel::Ref);
        // 0x000 and 0x080 share set 0; 0x100 forces the eviction choice.
        let seq: [(u64, bool); 7] = [
            (0x000, false),
            (0x080, true),
            (0x000, true),
            (0x080, false),
            (0x000, false),
            (0x100, false), // evicts 0x080 in both models
            (0x080, false), // miss in both
        ];
        for (t, (addr, st)) in seq.iter().enumerate() {
            let a = packed.access(t as u64, *addr, *st);
            let b = reference.access(t as u64, *addr, *st);
            assert_eq!(a, b, "step {t}");
        }
        assert_eq!(packed.stats(), reference.stats());
    }
}
