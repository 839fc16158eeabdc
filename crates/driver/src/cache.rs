//! The incremental recompilation cache (paper §3's summary-file design).
//!
//! One content-addressed store holds every product a build can reuse,
//! each in its own least-recently-used map ([`Lru`]):
//!
//! * **phase 1** keyed on the phase-1 key (module name, source text,
//!   optimize flag);
//! * **phase 2** keyed on (IR fingerprint, database-slice fingerprint);
//! * **the analysis memo** keyed on the in-order summary fingerprints plus
//!   the binary encoding of the full
//!   [`AnalyzerOptions`](ipra_core::analyzer::AnalyzerOptions), profile and
//!   target included, so an edit that leaves every summary alone skips the
//!   analyzer.
//!
//! Keys name content, not modules, so several versions of a module — one
//! per program that shares the cache, or per edit — coexist up to the
//! capacity. An optional **on-disk** tier ([`CompilationCache::with_disk`],
//! `cminc --cache-dir`) holds the phase-1 and phase-2 entries under the
//! same keys, so the fingerprints persist across *process* invocations.
//!
//! The cache takes `&self`: one mutex guards the three maps and is held
//! only around one batch probe or one batch store — never while a phase
//! computes, the analyzer runs or a training run executes — so builds
//! that share the cache (every `cmind` request) overlap their work. A lock
//! poisoned by a panic is recovered by clearing the maps.
//!
//! Every probe and store counts itself into the [`PhaseStats`] of the
//! build that made it — hits, disk hits, misses, evictions — and into the
//! build's telemetry, so a build's [`BuildReport`] is the one record of
//! what the cache did for it.
//!
//! Reuse across builds — including builds at *different*
//! [`PaperConfig`](ipra_core::analyzer::PaperConfig)s — is sound because a
//! matching slice fingerprint certifies codegen would see identical
//! directives.

use cmin_ir::IrModule;
use ipra_artifact::frame::FrameFormat;
use ipra_core::analyzer::AnalyzerStats;
use ipra_core::fingerprint::Fnv64;
use ipra_core::ProgramDatabase;
use ipra_summary::ModuleSummary;
use ipra_telemetry::Telemetry;
use serde::{BinDeserialize, BinSerialize, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vpr::program::ObjectModule;

/// Cache accounting for one phase of one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Modules served from the cache (memory or disk).
    pub hits: usize,
    /// Of those hits, how many were loaded from the on-disk tier (always
    /// zero when the cache has no disk directory).
    pub disk_hits: usize,
    /// Modules recomputed.
    pub misses: usize,
    /// Entries pushed out of the in-memory tier by the size cap while this
    /// phase ran (always zero for an uncapped cache). Evicted entries stay
    /// on the disk tier when one is attached, so an eviction degrades a
    /// future memory hit to a disk hit — or to a recompute, never to a
    /// wrong object.
    pub evictions: usize,
    /// Wall-clock seconds spent in the phase (including cache probing).
    pub seconds: f64,
}

impl PhaseStats {
    /// Hit fraction in `[0, 1]` (1.0 for an empty phase).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-phase wall-clock and cache accounting for one build.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Compiler first phase (parse → check → lower → optimize → summarize).
    pub phase1: PhaseStats,
    /// Program analyzer seconds (a memo hit skips the analyzer itself).
    pub analyze_seconds: f64,
    /// Compiler second phase (register allocation + emission).
    pub phase2: PhaseStats,
    /// Link seconds (always runs).
    pub link_seconds: f64,
    /// End-to-end seconds for the build.
    pub total_seconds: f64,
    /// Names of modules whose second phase actually re-ran, in source
    /// order — the observable of the paper's "only recompile where the
    /// database changed" claim.
    pub recompiled: Vec<String>,
}

/// Everything phase 1 produces for one module, plus the fingerprints that
/// decide whether it (and its phase 2) can be reused.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Phase1Entry {
    /// Fingerprint of (module name, source text, optimize flag).
    pub(crate) key: u64,
    /// Fingerprint of the optimized IR (what phase 2 consumes).
    pub(crate) ir_fp: u64,
    /// Fingerprint of the summary's positional binary encoding (what the
    /// analyzer consumes; part of the analysis memo key).
    pub(crate) summary_fp: u64,
    /// Direct callees named anywhere in the IR — the procedures whose
    /// database slice codegen will consult at call sites.
    pub(crate) callees: Vec<String>,
    pub(crate) ir: IrModule,
    pub(crate) summary: ModuleSummary,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Phase2Entry {
    pub(crate) ir_fp: u64,
    pub(crate) db_fp: u64,
    pub(crate) object: ObjectModule,
}

/// The analyzer products a build uses, as memoized: the database and the
/// statistics (the per-web report is not kept).
#[derive(Debug)]
pub(crate) struct Analyzed {
    pub(crate) database: ProgramDatabase,
    pub(crate) stats: AnalyzerStats,
}

/// How many analyses the memo keeps. One per program in active use is
/// enough — a memo hit needs the summaries of the build before — so a
/// small fixed bound keeps a long-lived daemon's memory flat.
const ANALYSES: usize = 32;

/// The disk tier's frames ([`ipra_artifact::frame`]): the positional
/// binary codec straight between structs and bytes, so a disk-warm build
/// decodes each entry once and stays faster than compiling. The payload
/// cap is the length prefix's own limit.
///
/// v4: phase-1 entries gained `summary_fp`. Frames from older cache
/// directories must read as misses, not as shifted garbage (v3 widened
/// `RegSet` to 8 bytes; v1 frames held a `Value` tree).
const FRAMES: FrameFormat = FrameFormat { magic: *b"IPRF", version: 4, max_payload: u32::MAX };

/// A map with an optional size cap and deterministic least-recently-used
/// eviction: recency is a per-map operation tick (not wall clock), bumped
/// on every hit and insert, so the eviction order is a pure function of
/// the operation sequence — never hash-map order. `order` indexes the
/// entries by tick, so finding the victim is a first-key pop.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    entries: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    cap: Option<usize>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(cap: Option<usize>) -> Lru<K, V> {
        Lru { entries: HashMap::new(), order: BTreeMap::new(), tick: 0, cap }
    }

    /// The entry under `key`, marked most recently used.
    fn get(&mut self, key: &K) -> Option<V> {
        let (value, used) = self.entries.get_mut(key)?;
        self.tick += 1;
        self.order.remove(used);
        *used = self.tick;
        self.order.insert(self.tick, key.clone());
        Some(value.clone())
    }

    /// Inserts (or replaces) an entry as the most recently used, then
    /// evicts down to the cap; returns how many entries were evicted.
    fn insert(&mut self, key: K, value: V) -> usize {
        self.tick += 1;
        if let Some((_, used)) = self.entries.insert(key.clone(), (value, self.tick)) {
            self.order.remove(&used);
        }
        self.order.insert(self.tick, key);
        self.shrink()
    }

    /// Sets the cap and evicts down to it.
    fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.shrink();
    }

    fn shrink(&mut self) -> usize {
        let Some(cap) = self.cap else { return 0 };
        let mut evicted = 0;
        while self.entries.len() > cap {
            let (_, victim) = self.order.pop_first().expect("a map above its cap is non-empty");
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The in-memory tiers, behind the cache's one lock.
#[derive(Debug)]
pub(crate) struct Tiers {
    phase1: Lru<u64, Arc<Phase1Entry>>,
    phase2: Lru<(u64, u64), Arc<Phase2Entry>>,
    analyses: Lru<u64, Arc<Analyzed>>,
}

impl Tiers {
    fn clear(&mut self) {
        self.phase1.clear();
        self.phase2.clear();
        self.analyses.clear();
    }
}

/// A cache entry kind that has a map in [`Tiers`] and a directory in the
/// disk tier.
pub(crate) trait Entry: BinSerialize + BinDeserialize {
    /// The content key the entry is stored under.
    type Key: Copy + Eq + Hash;
    /// Frame tag: a frame of one kind never decodes as another.
    const TAG: u8;
    /// Disk-tier subdirectory, and the `cache.<tier>.*` counter prefix.
    const TIER: &'static str;
    fn key(&self) -> Self::Key;
    /// The disk tier's file name for `key`.
    fn file_id(key: Self::Key) -> u64;
    fn map(tiers: &mut Tiers) -> &mut Lru<Self::Key, Arc<Self>>;
}

impl Entry for Phase1Entry {
    type Key = u64;
    const TAG: u8 = 1;
    const TIER: &'static str = "p1";
    fn key(&self) -> u64 {
        self.key
    }
    fn file_id(key: u64) -> u64 {
        key
    }
    fn map(tiers: &mut Tiers) -> &mut Lru<u64, Arc<Phase1Entry>> {
        &mut tiers.phase1
    }
}

impl Entry for Phase2Entry {
    type Key = (u64, u64);
    const TAG: u8 = 2;
    const TIER: &'static str = "p2";
    fn key(&self) -> (u64, u64) {
        (self.ir_fp, self.db_fp)
    }
    fn file_id((ir_fp, db_fp): (u64, u64)) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(ir_fp);
        h.write_u64(db_fp);
        h.finish()
    }
    fn map(tiers: &mut Tiers) -> &mut Lru<(u64, u64), Arc<Phase2Entry>> {
        &mut tiers.phase2
    }
}

/// Adds `n` to counter `key` when a collector is attached and `n > 0`.
fn count(tele: Option<&Telemetry>, key: &str, n: usize) {
    if let (Some(t), true) = (tele, n > 0) {
        t.add(key, n as u64);
    }
}

/// Adds `n` to counter `cache.<tier>.<what>` of `E`'s tier.
fn count_tier<E: Entry>(tele: Option<&Telemetry>, what: &str, n: usize) {
    count(tele, &format!("cache.{}.{what}", E::TIER), n);
}

/// The persistent tier: cache entries as binary frames content-addressed
/// by their fingerprint keys under `p1/` and `p2/` of a cache directory.
///
/// Because file names *are* the keys, concurrent writers can only race on
/// identical content, and a load checks the frame's checksum and
/// cross-checks the embedded fingerprints against the requested key — a
/// corrupt or truncated file degrades to a cache miss, never to a wrong
/// object.
///
/// Stores are *batched*: entries are encoded immediately but buffered in
/// memory and written out together by `flush` (the driver flushes at the
/// end of each build, and `Drop` flushes whatever remains),
/// so a build issues one burst of writes instead of interleaving I/O with
/// compilation. Same-build reuse is unaffected — the in-memory tier serves
/// entries the current process computed.
#[derive(Debug)]
struct DiskCache {
    root: PathBuf,
    pending: Mutex<Vec<(PathBuf, Vec<u8>)>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory: any I/O error creating
    /// `root`, `root/p1` or `root/p2` is returned.
    fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(root.join(Phase1Entry::TIER))?;
        std::fs::create_dir_all(root.join(Phase2Entry::TIER))?;
        Ok(DiskCache { root, pending: Mutex::new(Vec::new()) })
    }

    fn path<E: Entry>(&self, key: E::Key) -> PathBuf {
        self.root.join(E::TIER).join(format!("{:016x}.bin", E::file_id(key)))
    }

    /// Loads one entry; any decode error, or embedded fingerprints that do
    /// not match the requested key, is a miss. Counts the read traffic,
    /// plus a corrupt frame when a file read fine but failed to decode or
    /// fingerprint-check.
    fn load<E: Entry>(&self, key: E::Key, tele: Option<&Telemetry>) -> Option<E> {
        let bytes = std::fs::read(self.path::<E>(key)).ok()?;
        let e = FRAMES.decode(&bytes, E::TAG).ok().filter(|e: &E| e.key() == key);
        count(tele, "cache.disk.reads", 1);
        count(tele, "cache.disk.read_bytes", bytes.len());
        count(tele, "cache.disk.corrupt", usize::from(e.is_none()));
        e
    }

    /// Encodes one entry and buffers its write until the next flush.
    fn store<E: Entry>(&self, entry: &E, tele: Option<&Telemetry>) {
        let frame = FRAMES.encode(E::TAG, entry);
        count(tele, "cache.disk.writes", 1);
        count(tele, "cache.disk.write_bytes", frame.len());
        let path = self.path::<E>(entry.key());
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).push((path, frame));
    }

    /// Writes all buffered entries to disk. Best-effort per entry: a failed
    /// write leaves the disk tier cold for that key, not wrong.
    fn flush(&self, tele: Option<&Telemetry>) {
        let _s = ipra_telemetry::span(tele, "cache", "cache:flush");
        let pending =
            std::mem::take(&mut *self.pending.lock().unwrap_or_else(PoisonError::into_inner));
        for (path, bytes) in pending {
            let _ = std::fs::write(path, bytes);
        }
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        self.flush(None);
    }
}

/// The incremental recompilation cache: the content-addressed in-memory
/// tiers plus an optional on-disk tier behind them (see the module docs).
/// Share it by reference: every method takes `&self`.
#[derive(Debug)]
pub struct CompilationCache {
    tiers: Mutex<Tiers>,
    disk: Option<DiskCache>,
}

impl Default for CompilationCache {
    fn default() -> CompilationCache {
        CompilationCache::new()
    }
}

impl CompilationCache {
    /// An empty, memory-only, uncapped cache.
    pub fn new() -> CompilationCache {
        CompilationCache {
            tiers: Mutex::new(Tiers {
                phase1: Lru::new(None),
                phase2: Lru::new(None),
                analyses: Lru::new(Some(ANALYSES)),
            }),
            disk: None,
        }
    }

    /// An empty in-memory cache backed by the on-disk tier at `dir`
    /// (created if absent). Entries found on disk count as hits; entries
    /// computed by a build are written through.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the cache directory.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<CompilationCache> {
        Ok(CompilationCache { disk: Some(DiskCache::open(dir)?), ..CompilationCache::new() })
    }

    /// The on-disk tier's directory, when one is attached.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.root.as_path())
    }

    /// Sets (or removes, with `None`) the in-memory size cap, clamped to at
    /// least 1, and enforces it immediately. The cap bounds the phase-1 and
    /// the phase-2 map separately — a cache with capacity `n` keeps at most
    /// `n` entries of each; the analysis memo keeps a fixed small number.
    ///
    /// Eviction is least-recently-used with a deterministic order: recency
    /// is a per-map operation tick, not wall clock. Evicting never loses
    /// work permanently — entries were written through to the disk tier
    /// (when attached) at store time, so a re-request degrades to a disk
    /// hit, or to a recompute on a memory-only cache.
    pub fn set_capacity(&self, cap: Option<usize>) {
        let cap = cap.map(|c| c.max(1));
        let mut tiers = self.tiers();
        tiers.phase1.set_cap(cap);
        tiers.phase2.set_cap(cap);
    }

    /// Empties the in-memory tiers and the analysis memo. The disk tier is
    /// left alone: its files are content-addressed and checksummed, and
    /// other processes may share the directory.
    pub fn clear(&self) {
        self.tiers().clear();
    }

    /// The in-memory tiers, locked. A lock poisoned by a panic elsewhere
    /// may guard half-updated maps, so it is recovered by clearing them:
    /// the next probes miss and recompute.
    fn tiers(&self) -> MutexGuard<'_, Tiers> {
        self.tiers.lock().unwrap_or_else(|poisoned| {
            let mut tiers = poisoned.into_inner();
            tiers.clear();
            self.tiers.clear_poison();
            tiers
        })
    }

    /// Probes a batch of keys: memory first, under one lock; then the disk
    /// tier, outside it, for the keys memory missed, promoting what it
    /// finds under a second lock. Counted into `stats` as hits (and disk
    /// hits), misses and promotion evictions.
    ///
    /// Entries are shared, not copied: a hit is a refcount bump, so the hot
    /// path of a warm (or disk-warm) build never deep-clones an entry.
    pub(crate) fn probe<E: Entry>(
        &self,
        keys: &[E::Key],
        tele: Option<&Telemetry>,
        stats: &mut PhaseStats,
    ) -> Vec<Option<Arc<E>>> {
        let mut found: Vec<Option<Arc<E>>> = {
            let mut tiers = self.tiers();
            let map = E::map(&mut tiers);
            keys.iter().map(|k| map.get(k)).collect()
        };
        let mem_hits = found.iter().flatten().count();
        let (promoted, loaded): (Vec<usize>, Vec<E>) = match &self.disk {
            Some(disk) => (0..keys.len())
                .filter(|&i| found[i].is_none())
                .filter_map(|i| disk.load::<E>(keys[i], tele).map(|e| (i, e)))
                .unzip(),
            None => (Vec::new(), Vec::new()),
        };
        let disk_hits = loaded.len();
        let misses = keys.len() - mem_hits - disk_hits;
        for (i, e) in promoted.into_iter().zip(self.insert(loaded, tele, stats)) {
            found[i] = Some(e);
        }
        count_tier::<E>(tele, "mem_hits", mem_hits);
        count_tier::<E>(tele, "disk_hits", disk_hits);
        count_tier::<E>(tele, "promotes", disk_hits);
        count_tier::<E>(tele, "misses", misses);
        stats.hits += mem_hits + disk_hits;
        stats.disk_hits += disk_hits;
        stats.misses += misses;
        found
    }

    /// Stores a batch of freshly computed entries: written through to the
    /// disk tier when one is attached (encoded outside the lock), then
    /// [inserted](Self::insert) in memory. Returns the shared handles in
    /// batch order so the caller keeps using the entries without cloning
    /// them.
    pub(crate) fn store<E: Entry>(
        &self,
        entries: Vec<E>,
        tele: Option<&Telemetry>,
        stats: &mut PhaseStats,
    ) -> Vec<Arc<E>> {
        if let Some(disk) = &self.disk {
            for e in &entries {
                disk.store(e, tele);
            }
        }
        self.insert(entries, tele, stats)
    }

    /// Puts a batch of entries in memory under one lock, evicting past the
    /// cap, and counts the evictions.
    fn insert<E: Entry>(
        &self,
        entries: Vec<E>,
        tele: Option<&Telemetry>,
        stats: &mut PhaseStats,
    ) -> Vec<Arc<E>> {
        let entries: Vec<Arc<E>> = entries.into_iter().map(Arc::new).collect();
        let evictions: usize = {
            let mut tiers = self.tiers();
            let map = E::map(&mut tiers);
            entries.iter().map(|e| map.insert(e.key(), Arc::clone(e))).sum()
        };
        count_tier::<E>(tele, "evictions", evictions);
        stats.evictions += evictions;
        entries
    }

    /// The memoized analysis under `key`, or `analyze`'s result — run with
    /// the lock released, then stored — on a miss. Counted as
    /// `cache.analysis.hits`/`.misses`.
    pub(crate) fn analysis(
        &self,
        key: u64,
        tele: Option<&Telemetry>,
        analyze: impl FnOnce() -> Analyzed,
    ) -> Arc<Analyzed> {
        let hit = self.tiers().analyses.get(&key);
        if let Some(hit) = hit {
            count(tele, "cache.analysis.hits", 1);
            return hit;
        }
        count(tele, "cache.analysis.misses", 1);
        let analyzed = Arc::new(analyze());
        self.tiers().analyses.insert(key, Arc::clone(&analyzed));
        analyzed
    }

    /// Flushes the disk tier's buffered writes, if one is attached. Called
    /// by the driver at the end of each build; dropping the cache flushes
    /// too, so entries are never lost — flushing early just bounds how long
    /// they sit in memory.
    pub(crate) fn flush(&self, tele: Option<&Telemetry>) {
        if let Some(d) = &self.disk {
            d.flush(tele);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p1(name: &str, key: u64) -> Phase1Entry {
        Phase1Entry {
            key,
            ir_fp: key ^ 0xABCD,
            summary_fp: key ^ 0x1234,
            callees: Vec::new(),
            ir: IrModule { name: name.to_string(), globals: Vec::new(), functions: Vec::new() },
            summary: ModuleSummary {
                module: name.to_string(),
                procs: Vec::new(),
                globals: Vec::new(),
            },
        }
    }

    fn p2(ir_fp: u64, db_fp: u64) -> Phase2Entry {
        Phase2Entry { ir_fp, db_fp, object: ObjectModule::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ipra-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A memory-only cache holding at most `cap` entries per tier map.
    fn capped(cap: usize) -> CompilationCache {
        let c = CompilationCache::new();
        c.set_capacity(Some(cap));
        c
    }

    fn store1(c: &CompilationCache, name: &str, key: u64, stats: &mut PhaseStats) {
        c.store(vec![p1(name, key)], None, stats);
    }

    fn hit1(c: &CompilationCache, key: u64, stats: &mut PhaseStats) -> bool {
        c.probe::<Phase1Entry>(&[key], None, stats)[0].is_some()
    }

    fn len1(c: &CompilationCache) -> usize {
        c.tiers().phase1.len()
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        for i in 0..100u64 {
            store1(&c, &format!("m{i}"), i, &mut stats);
            c.store(vec![p2(i, i)], None, &mut stats);
        }
        assert_eq!(len1(&c), 100);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        let found = c.probe::<Phase1Entry>(&[1, 2, 1], None, &mut stats);
        assert_eq!(found.iter().map(Option::is_some).collect::<Vec<_>>(), [true, false, true]);
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (2, 0, 1));
    }

    #[test]
    fn versions_of_one_module_coexist() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        store1(&c, "a", 2, &mut stats);
        assert!(hit1(&c, 1, &mut stats), "the older version is still there");
        assert!(hit1(&c, 2, &mut stats));
        assert_eq!(len1(&c), 2);
    }

    #[test]
    fn cap_evicts_the_least_recently_used_entry() {
        let c = capped(2);
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        store1(&c, "b", 2, &mut stats);
        // Touch "a": "b" becomes the LRU victim despite being stored later.
        assert!(hit1(&c, 1, &mut stats));
        store1(&c, "c", 3, &mut stats);
        assert_eq!(stats.evictions, 1);
        assert!(!hit1(&c, 2, &mut stats), "LRU entry evicted");
        assert!(hit1(&c, 1, &mut stats), "recently used entry kept");
        assert!(hit1(&c, 3, &mut stats), "new entry kept");
    }

    #[test]
    fn phase2_tier_is_capped_independently() {
        let c = capped(2);
        let mut stats = PhaseStats::default();
        for i in 0..5u64 {
            c.store(vec![p2(i, i)], None, &mut stats);
        }
        assert_eq!(c.tiers().phase2.len(), 2);
        assert_eq!(stats.evictions, 3);
        // Oldest entries went first; the two most recent survive.
        let found = c.probe::<Phase2Entry>(&[(3, 3), (4, 4), (0, 0)], None, &mut stats);
        assert_eq!(found.iter().map(Option::is_some).collect::<Vec<_>>(), [true, true, false]);
    }

    #[test]
    fn set_capacity_shrinks_immediately_and_none_lifts_the_cap() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        for i in 0..8u64 {
            store1(&c, &format!("m{i}"), i, &mut stats);
        }
        c.set_capacity(Some(3));
        assert_eq!(len1(&c), 3);
        c.set_capacity(None);
        for i in 8..20u64 {
            store1(&c, &format!("m{i}"), i, &mut stats);
        }
        assert_eq!(len1(&c), 15);
        assert_eq!(stats.evictions, 0, "no evictions once uncapped");
    }

    #[test]
    fn eviction_order_is_deterministic_across_identical_runs() {
        let run = || {
            let c = capped(3);
            let mut stats = PhaseStats::default();
            let mut survivors = Vec::new();
            for i in 0..12u64 {
                store1(&c, &format!("m{i}"), i, &mut stats);
                // Re-touch a rolling window so recency differs from
                // insertion order.
                for j in i.saturating_sub(1)..=i {
                    hit1(&c, j, &mut stats);
                }
                let mut present: Vec<u64> = c.tiers().phase1.entries.keys().copied().collect();
                present.sort();
                survivors.push(present);
            }
            (survivors, stats.hits, stats.misses, stats.evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evicted_entries_degrade_to_disk_hits_not_losses() {
        let dir = tmpdir("evict-disk");
        let c = CompilationCache::with_disk(&dir).unwrap();
        c.set_capacity(Some(1));
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        store1(&c, "b", 2, &mut stats); // evicts "a" from memory
        c.flush(None);
        assert_eq!(stats.evictions, 1);
        let e = c.probe::<Phase1Entry>(&[1], None, &mut stats)[0].clone();
        assert_eq!(e.expect("evicted entry still on disk").key, 1);
        assert_eq!(stats.disk_hits, 1, "served from the disk tier after eviction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_foreign_frames_are_misses() {
        let dir = tmpdir("corrupt-frame");
        let c = CompilationCache::with_disk(&dir).unwrap();
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        c.store(vec![p2(1, 1)], None, &mut stats);
        c.flush(None);
        let disk = c.disk.as_ref().unwrap();
        let path = disk.path::<Phase1Entry>(1);
        // A phase-2 frame under a phase-1 key is a miss (tags differ).
        std::fs::copy(disk.path::<Phase2Entry>((1, 1)), &path).unwrap();
        assert!(disk.load::<Phase1Entry>(1, None).is_none());
        std::fs::write(&path, "{garbage").unwrap();
        assert!(disk.load::<Phase1Entry>(1, None).is_none());
        assert!(disk.load::<Phase2Entry>((1, 1), None).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_every_memory_tier() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        c.store(vec![p2(1, 1)], None, &mut stats);
        let analyzed = || Analyzed { database: ProgramDatabase::new(), stats: Default::default() };
        c.analysis(7, None, analyzed);
        c.clear();
        assert!(!hit1(&c, 1, &mut stats));
        assert!(c.probe::<Phase2Entry>(&[(1, 1)], None, &mut stats)[0].is_none());
        let mut ran = false;
        c.analysis(7, None, || {
            ran = true;
            analyzed()
        });
        assert!(ran, "the memo was cleared too");
    }

    #[test]
    fn a_poisoned_lock_clears_the_cache_instead_of_panicking() {
        let c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        store1(&c, "a", 1, &mut stats);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = c.tiers.lock().unwrap();
            panic!("a panic while the cache lock is held");
        }));
        assert!(poison.is_err());
        assert!(c.tiers.is_poisoned());
        assert!(!hit1(&c, 1, &mut stats), "the next lookup is a miss");
        assert!(!c.tiers.is_poisoned(), "the lock is usable again");
        store1(&c, "a", 1, &mut stats);
        assert!(hit1(&c, 1, &mut stats));
    }
}
