//! The incremental recompilation cache (paper §3's summary-file design).
//!
//! Two tiers share one fingerprint scheme:
//!
//! * an **in-memory** tier keyed per module name — phase 1 on a
//!   source-content fingerprint, phase 2 on (IR fingerprint,
//!   database-slice fingerprint) — serving repeated builds inside one
//!   process;
//! * an optional **on-disk** tier (enabled through
//!   [`CompilationCache::with_disk`] / `cminc --cache-dir`) holding the
//!   same entries content-addressed by their keys, so the fingerprints
//!   persist across *process* invocations: a one-module edit in a fresh
//!   `cminc` run recompiles only modules whose directive slices moved.
//!
//! Every lookup and store counts itself into the [`PhaseStats`] of the
//! build that made it — hits, disk hits, misses, evictions — so a build's
//! [`BuildReport`] is the one record of what the cache did for it.
//!
//! Reuse across builds — including builds at *different*
//! [`PaperConfig`](ipra_core::analyzer::PaperConfig)s — is sound because a
//! matching slice fingerprint certifies codegen would see identical
//! directives.

use cmin_ir::IrModule;
use ipra_artifact::frame::FrameFormat;
use ipra_core::fingerprint::Fnv64;
use ipra_summary::ModuleSummary;
use ipra_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
    /// Program analyzer seconds (always runs; it is whole-program).
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

/// The disk tier's frames ([`ipra_artifact::frame`]): the positional
/// binary codec straight between structs and bytes, so a disk-warm build
/// decodes each entry once and stays faster than compiling. The payload
/// cap is the length prefix's own limit.
///
/// v3: `RegSet`'s positional binary encoding widened from 4 to 8 bytes
/// with the u64 backing; v2 frames from older cache directories must read
/// as misses, not as shifted garbage (v1 frames held a `Value` tree).
const FRAMES: FrameFormat = FrameFormat { magic: *b"IPRF", version: 3, max_payload: u32::MAX };
/// Frame tag for phase-1 entries: a phase-1 frame never decodes as phase 2.
const TAG_PHASE1: u8 = 1;
/// Frame tag for phase-2 entries.
const TAG_PHASE2: u8 = 2;

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
    pending: Vec<(PathBuf, Vec<u8>)>,
    /// Telemetry sink for tier traffic (reads/writes with byte counts);
    /// attached per build by [`CompilationCache::set_telemetry`].
    tele: Option<Telemetry>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory: any I/O error creating
    /// `root`, `root/p1` or `root/p2` is returned.
    fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(root.join("p1"))?;
        std::fs::create_dir_all(root.join("p2"))?;
        Ok(DiskCache { root, pending: Vec::new(), tele: None })
    }

    /// The cache directory this tier persists under.
    fn root(&self) -> &Path {
        &self.root
    }

    fn phase1_path(&self, key: u64) -> PathBuf {
        self.root.join("p1").join(format!("{key:016x}.bin"))
    }

    fn phase2_path(&self, ir_fp: u64, db_fp: u64) -> PathBuf {
        let mut h = Fnv64::new();
        h.write_u64(ir_fp);
        h.write_u64(db_fp);
        self.root.join("p2").join(format!("{:016x}.bin", h.finish()))
    }

    /// Records the outcome of one disk-tier load attempt: read traffic in
    /// bytes, plus a corrupt-frame counter when a file read fine but failed
    /// to decode or fingerprint-check (it degrades to a miss).
    fn count_load<T>(&self, bytes: &[u8], decoded: &Option<T>) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.reads", 1);
            t.add("cache.disk.read_bytes", bytes.len() as u64);
            if decoded.is_none() {
                t.add("cache.disk.corrupt", 1);
            }
        }
    }

    /// Loads one entry; any decode error, or embedded fingerprints that do
    /// not match the requested key, is a miss.
    fn load_phase1(&self, key: u64) -> Option<Phase1Entry> {
        let bytes = std::fs::read(self.phase1_path(key)).ok()?;
        let e = FRAMES.decode(&bytes, TAG_PHASE1).ok().filter(|e: &Phase1Entry| e.key == key);
        self.count_load(&bytes, &e);
        e
    }

    fn store_phase1(&mut self, entry: &Phase1Entry) {
        let frame = FRAMES.encode(TAG_PHASE1, entry);
        self.count_store(&frame);
        self.pending.push((self.phase1_path(entry.key), frame));
    }

    fn load_phase2(&self, ir_fp: u64, db_fp: u64) -> Option<Phase2Entry> {
        let bytes = std::fs::read(self.phase2_path(ir_fp, db_fp)).ok()?;
        let e = FRAMES
            .decode(&bytes, TAG_PHASE2)
            .ok()
            .filter(|e: &Phase2Entry| e.ir_fp == ir_fp && e.db_fp == db_fp);
        self.count_load(&bytes, &e);
        e
    }

    fn store_phase2(&mut self, entry: &Phase2Entry) {
        let frame = FRAMES.encode(TAG_PHASE2, entry);
        self.count_store(&frame);
        self.pending.push((self.phase2_path(entry.ir_fp, entry.db_fp), frame));
    }

    /// Records one buffered disk-tier store (counted at encode time; the
    /// actual write happens at `flush`).
    fn count_store(&self, frame: &[u8]) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.writes", 1);
            t.add("cache.disk.write_bytes", frame.len() as u64);
        }
    }

    /// Writes all buffered entries to disk. Best-effort per entry: a failed
    /// write leaves the disk tier cold for that key, not wrong.
    fn flush(&mut self) {
        let _s = ipra_telemetry::span(self.tele.as_ref(), "cache", "cache:flush");
        for (path, bytes) in self.pending.drain(..) {
            let _ = std::fs::write(path, bytes);
        }
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The incremental recompilation cache: the in-memory tier plus an
/// optional on-disk tier behind it (see the module docs).
#[derive(Debug, Default)]
pub struct CompilationCache {
    phase1: HashMap<String, Arc<Phase1Entry>>,
    phase2: HashMap<String, Phase2Entry>,
    disk: Option<DiskCache>,
    tele: Option<Telemetry>,
    /// In-memory size cap, in entries *per tier map* (`None` = unbounded).
    capacity: Option<usize>,
    /// Monotonic operation clock driving LRU order; bumped on every hit,
    /// promotion and store, so recency is a pure function of the operation
    /// sequence — eviction order is deterministic, never hash-map order.
    tick: u64,
    used1: HashMap<String, u64>,
    used2: HashMap<String, u64>,
}

impl CompilationCache {
    /// An empty, memory-only cache.
    pub fn new() -> CompilationCache {
        CompilationCache::default()
    }

    /// An empty in-memory cache backed by the on-disk tier at `dir`
    /// (created if absent). Entries found on disk count as hits; entries
    /// computed by a build are written through.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the cache directory.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<CompilationCache> {
        Ok(CompilationCache { disk: Some(DiskCache::open(dir)?), ..CompilationCache::default() })
    }

    /// The on-disk tier's directory, when one is attached.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskCache::root)
    }

    /// Sets (or removes, with `None`) the in-memory size cap, clamped to at
    /// least 1, and enforces it immediately (evictions made here count only
    /// into the attached telemetry). The cap bounds each tier map
    /// separately — a cache with capacity `n` keeps at most `n` phase-1
    /// and `n` phase-2 entries.
    ///
    /// Eviction is LRU with a deterministic order: recency is a monotonic
    /// per-operation tick (not wall clock), and the victim is the entry
    /// with the smallest `(tick, name)` pair. Evicting never loses work
    /// permanently — entries were written through to the disk tier (when
    /// attached) at store time, so a re-request degrades to a disk hit, or
    /// to a recompute on a memory-only cache.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap.map(|c| c.max(1));
        let e1 = Self::shrink(self.capacity, &mut self.phase1, &mut self.used1);
        let e2 = Self::shrink(self.capacity, &mut self.phase2, &mut self.used2);
        self.count_evictions("cache.p1.evictions", e1);
        self.count_evictions("cache.p2.evictions", e2);
    }

    /// Attaches (or detaches, with `None`) a telemetry collector. Cache
    /// lookups, promotions, and disk-tier traffic are counted into it, and
    /// the pipeline layers above ([`crate::separate`]) read it back via
    /// [`telemetry`](CompilationCache::telemetry) so artifact staging shares
    /// the build's collector without widening every signature.
    pub fn set_telemetry(&mut self, tele: Option<Telemetry>) {
        if let Some(d) = &mut self.disk {
            d.tele = tele.clone();
        }
        self.tele = tele;
    }

    /// The attached telemetry collector, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tele.as_ref()
    }

    fn count(&self, key: &str) {
        if let Some(t) = &self.tele {
            t.add(key, 1);
        }
    }

    fn count_evictions(&self, key: &str, n: usize) {
        if n > 0 {
            if let Some(t) = &self.tele {
                t.add(key, n as u64);
            }
        }
    }

    /// Removes least-recently-used entries from one tier map until it fits
    /// the cap; returns how many were evicted. The victim each round is
    /// the minimal `(last-use tick, name)` pair — ticks are unique per
    /// operation, so the order is fully determined by the lookup/store
    /// sequence, with the name as a belt-and-braces tie-break.
    fn shrink<T>(
        cap: Option<usize>,
        map: &mut HashMap<String, T>,
        used: &mut HashMap<String, u64>,
    ) -> usize {
        let Some(cap) = cap else { return 0 };
        let mut evicted = 0;
        while map.len() > cap {
            let victim = map
                .keys()
                .map(|k| (used.get(k).copied().unwrap_or(0), k.clone()))
                .min()
                .map(|(_, k)| k)
                .expect("tier map above its cap is non-empty");
            map.remove(&victim);
            used.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn touch1(&mut self, name: &str) {
        self.tick += 1;
        self.used1.insert(name.to_string(), self.tick);
    }

    fn touch2(&mut self, name: &str) {
        self.tick += 1;
        self.used2.insert(name.to_string(), self.tick);
    }

    /// Phase-1 lookup: memory first, then the disk tier (promoting to
    /// memory), counted into `stats` as a hit (and disk hit) or a miss.
    ///
    /// Entries are shared, not copied: a hit is a refcount bump, so the
    /// hot path of a warm (or disk-warm) build never deep-clones an
    /// `IrModule`.
    pub(crate) fn lookup_phase1(
        &mut self,
        name: &str,
        key: u64,
        stats: &mut PhaseStats,
    ) -> Option<Arc<Phase1Entry>> {
        if let Some(e) = self.phase1.get(name).filter(|e| e.key == key) {
            let e = Arc::clone(e);
            self.count("cache.p1.mem_hits");
            self.touch1(name);
            stats.hits += 1;
            return Some(e);
        }
        let Some(e) = self.disk.as_ref().and_then(|d| d.load_phase1(key)) else {
            self.count("cache.p1.misses");
            stats.misses += 1;
            return None;
        };
        self.count("cache.p1.disk_hits");
        self.count("cache.p1.promotes");
        stats.hits += 1;
        stats.disk_hits += 1;
        Some(self.insert_phase1(name, e, stats))
    }

    /// Stores a freshly computed phase-1 entry in memory and, when
    /// attached, writes it through to disk. Returns the shared handle so
    /// the caller keeps using the entry without cloning it.
    pub(crate) fn store_phase1(
        &mut self,
        name: &str,
        entry: Phase1Entry,
        stats: &mut PhaseStats,
    ) -> Arc<Phase1Entry> {
        if let Some(d) = &mut self.disk {
            d.store_phase1(&entry);
        }
        self.insert_phase1(name, entry, stats)
    }

    /// Puts an entry in the memory tier, evicting past the cap.
    fn insert_phase1(
        &mut self,
        name: &str,
        entry: Phase1Entry,
        stats: &mut PhaseStats,
    ) -> Arc<Phase1Entry> {
        let entry = Arc::new(entry);
        self.phase1.insert(name.to_string(), Arc::clone(&entry));
        self.touch1(name);
        let evicted = Self::shrink(self.capacity, &mut self.phase1, &mut self.used1);
        self.count_evictions("cache.p1.evictions", evicted);
        stats.evictions += evicted;
        entry
    }

    /// Phase-2 lookup: memory first, then the disk tier (promoting to
    /// memory), counted into `stats` like
    /// [`lookup_phase1`](Self::lookup_phase1).
    pub(crate) fn lookup_phase2(
        &mut self,
        name: &str,
        ir_fp: u64,
        db_fp: u64,
        stats: &mut PhaseStats,
    ) -> Option<Phase2Entry> {
        if let Some(e) = self.phase2.get(name).filter(|e| e.ir_fp == ir_fp && e.db_fp == db_fp) {
            let e = e.clone();
            self.count("cache.p2.mem_hits");
            self.touch2(name);
            stats.hits += 1;
            return Some(e);
        }
        let Some(e) = self.disk.as_ref().and_then(|d| d.load_phase2(ir_fp, db_fp)) else {
            self.count("cache.p2.misses");
            stats.misses += 1;
            return None;
        };
        self.count("cache.p2.disk_hits");
        self.count("cache.p2.promotes");
        stats.hits += 1;
        stats.disk_hits += 1;
        self.insert_phase2(name, e.clone(), stats);
        Some(e)
    }

    /// Stores a freshly compiled object in memory and, when attached,
    /// writes it through to disk.
    pub(crate) fn store_phase2(&mut self, name: &str, entry: Phase2Entry, stats: &mut PhaseStats) {
        if let Some(d) = &mut self.disk {
            d.store_phase2(&entry);
        }
        self.insert_phase2(name, entry, stats);
    }

    /// Puts an entry in the memory tier, evicting past the cap.
    fn insert_phase2(&mut self, name: &str, entry: Phase2Entry, stats: &mut PhaseStats) {
        self.phase2.insert(name.to_string(), entry);
        self.touch2(name);
        let evicted = Self::shrink(self.capacity, &mut self.phase2, &mut self.used2);
        self.count_evictions("cache.p2.evictions", evicted);
        stats.evictions += evicted;
    }

    /// Flushes the disk tier's buffered writes, if one is attached. Called
    /// by the driver at the end of each build; dropping the cache flushes
    /// too, so entries are never lost — flushing early just bounds how long
    /// they sit in memory.
    pub fn flush(&mut self) {
        if let Some(d) = &mut self.disk {
            d.flush();
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
        let mut c = CompilationCache::new();
        c.set_capacity(Some(cap));
        c
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let mut c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        for i in 0..100u64 {
            let name = format!("m{i}");
            c.store_phase1(&name, p1(&name, i), &mut stats);
            c.store_phase2(&name, p2(i, i), &mut stats);
        }
        assert_eq!(c.phase1.len(), 100);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let mut c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        c.store_phase1("a", p1("a", 1), &mut stats);
        assert!(c.lookup_phase1("a", 1, &mut stats).is_some());
        assert!(c.lookup_phase1("a", 2, &mut stats).is_none(), "stale key");
        assert!(c.lookup_phase1("b", 1, &mut stats).is_none(), "unknown module");
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 0, 2));
    }

    #[test]
    fn cap_evicts_the_least_recently_used_entry() {
        let mut c = capped(2);
        let mut stats = PhaseStats::default();
        c.store_phase1("a", p1("a", 1), &mut stats);
        c.store_phase1("b", p1("b", 2), &mut stats);
        // Touch "a": "b" becomes the LRU victim despite being stored later.
        assert!(c.lookup_phase1("a", 1, &mut stats).is_some());
        c.store_phase1("c", p1("c", 3), &mut stats);
        assert_eq!(stats.evictions, 1);
        assert!(c.lookup_phase1("b", 2, &mut stats).is_none(), "LRU entry evicted");
        assert!(c.lookup_phase1("a", 1, &mut stats).is_some(), "recently used entry kept");
        assert!(c.lookup_phase1("c", 3, &mut stats).is_some(), "new entry kept");
    }

    #[test]
    fn phase2_tier_is_capped_independently() {
        let mut c = capped(2);
        let mut stats = PhaseStats::default();
        for i in 0..5u64 {
            let name = format!("m{i}");
            c.store_phase2(&name, p2(i, i), &mut stats);
        }
        assert_eq!(c.phase2.len(), 2);
        assert_eq!(stats.evictions, 3);
        // Oldest entries went first; the two most recent survive.
        assert!(c.lookup_phase2("m3", 3, 3, &mut stats).is_some());
        assert!(c.lookup_phase2("m4", 4, 4, &mut stats).is_some());
        assert!(c.lookup_phase2("m0", 0, 0, &mut stats).is_none());
    }

    #[test]
    fn set_capacity_shrinks_immediately_and_none_lifts_the_cap() {
        let mut c = CompilationCache::new();
        let mut stats = PhaseStats::default();
        for i in 0..8u64 {
            let name = format!("m{i}");
            c.store_phase1(&name, p1(&name, i), &mut stats);
        }
        c.set_capacity(Some(3));
        assert_eq!(c.phase1.len(), 3);
        c.set_capacity(None);
        for i in 8..20u64 {
            let name = format!("m{i}");
            c.store_phase1(&name, p1(&name, i), &mut stats);
        }
        assert_eq!(c.phase1.len(), 15);
        assert_eq!(stats.evictions, 0, "no evictions once uncapped");
    }

    #[test]
    fn eviction_order_is_deterministic_across_identical_runs() {
        let run = || {
            let mut c = capped(3);
            let mut stats = PhaseStats::default();
            let mut survivors = Vec::new();
            for i in 0..12u64 {
                let name = format!("m{i}");
                c.store_phase1(&name, p1(&name, i), &mut stats);
                // Re-touch a rolling window so recency differs from
                // insertion order.
                for j in i.saturating_sub(1)..=i {
                    let n = format!("m{j}");
                    let _ = c.lookup_phase1(&n, j, &mut stats);
                }
                let mut present: Vec<String> = c.phase1.keys().cloned().collect();
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
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.set_capacity(Some(1));
        let mut stats = PhaseStats::default();
        c.store_phase1("a", p1("a", 1), &mut stats);
        c.store_phase1("b", p1("b", 2), &mut stats); // evicts "a" from memory
        c.flush();
        assert_eq!(stats.evictions, 1);
        let e = c.lookup_phase1("a", 1, &mut stats).expect("evicted entry still on disk");
        assert_eq!(stats.disk_hits, 1, "served from the disk tier after eviction");
        assert_eq!(e.key, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_foreign_frames_are_misses() {
        let dir = tmpdir("corrupt-frame");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        let mut stats = PhaseStats::default();
        c.store_phase1("a", p1("a", 1), &mut stats);
        c.store_phase2("a", p2(1, 1), &mut stats);
        c.flush();
        let disk = c.disk.as_ref().unwrap();
        let path = disk.phase1_path(1);
        // A phase-2 frame under a phase-1 key is a miss (tags differ).
        std::fs::copy(disk.phase2_path(1, 1), &path).unwrap();
        assert!(disk.load_phase1(1).is_none());
        std::fs::write(&path, "{garbage").unwrap();
        assert!(disk.load_phase1(1).is_none());
        assert!(disk.load_phase2(1, 1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
