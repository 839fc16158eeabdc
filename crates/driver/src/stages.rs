//! The per-module pipeline stages, the one cached pass that runs each of
//! them over a batch of modules, and the worker pool they fan out on.
//!
//! [`cached_phase1`] and [`cached_phase2`] are the only code that probes,
//! computes, stores and counts cache entries: each probes the
//! [cache](crate::CompilationCache) per module, computes the misses on the
//! worker pool, stores them, and counts every hit, miss and eviction into
//! the build's [`BuildReport`]. [`crate::compile_incremental`] runs them
//! on a whole program, [`crate::separate::build_module_for`] on one module,
//! and [`crate::separate::artifact_build_for`] around its artifact files.
//! The stages themselves ([`run_phase1`], codegen) are pure: a stage maps
//! (source, options) to products and fingerprints.

use crate::cache::{Phase1Entry, Phase2Entry};
use crate::{BuildReport, CompilationCache, SourceFile};
use cmin_frontend::{analyze as check_module, parse_module, CompileError};
use cmin_ir::ir::{Callee, Inst as IrInst};
use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_core::fingerprint::Fnv64;
use ipra_core::ProgramDatabase;
use ipra_telemetry::span;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vpr::target::TargetId;

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// preserving item order in the result. Work is pulled from a shared
/// index so uneven module sizes balance automatically.
pub(crate) fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs.min(n) {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || {
                // Lane 0 is the main thread; workers are lanes 1..=jobs.
                // Telemetry spans recorded inside `f` carry this lane as
                // their trace `tid`, making pool utilization visible.
                ipra_telemetry::set_lane(w as u64 + 1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    *slots[i].lock().expect("worker result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner().expect("worker result slot poisoned").expect("worker result missing")
        })
        .collect()
}

/// Phase-1 cache key: module name + source text + optimize flag.
fn phase1_key(src: &SourceFile, optimize: bool) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&src.name);
    h.write_str(&src.text);
    h.write_u64(u64::from(optimize));
    h.finish()
}

/// Mixes the build target into a phase-2 cache key so cached VPR objects
/// are never served to an RV32 build (and vice versa). VPR mixes nothing,
/// keeping every pre-machine-description fingerprint — and on-disk cache
/// entry — valid.
fn mix_target(fp: u64, target: TargetId) -> u64 {
    match target {
        TargetId::Vpr => fp,
        t => {
            let mut h = Fnv64::new();
            h.write_u64(fp);
            h.write_str(t.name());
            h.finish()
        }
    }
}

/// Every direct callee named anywhere in the module's IR, sorted and
/// deduplicated: the procedures whose `safe_caller_across` sets codegen
/// reads at call sites.
fn direct_callees(ir: &IrModule) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for f in &ir.functions {
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let IrInst::Call { callee: Callee::Direct(name), .. } = inst {
                    out.push(name.clone());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Runs the full first phase for one module.
fn run_phase1(src: &SourceFile, optimize: bool, key: u64) -> Result<Phase1Entry, CompileError> {
    let m = parse_module(&src.name, &src.text)?;
    let info = check_module(&m)?;
    let mut ir = lower_module(&m, &info);
    if optimize {
        optimize_module(&mut ir);
    }
    let summary = ipra_summary::summarize_module(&ir);
    let ir_json = serde_json::to_string(&ir).expect("IR serialization cannot fail");
    let ir_fp = ipra_core::fingerprint::fingerprint_str(&ir_json);
    let callees = direct_callees(&ir);
    Ok(Phase1Entry { key, ir_fp, callees, ir, summary })
}

/// Compiler first phase over a batch of modules through `cache`, on up to
/// `jobs` workers, counted into `report.phase1`. Modules are probed in
/// order, misses computed in parallel and stored as they are collected.
///
/// # Errors
///
/// The first module's diagnostic in source order, whichever worker
/// finished first. Modules that did compile stay stored, and the counts
/// in `report` cover every module probed.
pub(crate) fn cached_phase1(
    sources: &[SourceFile],
    optimize: bool,
    jobs: usize,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Result<Vec<Arc<Phase1Entry>>, CompileError> {
    let tele = cache.telemetry().cloned();
    let keys: Vec<u64> = sources.iter().map(|s| phase1_key(s, optimize)).collect();
    let mut entries: Vec<Option<Arc<Phase1Entry>>> = sources
        .iter()
        .zip(&keys)
        .map(|(src, &key)| cache.lookup_phase1(&src.name, key, &mut report.phase1))
        .collect();
    let misses: Vec<usize> = (0..sources.len()).filter(|&i| entries[i].is_none()).collect();
    let computed = parallel_map(&misses, jobs, |&i| {
        let _task = span(tele.as_ref(), "phase1", &format!("phase1:{}", sources[i].name));
        run_phase1(&sources[i], optimize, keys[i])
    });
    let mut first_error = None;
    for (i, result) in misses.into_iter().zip(computed) {
        match result {
            Ok(entry) => {
                entries[i] = Some(cache.store_phase1(&sources[i].name, entry, &mut report.phase1));
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(entries.into_iter().map(|e| e.expect("every module hit or compiled")).collect()),
    }
}

/// Compiler second phase over a batch of phase-1 entries through `cache`,
/// on up to `jobs` workers: each module is keyed on (IR fingerprint,
/// fingerprint of its slice of `database`, target), and only misses re-run
/// codegen. Counts go to `report.phase2`; the modules that re-ran are
/// appended to `report.recompiled` in batch order.
pub(crate) fn cached_phase2(
    entries: &[Arc<Phase1Entry>],
    database: &ProgramDatabase,
    target: TargetId,
    jobs: usize,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Vec<Phase2Entry> {
    let tele = cache.telemetry().cloned();
    let db_fps: Vec<u64> = entries
        .iter()
        .map(|e| {
            let fp = database.module_slice_fingerprint(
                e.ir.functions.iter().map(|f| f.name.as_str()),
                e.callees.iter().map(|s| s.as_str()),
            );
            mix_target(fp, target)
        })
        .collect();
    let mut objects: Vec<Option<Phase2Entry>> = entries
        .iter()
        .zip(&db_fps)
        .map(|(e, &db_fp)| cache.lookup_phase2(&e.ir.name, e.ir_fp, db_fp, &mut report.phase2))
        .collect();
    let stale: Vec<usize> = (0..entries.len()).filter(|&i| objects[i].is_none()).collect();
    let compiled = parallel_map(&stale, jobs, |&i| {
        let ir = &entries[i].ir;
        let _task = span(tele.as_ref(), "phase2", &format!("phase2:{}", ir.name));
        cmin_codegen::compile_module_for(ir, database, target)
    });
    for (i, object) in stale.into_iter().zip(compiled) {
        let e = &entries[i];
        report.recompiled.push(e.ir.name.clone());
        let entry = Phase2Entry { ir_fp: e.ir_fp, db_fp: db_fps[i], object };
        cache.store_phase2(&e.ir.name, entry.clone(), &mut report.phase2);
        objects[i] = Some(entry);
    }
    objects.into_iter().map(|o| o.expect("every module hit or compiled")).collect()
}
