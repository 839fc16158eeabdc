//! True separate compilation: the Figure-1 pipeline staged through real
//! artifact files.
//!
//! Where [`crate::compile`] passes summaries, directives and objects
//! between phases as in-memory values, this module writes each product to
//! disk in its [`ipra_artifact`] format and **re-reads it** before the
//! next stage consumes it — the paper's file-based toolchain, literally:
//!
//! ```text
//! <module>.csum --analyze--> program.cdir --phase 2--> <module>.vo --link--> prog.vx
//! ```
//!
//! [`artifact_build_for`] runs the whole staged pipeline into a directory
//! and is required (and tested, see `tests/artifacts.rs`) to be
//! *bit-identical* to the in-memory path: same `.vx` bytes, same simulator
//! statistics. [`build_module_for`] is the `cminc c` core — one module's phase 1 + phase 2
//! against a given directives database, through the shared
//! [`CompilationCache`] (and its on-disk tier, when attached).

use crate::cache::Phase2Entry;
use crate::{stages, CompilationCache, DriverError, SourceFile};
use cmin_frontend::CompileError;
use ipra_artifact::{
    ArtifactKind, DirectivesArtifact, ExecutableArtifact, ObjectArtifact, SummaryArtifact,
};
use ipra_core::analyzer::{analyze, AnalyzerOptions, PaperConfig};
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_summary::ProgramSummary;
use ipra_telemetry::{span, Telemetry};
use std::path::{Path, PathBuf};
use vpr::program::Executable;
use vpr::sim::{run_with, SimError, SimOptions};
use vpr::target::TargetId;

/// One module's separate-compilation products (`cminc c` output).
#[derive(Debug, Clone)]
pub struct ModuleProduct {
    /// The `.csum` payload (phase-1 summary + provenance fingerprints).
    pub summary: SummaryArtifact,
    /// The `.vo` payload (relocatable code + provenance fingerprints).
    pub object: ObjectArtifact,
    /// Whether phase 1 was served from the cache.
    pub phase1_hit: bool,
    /// Whether phase 2 was served from the cache (a miss means register
    /// allocation actually re-ran for this module).
    pub phase2_hit: bool,
}

/// Compiles one module through both phases for `target` against
/// `database`, using (and filling) `cache` exactly like
/// [`crate::compile_incremental`] does.
///
/// This is the core of `cminc c`: with `--cache-dir` attached, a second
/// invocation in a *fresh process* is a pure cache hit unless the source
/// or this module's directive slice changed. The target participates in
/// the phase-2 cache key, so VPR and RV32 builds of the same module
/// coexist in one cache directory.
///
/// # Errors
///
/// Returns the module's first frontend diagnostic.
pub fn build_module_for(
    src: &SourceFile,
    database: &ProgramDatabase,
    optimize: bool,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<ModuleProduct, CompileError> {
    let key = stages::phase1_key(src, optimize);
    let (entry, phase1_hit) = match cache.lookup_phase1(&src.name, key) {
        Some((e, _)) => {
            cache.stats.phase1_hits += 1;
            (e, true)
        }
        None => {
            let e = stages::run_phase1(src, optimize, key)?;
            cache.stats.phase1_misses += 1;
            let e = cache.store_phase1(&src.name, e);
            (e, false)
        }
    };
    let db_fp = stages::mix_target(
        database.module_slice_fingerprint(
            entry.ir.functions.iter().map(|f| f.name.as_str()),
            entry.callees.iter().map(|s| s.as_str()),
        ),
        target,
    );
    let (object, phase2_hit) = match cache.lookup_phase2(&src.name, entry.ir_fp, db_fp) {
        Some((o, _)) => {
            cache.stats.phase2_hits += 1;
            (o, true)
        }
        None => {
            let object = cmin_codegen::compile_module_for(&entry.ir, database, target);
            cache.stats.phase2_misses += 1;
            cache.store_phase2(
                &src.name,
                Phase2Entry { ir_fp: entry.ir_fp, db_fp, object: object.clone() },
            );
            (object, false)
        }
    };
    // One burst of disk-tier writes per module build (see `DiskCache`).
    cache.flush();
    Ok(ModuleProduct {
        summary: SummaryArtifact {
            summary: entry.summary.clone(),
            source_fp: key,
            ir_fp: entry.ir_fp,
        },
        object: ObjectArtifact { object, ir_fp: entry.ir_fp, dir_fp: db_fp },
        phase1_hit,
        phase2_hit,
    })
}

/// Where a staged build left every artifact, plus the re-read results.
#[derive(Debug, Clone)]
pub struct ArtifactBuild {
    /// The linked program, as re-read from `executable_path`.
    pub exe: Executable,
    /// The analyzer database, as re-read from `directives_path`.
    pub database: ProgramDatabase,
    /// One `.csum` per source module, in source order.
    pub summary_paths: Vec<PathBuf>,
    /// The `program.cdir` directives file.
    pub directives_path: PathBuf,
    /// One `.vo` per source module, in source order.
    pub object_paths: Vec<PathBuf>,
    /// The linked `prog.vx`.
    pub executable_path: PathBuf,
    /// Modules whose phase 2 actually re-ran (cache misses), in source
    /// order.
    pub recompiled: Vec<String>,
}

fn io_err(path: &Path, e: std::io::Error) -> DriverError {
    DriverError::Artifact(ipra_artifact::ArtifactError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Counts one artifact write into the build's telemetry (file count plus
/// on-disk bytes; artifact encodings are byte-deterministic, so so are
/// these counters).
fn count_artifact_write(tele: Option<&Telemetry>, path: &Path) {
    if let Some(t) = tele {
        t.add("artifact.writes", 1);
        if let Ok(m) = std::fs::metadata(path) {
            t.add("artifact.write_bytes", m.len());
        }
    }
}

/// Counts one artifact read-back into the build's telemetry.
fn count_artifact_read(tele: Option<&Telemetry>, path: &Path) {
    if let Some(t) = tele {
        t.add("artifact.reads", 1);
        if let Ok(m) = std::fs::metadata(path) {
            t.add("artifact.read_bytes", m.len());
        }
    }
}

/// Runs the four-stage separate-compilation pipeline for `target` into
/// `dir`, staging every intermediate product through its on-disk artifact
/// format (each stage re-reads its inputs from the files the previous
/// stage wrote). The analyzer draws directive registers from `target`,
/// phase 2 compiles for it, and the linked executable records it (so the
/// simulators pick the right convention on re-read).
///
/// # Errors
///
/// Frontend diagnostics, link failures, and artifact I/O all surface as
/// [`DriverError`].
pub fn artifact_build_for(
    sources: &[SourceFile],
    config: PaperConfig,
    profile: Option<ProfileData>,
    dir: &Path,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<ArtifactBuild, DriverError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let tele = cache.telemetry().cloned();
    let tele = tele.as_ref();
    let _staged = span(tele, "build", "artifact-build");

    // ---- Stage 1: summaries to disk, one `.csum` per module.
    let stage1 = span(tele, "artifact", "stage1:summaries");
    let mut summary_paths = Vec::with_capacity(sources.len());
    for src in sources {
        let key = stages::phase1_key(src, true);
        let (entry, _) = match cache.lookup_phase1(&src.name, key) {
            Some(hit) => {
                cache.stats.phase1_hits += 1;
                hit
            }
            None => {
                let e = stages::run_phase1(src, true, key)?;
                cache.stats.phase1_misses += 1;
                let e = cache.store_phase1(&src.name, e);
                (e, false)
            }
        };
        let path = dir.join(format!("{}.csum", src.name));
        let payload =
            SummaryArtifact { summary: entry.summary.clone(), source_fp: key, ir_fp: entry.ir_fp };
        ipra_artifact::write_file(ArtifactKind::Summary, &path, &payload)?;
        count_artifact_write(tele, &path);
        summary_paths.push(path);
    }
    stage1.finish();

    // ---- Stage 2: the analyzer, over summaries re-read from disk.
    let stage2 = span(tele, "artifact", "stage2:analyze");
    let mut modules = Vec::with_capacity(summary_paths.len());
    for path in &summary_paths {
        let a: SummaryArtifact = ipra_artifact::read_file(ArtifactKind::Summary, path)?;
        count_artifact_read(tele, path);
        modules.push(a.summary);
    }
    let summary = ProgramSummary { modules };
    let analysis = analyze(&summary, &AnalyzerOptions::paper_config_for(config, profile, target));
    let directives_path = dir.join("program.cdir");
    let payload = DirectivesArtifact { config: config.to_string(), database: analysis.database };
    // Directives, objects and the executable are target-dependent, so
    // their headers carry the build's target stamp (`.csum` summaries are
    // phase-1 products — target-independent and left unstamped).
    ipra_artifact::write_file_for(ArtifactKind::Directives, &directives_path, &payload, target)?;
    count_artifact_write(tele, &directives_path);
    stage2.finish();

    // ---- Stage 3: phase 2 per module, under directives re-read from disk.
    let stage3 = span(tele, "artifact", "stage3:objects");
    let directives: DirectivesArtifact =
        ipra_artifact::read_file(ArtifactKind::Directives, &directives_path)?;
    count_artifact_read(tele, &directives_path);
    let mut object_paths = Vec::with_capacity(sources.len());
    let mut recompiled = Vec::new();
    for src in sources {
        let product = build_module_for(src, &directives.database, true, cache, target)?;
        if !product.phase2_hit {
            recompiled.push(src.name.clone());
        }
        let path = dir.join(format!("{}.vo", src.name));
        ipra_artifact::write_file_for(ArtifactKind::Object, &path, &product.object, target)?;
        count_artifact_write(tele, &path);
        object_paths.push(path);
    }
    stage3.finish();

    // ---- Stage 4: link objects re-read from disk; write and re-read the
    // executable so what we return is literally what is on disk.
    let stage4 = span(tele, "artifact", "stage4:link");
    let mut objects = Vec::with_capacity(object_paths.len());
    for path in &object_paths {
        let a: ObjectArtifact = ipra_artifact::read_file(ArtifactKind::Object, path)?;
        count_artifact_read(tele, path);
        objects.push(a.object);
    }
    let exe = vpr::link(&objects)?;
    let executable_path = dir.join("prog.vx");
    ipra_artifact::write_file_for(
        ArtifactKind::Executable,
        &executable_path,
        &ExecutableArtifact { exe },
        target,
    )?;
    count_artifact_write(tele, &executable_path);
    let exe =
        ipra_artifact::read_file::<ExecutableArtifact>(ArtifactKind::Executable, &executable_path)?
            .exe;
    count_artifact_read(tele, &executable_path);
    stage4.finish();

    Ok(ArtifactBuild {
        exe,
        database: directives.database,
        summary_paths,
        directives_path,
        object_paths,
        executable_path,
        recompiled,
    })
}

/// [`artifact_build_for`] under any paper configuration, running the
/// profile-feedback loop first when the configuration wants one. The
/// training baseline is itself a staged build, into `dir/training`, on the
/// same target as the final build: the profile weights it collects are
/// counts over source-level events, so they feed the analyzer identically
/// on either convention.
///
/// # Errors
///
/// Returns a [`DriverError`] for compilation/artifact problems; a
/// training-run trap surfaces as the `Err` of the inner result.
pub fn artifact_build_configured_for(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    dir: &Path,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<Result<ArtifactBuild, SimError>, DriverError> {
    if !config.wants_profile() {
        return Ok(Ok(artifact_build_for(sources, config, None, dir, cache, target)?));
    }
    let baseline =
        artifact_build_for(sources, PaperConfig::L2, None, &dir.join("training"), cache, target)?;
    let opts = SimOptions { input: training_input.to_vec(), ..SimOptions::default() };
    let training = match run_with(&baseline.exe, &opts) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    let profile = crate::collect_profile_from(&baseline.exe, &training);
    Ok(Ok(artifact_build_for(sources, config, Some(profile), dir, cache, target)?))
}
