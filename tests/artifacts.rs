//! The on-disk artifact formats as a falsifiable contract.
//!
//! Two properties carry the whole separate-compilation story:
//!
//! 1. **Lossless, canonical serialization.** Every artifact kind
//!    (`.csum`, `.cdir`, `.vo`, `.vx`, `.vlib`) decodes back to an equal
//!    value and re-encodes to byte-identical text, for every workload
//!    under every paper configuration. Byte-determinism is what makes
//!    artifacts cacheable and diffs meaningful.
//! 2. **The pipeline is invisible.** Staging a build through artifact
//!    files — every stage re-reading its inputs from disk — produces an
//!    executable bit-identical to the in-memory `compile()`, with
//!    identical run statistics and a clean `ipra-verify` report.
//!
//! Plus the safety rail: a version or kind mismatch in an artifact header
//! is a clean typed error, never a panic and never a silent misparse.

use ipra_artifact::{
    ArtifactError, ArtifactKind, DirectivesArtifact, ExecutableArtifact, LibraryArtifact,
    LibraryMember, ObjectArtifact, SummaryArtifact,
};
use ipra_core::PaperConfig;
use ipra_driver::separate::artifact_build_configured_for;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions};
use std::fmt::Debug;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipra-artifacts-{tag}-{}", std::process::id()))
}

/// Encode → decode → compare → re-encode → compare bytes.
fn round_trip<T>(kind: ArtifactKind, payload: &T, what: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
{
    let text = ipra_artifact::encode(kind, payload);
    let back: T =
        ipra_artifact::decode(kind, &text).unwrap_or_else(|e| panic!("{what}: decode: {e}"));
    assert_eq!(&back, payload, "{what}: decode must invert encode");
    assert_eq!(
        ipra_artifact::encode(kind, &back),
        text,
        "{what}: re-encoding the decoded value must be byte-identical"
    );
}

/// Every artifact kind round-trips losslessly and canonically for every
/// workload under every paper configuration. Fingerprint fields get
/// boundary values (`0`, `u64::MAX`) on top of the real ones, so the JSON
/// layer's full-range `u64` handling is on trial too.
#[test]
fn every_format_round_trips_across_workloads_and_configs() {
    for w in ipra_workloads::all() {
        let cache = CompilationCache::new();
        for config in PaperConfig::ALL {
            let program = compile_configured(
                &w.sources,
                config,
                &w.training_input,
                &CompileOptions::default(),
                &cache,
            )
            .unwrap_or_else(|e| panic!("{} [{config}]: {e}", w.name))
            .unwrap_or_else(|e| panic!("{} [{config}]: training trap {e}", w.name));
            let what = format!("{} [{config}]", w.name);

            for (i, summary) in program.summary.modules.iter().enumerate() {
                let fp = [0u64, u64::MAX, 0x1234_5678_9abc_def0][i % 3];
                round_trip(
                    ArtifactKind::Summary,
                    &SummaryArtifact { summary: summary.clone(), source_fp: fp, ir_fp: !fp },
                    &format!("{what} .csum[{i}]"),
                );
            }
            round_trip(
                ArtifactKind::Directives,
                &DirectivesArtifact {
                    config: config.to_string(),
                    database: program.database.clone(),
                },
                &format!("{what} .cdir"),
            );
            for (i, object) in program.objects.iter().enumerate() {
                round_trip(
                    ArtifactKind::Object,
                    &ObjectArtifact { object: object.clone(), ir_fp: u64::MAX, dir_fp: 0 },
                    &format!("{what} .vo[{i}]"),
                );
            }
            round_trip(
                ArtifactKind::Executable,
                &ExecutableArtifact { exe: program.exe.clone() },
                &format!("{what} .vx"),
            );
            let library = LibraryArtifact {
                members: program
                    .objects
                    .iter()
                    .zip(&program.summary.modules)
                    .map(|(o, s)| LibraryMember { object: o.clone(), summary: s.clone() })
                    .collect(),
            };
            round_trip(ArtifactKind::Library, &library, &format!("{what} .vlib"));
        }
    }
}

/// The artifact-staged pipeline (`.csum` → `.cdir` → `.vo` → `.vx`, every
/// stage re-reading from disk) is invisible: bit-identical executable,
/// identical run behavior down to the instruction counts, clean
/// verification of the on-disk objects against the on-disk database — for
/// every workload under every paper configuration.
#[test]
fn artifact_pipeline_matches_in_memory_compile_everywhere() {
    let root = tmpdir("pipeline");
    for w in ipra_workloads::all() {
        let mem_cache = CompilationCache::new();
        let disk_cache = CompilationCache::new();
        for config in PaperConfig::ALL {
            let what = format!("{} [{config}]", w.name);
            let in_memory = compile_configured(
                &w.sources,
                config,
                &w.training_input,
                &CompileOptions::default(),
                &mem_cache,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .unwrap_or_else(|e| panic!("{what}: training trap {e}"));

            let dir = root.join(w.name).join(config.to_string());
            let staged = artifact_build_configured_for(
                &w.sources,
                config,
                &w.training_input,
                &dir,
                &disk_cache,
                vpr::TargetId::Vpr,
            )
            .unwrap_or_else(|e| panic!("{what}: artifact build: {e}"))
            .unwrap_or_else(|e| panic!("{what}: artifact training trap {e}"));

            assert_eq!(
                serde_json::to_string(&staged.exe).unwrap(),
                serde_json::to_string(&in_memory.exe).unwrap(),
                "{what}: staged .vx must be bit-identical to the in-memory executable"
            );

            let sim = vpr::SimOptions { input: w.input.clone(), ..vpr::SimOptions::default() };
            let rs = vpr::run_with(&staged.exe, &sim).unwrap_or_else(|e| panic!("{what}: {e}"));
            let rm = vpr::run_with(&in_memory.exe, &sim).unwrap();
            assert_eq!(rs.output, rm.output, "{what}: output");
            assert_eq!(rs.exit, rm.exit, "{what}: exit");
            assert_eq!(rs.stats, rm.stats, "{what}: run statistics");

            // Verify what is actually on disk, not what we remember
            // writing: re-read the objects and the database.
            let objects: Vec<vpr::ObjectModule> = staged
                .object_paths
                .iter()
                .map(|p| {
                    let a: ObjectArtifact =
                        ipra_artifact::read_file(ArtifactKind::Object, p).unwrap();
                    a.object
                })
                .collect();
            let dirs: DirectivesArtifact =
                ipra_artifact::read_file(ArtifactKind::Directives, &staged.directives_path)
                    .unwrap();
            let report = ipra_verify::verify_modules(&objects, &dirs.database);
            assert!(report.is_clean(), "{what}: on-disk objects failed verification:\n{report}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Header problems are clean typed errors: wrong version, wrong kind,
/// unknown kind, bad magic, corrupt body. `sniff` still reads headers
/// from future format versions (that is how `objdump` stays useful).
#[test]
fn header_mismatches_are_clean_errors() {
    let payload = ExecutableArtifact {
        exe: {
            let program = ipra_driver::compile(
                &[ipra_driver::SourceFile::new("m", "int main() { return 7; }")],
                &CompileOptions::default(),
            )
            .unwrap();
            program.exe
        },
    };
    let good = ipra_artifact::encode(ArtifactKind::Executable, &payload);

    // Wrong kind requested.
    match ipra_artifact::decode::<DirectivesArtifact>(ArtifactKind::Directives, &good) {
        Err(ArtifactError::WrongKind { expected, found }) => {
            assert_eq!(expected, ArtifactKind::Directives);
            assert_eq!(found, ArtifactKind::Executable);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }

    // Future version: decode refuses, sniff still works.
    let future = good.replacen(" v2 ", " v999 ", 1);
    match ipra_artifact::decode::<ExecutableArtifact>(ArtifactKind::Executable, &future) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 999);
            assert_eq!(supported, ipra_artifact::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert_eq!(
        ipra_artifact::sniff(&future).unwrap(),
        (ArtifactKind::Executable, 999, vpr::TargetId::Vpr)
    );

    // Unknown kind tag.
    let unknown = good.replacen(" executable ", " hologram ", 1);
    match ipra_artifact::sniff(&unknown) {
        Err(ArtifactError::UnknownKind { tag }) => assert_eq!(tag, "hologram"),
        other => panic!("expected UnknownKind, got {other:?}"),
    }

    // Not an artifact at all.
    assert!(matches!(ipra_artifact::sniff("{}"), Err(ArtifactError::BadMagic)));
    assert!(matches!(
        ipra_artifact::decode::<ExecutableArtifact>(ArtifactKind::Executable, ""),
        Err(ArtifactError::BadMagic)
    ));

    // Body tampering: the header fingerprint catches it before the parser
    // ever sees the body.
    let tampered = good.replacen("\n{", "\n {", 1);
    assert!(matches!(
        ipra_artifact::decode::<ExecutableArtifact>(ArtifactKind::Executable, &tampered),
        Err(ArtifactError::Corrupt { .. })
    ));

    // A truncated file (e.g. a crashed writer) is an error, not a panic.
    let truncated = &good[..good.len() / 2];
    assert!(
        ipra_artifact::decode::<ExecutableArtifact>(ArtifactKind::Executable, truncated).is_err()
    );
}
