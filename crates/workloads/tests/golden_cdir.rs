//! Byte-identity goldens for the program analyzer.
//!
//! The analyzer's output is the `.cdir` program database (paper §4.3) plus
//! its statistics. Any rewrite of the analyzer's passes for speed must
//! reproduce both exactly: the same webs in the same order, the same
//! coloring, the same clusters and register sets. This test pins them:
//! for every Table 3 workload under every paper configuration (the seven
//! configs plus alias-precision P), and for the scaled N-module program at
//! 64, 256 and 1024 modules under A, C, D and E, the FNV-64 of the encoded
//! `.cdir` artifact and of the serialized `AnalyzerStats` must equal the
//! golden.
//!
//! Regenerate only when an *intentional* analyzer change lands, with:
//!
//! ```sh
//! IPRA_UPDATE_GOLDENS=1 cargo test -p ipra-workloads --test golden_cdir
//! ```

use ipra_artifact::{encode_for, ArtifactKind, DirectivesArtifact};
use ipra_core::analyzer::{AnalyzerOptions, AnalyzerStats};
use ipra_core::fingerprint::Fnv64;
use ipra_core::{PaperConfig, ProgramDatabase};
use ipra_driver::{compile, compile_configured, CompilationCache, CompileOptions};
use std::fmt::Write as _;
use std::path::PathBuf;
use vpr::target::TargetId;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/cdir_fingerprints.txt")
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One golden line: the `.cdir` bytes `cminc analyze` would write, and the
/// statistics the analyzer reported alongside.
fn line(
    out: &mut String,
    name: &str,
    config: PaperConfig,
    db: &ProgramDatabase,
    s: &AnalyzerStats,
) {
    let payload = DirectivesArtifact { config: config.to_string(), database: db.clone() };
    let cdir = encode_for(ArtifactKind::Directives, &payload, TargetId::Vpr);
    let stats = serde_json::to_string(s).expect("stats serialization cannot fail");
    let _ = writeln!(
        out,
        "{name} {config} cdir:{:016x} stats:{:016x}",
        fnv(cdir.as_bytes()),
        fnv(stats.as_bytes())
    );
}

fn current_fingerprints() -> String {
    let mut out = String::new();
    for w in ipra_workloads::all() {
        for config in PaperConfig::ALL_WITH_ALIAS {
            let mut cache = CompilationCache::new();
            let options = CompileOptions::default();
            let program =
                compile_configured(&w.sources, config, &w.training_input, &options, &mut cache)
                    .unwrap_or_else(|e| panic!("{}/{config}: {e}", w.name))
                    .unwrap_or_else(|e| panic!("{}/{config}: training trap {e}", w.name));
            line(&mut out, w.name, config, &program.database, &program.stats);
        }
    }
    // The scaled programs: one build for the phase-1 summaries (they do
    // not depend on the configuration), then the analyzer per config.
    for n in [64, 256, 1024] {
        let sources = ipra_workloads::scaled::scaled_program(n);
        let program = compile(&sources, &CompileOptions::paper(PaperConfig::C))
            .unwrap_or_else(|e| panic!("scaled{n}: {e}"));
        for config in [PaperConfig::A, PaperConfig::C, PaperConfig::D, PaperConfig::E] {
            let a =
                ipra_core::analyze(&program.summary, &AnalyzerOptions::paper_config(config, None));
            line(&mut out, &format!("scaled{n}"), config, &a.database, &a.stats);
        }
    }
    out
}

#[test]
fn analyzer_output_matches_goldens() {
    let current = current_fingerprints();
    let path = golden_path();
    if std::env::var_os("IPRA_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!("golden_cdir: wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        golden_lines.len(),
        current_lines.len(),
        "program x config matrix changed; regenerate goldens deliberately"
    );
    let mut diffs = String::new();
    for (g, c) in golden_lines.iter().zip(&current_lines) {
        if g != c {
            let _ = writeln!(diffs, "  golden: {g}\n  now:    {c}");
        }
    }
    assert!(diffs.is_empty(), "analyzer output is no longer byte-identical:\n{diffs}");
}
