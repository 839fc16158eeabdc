//! `cminc` — the two-pass `cmin` compiler driver, file based.
//!
//! Mirrors the paper's Figure 1 as an actual command-line workflow over
//! versioned on-disk artifacts (summaries `.csum`, directives `.cdir`,
//! objects `.vo`, executables `.vx`, libraries `.vlib`):
//!
//! ```sh
//! cminc c a.cmin -o a.vo --cache-dir .ccache      # phase 1 + 2, emits a.csum too
//! cminc c b.cmin -o b.vo --cache-dir .ccache
//! cminc analyze a.csum b.csum --config C -o prog.cdir
//! cminc c a.cmin -o a.vo --dir prog.cdir --cache-dir .ccache   # phase 1 is a cache hit
//! cminc c b.cmin -o b.vo --dir prog.cdir --cache-dir .ccache
//! cminc link a.vo b.vo -o prog.vx
//! cminc run prog.vx --input "3 4 5" --stats
//! ```
//!
//! or, in one step:
//!
//! ```sh
//! cminc build a.cmin b.cmin --config C -o prog.vx --run --stats
//! ```
//!
//! `objdump` pretty-prints any artifact; `lib` archives objects (plus
//! their summaries) into a `.vlib` that `analyze` and `link` both accept,
//! pulling only the members the program needs. Every command reads and
//! writes these artifacts only, and judges an input's kind by its header,
//! never by its file name.

mod artifacts;

use ipra_core::analyzer::{analyze, analyze_traced, AnalyzerOptions, PaperConfig};
use ipra_core::trace::AnalyzerTrace;
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_driver::SourceFile;
use ipra_summary::ProgramSummary;
use ipra_telemetry::Telemetry;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "c" => artifacts::c_cmd(rest),
        "lib" => artifacts::lib_cmd(rest),
        "objdump" => artifacts::objdump_cmd(rest),
        "analyze" => analyze_cmd(rest),
        "link" => link_cmd(rest),
        "verify" => verify_cmd(rest),
        "run" => run_cmd(rest),
        "build" => build_cmd(rest),
        "profile" => profile_cmd(rest),
        "stats" => stats_cmd(rest),
        "explain" => explain_cmd(rest),
        "report" => report_cmd(rest),
        "fuzz" => fuzz_cmd(rest),
        "serve" => serve_cmd(rest),
        "remote" => remote_cmd(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cminc: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cminc c <src.cmin> [-o <mod.vo>] [--summary <mod.csum>] [--dir <prog.cdir>] [--cache-dir DIR] [--target vpr|rv32]
  cminc analyze <mod.csum|lib.vlib>... [--config L2|A|B|C|D|E|F|P] [--profile <prof.json>] [--report] [--dot <graph.dot>] [--trace <trace.json>] [--target vpr|rv32] -o <prog.cdir>
  cminc link <mod.vo|lib.vlib>... [--allow-undefined] -o <prog.vx>
  cminc lib <mod.vo>... -o <lib.vlib>
  cminc verify <mod.vo>... [--db <prog.cdir>]
  cminc run <prog.vx> [--input \"v v v\"] [--engine fast|ref] [--stats] [--stats-json <out.json>] [--metrics-out <m.json>] [--profile-out <prof.json>] [--asm]
  cminc build <src.cmin>... [--config ...] [--target vpr|rv32] [-o <prog.vx>] [--cache-dir DIR] [-j|--jobs N] [--repeat N] [--verify] [--run] [--stats] [--trace <trace.json>] [--trace-out <t.json>] [--metrics-out <m.json>] [--stats-json <s.json>] [--input \"v v v\"]
  cminc profile <prog.vx | src.cmin...> [--config ...] [--input \"v v v\"] [--engine fast|ref] [--top N] [--json <out.json>]
  cminc stats <src.cmin>... [--config ...] [--input \"v v v\"] [-j|--jobs N] [--run]
  cminc objdump <artifact-file>
  cminc explain <symbol> (--trace <trace.json> | <src.cmin>... [--config ...]) [--target vpr|rv32]
  cminc report <src.cmin>... --config-b L2|A|B|C|D|E|F|P [--config-a ...] [--input \"v v v\"] [--json <out.json>]
  cminc fuzz [--seed N] [--iters N | --time-budget SECS] [-j|--jobs N] [--corpus DIR] [--reduce-budget N] [--self-validate] [--metrics-out <m.json>]
  cminc serve --socket PATH [--cache-dir DIR] [-j|--jobs N] [--shards N] [--cap N] [--timeout SECS]
  cminc remote build <src.cmin>... --socket PATH [--config ...] [-o <prog.vx>] [--input \"v v v\"]
  cminc remote ping|stats|shutdown --socket PATH

artifacts (`objdump` prints any of them):
  .csum  per-module summary     .cdir  analyzer directives   .vo  object code
  .vx    linked executable      .vlib  object+summary archive
  inputs are recognized by their header, not their extension

separate compilation:
  c              one module, both phases; --dir supplies the analyzer's
                 directives (standard conventions without it); the .csum
                 lands beside the -o object unless --summary is given
  --cache-dir D  persist phase fingerprints under D: across separate cminc
                 invocations only modules whose source or directive slice
                 changed are recompiled (c, build)
  --allow-undefined  (link) resolve missing functions to trap stubs; linking
                 against a .vlib pulls only the members the program needs

build flags:
  --target T     machine description to compile for: vpr (default) or rv32;
                 link/verify/run read the target from the artifacts themselves
  -j, --jobs N   worker threads for the per-module phases (default 1, 0 = all cores)
  --repeat N     build N times through one incremental cache (recompilation demo)
  -o FILE        write the linked executable as a .vx artifact
  --stats        per-phase wall-clock and cache hit/miss table (plus run stats with --run)
  --trace FILE   persist the analyzer's decision trace as JSON (also: analyze)

telemetry (spans + counters, see docs/telemetry.md):
  --trace-out FILE    (build) export pipeline spans as Chrome trace-event
                      JSON — open in Perfetto or about://tracing; per-module
                      phase tasks carry their worker lane as the tid
  --metrics-out FILE  (build, run, fuzz) export the counters registry as
                      canonical JSON: byte-identical across --jobs widths,
                      engines, and machines (never contains wall-clock data)
  --stats-json FILE   (build) machine-readable build stats: cache hit/miss
                      tiers + counters, deterministic (no wall-clock)
  profile             run a program with per-pc execution counts and print
                      symbolized per-procedure / hot-block / opcode tables;
                      identical on both engines, totals equal run cycles
  stats               build (and optionally run) sources, print the
                      canonical metrics JSON on stdout

observability:
  explain        render every analyzer decision that mentions one global or
                 procedure, from a saved trace or by compiling sources
  report         compile under two configs (A defaults to L2), run both with
                 exact per-procedure attribution, and explain each delta;
                 --json writes the full deterministic report
  --stats-json   (run) write RunStats + exact per-procedure attribution as JSON

fuzz:
  random differential testing: generated programs are interpreted and
  compiled under all seven paper configurations; any divergence (or verify,
  attribution, incremental-build or trace-purity violation) is shrunk to a
  minimal repro. stdout is deterministic for a given --seed/--iters,
  independent of --jobs; timing goes to stderr.
  --seed N           master seed (default 1)
  --iters N          iterations (default 100)
  --time-budget SECS run until the budget elapses instead (not jobs-deterministic)
  --corpus DIR       save reduced repros as corpus entries under DIR
  --reduce-budget N  predicate evaluations per reduction (default 1200)
  --self-validate    inject the known miscompile classes and prove the
                     oracle detects them; repros shrink into --corpus too";

/// Pulls the value following `flag` out of `args`, if present.
pub(crate) fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Positional arguments: everything not a flag or a flag value.
pub(crate) fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Flags with values:
            let takes_value = matches!(
                a.as_str(),
                "--summary"
                    | "--config"
                    | "--profile"
                    | "--db"
                    | "-o"
                    | "--input"
                    | "--profile-out"
                    | "--dot"
                    | "--jobs"
                    | "--repeat"
                    | "--trace"
                    | "--stats-json"
                    | "--config-a"
                    | "--config-b"
                    | "--json"
                    | "--seed"
                    | "--iters"
                    | "--time-budget"
                    | "--corpus"
                    | "--reduce-budget"
                    | "--dir"
                    | "--cache-dir"
                    | "--engine"
                    | "--trace-out"
                    | "--metrics-out"
                    | "--top"
                    | "--socket"
                    | "--shards"
                    | "--cap"
                    | "--timeout"
                    | "--target"
            );
            skip = takes_value && args.get(i + 1).is_some();
            continue;
        }
        if a == "-o" || a == "-j" {
            skip = true;
            continue;
        }
        out.push(a.clone());
    }
    out
}

pub(crate) fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

pub(crate) fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

pub(crate) fn module_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "module".into())
}

/// Resolves a config flag's value (default: L2).
fn config_flag(args: &[String], flag: &str) -> Result<PaperConfig, String> {
    match flag_value(args, flag) {
        None => Ok(PaperConfig::L2),
        Some(name) => PaperConfig::parse(&name).ok_or(format!("unknown config `{name}`")),
    }
}

fn parse_config(args: &[String]) -> Result<PaperConfig, String> {
    config_flag(args, "--config")
}

/// Resolves `--target` to a machine description id (default: VPR).
pub(crate) fn parse_target(args: &[String]) -> Result<vpr::target::TargetId, String> {
    match flag_value(args, "--target") {
        None => Ok(vpr::target::TargetId::Vpr),
        Some(s) => vpr::target::TargetId::parse(&s).ok_or_else(|| {
            let names: Vec<&str> = vpr::target::TargetId::ALL.iter().map(|t| t.name()).collect();
            format!("unknown target `{s}` (targets: {})", names.join(", "))
        }),
    }
}

fn parse_input(args: &[String]) -> Result<Vec<i64>, String> {
    match flag_value(args, "--input") {
        None => Ok(Vec::new()),
        Some(text) => text
            .split_whitespace()
            .map(|t| t.parse::<i64>().map_err(|e| format!("bad input value `{t}`: {e}")))
            .collect(),
    }
}

fn analyze_cmd(args: &[String]) -> Result<(), String> {
    let sums = positionals(args);
    if sums.is_empty() {
        return Err("analyze needs at least one summary file".into());
    }
    let out = flag_value(args, "-o").ok_or("analyze needs -o <prog.cdir>")?;
    let mut program = ProgramSummary::default();
    for s in &sums {
        program.modules.extend(artifacts::load_summaries(s)?);
    }
    let config = parse_config(args)?;
    let profile = match flag_value(args, "--profile") {
        Some(p) => {
            Some(serde_json::from_str::<ProfileData>(&read(&p)?).map_err(|e| format!("{p}: {e}"))?)
        }
        None => {
            if config.wants_profile() {
                return Err(format!("config {config} needs --profile <prof.json>"));
            }
            None
        }
    };
    let target = parse_target(args)?;
    let analyzer_opts = AnalyzerOptions::paper_config_for(config, profile, target);
    let trace_path = flag_value(args, "--trace");
    let (analysis, trace) = match &trace_path {
        Some(_) => {
            let (a, t) = analyze_traced(&program, &analyzer_opts);
            (a, Some(t))
        }
        None => (analyze(&program, &analyzer_opts), None),
    };
    artifacts::write_database_for(&out, &config.to_string(), &analysis.database, target)?;
    if let (Some(path), Some(t)) = (&trace_path, &trace) {
        write(path, &t.to_json())?;
        eprintln!("trace: {} events -> {path}", t.events.len());
    }
    let s = &analysis.stats;
    eprintln!(
        "analyze: {} nodes, {} eligible globals, {}/{} webs colored, {} clusters -> {out}",
        s.nodes, s.eligible_globals, s.webs_colored, s.webs_total, s.clusters
    );
    if let Some(path) = flag_value(args, "--dot") {
        write(&path, &ipra_core::dot::call_graph_dot(&program, &analysis))?;
        eprintln!("dot: -> {path}");
    }
    if has_flag(args, "--report") {
        for w in &analysis.webs {
            println!(
                "web {:<14} reg {:<4} entries [{}] nodes [{}]{}",
                w.sym,
                w.reg.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                w.entries.join(" "),
                w.nodes.join(" "),
                if w.written { "" } else { " (read-only)" }
            );
        }
        for d in analysis.database.iter() {
            if d.is_cluster_root {
                println!("cluster root {:<14} MSPILL {}", d.name, d.usage.mspill);
            }
        }
    }
    Ok(())
}

fn link_cmd(args: &[String]) -> Result<(), String> {
    let objs = positionals(args);
    if objs.is_empty() {
        return Err("link needs at least one object or library file".into());
    }
    let out = flag_value(args, "-o").ok_or("link needs -o <prog.vx>")?;
    let modules = artifacts::collect_link_inputs(&objs)?;
    let opts = vpr::LinkOptions { allow_undefined_functions: has_flag(args, "--allow-undefined") };
    let exe = vpr::link_with(&modules, &opts).map_err(|e| e.to_string())?;
    artifacts::write_executable(&out, &exe)?;
    eprintln!("link: {} instructions -> {out}", exe.code_len());
    Ok(())
}

/// Runs the register-discipline verifier over already-compiled object
/// modules, against the program database that directed their codegen
/// (without `--db`, every procedure is held to the standard convention).
fn verify_cmd(args: &[String]) -> Result<(), String> {
    let objs = positionals(args);
    if objs.is_empty() {
        return Err("verify needs at least one object file".into());
    }
    let db = match flag_value(args, "--db") {
        Some(p) => artifacts::load_database(&p)?,
        None => ProgramDatabase::new(),
    };
    let mut modules = Vec::new();
    for o in &objs {
        modules.push(artifacts::load_object(o)?);
    }
    let report = ipra_verify::verify_modules(&modules, &db);
    report_verify(&report)
}

/// Prints a verification report; `Err` (with every diagnostic) if dirty.
fn report_verify(report: &ipra_verify::VerifyReport) -> Result<(), String> {
    if report.is_clean() {
        eprintln!("verify: {} procedures, {} instructions: clean", report.procs, report.insts);
        Ok(())
    } else {
        Err(format!("verification failed ({} diagnostics):\n{report}", report.diagnostics.len()))
    }
}

/// Deterministic simulator counters for one run: `sim.cycles`, memory and
/// call totals, and `sim.op.<class>` instructions-retired per opcode class
/// (from the run's [`vpr::ExecProfile`], so both engines agree exactly).
fn sim_counters(exe: &vpr::Executable, result: &vpr::RunResult) -> BTreeMap<String, u64> {
    let mut c = match &result.profile {
        Some(p) => p.sim_counters(exe, &result.stats),
        None => {
            // No profile recorded (no `sim.op.*` breakdown), but the
            // RunStats totals are still deterministic counters.
            let mut c = BTreeMap::new();
            c.insert("sim.cycles".to_string(), result.stats.cycles);
            c.insert("sim.loads".to_string(), result.stats.loads);
            c.insert("sim.stores".to_string(), result.stats.stores);
            c.insert("sim.calls".to_string(), result.stats.calls);
            c
        }
    };
    c.insert("sim.runs".to_string(), 1);
    c
}

fn parse_engine(args: &[String]) -> Result<vpr::Engine, String> {
    match flag_value(args, "--engine").as_deref() {
        None | Some("fast") => Ok(vpr::Engine::Fast),
        Some("ref") | Some("reference") => Ok(vpr::Engine::Reference),
        Some(other) => Err(format!("unknown engine `{other}` (use fast or ref)")),
    }
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let files = positionals(args);
    let [exe_path] = files.as_slice() else {
        return Err("run takes exactly one executable".into());
    };
    let exe = artifacts::load_executable(exe_path)?;
    if has_flag(args, "--asm") {
        print!("{}", vpr::asm::executable_asm(&exe));
        return Ok(());
    }
    let input = parse_input(args)?;
    let stats_json = flag_value(args, "--stats-json");
    let metrics_out = flag_value(args, "--metrics-out");
    let engine = parse_engine(args)?;
    let opts = vpr::SimOptions {
        input,
        attribute: stats_json.is_some(),
        profile: metrics_out.is_some(),
        engine,
        ..vpr::SimOptions::default()
    };
    let result = vpr::run_with(&exe, &opts).map_err(|e| e.to_string())?;
    for v in &result.output {
        println!("{v}");
    }
    eprintln!("exit: {}", result.exit);
    if let Some(path) = &stats_json {
        /// `--stats-json` payload: the function-index → name table (which
        /// makes `call_counts`/`call_edges` interpretable), the full run
        /// statistics, and the exact per-procedure attribution.
        #[derive(Serialize)]
        struct StatsDump {
            funcs: Vec<String>,
            exit: i64,
            stats: vpr::RunStats,
            attribution: vpr::Attribution,
        }
        let dump = StatsDump {
            funcs: exe.funcs().iter().map(|f| f.name.clone()).collect(),
            exit: result.exit,
            stats: result.stats.clone(),
            attribution: result.attribution.clone().expect("attribution was requested"),
        };
        write(path, &serde_json::to_string_pretty(&dump).expect("serialize"))?;
        eprintln!("stats: -> {path}");
    }
    if let Some(path) = &metrics_out {
        write(path, &ipra_telemetry::metrics_json_from(&sim_counters(&exe, &result)))?;
        eprintln!("metrics: -> {path}");
    }
    if has_flag(args, "--stats") {
        let s = &result.stats;
        eprintln!(
            "cycles: {}  loads: {}  stores: {}  singleton refs: {}  calls: {}",
            s.cycles,
            s.loads,
            s.stores,
            s.singleton_refs(),
            s.calls
        );
    }
    if let Some(path) = flag_value(args, "--profile-out") {
        let mut profile = ProfileData::new();
        for (&(caller, callee), &count) in &result.stats.call_edges {
            if let (Some(cr), Some(ce)) = (exe.funcs().get(caller), exe.funcs().get(callee)) {
                profile.record_edge(&cr.name, &ce.name, count);
            }
        }
        write(&path, &serde_json::to_string_pretty(&profile).expect("serialize"))?;
        eprintln!("profile: -> {path}");
    }
    Ok(())
}

/// Reads source files into driver [`SourceFile`]s.
fn read_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    paths.iter().map(|p| Ok(SourceFile::new(module_name(p), read(p)?))).collect()
}

/// `cminc explain <symbol>`: renders every analyzer decision mentioning one
/// global or procedure, from a saved `--trace` file or by compiling the
/// given sources with tracing on.
fn explain_cmd(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let Some((symbol, srcs)) = pos.split_first() else {
        return Err("explain needs a <symbol> (a global or procedure name)".into());
    };
    let trace = match flag_value(args, "--trace") {
        Some(path) => {
            AnalyzerTrace::from_json(&read(&path)?).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            if srcs.is_empty() {
                return Err("explain needs --trace <trace.json> or source files to compile".into());
            }
            let sources = read_sources(srcs)?;
            let config = parse_config(args)?;
            let input = parse_input(args)?;
            let opts = ipra_driver::CompileOptions {
                trace: true,
                target: parse_target(args)?,
                ..ipra_driver::CompileOptions::default()
            };
            let mut cache = ipra_driver::CompilationCache::new();
            let program =
                ipra_driver::compile_configured(&sources, config, &input, &opts, &mut cache)
                    .map_err(|e| e.to_string())?
                    .map_err(|e| format!("training run trapped: {e}"))?;
            program.trace.expect("tracing was requested")
        }
    };
    print!("{}", ipra_obsv::explain_for(&trace, symbol, parse_target(args)?.desc()));
    Ok(())
}

/// `cminc report`: compile under two configurations, run both with exact
/// attribution, and explain every per-procedure delta.
fn report_cmd(args: &[String]) -> Result<(), String> {
    let srcs = positionals(args);
    if srcs.is_empty() {
        return Err("report needs at least one source file".into());
    }
    let config_a = config_flag(args, "--config-a")?;
    flag_value(args, "--config-b").ok_or("report needs --config-b <config>")?;
    let config_b = config_flag(args, "--config-b")?;
    let input = parse_input(args)?;
    let sources = read_sources(&srcs)?;
    let report = ipra_driver::diff_report(&sources, config_a, config_b, &input, 1)
        .map_err(|e| e.to_string())?
        .map_err(|e| format!("run trapped: {e}"))?;
    if !report.sums_match() {
        return Err("internal error: per-procedure sums diverge from program totals".into());
    }
    print!("{}", report.render_table());
    if let Some(path) = flag_value(args, "--json") {
        write(&path, &report.to_json())?;
        eprintln!("report: -> {path}");
    }
    Ok(())
}

/// `cminc fuzz`: run the differential fuzzer (and/or oracle
/// self-validation). The report on stdout is deterministic for a given
/// `--seed`/`--iters` regardless of `--jobs`; wall-clock goes to stderr.
fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad {flag} value `{v}`: {e}")),
        }
    };
    let jobs = match flag_value(args, "--jobs").or_else(|| flag_value(args, "-j")) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --jobs value `{v}`: {e}"))?,
        None => 0,
    };
    let defaults = ipra_fuzz::FuzzOptions::default();
    let opts = ipra_fuzz::FuzzOptions {
        seed: parse_num("--seed", defaults.seed)?,
        iters: parse_num("--iters", defaults.iters as u64)? as usize,
        time_budget: flag_value(args, "--time-budget")
            .map(|v| {
                v.parse::<u64>()
                    .map(std::time::Duration::from_secs)
                    .map_err(|e| format!("bad --time-budget value `{v}`: {e}"))
            })
            .transpose()?,
        jobs,
        corpus_dir: flag_value(args, "--corpus").map(std::path::PathBuf::from),
        reduce_checks: parse_num(
            "--reduce-budget",
            ipra_fuzz::ReduceOptions::default().max_checks as u64,
        )? as usize,
        max_reported: defaults.max_reported,
    };

    let start = std::time::Instant::now();
    let mut failed = false;
    if has_flag(args, "--self-validate") {
        let results = ipra_fuzz::self_validate(&opts)?;
        for r in &results {
            println!(
                "self-validate: {} injected at seed {:#x}, detected, reduced {} -> {} module(s)",
                r.class.name(),
                r.seed,
                r.original_modules,
                r.sources.len()
            );
            if let Some(p) = &r.corpus_path {
                println!("  saved {}", p.display());
            }
        }
    }
    if !has_flag(args, "--self-validate") || has_flag(args, "--iters") || opts.time_budget.is_some()
    {
        let outcome = ipra_fuzz::fuzz(&opts);
        print!("{}", outcome.render());
        failed = outcome.total_failures > 0;
        if let Some(path) = flag_value(args, "--metrics-out") {
            let mut counters = BTreeMap::new();
            counters.insert("fuzz.iterations".to_string(), outcome.iterations as u64);
            counters.insert("fuzz.failures".to_string(), outcome.total_failures as u64);
            write(&path, &ipra_telemetry::metrics_json_from(&counters))?;
            eprintln!("metrics: -> {path}");
        }
    }
    eprintln!("fuzz: {:.1}s", start.elapsed().as_secs_f64());
    if failed {
        return Err("the fuzzer found failures (see report above)".into());
    }
    Ok(())
}

/// Renders the per-phase wall-clock and cache hit/miss table for one build
/// (the `disk` column counts hits served from `--cache-dir`).
fn phase_table(b: &ipra_driver::BuildReport) -> String {
    let mut out = String::new();
    let row = |name: &str, secs: f64, phase: Option<&ipra_driver::PhaseStats>| {
        let fmt_opt = |v: Option<usize>| v.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        format!(
            "  {:<8} {:>10.3}ms {:>6} {:>7} {:>6}\n",
            name,
            secs * 1e3,
            fmt_opt(phase.map(|p| p.hits)),
            fmt_opt(phase.map(|p| p.misses)),
            fmt_opt(phase.map(|p| p.disk_hits)),
        )
    };
    out.push_str("  phase          time   hits  misses   disk\n");
    out.push_str(&row("phase1", b.phase1.seconds, Some(&b.phase1)));
    out.push_str(&row("analyze", b.analyze_seconds, None));
    out.push_str(&row("phase2", b.phase2.seconds, Some(&b.phase2)));
    out.push_str(&row("link", b.link_seconds, None));
    out.push_str(&row("total", b.total_seconds, None));
    if b.recompiled.is_empty() {
        out.push_str("  recompiled: (none)\n");
    } else {
        out.push_str(&format!("  recompiled: {}\n", b.recompiled.join(" ")));
    }
    out
}

fn build_cmd(args: &[String]) -> Result<(), String> {
    let srcs = positionals(args);
    if srcs.is_empty() {
        return Err("build needs at least one source file".into());
    }
    let config = parse_config(args)?;
    let input = parse_input(args)?;
    let jobs = match flag_value(args, "--jobs").or_else(|| flag_value(args, "-j")) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --jobs value `{v}`: {e}"))?,
        None => 1,
    };
    let repeat = match flag_value(args, "--repeat") {
        Some(v) => {
            let n = v.parse::<usize>().map_err(|e| format!("bad --repeat value `{v}`: {e}"))?;
            n.max(1)
        }
        None => 1,
    };
    let stats = has_flag(args, "--stats");
    let target = parse_target(args)?;
    let mut sources = Vec::new();
    for s in &srcs {
        sources.push(SourceFile::new(module_name(s), read(s)?));
    }
    // One cache across every repetition: iteration 1 is the cold build,
    // the rest demonstrate the paper's recompilation story (§3) — pure
    // cache hits when nothing changed. With --cache-dir the cache is also
    // persistent, so the story holds across separate cminc processes.
    let trace_path = flag_value(args, "--trace");
    let trace_out = flag_value(args, "--trace-out");
    let metrics_out = flag_value(args, "--metrics-out");
    let stats_json = flag_value(args, "--stats-json");
    let telemetry =
        (trace_out.is_some() || metrics_out.is_some() || stats_json.is_some()).then(Telemetry::new);
    let mut cache = artifacts::open_cache(args)?;
    let mut program = None;
    for i in 0..repeat {
        let opts = ipra_driver::CompileOptions {
            jobs,
            trace: trace_path.is_some(),
            telemetry: telemetry.clone(),
            target,
            ..ipra_driver::CompileOptions::default()
        };
        let built = ipra_driver::compile_configured(&sources, config, &input, &opts, &mut cache)
            .map_err(|e| e.to_string())?
            .map_err(|e| format!("training run trapped: {e}"))?;
        if stats && repeat > 1 && i + 1 < repeat {
            eprintln!("build {} of {repeat}:", i + 1);
            eprint!("{}", phase_table(&built.build));
        }
        program = Some(built);
    }
    let program = program.expect("repeat >= 1");
    let s = &program.stats;
    eprintln!(
        "build: config {config}; {} nodes, {}/{} webs colored, {} clusters",
        s.nodes, s.webs_colored, s.webs_total, s.clusters
    );
    if let Some(path) = &trace_path {
        let t = program.trace.as_ref().expect("tracing was requested");
        write(path, &t.to_json())?;
        eprintln!("trace: {} events -> {path}", t.events.len());
    }
    if let Some(out) = flag_value(args, "-o") {
        artifacts::write_executable(&out, &program.exe)?;
        eprintln!("build: {} instructions -> {out}", program.exe.code_len());
    }
    if stats {
        if repeat > 1 {
            eprintln!("build {repeat} of {repeat}:");
        }
        eprint!("{}", phase_table(&program.build));
    }
    if has_flag(args, "--verify") {
        report_verify(&ipra_driver::verify_program(&program))?;
    }
    if has_flag(args, "--run") {
        // With a collector attached, the run also profiles so `sim.*`
        // counters (cycles, memory traffic, per-opcode-class retirement)
        // land in the exported metrics. Profiling is pure observation.
        let opts = vpr::SimOptions {
            input: input.clone(),
            profile: telemetry.is_some(),
            ..vpr::SimOptions::default()
        };
        let tele = telemetry.as_ref();
        let run_span = ipra_telemetry::span(tele, "sim", "run");
        let result = vpr::run_with(&program.exe, &opts).map_err(|e| e.to_string())?;
        run_span.finish();
        if let Some(t) = tele {
            for (k, n) in sim_counters(&program.exe, &result) {
                t.add(&k, n);
            }
        }
        for v in &result.output {
            println!("{v}");
        }
        eprintln!("exit: {}", result.exit);
        if has_flag(args, "--stats") {
            let st = &result.stats;
            eprintln!(
                "cycles: {}  singleton refs: {}  calls: {}",
                st.cycles,
                st.singleton_refs(),
                st.calls
            );
        }
    }
    if let Some(t) = &telemetry {
        if let Some(path) = &trace_out {
            write(path, &t.chrome_trace_json())?;
            eprintln!("trace-out: {} span events -> {path}", t.event_count());
        }
        if let Some(path) = &metrics_out {
            write(path, &t.metrics_json())?;
            eprintln!("metrics: {} counters -> {path}", t.counters().len());
        }
        if let Some(path) = &stats_json {
            write(path, &build_stats_json(config, &sources, &program.build, t))?;
            eprintln!("stats-json: -> {path}");
        }
    }
    Ok(())
}

/// The `--stats-json` payload: machine-readable build statistics with the
/// wall-clock columns deliberately left out, so the bytes are deterministic
/// across runs, `--jobs` widths, and machines. Timings belong in
/// `--trace-out`; this file is the counted work.
fn build_stats_json(
    config: PaperConfig,
    sources: &[SourceFile],
    build: &ipra_driver::BuildReport,
    tele: &Telemetry,
) -> String {
    let names = |it: &[String]| Value::Array(it.iter().map(|s| Value::Str(s.clone())).collect());
    let phase = |p: &ipra_driver::PhaseStats| {
        Value::Object(vec![
            ("hits".to_string(), Value::UInt(p.hits as u64)),
            ("misses".to_string(), Value::UInt(p.misses as u64)),
            ("disk_hits".to_string(), Value::UInt(p.disk_hits as u64)),
        ])
    };
    let modules: Vec<String> = sources.iter().map(|s| s.name.clone()).collect();
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::Str("ipra-build-stats-v1".to_string())),
        ("config".to_string(), Value::Str(config.to_string())),
        ("modules".to_string(), names(&modules)),
        ("phase1".to_string(), phase(&build.phase1)),
        ("phase2".to_string(), phase(&build.phase2)),
        ("recompiled".to_string(), names(&build.recompiled)),
        ("counters".to_string(), ipra_telemetry::counters_value(&tele.counters())),
    ]);
    let mut s = serde_json::to_string_pretty(&doc).expect("serialize");
    s.push('\n');
    s
}

/// `cminc profile`: run a program (an existing `.vx`, or sources compiled
/// on the spot) with per-pc execution counts, and print symbolized
/// per-procedure, hot-block and opcode-class tables. The profile is
/// recorded identically by both engines, and every table totals to the
/// run's cycle count exactly.
fn profile_cmd(args: &[String]) -> Result<(), String> {
    let files = positionals(args);
    if files.is_empty() {
        return Err("profile needs an executable or source files".into());
    }
    let input = parse_input(args)?;
    let engine = parse_engine(args)?;
    let top = match flag_value(args, "--top") {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --top value `{v}`: {e}"))?,
        None => 10,
    };
    let exe = if files.len() == 1 && !files[0].ends_with(".cmin") {
        artifacts::load_executable(&files[0])?
    } else {
        let sources = read_sources(&files)?;
        let config = parse_config(args)?;
        let mut cache = ipra_driver::CompilationCache::new();
        let opts = ipra_driver::CompileOptions::default();
        ipra_driver::compile_configured(&sources, config, &input, &opts, &mut cache)
            .map_err(|e| e.to_string())?
            .map_err(|e| format!("training run trapped: {e}"))?
            .exe
    };
    let opts = vpr::SimOptions { input, profile: true, engine, ..vpr::SimOptions::default() };
    let result = vpr::run_with(&exe, &opts).map_err(|e| e.to_string())?;
    let profile = result.profile.as_ref().expect("profiling was requested");
    if profile.total() != result.stats.cycles {
        return Err("internal error: profile total diverges from cycle count".into());
    }

    let mut procs = profile.proc_table(&exe);
    procs.sort_by(|a, b| b.self_cycles.cmp(&a.self_cycles).then_with(|| a.name.cmp(&b.name)));
    let blocks = {
        let mut bs = profile.block_counts(&exe);
        bs.retain(|b| b.cycles > 0);
        bs.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.start.cmp(&b.start)));
        bs
    };
    let histogram = profile.opcode_histogram(&exe);

    if let Some(path) = flag_value(args, "--json") {
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::Str("ipra-profile-v1".to_string())),
            ("total_cycles".to_string(), Value::UInt(result.stats.cycles)),
            ("procs".to_string(), procs.serialize()),
            ("blocks".to_string(), blocks.serialize()),
            ("opcode_histogram".to_string(), ipra_telemetry::counters_value(&histogram)),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("serialize");
        s.push('\n');
        write(&path, &s)?;
        eprintln!("profile: -> {path}");
    }

    let total = result.stats.cycles.max(1);
    println!("profile: {} cycles, exit {}", result.stats.cycles, result.exit);
    println!("\nprocedures (self cycles):");
    for row in procs.iter().take(top) {
        println!(
            "  {:<20} {:>12} {:>6.2}%",
            row.name,
            row.self_cycles,
            row.self_cycles as f64 * 100.0 / total as f64
        );
    }
    println!("\nhot blocks:");
    for b in blocks.iter().take(top) {
        println!(
            "  {:<20} pc {:>5}..{:<5} {:>10} entries {:>12} cycles {:>6.2}%",
            b.sym.as_deref().unwrap_or("?"),
            b.start,
            b.end,
            b.entries,
            b.cycles,
            b.cycles as f64 * 100.0 / total as f64
        );
    }
    println!("\ninstructions retired by opcode class:");
    for (class, n) in &histogram {
        println!("  {:<8} {:>12} {:>6.2}%", class, n, *n as f64 * 100.0 / total as f64);
    }
    Ok(())
}

/// `cminc stats`: build the sources with a collector attached (optionally
/// running the program too) and print the canonical metrics JSON on
/// stdout — the byte-deterministic counters registry, never wall-clock.
fn stats_cmd(args: &[String]) -> Result<(), String> {
    let srcs = positionals(args);
    if srcs.is_empty() {
        return Err("stats needs at least one source file".into());
    }
    let sources = read_sources(&srcs)?;
    let config = parse_config(args)?;
    let input = parse_input(args)?;
    let jobs = match flag_value(args, "--jobs").or_else(|| flag_value(args, "-j")) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --jobs value `{v}`: {e}"))?,
        None => 1,
    };
    let telemetry = Telemetry::new();
    let opts = ipra_driver::CompileOptions {
        jobs,
        telemetry: Some(telemetry.clone()),
        ..ipra_driver::CompileOptions::default()
    };
    let mut cache = ipra_driver::CompilationCache::new();
    let program = ipra_driver::compile_configured(&sources, config, &input, &opts, &mut cache)
        .map_err(|e| e.to_string())?
        .map_err(|e| format!("training run trapped: {e}"))?;
    if has_flag(args, "--run") {
        let opts = vpr::SimOptions { input, profile: true, ..vpr::SimOptions::default() };
        let result = vpr::run_with(&program.exe, &opts).map_err(|e| e.to_string())?;
        for (k, n) in sim_counters(&program.exe, &result) {
            telemetry.add(&k, n);
        }
    }
    print!("{}", telemetry.metrics_json());
    Ok(())
}

/// `cminc serve`: run `cmind`, the build-service daemon, until a client
/// sends a shutdown request. All sessions share one sharded, optionally
/// size-capped, optionally persistent compilation cache.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let socket = flag_value(args, "--socket").ok_or("serve needs --socket PATH")?;
    let jobs = match flag_value(args, "--jobs").or_else(|| flag_value(args, "-j")) {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --jobs value `{v}`: {e}"))?,
        None => 1,
    };
    let shards = match flag_value(args, "--shards") {
        Some(v) => v.parse::<usize>().map_err(|e| format!("bad --shards value `{v}`: {e}"))?,
        None => 4,
    };
    let capacity = match flag_value(args, "--cap") {
        Some(v) => Some(v.parse::<usize>().map_err(|e| format!("bad --cap value `{v}`: {e}"))?),
        None => None,
    };
    let request_timeout = match flag_value(args, "--timeout") {
        Some(v) => {
            let secs = v.parse::<u64>().map_err(|e| format!("bad --timeout value `{v}`: {e}"))?;
            Some(std::time::Duration::from_secs(secs))
        }
        None => None,
    };
    let opts = ipra_daemon::ServerOptions {
        socket: socket.clone().into(),
        jobs,
        cache_dir: flag_value(args, "--cache-dir").map(Into::into),
        shards,
        capacity,
        request_timeout,
        telemetry: Telemetry::new(),
    };
    let server = ipra_daemon::Server::start(opts).map_err(|e| format!("serve: {socket}: {e}"))?;
    eprintln!("cmind: listening on {socket}");
    server.wait();
    eprintln!("cmind: drained, exiting");
    Ok(())
}

/// `cminc remote`: talk to a running `cmind`. `build` falls back to a
/// local compile when the daemon is unreachable, so scripts can use it
/// unconditionally.
fn remote_cmd(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let Some((sub, rest)) = pos.split_first() else {
        return Err("remote needs a subcommand: build | ping | stats | shutdown".into());
    };
    let socket = flag_value(args, "--socket").ok_or("remote needs --socket PATH")?;
    match sub.as_str() {
        "build" => remote_build(args, rest, &socket),
        "ping" => {
            let mut client = connect_daemon(&socket)?;
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            Ok(())
        }
        "stats" => {
            let mut client = connect_daemon(&socket)?;
            let counters = client.stats().map_err(|e| e.to_string())?;
            let map: BTreeMap<String, u64> =
                counters.into_iter().map(|c| (c.name, c.value)).collect();
            print!("{}", ipra_telemetry::metrics_json_from(&map));
            Ok(())
        }
        "shutdown" => {
            let mut client = connect_daemon(&socket)?;
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("cmind at {socket}: shutting down");
            Ok(())
        }
        other => Err(format!("unknown remote subcommand `{other}`")),
    }
}

fn connect_daemon(socket: &str) -> Result<ipra_daemon::Client, String> {
    ipra_daemon::Client::connect(socket).map_err(|e| e.to_string())
}

/// Writes a build result (`.vx` artifact text) to `-o`, when given: the
/// bytes `cminc build -o` writes for the same program.
fn write_vx_text(out: Option<&str>, vx: &str) -> Result<(), String> {
    out.map_or(Ok(()), |path| write(path, vx))
}

fn remote_build(args: &[String], srcs: &[String], socket: &str) -> Result<(), String> {
    if srcs.is_empty() {
        return Err("remote build needs at least one source file".into());
    }
    let config = parse_config(args)?; // validate locally before shipping
    let config_name = flag_value(args, "--config").unwrap_or_else(|| "L2".to_string());
    let input = parse_input(args)?;
    let sources = read_sources(srcs)?;
    let out = flag_value(args, "-o");
    match connect_daemon(socket) {
        Ok(mut client) => {
            let request = ipra_daemon::BuildRequest {
                config: config_name,
                optimize: true,
                sources: sources
                    .iter()
                    .map(|s| ipra_daemon::WireSource { name: s.name.clone(), text: s.text.clone() })
                    .collect(),
                training_input: input,
            };
            let built = client.build(&request).map_err(|e| e.to_string())?;
            write_vx_text(out.as_deref(), &built.vx)?;
            eprintln!(
                "cmind: {} modules, {} recompiled{}",
                sources.len(),
                built.recompiled.len(),
                if built.coalesced { " (coalesced with an identical in-flight build)" } else { "" }
            );
            Ok(())
        }
        Err(e) => {
            // The daemon being down must not break builds: degrade to a
            // local compile of the same inputs — byte-identical output by
            // construction.
            eprintln!("cminc: daemon unavailable ({e}); building locally");
            let opts = ipra_driver::CompileOptions::default();
            let mut cache = ipra_driver::CompilationCache::new();
            let program =
                ipra_driver::compile_configured(&sources, config, &input, &opts, &mut cache)
                    .map_err(|e| e.to_string())?
                    .map_err(|e| format!("training run trapped: {e}"))?;
            let (vx, _) = ipra_daemon::protocol::executable_artifact(&program.exe);
            write_vx_text(out.as_deref(), &vx)
        }
    }
}
