//! `scale_cold`: repeated cold builds of the 1024-module scaled program at
//! configuration C, each followed by the verifier.
//!
//! An operation is one cold build (`compile`, a fresh cache, `jobs` =
//! nproc) plus `verify_program`; a pass is one operation. After the window
//! the program is run at C and at L2 on the fast engine and both runs are
//! checked against the interpreter, giving the quality ratios.

use crate::pipeline::{self, CoreCounts};
use crate::{
    interpret_deep, median, num, scaled_quality, seeded_scaled, Quality, Rng, Run, Samples, Timing,
    Window,
};
use ipra_core::analyzer::AnalyzerOptions;
use ipra_core::PaperConfig;
use ipra_driver::{compile, verify_program, CompileOptions, CompiledProgram};
use std::time::Instant;

/// Runs the workload.
pub fn run(run: &mut Run) -> (Samples, Quality) {
    let n = run.cfg.sizes.scale_modules;
    let jobs = run.cfg.sizes.jobs;
    let mut s = Samples::default();

    // Set-up: generate the sources and compute the interpreter's answer.
    let seed = run.cfg.seed;
    let setup = || {
        let sources = seeded_scaled(n, &mut Rng::new(seed, 1));
        let oracle = interpret_deep(&sources, &[]);
        (sources, oracle)
    };
    let (sources, oracle) = s.time_setup(run.cfg.sizes.setup_before, setup).expect("a set-up");
    let oracle = match oracle {
        Ok(o) => o,
        Err(e) => {
            run.op(Err(format!("scale_cold set-up: {e}")));
            return (s, Quality::default());
        }
    };

    let opts = CompileOptions { jobs, ..CompileOptions::paper(PaperConfig::C) };
    let aopts = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let mut last: Option<CompiledProgram> = None;
    let mut traced_build = Vec::new();
    let mut window = Window::new(run.cfg.seconds, run.cfg.sizes.setup_spread);
    let mut i = 0;
    while i < run.cfg.sizes.min_ops || !window.over() {
        s.probe.fresh();
        let t = Instant::now();
        let built = compile(&sources, &opts);
        let build_wall = t.elapsed().as_secs_f64();
        let build_factor = s.probe.factor();
        let program = match built {
            Ok(p) => p,
            Err(e) => {
                run.op(Err(format!("scale_cold build: {e}")));
                i += 1;
                window.setups_due(&mut s, setup);
                continue;
            }
        };
        let t = Instant::now();
        let report = verify_program(&program);
        let verify_wall = t.elapsed().as_secs_f64();
        let verify_factor = s.probe.factor();
        s.record(Timing::Build, build_wall, build_factor);
        s.record(Timing::Verify, verify_wall, verify_factor);
        let op_wall = build_wall + verify_wall;
        let op_s = build_wall * build_factor + verify_wall * verify_factor;
        s.record(Timing::Op, op_wall, op_s / op_wall);
        s.record(Timing::Pass, op_wall, op_s / op_wall);
        s.window_s += op_s;
        let outcome = if report.is_clean() {
            record_counts(run, &program, report.procs)
        } else {
            Err(format!("scale_cold: verifier diagnostics:\n{report}"))
        };
        run.op(outcome);
        if run.cfg.trace {
            let outcome =
                traced_op(run, &mut s, &sources, &aopts, &program, i as u64, &mut traced_build);
            run.op(outcome);
        }
        last = Some(program);
        i += 1;
        window.setups_due(&mut s, setup);
    }
    if run.cfg.trace {
        let overhead = median(&traced_build) - median(&s.build);
        run.detail.push(("trace.build_s".into(), num(median(&traced_build))));
        run.detail.push(("trace.overhead_s".into(), num(overhead)));
    }

    let Some(program) = last else { return (s, Quality::default()) };
    let quality = scaled_quality(run, "scale_cold", &sources, &program, &oracle, jobs);
    let outcome = quality.as_ref().map(|_| ()).map_err(String::clone);
    run.op(outcome);
    (s, quality.unwrap_or_default())
}

fn record_counts(run: &mut Run, p: &CompiledProgram, procs: usize) -> Result<(), String> {
    for (name, v) in CoreCounts::of(&p.stats).named() {
        run.exact(name, v)?;
    }
    run.exact("verify.procs", procs as u64)?;
    run.exact("code_insts", p.exe.code_len() as u64)
}

/// The build composed layer by layer, then the verifier, under spans;
/// checked against the untraced build of the same iteration.
fn traced_op(
    run: &mut Run,
    s: &mut Samples,
    sources: &[ipra_driver::SourceFile],
    aopts: &AnalyzerOptions,
    untraced: &CompiledProgram,
    req: u64,
    traced_build: &mut Vec<f64>,
) -> Result<(), String> {
    let jobs = run.cfg.sizes.jobs;
    let sp = &mut run.spans;
    let mark = sp.mark();
    s.probe.fresh();
    let root = sp.begin("build", "scale_cold", None, req);
    let built = pipeline::build(sources, aopts, jobs, sp, Some(root), req);
    let wall = sp.end(root);
    traced_build.push(wall * s.probe.factor());
    let c = built?;
    pipeline::check_against_analyze(&c.summary, aopts, &c.database, c.counts, sp, None, req)?;
    let report = sp.time("verify", "scale_cold", None, req, || {
        ipra_verify::verify_modules(&c.objects, &c.database)
    });
    if pipeline::vx(&c.exe) != pipeline::vx(&untraced.exe) {
        return Err("scale_cold: composed pipeline .vx differs from compile's".to_string());
    }
    if !report.is_clean() {
        return Err(format!("scale_cold (traced): verifier diagnostics:\n{report}"));
    }
    let mut counts = c.counts.samples();
    counts.push(("verify.procs", report.procs as f64));
    counts.push(("driver.p1_hit_ratio", untraced.build.phase1.hit_rate()));
    counts.push(("driver.p2_hit_ratio", untraced.build.phase2.hit_rate()));
    counts.push(("driver.recompiled", untraced.build.recompiled.len() as f64));
    run.layer_sample(mark, &counts);
    Ok(())
}
