//! `paper_suite`: the seven Table 3 programs under all eight
//! configurations (L2, A–F, P).
//!
//! An operation is one cell: `compile_configured` with a fresh cache (B
//! and F train on the program's training input first), `verify_program`,
//! then `run_program` on the full input, compared with the interpreter. A
//! pass is all 56 cells, in an order drawn from the seed.

use crate::pipeline::{self, CoreCounts};
use crate::{check_oracle, geomean, num, Json, Quality, Rng, Run, Samples, Timing, Window};
use cmin_ir::interp::InterpResult;
use ipra_core::analyzer::AnalyzerOptions;
use ipra_core::PaperConfig;
use ipra_driver::{
    compile_configured, interpret_sources, run_program, verify_program, CompilationCache,
    CompileOptions, CompiledProgram, PhaseStats,
};
use ipra_workloads::Workload as Program;
use std::collections::HashMap;
use std::time::Instant;
use vpr::sim::{run_with, SimOptions};

/// What one cell measured.
struct Cell {
    program: CompiledProgram,
    cycles: u64,
    singleton_refs: u64,
    verify_procs: u64,
}

/// Runs the workload.
pub fn run(run: &mut Run) -> (Samples, Quality) {
    let mut s = Samples::default();

    // Set-up: load the programs and compute each one's interpreter answer.
    let setup = || {
        let programs = ipra_workloads::all();
        let oracles: Result<Vec<InterpResult>, String> = programs
            .iter()
            .map(|w| match interpret_sources(&w.sources, &w.input) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(format!("{}: interpreter: {e}", w.name)),
                Err(e) => Err(format!("{}: frontend: {e}", w.name)),
            })
            .collect();
        (programs, oracles)
    };
    let (programs, oracles) = s.time_setup(run.cfg.sizes.setup_before, setup).expect("a set-up");
    let oracles = match oracles {
        Ok(o) => o,
        Err(e) => {
            run.op(Err(format!("paper_suite set-up: {e}")));
            return (s, Quality::default());
        }
    };
    let cells: Vec<(usize, PaperConfig)> = (0..programs.len())
        .flat_map(|p| PaperConfig::ALL_WITH_ALIAS.into_iter().map(move |c| (p, c)))
        .collect();

    let mut cycles: HashMap<(usize, PaperConfig), (u64, u64)> = HashMap::new();
    let mut code_insts = 0u64;
    let mut window = Window::new(run.cfg.seconds, run.cfg.sizes.setup_spread);
    let mut pass = 0u64;
    while (pass as usize) < run.cfg.sizes.min_ops || !window.over() {
        let mut order = cells.clone();
        let mut rng = Rng::new(run.cfg.seed, 100 + pass);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mark = run.spans.mark();
        let (mut pass_wall, mut pass_s) = (0.0, 0.0);
        let mut totals = PassTotals::default();
        for (k, &(p, config)) in order.iter().enumerate() {
            let (w, oracle) = (&programs[p], &oracles[p]);
            let what = format!("{}/{config}", w.name);
            let measured = cell(w, config, oracle, &mut s, &what);
            pass_wall += s.wall[&Timing::Op].last().expect("cell timed");
            pass_s += s.op.last().expect("cell timed");
            let outcome = measured.and_then(|c| {
                run.exact(&format!("cycles.{what}"), c.cycles)?;
                run.exact(&format!("singleton_refs.{what}"), c.singleton_refs)?;
                run.exact(&format!("code_insts.{what}"), c.program.exe.code_len() as u64)?;
                run.exact(&format!("verify.procs.{what}"), c.verify_procs)?;
                for (name, v) in CoreCounts::of(&c.program.stats).named() {
                    run.exact(&format!("{name}.{what}"), v)?;
                }
                if pass == 0 {
                    cycles.insert((p, config), (c.cycles, c.singleton_refs));
                    code_insts += c.program.exe.code_len() as u64;
                }
                Ok(c)
            });
            let outcome = match outcome {
                Ok(c) if run.cfg.trace => {
                    let req = pass << 16 | k as u64;
                    let traced = traced_cell(run, w, config, &c, req, &mut totals);
                    run.op(Ok(()));
                    traced.map_err(|e| format!("{what} (traced): {e}"))
                }
                other => other.map(|_| ()),
            };
            run.op(outcome);
        }
        s.record(Timing::Pass, pass_wall, pass_s / pass_wall);
        s.window_s += pass_s;
        if run.cfg.trace {
            let sim_s = run.spans.totals_since(mark).get("vpr.sim").copied().unwrap_or(0.0);
            let mut counts = totals.named();
            counts.push(("vpr.sim_ips", totals.sim_cycles / sim_s));
            run.layer_sample(mark, &counts);
        }
        pass += 1;
        window.setups_due(&mut s, setup);
    }

    let quality = quality(run, &programs, &cycles, code_insts);
    (s, quality)
}

/// Compiles, verifies and runs one cell, checking it against the oracle;
/// records its timings, the operation's even when the build failed.
fn cell(
    w: &Program,
    config: PaperConfig,
    oracle: &InterpResult,
    s: &mut Samples,
    what: &str,
) -> Result<Cell, String> {
    s.probe.fresh();
    let t0 = Instant::now();
    let built = compile_configured(
        &w.sources,
        config,
        &w.training_input,
        &CompileOptions::default(),
        &mut CompilationCache::new(),
    );
    let t1 = Instant::now();
    let program = match built {
        Ok(Ok(p)) => Ok(p),
        Ok(Err(e)) => Err(format!("{what}: training run: {e}")),
        Err(e) => Err(format!("{what}: build: {e}")),
    };
    let program = match program {
        Ok(p) => p,
        Err(e) => {
            let factor = s.probe.factor();
            s.record(Timing::Op, (t1 - t0).as_secs_f64(), factor);
            return Err(e);
        }
    };
    let report = verify_program(&program);
    let t2 = Instant::now();
    let result = run_program(&program, &w.input).map_err(|e| format!("{what}: run: {e}"));
    let op_wall = t0.elapsed().as_secs_f64();
    let factor = s.probe.factor();
    let checked = result.and_then(|r| check_oracle(what, &r, oracle).map(|()| r));
    s.record(Timing::Build, (t1 - t0).as_secs_f64(), factor);
    s.record(Timing::Verify, (t2 - t1).as_secs_f64(), factor);
    s.record(Timing::Op, op_wall, factor);
    let r = checked?;
    if !report.is_clean() {
        return Err(format!("{what}: verifier diagnostics:\n{report}"));
    }
    Ok(Cell {
        cycles: r.stats.cycles,
        singleton_refs: r.stats.singleton_refs(),
        verify_procs: report.procs as u64,
        program,
    })
}

/// A pass's summed counts for the traced run.
#[derive(Default)]
struct PassTotals {
    core: CoreCounts,
    cycles: f64,
    sim_cycles: f64,
    verify_procs: f64,
    p1: PhaseStats,
    p2: PhaseStats,
    recompiled: f64,
}

impl PassTotals {
    fn named(&self) -> Vec<(&'static str, f64)> {
        let mut out = self.core.samples();
        out.extend([
            ("vpr.cycles", self.cycles),
            ("verify.procs", self.verify_procs),
            ("driver.p1_hit_ratio", self.p1.hit_rate()),
            ("driver.p2_hit_ratio", self.p2.hit_rate()),
            ("driver.recompiled", self.recompiled),
        ]);
        out
    }
}

/// The cell composed layer by layer under spans (B and F train on a
/// composed L2 build first), checked against the untraced cell: same
/// `.vx` bytes, same database and counts as `ipra_core::analyze`, same
/// cycle count.
fn traced_cell(
    run: &mut Run,
    w: &Program,
    config: PaperConfig,
    untraced: &Cell,
    req: u64,
    totals: &mut PassTotals,
) -> Result<(), String> {
    let sp = &mut run.spans;
    let root = sp.begin("cell", &format!("{}/{config}", w.name), None, req);
    let profile = if config.wants_profile() {
        let l2 = AnalyzerOptions::paper_config(PaperConfig::L2, None);
        let base = pipeline::build(&w.sources, &l2, 1, sp, Some(root), req)?;
        let (db, counts) = (&base.database, base.counts);
        pipeline::check_against_analyze(&base.summary, &l2, db, counts, sp, Some(root), req)?;
        let opts = SimOptions { input: w.training_input.clone(), ..SimOptions::default() };
        let r = sp.time("vpr.sim", "training", Some(root), req, || run_with(&base.exe, &opts));
        let r = r.map_err(|e| format!("training run: {e}"))?;
        totals.sim_cycles += r.stats.cycles as f64;
        Some(ipra_driver::collect_profile_from(&base.exe, &r))
    } else {
        None
    };
    let aopts = AnalyzerOptions::paper_config(config, profile);
    let c = pipeline::build(&w.sources, &aopts, 1, sp, Some(root), req)?;
    pipeline::check_against_analyze(
        &c.summary,
        &aopts,
        &c.database,
        c.counts,
        sp,
        Some(root),
        req,
    )?;
    let report = sp.time("verify", "", Some(root), req, || {
        ipra_verify::verify_modules(&c.objects, &c.database)
    });
    let opts = SimOptions { input: w.input.clone(), ..SimOptions::default() };
    let r = sp.time("vpr.sim", "", Some(root), req, || run_with(&c.exe, &opts));
    sp.end(root);
    let r = r.map_err(|e| format!("run: {e}"))?;
    if pipeline::vx(&c.exe) != pipeline::vx(&untraced.program.exe) {
        return Err("composed pipeline .vx differs from compile_configured's".to_string());
    }
    if !report.is_clean() {
        return Err(format!("verifier diagnostics:\n{report}"));
    }
    if r.stats.cycles != untraced.cycles {
        return Err(format!(
            "traced run took {} cycles, untraced {}",
            r.stats.cycles, untraced.cycles
        ));
    }
    let b = &untraced.program.build;
    totals.core += c.counts;
    totals.cycles += r.stats.cycles as f64;
    totals.sim_cycles += r.stats.cycles as f64;
    totals.verify_procs += report.procs as f64;
    for (sum, phase) in [(&mut totals.p1, &b.phase1), (&mut totals.p2, &b.phase2)] {
        sum.hits += phase.hits;
        sum.misses += phase.misses;
    }
    totals.recompiled += b.recompiled.len() as f64;
    Ok(())
}

/// Geometric means over the 7 programs x 7 IPRA configurations of cycles
/// and singleton references relative to L2, with the per-program rows in
/// the detail line.
fn quality(
    run: &mut Run,
    programs: &[Program],
    cells: &HashMap<(usize, PaperConfig), (u64, u64)>,
    code_insts: u64,
) -> Quality {
    let mut all_cycles = Vec::new();
    let mut all_singleton = Vec::new();
    let mut rows = Vec::new();
    for (p, w) in programs.iter().enumerate() {
        let Some(&(l2_cycles, l2_singleton)) = cells.get(&(p, PaperConfig::L2)) else { continue };
        let mut cyc = Vec::new();
        let mut single = Vec::new();
        for config in PaperConfig::ALL_WITH_ALIAS.into_iter().filter(|&c| c != PaperConfig::L2) {
            if let Some(&(c, sref)) = cells.get(&(p, config)) {
                cyc.push(c as f64 / l2_cycles as f64);
                single.push(sref as f64 / l2_singleton as f64);
            }
        }
        rows.push((format!("vpr.cycles_vs_l2.{}", w.name), num(geomean(&cyc))));
        rows.push((format!("vpr.singleton_vs_l2.{}", w.name), num(geomean(&single))));
        all_cycles.extend(cyc);
        all_singleton.extend(single);
    }
    run.detail.push(("per_program".into(), Json::Object(rows)));
    Quality {
        cycles_vs_l2: geomean(&all_cycles),
        singleton_refs_vs_l2: geomean(&all_singleton),
        code_insts,
    }
}
