//! The traced pipeline: the two-pass build composed from each layer's
//! public functions, with a span around every call.
//!
//! The untraced runs measure `ipra_driver::compile`; the traced run needs
//! the time of each layer inside that build, which the driver does not
//! expose. So this module calls the layers itself, in the driver's order
//! (phase 1 per module, the analyzer's sub-passes in `analyze_impl` order,
//! phase 2 per module, link), and the callers check that the result is the
//! same program: `.vx` bytes equal to `compile`'s, a database equal to
//! `ipra_core::analyze`'s, and counts equal to its `Analysis.stats`.

use crate::spans::Spans;
use cmin_ir::IrModule;
use ipra_core::analyzer::{solve_alias, AnalyzerOptions, AnalyzerStats, PromotionMode};
use ipra_core::caller_prealloc::{claim_pool_set_for, compute_tree_caller_for, own_claim_for};
use ipra_core::cluster::{identify_clusters, Clustering};
use ipra_core::color::{
    blanket_webs, color_webs_for, prioritize, ColoringStrategy, Prioritization, PrioritizedWeb,
};
use ipra_core::dataflow::{Eligibility, RefSets};
use ipra_core::regsets::compute_register_sets_for;
use ipra_core::webs::identify_webs;
use ipra_core::{CallGraph, ProcDirectives, ProgramDatabase, Promotion};
use ipra_driver::SourceFile;
use ipra_summary::{ModuleSummary, ProgramSummary};
use vpr::program::{Executable, ObjectModule};
use vpr::regs::RegSet;
use vpr::target::TargetId;

/// The analyzer sub-pass spans (every sub-pass `analyze_impl` runs, alias
/// included). `core.database_s` is the composed analyzer's `analyze` span
/// minus these: the time spent building the database and between passes.
pub const SUBPASSES: [&str; 10] = [
    "core.callgraph",
    "alias.solve",
    "core.eligibility",
    "core.refsets",
    "core.webs",
    "core.prioritize",
    "core.color",
    "core.clusters",
    "core.regsets",
    "core.prealloc",
];

/// The exact analyzer counts the benchmark reports and cross-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreCounts {
    /// Call-graph nodes.
    pub nodes: u64,
    /// Globals eligible for promotion.
    pub eligible_globals: u64,
    /// Webs identified.
    pub webs: u64,
    /// Webs given a register.
    pub webs_colored: u64,
    /// Spill-motion clusters.
    pub clusters: u64,
}

impl CoreCounts {
    /// The counts `ipra_core::analyze` reported.
    pub fn of(stats: &AnalyzerStats) -> CoreCounts {
        CoreCounts {
            nodes: stats.nodes as u64,
            eligible_globals: stats.eligible_globals as u64,
            webs: stats.webs_total as u64,
            webs_colored: stats.webs_colored as u64,
            clusters: stats.clusters as u64,
        }
    }

    /// `(metric name, value)` pairs.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("core.nodes", self.nodes),
            ("core.eligible_globals", self.eligible_globals),
            ("core.webs", self.webs),
            ("core.webs_colored", self.webs_colored),
            ("core.clusters", self.clusters),
        ]
    }

    /// [`CoreCounts::named`] as per-layer sample values.
    pub fn samples(&self) -> Vec<(&'static str, f64)> {
        self.named().iter().map(|&(name, v)| (name, v as f64)).collect()
    }
}

impl std::ops::AddAssign for CoreCounts {
    fn add_assign(&mut self, other: CoreCounts) {
        self.nodes += other.nodes;
        self.eligible_globals += other.eligible_globals;
        self.webs += other.webs;
        self.webs_colored += other.webs_colored;
        self.clusters += other.clusters;
    }
}

/// One module after phase 1.
#[derive(Debug, Clone)]
pub struct Front {
    /// Optimized IR.
    pub ir: IrModule,
    /// Its summary record.
    pub summary: ModuleSummary,
}

/// A composed build's products.
#[derive(Debug, Clone)]
pub struct Composed {
    /// Phase-1 products, in source order.
    pub fronts: Vec<Front>,
    /// The program summary the analyzer ran on.
    pub summary: ProgramSummary,
    /// The database the composed analyzer produced.
    pub database: ProgramDatabase,
    /// Its counts.
    pub counts: CoreCounts,
    /// Object modules, in source order.
    pub objects: Vec<ObjectModule>,
    /// The linked executable.
    pub exe: Executable,
}

/// Applies `f` to every item on up to `jobs` scoped threads (item `i` on
/// worker `i % jobs`), each recording into its own span list that is merged
/// back in worker order. With one job it runs inline on `sp`.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    sp: &mut Spans,
    f: impl Fn(&T, &mut Spans) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(|item| f(item, sp)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let results: Vec<(Spans, Vec<(usize, R)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let mut local = sp.child(w as u64 + 1);
                let f = &f;
                scope.spawn(move || {
                    let out: Vec<(usize, R)> = (w..items.len())
                        .step_by(jobs)
                        .map(|i| (i, f(&items[i], &mut local)))
                        .collect();
                    (local, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pipeline worker panicked")).collect()
    });
    for (local, out) in results {
        sp.merge(local);
        for (i, r) in out {
            slots[i] = Some(r);
        }
    }
    slots.into_iter().map(|r| r.expect("every item mapped")).collect()
}

/// Phase 1 for one module: parse, check, lower, optimize, summarize.
///
/// # Errors
///
/// The frontend diagnostic, rendered.
pub fn phase1_module(
    src: &SourceFile,
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> Result<Front, String> {
    let what = src.name.as_str();
    let module = sp
        .time("frontend.parse", what, parent, req, || {
            cmin_frontend::parse_module(&src.name, &src.text)
        })
        .map_err(|e| format!("{what}: {e}"))?;
    let info = sp
        .time("frontend.check", what, parent, req, || cmin_frontend::analyze(&module))
        .map_err(|e| format!("{what}: {e}"))?;
    let mut ir = sp.time("ir.lower", what, parent, req, || cmin_ir::lower_module(&module, &info));
    sp.time("ir.opt", what, parent, req, || cmin_ir::optimize_module(&mut ir));
    let summary = sp.time("summary", what, parent, req, || ipra_summary::summarize_module(&ir));
    Ok(Front { ir, summary })
}

/// The program analyzer composed from its public sub-passes, mirroring
/// `analyze_impl`: call graph, alias solve (config P), eligibility,
/// reference sets, then webs / prioritize / color for the promotion mode,
/// clusters, register sets, caller preallocation (when enabled) and the
/// program database, all inside one `analyze` span.
pub fn analyze_composed(
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> (ProgramDatabase, CoreCounts) {
    let desc = opts.target.desc();
    let whole = sp.begin("analyze", "", parent, req);
    let parent = Some(whole);
    let graph = sp.time("core.callgraph", "", parent, req, || {
        CallGraph::build(summary, opts.profile.as_ref())
    });
    let alias = opts
        .alias_precision
        .then(|| sp.time("alias.solve", "", parent, req, || solve_alias(summary)));
    let elig = sp.time("core.eligibility", "", parent, req, || {
        Eligibility::compute_with_alias(&graph, summary, alias.as_ref())
    });
    let refs = sp.time("core.refsets", "", parent, req, || RefSets::compute(&graph, &elig));

    let (webs, webs_total, coloring) = match opts.promotion {
        PromotionMode::Off => (Vec::new(), 0, Default::default()),
        PromotionMode::Coloring { .. } | PromotionMode::Greedy => {
            let (webs, wstats) =
                sp.time("core.webs", "", parent, req, || identify_webs(&graph, &elig, &refs));
            let prio = sp.time("core.prioritize", "", parent, req, || {
                prioritize(&webs, &graph, &elig, &opts.discard)
            });
            let strategy = match opts.promotion {
                PromotionMode::Coloring { registers } => {
                    ColoringStrategy::Reserved { count: registers }
                }
                _ => ColoringStrategy::Greedy,
            };
            let coloring = sp.time("core.color", "", parent, req, || {
                color_webs_for(&webs, &prio, strategy, &graph, desc)
            });
            (webs, wstats.webs_total, coloring)
        }
        PromotionMode::Blanket { count } => {
            let webs = sp.time("core.webs", "", parent, req, || blanket_webs(&graph, &elig, count));
            let prio = Prioritization {
                considered: (0..webs.len())
                    .map(|web| PrioritizedWeb { web, priority: 0 })
                    .collect(),
                ..Prioritization::default()
            };
            let strategy = ColoringStrategy::Reserved { count: webs.len() as u32 };
            let coloring = sp.time("core.color", "", parent, req, || {
                color_webs_for(&webs, &prio, strategy, &graph, desc)
            });
            let total = webs.len();
            (webs, total, coloring)
        }
    };

    let mut web_regs: Vec<RegSet> = vec![RegSet::new(); graph.len()];
    for (w, reg) in webs.iter().zip(&coloring.assignment) {
        if let Some(r) = reg {
            for &n in &w.nodes {
                web_regs[n.index()].insert(*r);
            }
        }
    }
    let clustering = if opts.spill_motion {
        sp.time("core.clusters", "", parent, req, || identify_clusters(&graph, &opts.cluster))
    } else {
        Clustering::default()
    };
    let usage = sp.time("core.regsets", "", parent, req, || {
        compute_register_sets_for(
            &graph,
            &clustering,
            &web_regs,
            opts.precise_web_cluster_interaction,
            desc,
        )
    });
    let tree_caller = opts.caller_preallocation.then(|| {
        sp.time("core.prealloc", "", parent, req, || compute_tree_caller_for(&graph, desc))
    });

    let database = sp.time("core.assemble", "", parent, req, || {
        let mut database = ProgramDatabase::new();
        for n in graph.node_ids() {
            if !graph.node(n).defined {
                continue;
            }
            let mut promotions: Vec<Promotion> = webs
                .iter()
                .zip(&coloring.assignment)
                .filter_map(|(w, reg)| {
                    let r = (*reg)?;
                    w.contains(n).then(|| {
                        let is_entry = w.is_entry(n);
                        Promotion {
                            sym: elig.global(w.global).sym.clone(),
                            reg: r,
                            is_entry,
                            store_at_exit: is_entry && w.written,
                        }
                    })
                })
                .collect();
            promotions.sort_by(|a, b| a.sym.cmp(&b.sym));
            let (claimed_caller, safe_caller_across) = match &tree_caller {
                Some(tree) => {
                    (own_claim_for(&graph, n, desc), claim_pool_set_for(desc) - tree[n.index()])
                }
                None => (claim_pool_set_for(desc), RegSet::new()),
            };
            database.insert(ProcDirectives {
                name: graph.node(n).name.clone(),
                promotions,
                usage: usage[n.index()],
                is_cluster_root: clustering.is_root(n),
                claimed_caller,
                safe_caller_across,
            });
        }
        database
    });
    let counts = CoreCounts {
        nodes: graph.len() as u64,
        eligible_globals: elig.len() as u64,
        webs: webs_total as u64,
        webs_colored: coloring.colored as u64,
        clusters: clustering.clusters.len() as u64,
    };
    sp.end(whole);
    (database, counts)
}

/// Runs `ipra_core::analyze` under the `core.analyze` span and checks the
/// composed database and counts against it.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn check_against_analyze(
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
    database: &ProgramDatabase,
    counts: CoreCounts,
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> Result<(), String> {
    let analysis = sp.time("core.analyze", "", parent, req, || ipra_core::analyze(summary, opts));
    let expect = CoreCounts::of(&analysis.stats);
    if counts != expect {
        return Err(format!("composed analyzer counts {counts:?} != Analysis.stats {expect:?}"));
    }
    if *database != analysis.database {
        return Err("composed analyzer database differs from ipra_core::analyze".to_string());
    }
    Ok(())
}

/// Phase 2 for the given modules (codegen), `jobs` wide.
pub fn codegen(
    irs: &[&IrModule],
    database: &ProgramDatabase,
    jobs: usize,
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> Vec<ObjectModule> {
    par_map(irs, jobs, sp, |ir, local| {
        local.time("codegen", &ir.name, parent, req, || {
            cmin_codegen::compile_module_for(ir, database, TargetId::Vpr)
        })
    })
}

/// Links under the `vpr.link` span.
///
/// # Errors
///
/// The link error, rendered.
pub fn link(
    objects: &[ObjectModule],
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> Result<Executable, String> {
    sp.time("vpr.link", "", parent, req, || vpr::program::link(objects))
        .map_err(|e| format!("link: {e}"))
}

/// A whole cold build composed layer by layer: phase 1 on `jobs` workers,
/// the composed analyzer, phase 2 on `jobs` workers, link. The stages get
/// wall-clock spans (`phase1`, `analyze`, `phase2`) around the layer spans,
/// which overlap across workers within a phase.
///
/// # Errors
///
/// The first frontend diagnostic or the link error.
pub fn build(
    sources: &[SourceFile],
    opts: &AnalyzerOptions,
    jobs: usize,
    sp: &mut Spans,
    parent: Option<usize>,
    req: u64,
) -> Result<Composed, String> {
    let stage = sp.begin("phase1", "", parent, req);
    let fronts: Result<Vec<Front>, String> =
        par_map(sources, jobs, sp, |src, local| phase1_module(src, local, Some(stage), req))
            .into_iter()
            .collect();
    sp.end(stage);
    let fronts = fronts?;
    let summary = ProgramSummary { modules: fronts.iter().map(|f| f.summary.clone()).collect() };
    let (database, counts) = analyze_composed(&summary, opts, sp, parent, req);
    let irs: Vec<&IrModule> = fronts.iter().map(|f| &f.ir).collect();
    let stage = sp.begin("phase2", "", parent, req);
    let objects = codegen(&irs, &database, jobs, sp, Some(stage), req);
    sp.end(stage);
    let exe = link(&objects, sp, parent, req)?;
    Ok(Composed { fronts, summary, database, counts, objects, exe })
}

/// The `.vx` artifact text of an executable: the bytes `cminc build -o`
/// writes and `cmind` replies with.
pub fn vx(exe: &Executable) -> String {
    ipra_daemon::protocol::executable_artifact(exe).0
}
