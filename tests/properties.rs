//! Property-based tests over the analyzer's structural invariants, on
//! randomly generated call graphs (not programs — raw summaries, so the
//! graphs include shapes the source language cannot easily produce:
//! dense recursion, deep diamonds, indirect-call fans).
//!
//! Each property runs over a fixed fan of seeds (the offline toolchain has
//! no proptest, and derived seeds cover the same shape space a proptest
//! `any::<u64>()` run would).

use ipra_core::analyzer::{analyze, AnalyzerOptions, PromotionMode};
use ipra_core::callgraph::{CallGraph, NodeId};
use ipra_core::cluster::{identify_clusters, ClusterHeuristics};
use ipra_core::color::{
    color_webs_for, interferes, prioritize, ColoringStrategy, DiscardHeuristics,
};
use ipra_core::dataflow::{Eligibility, RefSets};
use ipra_core::regsets::compute_register_sets_for;
use ipra_core::webs::identify_webs;
use ipra_summary::{CallRef, GlobalFact, GlobalRef, ModuleSummary, ProcSummary, ProgramSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use vpr::regs::RegSet;
use vpr::target::VPR;

/// Seeds for one property run: 64 well-spread 64-bit values.
fn seeds() -> impl Iterator<Item = u64> {
    (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
}

/// A random program summary: `n` procedures with random call edges (cycles
/// allowed), `g` globals with random reference sets.
fn random_summary(seed: u64) -> ProgramSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..25usize);
    let g = rng.gen_range(1..8usize);
    let procs = (0..n)
        .map(|i| {
            let n_calls = rng.gen_range(0..4usize);
            let calls = (0..n_calls)
                .map(|_| CallRef {
                    callee: format!("p{}", rng.gen_range(0..n)),
                    freq: rng.gen_range(1..200),
                })
                .collect();
            let n_refs = rng.gen_range(0..3usize.min(g) + 1);
            let global_refs = (0..n_refs)
                .map(|_| GlobalRef {
                    sym: format!("g{}", rng.gen_range(0..g)),
                    freq: rng.gen_range(1..100),
                    written: rng.gen_bool(0.7),
                    ptr_mod: rng.gen_bool(0.05),
                    ptr_ref: rng.gen_bool(0.05),
                    escapes: rng.gen_bool(0.05),
                })
                .collect();
            ProcSummary {
                name: format!("p{i}"),
                module: format!("m{}", i % 3),
                global_refs,
                calls,
                taken_addresses: if rng.gen_bool(0.1) {
                    vec![format!("p{}", rng.gen_range(0..n))]
                } else {
                    vec![]
                },
                makes_indirect_calls: rng.gen_bool(0.1),
                callee_saves_estimate: rng.gen_range(0..8),
                caller_saves_estimate: 2,
                alias: Default::default(),
            }
        })
        .collect::<Vec<_>>();
    let globals = (0..g)
        .map(|i| GlobalFact {
            sym: format!("g{i}"),
            size: 1,
            is_array: false,
            is_static: false,
            module: "m0".into(),
            init: vec![],
        })
        .collect();
    ProgramSummary { modules: vec![ModuleSummary { module: "m0".into(), procs, globals }] }
}

/// Web invariants (paper §4.1.2): per-variable webs are disjoint; entry
/// nodes have no predecessor inside the web; internal nodes have no
/// predecessor outside it.
#[test]
fn web_invariants() {
    for seed in seeds() {
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let elig = Eligibility::compute(&graph, &s);
        let refs = RefSets::compute(&graph, &elig);
        let (webs, _) = identify_webs(&graph, &elig, &refs);
        for (i, a) in webs.iter().enumerate() {
            for b in webs.iter().skip(i + 1) {
                if a.global == b.global {
                    assert!(
                        a.nodes.iter().all(|n| !b.contains(*n)),
                        "seed {seed}: webs for the same global overlap"
                    );
                }
            }
            for &n in &a.nodes {
                let internal_preds = graph.predecessors(n).filter(|p| a.contains(*p)).count();
                let external_preds = graph.predecessors(n).filter(|p| !a.contains(*p)).count();
                if a.is_entry(n) {
                    assert_eq!(internal_preds, 0, "seed {seed}: entry with internal pred");
                } else {
                    assert_eq!(external_preds, 0, "seed {seed}: internal node with external pred");
                }
            }
        }
    }
}

/// Coloring validity: interfering webs never share a register, and the
/// reserved-K strategy uses at most K registers.
#[test]
fn coloring_validity() {
    for seed in seeds() {
        let k = 1 + (seed % 6) as u32;
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let elig = Eligibility::compute(&graph, &s);
        let refs = RefSets::compute(&graph, &elig);
        let (webs, _) = identify_webs(&graph, &elig, &refs);
        let prio = prioritize(&webs, &graph, &elig, &DiscardHeuristics::default());
        let coloring =
            color_webs_for(&webs, &prio, ColoringStrategy::Reserved { count: k }, &graph, &VPR);
        let mut used = std::collections::HashSet::new();
        for (i, a) in webs.iter().enumerate() {
            if let Some(r) = coloring.assignment[i] {
                used.insert(r);
                assert!(r.is_callee_saves(), "seed {seed}");
                for (j, b) in webs.iter().enumerate().skip(i + 1) {
                    if interferes(a, b) {
                        assert_ne!(Some(r), coloring.assignment[j], "seed {seed}");
                    }
                }
            }
        }
        assert!(used.len() <= k as usize, "seed {seed}: used {} > k {k}", used.len());
    }
}

/// Cluster invariants (paper §4.2.1): the root dominates every member,
/// non-root members have all predecessors inside the cluster, and no
/// member lies on a recursive chain.
#[test]
fn cluster_invariants() {
    for seed in seeds() {
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let clustering = identify_clusters(&graph, &ClusterHeuristics::default());
        for c in &clustering.clusters {
            for &m in &c.members {
                assert!(!graph.is_recursive(m), "seed {seed}: recursive member");
                assert!(graph.node(m).defined, "seed {seed}: undefined member");
                for p in graph.predecessors(m) {
                    assert!(c.contains(p), "seed {seed}: member {m} has external pred {p}");
                }
                assert!(
                    ipra_core::cluster::cg_dominates(
                        &(0..graph.len() as u32)
                            .map(|i| clustering.idom(NodeId(i)))
                            .collect::<Vec<_>>(),
                        c.root,
                        m
                    ),
                    "seed {seed}: root does not dominate member"
                );
            }
        }
    }
}

/// Register-set invariants (paper §4.2.3): classes are disjoint, MSPILL
/// appears only at cluster roots, and every FREE register of a member is
/// spilled by a root on its cluster chain.
#[test]
fn register_set_invariants() {
    for seed in seeds() {
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let clustering = identify_clusters(&graph, &ClusterHeuristics::default());
        let web_regs = vec![RegSet::new(); graph.len()];
        let usage = compute_register_sets_for(&graph, &clustering, &web_regs, false, &VPR);
        for n in graph.node_ids() {
            let u = &usage[n.index()];
            assert!(u.free.is_disjoint(u.caller), "seed {seed}");
            assert!(u.free.is_disjoint(u.callee), "seed {seed}");
            assert!(u.caller.is_disjoint(u.callee), "seed {seed}");
            assert!(u.free.is_subset(RegSet::callee_saves()), "seed {seed}");
            assert!(u.mspill.is_subset(RegSet::callee_saves()), "seed {seed}");
            if !u.mspill.is_empty() {
                assert!(clustering.is_root(n), "seed {seed}");
            }
        }
        for c in &clustering.clusters {
            // Union of MSPILL along the enclosing-roots chain.
            let mut chain = usage[c.root.index()].mspill;
            let mut roots = vec![c.root];
            loop {
                let mut grew = false;
                for outer in &clustering.clusters {
                    if roots.iter().any(|r| outer.members.contains(r))
                        && !roots.contains(&outer.root)
                    {
                        roots.push(outer.root);
                        chain |= usage[outer.root.index()].mspill;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            for &m in &c.members {
                assert!(
                    usage[m.index()].free.is_subset(chain),
                    "seed {seed}: member FREE not covered by chain MSPILL"
                );
            }
        }
    }
}

/// The full analyzer never panics and produces a database covering all
/// defined procedures, whatever the configuration.
#[test]
fn analyzer_total_on_random_graphs() {
    for seed in seeds().take(32) {
        let s = random_summary(seed);
        for mode in 0u8..4 {
            let promotion = match mode {
                0 => PromotionMode::Off,
                1 => PromotionMode::Coloring { registers: 6 },
                2 => PromotionMode::Greedy,
                _ => PromotionMode::Blanket { count: 4 },
            };
            let opts = AnalyzerOptions { promotion, ..AnalyzerOptions::default() };
            let analysis = analyze(&s, &opts);
            assert_eq!(analysis.database.len(), s.procs().count(), "seed {seed} mode {mode}");
        }
    }
}

/// [`random_summary`] with some globals made `static` to one of the three
/// modules, so webs whose entries leave the defining module are discarded
/// (§7.4).
fn random_summary_with_statics(seed: u64) -> ProgramSummary {
    let mut s = random_summary(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_4154_4943_5321);
    for g in &mut s.modules[0].globals {
        g.is_static = rng.gen_bool(0.4);
        g.module = format!("m{}", rng.gen_range(0..3usize));
    }
    s
}

/// Test-only oracle: the paper's definitions, transcribed as directly as
/// possible and with no shared code beyond the call graph's edges.
mod oracle {
    use super::*;

    /// Nodes reachable from `n` over one or more edges along `next`.
    fn strict_closure(n: usize, next: &dyn Fn(usize) -> Vec<usize>) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = next(n);
        while let Some(m) = stack.pop() {
            if seen.insert(m) {
                stack.extend(next(m));
            }
        }
        seen
    }

    /// `L_REF`, and the definitional `P_REF`/`C_REF`: the globals some
    /// strict ancestor (descendant) of a node references locally.
    pub struct Sets {
        pub l: Vec<BTreeSet<usize>>,
        pub p: Vec<BTreeSet<usize>>,
        pub c: Vec<BTreeSet<usize>>,
        /// Per node: the eligible globals it writes.
        pub w: Vec<BTreeSet<usize>>,
    }

    pub fn sets(graph: &CallGraph, elig: &Eligibility, s: &ProgramSummary) -> Sets {
        let n = graph.len();
        let mut l = vec![BTreeSet::new(); n];
        let mut w = vec![BTreeSet::new(); n];
        for p in s.procs() {
            let node = graph.by_name(&p.name).expect("every procedure is a node").index();
            for r in &p.global_refs {
                if let Some(g) = elig.by_sym(&r.sym) {
                    if r.freq > 0 {
                        l[node].insert(g.index());
                    }
                    if r.written {
                        w[node].insert(g.index());
                    }
                }
            }
        }
        let succs = |m: usize| graph.successors(NodeId(m as u32)).map(NodeId::index).collect();
        let preds = |m: usize| graph.predecessors(NodeId(m as u32)).map(NodeId::index).collect();
        let union_over = |set: BTreeSet<usize>| -> BTreeSet<usize> {
            set.into_iter().flat_map(|m| l[m].iter().copied()).collect()
        };
        let p = (0..n).map(|m| union_over(strict_closure(m, &preds))).collect();
        let c = (0..n).map(|m| union_over(strict_closure(m, &succs))).collect();
        Sets { l, p, c, w }
    }

    /// One web: `(global, members, entries, written)`.
    pub type OracleWeb = (usize, Vec<usize>, Vec<usize>, bool);

    /// Figure 2, per global in id order: every node with the global in
    /// `L_REF` but not `P_REF` and in no web yet starts a web; `Expand_Web`
    /// grows it through successors with the global in `L_REF ∪ C_REF`;
    /// the repeat/until loop pulls in the outside predecessors of members
    /// that also have inside predecessors; overlapping webs merge. Then
    /// each recursive cycle that references the global and lies in no web
    /// seeds one (§4.1.2). Statics whose web has an entry outside the
    /// defining module are discarded (§7.4). Returns the kept webs and the
    /// discard count.
    pub fn webs(graph: &CallGraph, elig: &Eligibility, sets: &Sets) -> (Vec<OracleWeb>, usize) {
        let n = graph.len();
        let preds = |m: usize| -> Vec<usize> {
            graph.predecessors(NodeId(m as u32)).map(NodeId::index).collect()
        };
        let succs = |m: usize| -> Vec<usize> {
            graph.successors(NodeId(m as u32)).map(NodeId::index).collect()
        };
        // Recursive cycles: mutually reachable node groups, plus self loops.
        let reach: Vec<BTreeSet<usize>> = (0..n).map(|m| strict_closure(m, &succs)).collect();
        let mut cycles: Vec<Vec<usize>> = Vec::new();
        for m in 0..n {
            if reach[m].contains(&m) && !cycles.iter().any(|c| c.contains(&m)) {
                cycles.push(
                    (0..n).filter(|&k| reach[m].contains(&k) && reach[k].contains(&m)).collect(),
                );
            }
        }
        cycles.sort();

        let (mut out, mut discarded) = (Vec::new(), 0);
        for g in 0..elig.len() {
            let grow = |seeds: &[usize]| -> BTreeSet<usize> {
                let mut w: BTreeSet<usize> = BTreeSet::new();
                let mut temp: Vec<usize> = seeds.to_vec();
                loop {
                    for &q in &temp {
                        // Expand_Web(q).
                        let mut stack = vec![q];
                        w.insert(q);
                        while let Some(x) = stack.pop() {
                            for s in succs(x) {
                                if (sets.l[s].contains(&g) || sets.c[s].contains(&g)) && w.insert(s)
                                {
                                    stack.push(s);
                                }
                            }
                        }
                    }
                    let s_set: Vec<usize> = w
                        .iter()
                        .copied()
                        .filter(|&z| {
                            preds(z).iter().any(|p| w.contains(p))
                                && preds(z).iter().any(|p| !w.contains(p))
                        })
                        .collect();
                    temp = s_set
                        .iter()
                        .flat_map(|&z| preds(z))
                        .filter(|p| !w.contains(p))
                        .collect::<BTreeSet<usize>>()
                        .into_iter()
                        .collect();
                    if temp.is_empty() {
                        return w;
                    }
                }
            };
            let merge = |webs_g: &mut Vec<BTreeSet<usize>>, mut w: BTreeSet<usize>| {
                while let Some(i) = webs_g.iter().position(|x| !x.is_disjoint(&w)) {
                    let x = webs_g.swap_remove(i);
                    w.extend(x);
                }
                webs_g.push(w);
            };
            let mut webs_g: Vec<BTreeSet<usize>> = Vec::new();
            for p in 0..n {
                if sets.l[p].contains(&g)
                    && !sets.p[p].contains(&g)
                    && !webs_g.iter().any(|w| w.contains(&p))
                {
                    let w = grow(&[p]);
                    merge(&mut webs_g, w);
                }
            }
            for c in &cycles {
                if c.iter().any(|&m| sets.l[m].contains(&g))
                    && c.iter().all(|m| !webs_g.iter().any(|w| w.contains(m)))
                {
                    let w = grow(c);
                    merge(&mut webs_g, w);
                }
            }
            let eg = elig.global(ipra_core::dataflow::GlobalId(g as u32));
            for w in webs_g {
                let members: Vec<usize> = w.iter().copied().collect();
                let entries: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&m| preds(m).iter().all(|p| !w.contains(p)))
                    .collect();
                if eg.is_static
                    && entries.iter().any(|&e| graph.node(NodeId(e as u32)).module != eg.module)
                {
                    discarded += 1;
                    continue;
                }
                let written = members.iter().any(|&m| sets.w[m].contains(&g));
                out.push((g, members, entries, written));
            }
        }
        (out, discarded)
    }
}

/// `RefSets::compute` equals the definitional sets, and `identify_webs`
/// finds exactly Figure 2's webs in Figure 2's order, on every random
/// summary — recursive cycles and cross-module statics included.
#[test]
fn reference_sets_and_webs_match_the_figure2_oracle() {
    use ipra_core::dataflow::GlobalId;
    for seed in seeds() {
        for s in [random_summary(seed), random_summary_with_statics(seed)] {
            let graph = CallGraph::build(&s, None);
            let elig = Eligibility::compute(&graph, &s);
            let refs = RefSets::compute(&graph, &elig);
            let want = oracle::sets(&graph, &elig, &s);
            for n in graph.node_ids() {
                let got = |has: &dyn Fn(NodeId, GlobalId) -> bool| -> BTreeSet<usize> {
                    elig.ids().filter(|&g| has(n, g)).map(GlobalId::index).collect()
                };
                let i = n.index();
                assert_eq!(got(&|n, g| refs.in_l(n, g)), want.l[i], "seed {seed}: L_REF[{n}]");
                assert_eq!(got(&|n, g| refs.in_p(n, g)), want.p[i], "seed {seed}: P_REF[{n}]");
                assert_eq!(got(&|n, g| refs.in_c(n, g)), want.c[i], "seed {seed}: C_REF[{n}]");
            }
            let (webs, stats) = identify_webs(&graph, &elig, &refs);
            let (want_webs, want_discarded) = oracle::webs(&graph, &elig, &want);
            let got_webs: Vec<oracle::OracleWeb> = webs
                .iter()
                .map(|w| {
                    let ids = |ns: &[NodeId]| ns.iter().map(|n| n.index()).collect::<Vec<_>>();
                    (w.global.index(), ids(&w.nodes), ids(&w.entries), w.written)
                })
                .collect();
            assert_eq!(got_webs, want_webs, "seed {seed}: webs differ from Figure 2");
            assert_eq!(stats.discarded_static, want_discarded, "seed {seed}");
            assert_eq!(stats.webs_total, want_webs.len() + want_discarded, "seed {seed}");
        }
    }
}
