//! Web identification (paper §4.1.1–§4.1.2, Figure 2).
//!
//! A *web* for a global variable is a minimal subgraph of the call graph
//! such that the variable is referenced in no ancestor and no descendant of
//! the subgraph. Candidate web entry nodes have the variable in `L_REF` but
//! not `P_REF`; webs grow downward through successors with the variable in
//! `L_REF ∪ C_REF`, and a repair loop pulls in external predecessors of
//! internal nodes until every node is either an entry (no predecessor inside
//! the web) or internal (no predecessor outside). Overlapping webs for the
//! same variable merge.
//!
//! Recursive call chains that reference a variable but have it in `P_REF`
//! everywhere get no entry candidate; each such strongly connected component
//! seeds its own web, which is then repaired the same way (§4.1.2's "simple
//! solution").
//!
//! Webs for `static` globals whose entry nodes fall outside the defining
//! module are discarded (§7.4): the second phase could not address the
//! module-private symbol from another module.

use crate::callgraph::{CallGraph, NodeId};
use crate::dataflow::{Eligibility, GlobalId, RefSets};

/// A web: a set of call-graph nodes over which one global variable may be
/// kept in a dedicated register.
#[derive(Debug, Clone)]
pub struct Web {
    /// The promoted global.
    pub global: GlobalId,
    /// Member nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Entry nodes (members with no predecessor inside the web), ascending.
    pub entries: Vec<NodeId>,
    /// Does any member write the global? (If not, web entries need no
    /// store-back at exit, §5.)
    pub written: bool,
}

impl Web {
    /// Is `n` a member?
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.binary_search(&n).is_ok()
    }

    /// Is `n` an entry node?
    pub fn is_entry(&self, n: NodeId) -> bool {
        self.entries.binary_search(&n).is_ok()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Webs never come up empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Statistics from web identification (the paper's §6.2 numbers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebStats {
    /// Eligible globals examined.
    pub eligible_globals: usize,
    /// Webs identified in total.
    pub webs_total: usize,
    /// Webs discarded because a `static`'s entry left its module.
    pub discarded_static: usize,
    /// `(symbol, member procedure names)` of each §7.4 static discard, in
    /// discovery order (reporting/trace only).
    pub static_discards: Vec<(String, Vec<String>)>,
}

/// Identifies all webs for all eligible globals.
///
/// Each global's search touches only the nodes that reference it and the
/// webs grown from them: the referencing nodes are listed once for every
/// global, the recursive SCCs are computed once, and the web being grown
/// lives in a sparse member list over shared, generation-stamped node
/// arrays, so no per-global pass is as wide as the call graph.
pub fn identify_webs(
    graph: &CallGraph,
    elig: &Eligibility,
    refs: &RefSets,
) -> (Vec<Web>, WebStats) {
    let mut webs: Vec<Web> = Vec::new();
    let mut stats = WebStats { eligible_globals: elig.len(), ..WebStats::default() };

    // Nodes referencing each global (`L_REF` transposed), ascending.
    let mut referencing: Vec<Vec<NodeId>> = vec![Vec::new(); elig.len()];
    for n in graph.node_ids() {
        for g in refs.l_ref[n.index()].iter() {
            referencing[g].push(n);
        }
    }
    let (sccs, scc_of) = recursive_sccs(graph);
    let mut grow = Grower::new(graph.len());

    for g in elig.ids() {
        let refs_g = &referencing[g.index()];
        let mut webs_g = WebList::default();
        grow.owner_epoch += 1;

        // Phase 1: entry-candidate seeded webs (Figure 2).
        for &p in refs_g {
            if refs.in_p(p, g) || grow.owned(p).is_some() {
                continue; // not a candidate, or absorbed by an earlier web
            }
            let w = grow.grow(graph, refs, g, &[p]);
            webs_g.merge_in(&mut grow, w);
        }

        // Phase 2: recursive cycles that reference g but got no entry
        // candidate anywhere in the cycle, in SCC order.
        let mut cycles: Vec<usize> = refs_g.iter().filter_map(|&n| scc_of[n.index()]).collect();
        cycles.sort_unstable();
        cycles.dedup();
        for c in cycles {
            let scc = &sccs[c];
            if scc.iter().all(|&n| grow.owned(n).is_none()) {
                let w = grow.grow(graph, refs, g, scc);
                webs_g.merge_in(&mut grow, w);
            }
        }

        for id in webs_g.order {
            let mut nodes = std::mem::take(&mut webs_g.members[id]);
            nodes.sort_unstable();
            stats.webs_total += 1;
            let entries: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| !graph.predecessors(n).any(|p| grow.owned(p) == Some(id)))
                .collect();
            // §7.4: a static's web entry must live in the defining module.
            let eg = elig.global(g);
            if eg.is_static {
                let foreign_entry = entries.iter().any(|&e| graph.node(e).module != eg.module);
                if foreign_entry {
                    stats.discarded_static += 1;
                    stats.static_discards.push((
                        eg.sym.clone(),
                        nodes.iter().map(|&n| graph.node(n).name.clone()).collect(),
                    ));
                    continue;
                }
            }
            let written = nodes.iter().any(|&n| elig.writes(n, g));
            webs.push(Web { global: g, nodes, entries, written });
        }
    }
    (webs, stats)
}

/// Scratch state shared by every web search: per-node stamps say which
/// web of the current global owns a node, and which nodes the web being
/// grown holds, without clearing anything between searches.
struct Grower {
    /// `(epoch, web id)` of the current global's web owning each node.
    owner: Vec<(u32, usize)>,
    /// Bumped per global: older `owner` stamps read as unowned.
    owner_epoch: u32,
    /// Stamp of the growth that holds each node.
    held: Vec<u32>,
    /// Stamp of the growth that pulled each node's predecessors in.
    pulled: Vec<u32>,
    /// Bumped per growth.
    grow_epoch: u32,
}

impl Grower {
    fn new(n: usize) -> Grower {
        Grower {
            owner: vec![(0, 0); n],
            owner_epoch: 0,
            held: vec![0; n],
            pulled: vec![0; n],
            grow_epoch: 0,
        }
    }

    /// The current global's web owning `n`, if any.
    fn owned(&self, n: NodeId) -> Option<usize> {
        let (epoch, id) = self.owner[n.index()];
        (epoch == self.owner_epoch).then_some(id)
    }

    /// Grows a web from `seeds` to Figure 2's fixpoint: every member's
    /// successors with the variable in `L_REF ∪ C_REF` are members
    /// (`Expand_Web`), and a member with a predecessor inside the web has
    /// all its predecessors inside (the repeat/until repair loop). The
    /// least such set does not depend on the order the rules fire in, so
    /// one pass over the members applies both as members arrive, and each
    /// member's predecessors are pulled in at most once. Members come back
    /// in discovery order.
    fn grow(
        &mut self,
        graph: &CallGraph,
        refs: &RefSets,
        g: GlobalId,
        seeds: &[NodeId],
    ) -> Vec<NodeId> {
        self.grow_epoch += 1;
        let mut members: Vec<NodeId> = Vec::new();
        for &q in seeds {
            self.hold(q, &mut members);
        }
        let mut next = 0;
        while let Some(&n) = members.get(next) {
            next += 1;
            for s in graph.successors(n) {
                if refs.in_c(s, g) || refs.in_l(s, g) {
                    self.hold(s, &mut members);
                }
            }
            // `n` is an internal predecessor of each member successor, and
            // of itself once any of its own predecessors is a member.
            for s in graph.successors(n) {
                if self.holds(s) {
                    self.pull(graph, s, &mut members);
                }
            }
            if graph.predecessors(n).any(|p| self.holds(p)) {
                self.pull(graph, n, &mut members);
            }
        }
        members
    }

    /// Does the web being grown hold `n`?
    fn holds(&self, n: NodeId) -> bool {
        self.held[n.index()] == self.grow_epoch
    }

    fn hold(&mut self, n: NodeId, members: &mut Vec<NodeId>) {
        if !self.holds(n) {
            self.held[n.index()] = self.grow_epoch;
            members.push(n);
        }
    }

    /// Pulls every predecessor of member `z` into the web.
    fn pull(&mut self, graph: &CallGraph, z: NodeId, members: &mut Vec<NodeId>) {
        if self.pulled[z.index()] != self.grow_epoch {
            self.pulled[z.index()] = self.grow_epoch;
            for p in graph.predecessors(z) {
                self.hold(p, members);
            }
        }
    }
}

/// One global's webs, in Figure 2's list order, plus their members.
#[derive(Default)]
struct WebList {
    /// Web ids in list order.
    order: Vec<usize>,
    /// Members per web id (emptied when a web is merged away).
    members: Vec<Vec<NodeId>>,
}

impl WebList {
    /// Merges the newly grown web `w` into the list, unioning it with every
    /// web it overlaps. The webs already in the list are disjoint, so the
    /// overlapping set is fixed by `w`'s members; they are removed
    /// lowest-position first with `swap_remove` and the union is pushed
    /// last, exactly as repeated first-overlap search would order them.
    fn merge_in(&mut self, grow: &mut Grower, mut w: Vec<NodeId>) {
        let mut hit: Vec<usize> = w.iter().filter_map(|&n| grow.owned(n)).collect();
        hit.sort_unstable();
        hit.dedup();
        // Positions of the overlapping webs, updated as `swap_remove`
        // moves the last web into a vacated slot.
        let mut at: Vec<usize> = hit
            .iter()
            .map(|id| self.order.iter().position(|x| x == id).expect("listed web"))
            .collect();
        while let Some(k) = (0..at.len()).min_by_key(|&k| at[k]) {
            let pos = at.swap_remove(k);
            let last = self.order.len() - 1;
            let id = self.order.swap_remove(pos);
            if let Some(moved) = at.iter_mut().find(|p| **p == last) {
                *moved = pos;
            }
            let absorbed = std::mem::take(&mut self.members[id]);
            w.extend(absorbed.into_iter().filter(|&n| !grow.holds(n)));
        }
        let id = self.members.len();
        for &n in &w {
            grow.owner[n.index()] = (grow.owner_epoch, id);
        }
        self.members.push(w);
        self.order.push(id);
    }
}

/// All recursive SCCs (more than one node, or a self loop), each as a sorted
/// node list, in sorted order; plus each node's index into that list.
fn recursive_sccs(graph: &CallGraph) -> (Vec<Vec<NodeId>>, Vec<Option<usize>>) {
    let mut by_scc: Vec<Vec<NodeId>> = vec![Vec::new(); graph.scc_count() as usize];
    for n in graph.node_ids() {
        if graph.is_recursive(n) {
            by_scc[graph.scc_of(n) as usize].push(n);
        }
    }
    let mut out: Vec<Vec<NodeId>> = by_scc.into_iter().filter(|ns| !ns.is_empty()).collect();
    out.sort();
    let mut scc_of = vec![None; graph.len()];
    for (i, ns) in out.iter().enumerate() {
        for &n in ns {
            scc_of[n.index()] = Some(i);
        }
    }
    (out, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::testutil::{figure3, summary};
    use ipra_summary::ProgramSummary;

    fn build(s: &ProgramSummary) -> (CallGraph, Eligibility, Vec<Web>, WebStats) {
        let g = CallGraph::build(s, None);
        let e = Eligibility::compute(&g, s);
        let r = RefSets::compute(&g, &e);
        let (w, st) = identify_webs(&g, &e, &r);
        (g, e, w, st)
    }

    fn names(g: &CallGraph, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| g.node(n).name.clone()).collect()
    }

    #[test]
    fn figure3_reproduces_table2() {
        let (g, e, webs, stats) = build(&figure3());
        assert_eq!(stats.webs_total, 4, "{webs:?}");

        let find = |sym: &str, member: &str| {
            let gid = e.by_sym(sym).unwrap();
            let m = g.by_name(member).unwrap();
            webs.iter()
                .find(|w| w.global == gid && w.contains(m))
                .unwrap_or_else(|| panic!("no web for {sym} containing {member}"))
        };

        // Table 2: Web 1 = g3 {A,B,C}; Web 2 = g2 {C,F,G}; Web 3 = g1 {B,D,E};
        // Web 4 = g2 {E}.
        let w1 = find("g3", "A");
        assert_eq!(names(&g, &w1.nodes), vec!["A", "B", "C"]);
        assert_eq!(names(&g, &w1.entries), vec!["A"]);

        let w2 = find("g2", "C");
        assert_eq!(names(&g, &w2.nodes), vec!["C", "F", "G"]);
        assert_eq!(names(&g, &w2.entries), vec!["C"]);

        let w3 = find("g1", "B");
        assert_eq!(names(&g, &w3.nodes), vec!["B", "D", "E"]);
        assert_eq!(names(&g, &w3.entries), vec!["B"]);

        let w4 = find("g2", "E");
        assert_eq!(names(&g, &w4.nodes), vec!["E"]);
        assert_eq!(names(&g, &w4.entries), vec!["E"]);
    }

    #[test]
    fn disjoint_uses_make_disjoint_webs() {
        // main -> a, b; a and b both use g but share no path that does.
        let s = summary(
            &[("main", &[("a", 1), ("b", 1)], &[]), ("a", &[], &["g"]), ("b", &[], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 2);
        for w in &webs {
            assert_eq!(w.len(), 1);
            assert_eq!(w.entries.len(), 1);
        }
        let _ = g;
    }

    #[test]
    fn ancestor_reference_merges_into_one_web() {
        // main uses g and calls a which uses g: single web rooted at main.
        let s = summary(&[("main", &[("a", 1)], &["g"]), ("a", &[], &["g"])], &["g"]);
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        assert_eq!(names(&g, &webs[0].nodes), vec!["main", "a"]);
        assert_eq!(names(&g, &webs[0].entries), vec!["main"]);
    }

    #[test]
    fn pass_through_node_joins_via_c_ref() {
        // main(g) -> mid (no ref) -> leaf(g): mid is in the web because g is
        // in its C_REF.
        let s = summary(
            &[("main", &[("mid", 1)], &["g"]), ("mid", &[("leaf", 1)], &[]), ("leaf", &[], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        assert_eq!(names(&g, &webs[0].nodes), vec!["main", "mid", "leaf"]);
    }

    #[test]
    fn external_predecessor_of_internal_node_gets_pulled_in() {
        // entry: a (uses g), a -> c (uses g); other -> c as well.
        // c would be internal with an external pred => repair pulls in
        // `other`, making it a second entry.
        let s = summary(
            &[
                ("main", &[("a", 1), ("other", 1)], &[]),
                ("a", &[("c", 1)], &["g"]),
                ("other", &[("c", 1)], &[]),
                ("c", &[], &["g"]),
            ],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        let w = &webs[0];
        assert_eq!(names(&g, &w.nodes), vec!["a", "other", "c"]);
        assert_eq!(names(&g, &w.entries), vec!["a", "other"]);
        // Invariant: internal nodes have no external predecessors.
        for &n in &w.nodes {
            if !w.is_entry(n) {
                for p in g.predecessors(n) {
                    assert!(w.contains(p), "internal node with external pred");
                }
            }
        }
    }

    #[test]
    fn recursive_cycle_forms_its_own_web() {
        // main -> r <-> s, both reference g; g ∈ P_REF throughout the cycle
        // so no entry candidate exists — the SCC seeds the web.
        let s = summary(
            &[("main", &[("r", 1)], &[]), ("r", &[("s", 1)], &["g"]), ("s", &[("r", 1)], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1, "{webs:?}");
        let w = &webs[0];
        // The SCC {r, s} seeds the web; r then has an internal pred (s) and
        // an external pred (main), so the repair loop pulls main in as the
        // entry node.
        assert_eq!(names(&g, &w.nodes), vec!["main", "r", "s"]);
        assert_eq!(names(&g, &w.entries), vec!["main"]);
        assert!(w.entries.iter().all(|&e| !g.predecessors(e).any(|p| w.contains(p))));
    }

    #[test]
    fn self_recursive_node_web() {
        let s = summary(&[("main", &[("r", 1)], &[]), ("r", &[("r", 1)], &["g"])], &["g"]);
        let (g, _, webs, _) = build(&s);
        // r has g ∈ P_REF (self edge) → cycle web. Repair: r's preds are
        // main (external) and r (internal) → pull in main.
        assert_eq!(webs.len(), 1);
        assert!(names(&g, &webs[0].nodes).contains(&"main".to_string()));
    }

    #[test]
    fn static_web_crossing_modules_is_discarded() {
        use ipra_summary::*;
        // Module a defines static s$g used by a_fn; module b's main calls
        // a_fn and... make the entry land in module b by having main
        // reference the static via... statics cannot be referenced outside
        // their module in the source language, but the *web entry* can land
        // outside: main -> a_fn (refs g), main -> a_gn (refs g) and also
        // a_fn -> common <- a_gn with common refs g. Then entry candidates
        // a_fn and a_gn merge through common's repair... Simpler: force the
        // web to include main via repair: a_fn refs g, a_fn -> c (refs g),
        // main -> c directly. Repair pulls main (module b) in as entry.
        let mk = |name: &str, module: &str, calls: &[(&str, u64)], refs: &[&str]| ProcSummary {
            name: name.into(),
            module: module.into(),
            global_refs: refs
                .iter()
                .map(|g| GlobalRef {
                    sym: g.to_string(),
                    freq: 5,
                    written: true,
                    ptr_mod: false,
                    ptr_ref: false,
                    escapes: false,
                })
                .collect(),
            calls: calls.iter().map(|(c, f)| CallRef { callee: c.to_string(), freq: *f }).collect(),
            taken_addresses: vec![],
            makes_indirect_calls: false,
            callee_saves_estimate: 1,
            caller_saves_estimate: 2,
            alias: Default::default(),
        };
        let s = ProgramSummary {
            modules: vec![
                ModuleSummary {
                    module: "a".into(),
                    procs: vec![
                        mk("a_fn", "a", &[("c", 1)], &["a$g"]),
                        mk("c", "a", &[], &["a$g"]),
                    ],
                    globals: vec![GlobalFact {
                        sym: "a$g".into(),
                        size: 1,
                        is_array: false,
                        is_static: true,
                        module: "a".into(),
                        init: vec![],
                    }],
                },
                ModuleSummary {
                    module: "b".into(),
                    procs: vec![mk("main", "b", &[("a_fn", 1), ("c", 1)], &[])],
                    globals: vec![],
                },
            ],
        };
        let g = CallGraph::build(&s, None);
        let e = Eligibility::compute(&g, &s);
        let r = RefSets::compute(&g, &e);
        let (webs, stats) = identify_webs(&g, &e, &r);
        assert_eq!(stats.discarded_static, 1);
        assert!(webs.is_empty());
    }

    #[test]
    fn webs_for_same_global_are_disjoint() {
        let (_, _, webs, _) = build(&figure3());
        for (i, a) in webs.iter().enumerate() {
            for b in webs.iter().skip(i + 1) {
                if a.global == b.global {
                    assert!(a.nodes.iter().all(|n| !b.contains(*n)));
                }
            }
        }
    }

    #[test]
    fn written_flag_tracks_member_writes() {
        let (_, e, webs, _) = build(&figure3());
        // testutil::summary marks every reference written.
        for w in &webs {
            assert!(w.written);
        }
        let _ = e;
    }

    /// `WebList::merge_in` orders the list exactly like Figure 2's merge
    /// loop: remove the first overlapping web (`swap_remove`), union it in,
    /// repeat, push the union last.
    #[test]
    fn merge_in_keeps_the_first_overlap_order() {
        use std::collections::BTreeSet;
        fn reference(list: &mut Vec<BTreeSet<u32>>, mut w: BTreeSet<u32>) {
            while let Some(i) = list.iter().position(|x| !x.is_disjoint(&w)) {
                let x = list.swap_remove(i);
                w.extend(x);
            }
            list.push(w);
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..300 {
            let mut grow = Grower::new(48);
            grow.owner_epoch = 1;
            let mut list = WebList::default();
            let mut want: Vec<BTreeSet<u32>> = Vec::new();
            for _ in 0..14 {
                grow.grow_epoch += 1;
                let mut w: Vec<NodeId> = Vec::new();
                for _ in 0..=next(3) {
                    let n = NodeId(next(48) as u32);
                    if !grow.holds(n) {
                        grow.held[n.index()] = grow.grow_epoch;
                        w.push(n);
                    }
                }
                reference(&mut want, w.iter().map(|n| n.0).collect());
                list.merge_in(&mut grow, w);
            }
            let got: Vec<BTreeSet<u32>> = list
                .order
                .iter()
                .map(|&id| list.members[id].iter().map(|n| n.0).collect())
                .collect();
            assert_eq!(got, want);
        }
    }
}
