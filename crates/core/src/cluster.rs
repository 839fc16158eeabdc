//! Cluster identification for spill code motion (paper §4.2.1–§4.2.2,
//! Figure 5).
//!
//! A *cluster* is a set of call-graph nodes such that (1) one node, the
//! *root*, dominates all others, (2) every non-root member has all of its
//! immediate predecessors inside the cluster, and (3) a node belongs only to
//! the cluster of its nearest dominating root. Root nodes are chosen by a
//! call-frequency heuristic: a node roots a cluster when the calls it makes
//! into its dominated successors outnumber the calls it receives — then
//! hoisting the members' callee-saves spills into the root's prologue
//! executes them less often.
//!
//! Recursive call cycles inside clusters are disallowed (§4.2.2): a non-root
//! member on a recursive chain would have its save/restore code removed
//! while being re-entered, destroying live register values. A *root* may be
//! recursive (it still executes its own spill code on every activation), and
//! clusters may sit inside larger cycles — footnote 4's Figure 7 case —
//! because every re-entry path runs through the root.
//!
//! The traversal realizes `Postpone_Visit` by walking nodes in
//! SCC-condensation topological order: a node is considered only after all
//! its non-back-edge predecessors.

use crate::callgraph::{CallGraph, NodeId};
use serde::Serialize;
use std::collections::HashMap;

/// One cluster: a root plus its member nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The dominating root node.
    pub root: NodeId,
    /// Non-root members (ascending). The paper's `Cluster_Nodes[R]`.
    pub members: Vec<NodeId>,
}

impl Cluster {
    /// Root plus members.
    pub fn size(&self) -> usize {
        self.members.len() + 1
    }

    /// Is `n` the root or a member?
    pub fn contains(&self, n: NodeId) -> bool {
        n == self.root || self.members.binary_search(&n).is_ok()
    }
}

/// The clustering of a program.
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    /// All clusters, in root topological order.
    pub clusters: Vec<Cluster>,
    /// Immediate dominators over the call graph (virtual-rooted).
    idom: Vec<Option<NodeId>>,
    /// Index into `clusters` of the cluster each root node roots.
    root_of: HashMap<NodeId, usize>,
}

impl Clustering {
    /// The cluster rooted at `n`, if `n` is a root.
    pub fn cluster_of_root(&self, n: NodeId) -> Option<&Cluster> {
        self.root_of.get(&n).map(|&i| &self.clusters[i])
    }

    /// Is `n` a cluster root?
    pub fn is_root(&self, n: NodeId) -> bool {
        self.cluster_of_root(n).is_some()
    }

    /// Average cluster size (the paper reports 2–4 for its benchmarks).
    pub fn average_size(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        self.clusters.iter().map(Cluster::size).sum::<usize>() as f64 / self.clusters.len() as f64
    }

    /// The immediate dominator of `n` (`None` for start nodes and
    /// unreachable nodes).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        self.idom.get(n.index()).copied().flatten()
    }
}

/// Tunables for root selection.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ClusterHeuristics {
    /// A node becomes a root when (calls into dominated successors) >
    /// `root_gain` × (incoming calls).
    pub root_gain: f64,
}

impl Default for ClusterHeuristics {
    fn default() -> ClusterHeuristics {
        ClusterHeuristics { root_gain: 1.0 }
    }
}

/// Computes immediate dominators of the call graph. All start nodes hang
/// off a conceptual virtual root, so every reachable node has a defined
/// dominator chain; nodes unreachable from any start node get `None`.
pub fn call_graph_dominators(graph: &CallGraph) -> Vec<Option<NodeId>> {
    let n = graph.len();
    let starts = graph.start_nodes();
    // Reverse postorder from the virtual root (i.e., from all start nodes).
    let mut visited = vec![false; n];
    let mut post: Vec<NodeId> = Vec::with_capacity(n);
    for &s in &starts {
        if visited[s.index()] {
            continue;
        }
        // Iterative DFS.
        let mut stack: Vec<(NodeId, Vec<NodeId>, usize)> = Vec::new();
        visited[s.index()] = true;
        stack.push((s, graph.successors(s).collect(), 0));
        while let Some((node, succs, i)) = stack.last_mut() {
            if *i < succs.len() {
                let nx = succs[*i];
                *i += 1;
                if !visited[nx.index()] {
                    visited[nx.index()] = true;
                    let sx: Vec<NodeId> = graph.successors(nx).collect();
                    stack.push((nx, sx, 0));
                }
            } else {
                post.push(*node);
                stack.pop();
            }
        }
    }
    let rpo: Vec<NodeId> = post.into_iter().rev().collect();
    let mut rpo_idx: Vec<Option<usize>> = vec![None; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_idx[b.index()] = Some(i);
    }

    // Cooper–Harvey–Kennedy with a virtual root: start nodes' idom is the
    // virtual root, represented as self-domination.
    let mut idom: Vec<Option<NodeId>> = vec![None; n];
    for &s in &starts {
        idom[s.index()] = Some(s);
    }
    let intersect = |idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId| -> Option<NodeId> {
        loop {
            if a == b {
                return Some(a);
            }
            let (ia, ib) = (rpo_idx[a.index()]?, rpo_idx[b.index()]?);
            if ia > ib {
                let next = idom[a.index()]?;
                if next == a {
                    return None; // reached a start node: virtual root
                }
                a = next;
            } else {
                let next = idom[b.index()]?;
                if next == b {
                    return None;
                }
                b = next;
            }
        }
    };
    let mut is_start = vec![false; n];
    for &s in &starts {
        is_start[s.index()] = true;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if is_start[b.index()] {
                continue;
            }
            let mut new_idom: Option<NodeId> = None;
            let mut hit_virtual = false;
            for p in graph.predecessors(b) {
                if idom[p.index()].is_none() {
                    continue; // unprocessed or unreachable
                }
                new_idom = match new_idom {
                    None => Some(p),
                    Some(cur) => match intersect(&idom, cur, p) {
                        Some(x) => Some(x),
                        None => {
                            hit_virtual = true;
                            break;
                        }
                    },
                };
            }
            // Converging paths from different start nodes meet only at the
            // virtual root: model as self-domination (treated like a start).
            let resolved = if hit_virtual { Some(b) } else { new_idom };
            if resolved != idom[b.index()] {
                idom[b.index()] = resolved;
                changed = true;
            }
        }
    }
    idom
}

/// Does `a` dominate `b` under `idom` (self-dominating roots terminate the
/// walk)?
pub fn cg_dominates(idom: &[Option<NodeId>], a: NodeId, b: NodeId) -> bool {
    let mut cur = b;
    for _ in 0..idom.len() + 1 {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
    false
}

/// Identifies all clusters.
pub fn identify_clusters(graph: &CallGraph, heur: &ClusterHeuristics) -> Clustering {
    let idom = call_graph_dominators(graph);
    let order = graph.topo_order().to_vec();

    // 1. Choose roots by the call-count heuristic.
    let mut is_root: Vec<bool> = vec![false; graph.len()];
    for &n in &order {
        if !graph.node(n).defined {
            continue;
        }
        let incoming: u64 = if graph.predecessors(n).next().is_none() {
            1
        } else {
            graph.pred_edges(n).map(|(i, _)| graph.edge_count(i)).sum::<u64>().max(1)
        };
        // Calls into immediate successors this node dominates and which
        // could be members (defined, non-recursive). A node dominates one
        // of its own successors exactly when it is that successor's
        // immediate dominator.
        let member_calls: u64 = graph
            .succ_edges(n)
            .filter(|(_, e)| {
                let s = e.to;
                s != n
                    && graph.node(s).defined
                    && !graph.is_recursive(s)
                    && idom[s.index()] == Some(n)
            })
            .map(|(i, _)| graph.edge_count(i))
            .sum();
        if member_calls as f64 > heur.root_gain * incoming as f64 {
            is_root[n.index()] = true;
        }
    }

    // 2. Assign members to their nearest dominating root, requiring every
    //    immediate predecessor to already be in that cluster.
    let nearest = nearest_dominating_roots(&idom, &is_root);
    let mut clusters: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut assigned: HashMap<NodeId, NodeId> = HashMap::new(); // node -> its cluster root
    for &n in &order {
        if !graph.node(n).defined || graph.is_recursive(n) {
            continue; // recursive chains never become non-root members
        }
        let Some(r) = nearest[n.index()] else { continue };
        if r == n {
            continue;
        }
        // Condition [2]: all immediate predecessors inside the cluster.
        let all_preds_in = graph.predecessors(n).all(|p| p == r || assigned.get(&p) == Some(&r))
            && graph.predecessors(n).next().is_some();
        if all_preds_in {
            clusters.entry(r).or_default().push(n);
            assigned.insert(n, r);
        }
    }

    // Emit clusters in topological root order, members sorted. Roots whose
    // member set came up empty are dropped (a cluster of one node moves no
    // spill code).
    let mut out = Vec::new();
    let mut root_of = HashMap::new();
    for &n in &order {
        if let Some(mut members) = clusters.remove(&n) {
            members.sort();
            members.dedup();
            root_of.insert(n, out.len());
            out.push(Cluster { root: n, members });
        }
    }
    Clustering { clusters: out, idom, root_of }
}

/// For every node, the nearest strict dominator on its idom chain that is
/// a root (`None` when the chain reaches a start node first). Each chain
/// is walked only up to the first node already answered, and the answer
/// is written back along the walked prefix.
fn nearest_dominating_roots(idom: &[Option<NodeId>], is_root: &[bool]) -> Vec<Option<NodeId>> {
    let mut nearest: Vec<Option<Option<NodeId>>> = vec![None; idom.len()];
    let mut path: Vec<NodeId> = Vec::new();
    for start in 0..idom.len() {
        let mut cur = NodeId(start as u32);
        let answer = loop {
            if let Some(known) = nearest[cur.index()] {
                break known;
            }
            path.push(cur);
            match idom[cur.index()] {
                Some(d) if d != cur && is_root[d.index()] => break Some(d),
                Some(d) if d != cur => cur = d,
                _ => break None, // start node / virtual root
            }
        };
        for n in path.drain(..) {
            nearest[n.index()] = Some(answer);
        }
    }
    nearest.into_iter().map(Option::flatten).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::testutil::summary;
    use ipra_summary::ProgramSummary;

    fn build(s: &ProgramSummary) -> (CallGraph, Clustering) {
        let g = CallGraph::build(s, None);
        let c = identify_clusters(&g, &ClusterHeuristics::default());
        (g, c)
    }

    fn node(g: &CallGraph, n: &str) -> NodeId {
        g.by_name(n).unwrap()
    }

    #[test]
    fn hot_callees_form_a_cluster() {
        // Figure 4 shape: main calls r once; r calls s and t in loops.
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[], &[]),
                ("t", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        assert_eq!(c.clusters.len(), 1);
        let cl = &c.clusters[0];
        assert_eq!(cl.root, node(&g, "r"));
        assert_eq!(cl.members, vec![node(&g, "s"), node(&g, "t")]);
        assert_eq!(cl.size(), 3);
        assert!(cl.contains(node(&g, "r")));
        assert!(!cl.contains(node(&g, "main")));
    }

    #[test]
    fn uniform_call_frequencies_yield_no_clusters() {
        // Every edge runs once per caller activation: hoisting spill code
        // would execute it exactly as often, so no node passes the
        // strictly-greater root heuristic.
        let s =
            summary(&[("main", &[("r", 1)], &[]), ("r", &[("s", 1)], &[]), ("s", &[], &[])], &[]);
        let (_, c) = build(&s);
        assert!(c.clusters.is_empty(), "{:?}", c.clusters);
    }

    #[test]
    fn figure7_diamond_cluster() {
        // J -> K, L; K -> M; L -> M. J dominates all; K, L, M members.
        let s = summary(
            &[
                ("main", &[("j", 1)], &[]),
                ("j", &[("k", 50), ("l", 50)], &[]),
                ("k", &[("m", 10)], &[]),
                ("l", &[("m", 10)], &[]),
                ("m", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let cl = c.cluster_of_root(node(&g, "j")).expect("j roots a cluster");
        assert_eq!(cl.members, vec![node(&g, "k"), node(&g, "l"), node(&g, "m")]);
    }

    #[test]
    fn shared_callee_with_external_predecessor_excluded() {
        // r -> s, t; both call shared; but main also calls shared directly,
        // so shared has a predecessor outside the cluster and must stay out.
        let s = summary(
            &[
                ("main", &[("r", 1), ("shared", 1)], &[]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[("shared", 5)], &[]),
                ("t", &[], &[]),
                ("shared", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let cl = c.cluster_of_root(node(&g, "r")).expect("r roots a cluster");
        assert!(!cl.contains(node(&g, "shared")));
        assert!(cl.contains(node(&g, "s")));
    }

    #[test]
    fn recursive_nodes_never_become_members() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("rec", 100), ("s", 100)], &[]),
                ("rec", &[("rec", 1)], &[]),
                ("s", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let cl = c.cluster_of_root(node(&g, "r")).expect("cluster");
        assert!(!cl.contains(node(&g, "rec")));
        assert!(cl.contains(node(&g, "s")));
    }

    #[test]
    fn recursive_root_is_allowed() {
        // r is self-recursive but calls hot helpers: r may root a cluster
        // (it executes its own spill code each activation).
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("r", 1), ("a", 100), ("b", 100)], &[]),
                ("a", &[], &[]),
                ("b", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let cl = c.cluster_of_root(node(&g, "r")).expect("recursive root allowed");
        assert_eq!(cl.members, vec![node(&g, "a"), node(&g, "b")]);
    }

    #[test]
    fn nested_clusters_allow_upward_motion() {
        // main -> r (hot) -> s (hot) -> leaves; r roots a cluster containing
        // s; s roots its own cluster of leaves.
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 50)], &[]),
                ("s", &[("x", 50), ("y", 50)], &[]),
                ("x", &[], &[]),
                ("y", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let r_cl = c.cluster_of_root(node(&g, "r")).expect("r cluster");
        let s_cl = c.cluster_of_root(node(&g, "s")).expect("s cluster");
        // s is a member of r's cluster AND a root itself (paper: "a cluster
        // root node can itself appear in Cluster_Nodes of a higher level
        // cluster root").
        assert!(r_cl.contains(node(&g, "s")));
        assert_eq!(s_cl.members, vec![node(&g, "x"), node(&g, "y")]);
        // Nearest-root rule: x belongs to s's cluster, not r's.
        assert!(!r_cl.contains(node(&g, "x")));
    }

    #[test]
    fn undefined_externals_stay_out() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("libc", 1000), ("s", 100)], &[]),
                ("s", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        if let Some(cl) = c.cluster_of_root(node(&g, "r")) {
            assert!(!cl.contains(node(&g, "libc")));
        }
    }

    #[test]
    fn dominators_with_multiple_start_nodes() {
        // Two start nodes converge on c: nobody but c dominates c.
        let s =
            summary(&[("main", &[("c", 1)], &[]), ("alt", &[("c", 1)], &[]), ("c", &[], &[])], &[]);
        let g = CallGraph::build(&s, None);
        let idom = call_graph_dominators(&g);
        let c = node(&g, "c");
        // c's idom is the virtual root (self).
        assert_eq!(idom[c.index()], Some(c));
        assert!(!cg_dominates(&idom, node(&g, "main"), c));
        assert!(cg_dominates(&idom, c, c));
    }

    #[test]
    fn average_size_matches() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[], &[]),
                ("t", &[], &[]),
            ],
            &[],
        );
        let (_, c) = build(&s);
        assert!((c.average_size() - 3.0).abs() < 1e-9);
        assert_eq!(Clustering::default().average_size(), 0.0);
    }
}
