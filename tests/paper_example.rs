//! Reproduction of the paper's worked example (§4.1.4): the Figure 3 call
//! graph with globals g1–g3, the Table 1 reference sets, and the Table 2
//! webs and two-register coloring — driven through the public analyzer
//! API from hand-written summary files.

use ipra_core::analyzer::{analyze, AnalyzerOptions, PromotionMode};
use ipra_core::ProgramDatabase;
use ipra_summary::{CallRef, GlobalFact, GlobalRef, ModuleSummary, ProcSummary, ProgramSummary};

/// Builds the Figure 3 program: A→{B,C}, B→{D,E}, C→{F,G}, G→H, with
/// L_REF(A)={g3}, L_REF(B)={g1,g3}, L_REF(C)={g2,g3}, L_REF(D)={g1},
/// L_REF(E)={g1,g2}, L_REF(F)={g2}, L_REF(G)={g2}, L_REF(H)=∅.
fn figure3_summary() -> ProgramSummary {
    let proc = |name: &str, calls: &[&str], refs: &[&str]| ProcSummary {
        name: name.into(),
        module: "fig3".into(),
        global_refs: refs
            .iter()
            .map(|g| GlobalRef {
                sym: g.to_string(),
                freq: 10,
                written: true,
                ptr_mod: false,
                ptr_ref: false,
                escapes: false,
            })
            .collect(),
        calls: calls.iter().map(|c| CallRef { callee: c.to_string(), freq: 1 }).collect(),
        taken_addresses: vec![],
        makes_indirect_calls: false,
        callee_saves_estimate: 2,
        caller_saves_estimate: 2,
        alias: Default::default(),
    };
    let global = |sym: &str| GlobalFact {
        sym: sym.into(),
        size: 1,
        is_array: false,
        is_static: false,
        module: "fig3".into(),
        init: vec![],
    };
    ProgramSummary {
        modules: vec![ModuleSummary {
            module: "fig3".into(),
            procs: vec![
                proc("A", &["B", "C"], &["g3"]),
                proc("B", &["D", "E"], &["g1", "g3"]),
                proc("C", &["F", "G"], &["g2", "g3"]),
                proc("D", &[], &["g1"]),
                proc("E", &[], &["g1", "g2"]),
                proc("F", &[], &["g2"]),
                proc("G", &["H"], &["g2"]),
                proc("H", &[], &[]),
            ],
            globals: vec![global("g1"), global("g2"), global("g3")],
        }],
    }
}

fn web_of<'a>(db: &'a ProgramDatabase, node: &str, sym: &str) -> &'a ipra_core::Promotion {
    db.get(node)
        .unwrap_or_else(|| panic!("no directives for {node}"))
        .promotions
        .iter()
        .find(|p| p.sym == sym)
        .unwrap_or_else(|| panic!("{node} does not promote {sym}"))
}

#[test]
fn table2_webs_and_two_register_coloring() {
    let opts = AnalyzerOptions {
        promotion: PromotionMode::Coloring { registers: 2 },
        spill_motion: false,
        ..AnalyzerOptions::default()
    };
    let analysis = analyze(&figure3_summary(), &opts);
    let stats = &analysis.stats;
    assert_eq!(stats.eligible_globals, 3);
    assert_eq!(stats.webs_total, 4, "Table 2 lists four webs");
    assert_eq!(stats.webs_colored, 4, "all four webs color with two registers");

    let db = &analysis.database;

    // Web 1: g3 over {A, B, C}, entry A.
    let a_g3 = web_of(db, "A", "g3");
    assert!(a_g3.is_entry);
    assert!(!web_of(db, "B", "g3").is_entry);
    assert!(!web_of(db, "C", "g3").is_entry);
    assert!(db.get("D").unwrap().promotions.iter().all(|p| p.sym != "g3"));

    // Web 2: g2 over {C, F, G}, entry C.
    let c_g2 = web_of(db, "C", "g2");
    assert!(c_g2.is_entry);
    assert!(!web_of(db, "F", "g2").is_entry);
    assert!(!web_of(db, "G", "g2").is_entry);

    // Web 3: g1 over {B, D, E}, entry B.
    let b_g1 = web_of(db, "B", "g1");
    assert!(b_g1.is_entry);
    assert!(!web_of(db, "D", "g1").is_entry);
    assert!(!web_of(db, "E", "g1").is_entry);

    // Web 4: g2 over {E} alone, entry E.
    let e_g2 = web_of(db, "E", "g2");
    assert!(e_g2.is_entry);

    // Interference constraints of Table 2: webs 1–2 (share C), 1–3 (share
    // B), 3–4 (share E) use distinct registers; independent webs may share.
    assert_ne!(a_g3.reg, c_g2.reg, "webs 1 and 2 interfere");
    assert_ne!(a_g3.reg, b_g1.reg, "webs 1 and 3 interfere");
    assert_ne!(b_g1.reg, e_g2.reg, "webs 3 and 4 interfere");
    // Exactly two registers in play, shared across non-interfering webs,
    // including two different registers for the two g2 webs.
    let regs: std::collections::HashSet<_> =
        [a_g3.reg, c_g2.reg, b_g1.reg, e_g2.reg].into_iter().collect();
    assert_eq!(regs.len(), 2, "Table 2 colors all four webs with two registers");
    assert_ne!(c_g2.reg, e_g2.reg, "the same variable uses different registers in its two webs");

    // H gets no promotions (references nothing).
    assert!(db.get("H").unwrap().promotions.is_empty());
}

#[test]
fn entry_nodes_insert_load_and_store() {
    let opts = AnalyzerOptions {
        promotion: PromotionMode::Coloring { registers: 2 },
        spill_motion: false,
        ..AnalyzerOptions::default()
    };
    let analysis = analyze(&figure3_summary(), &opts);
    // B is the entry of g1's web: it loads at entry and (since the web
    // writes g1) stores at exit.
    let b_g1 = web_of(&analysis.database, "B", "g1");
    assert!(b_g1.is_entry && b_g1.store_at_exit);
    // Non-entry members never store at exit.
    let d_g1 = web_of(&analysis.database, "D", "g1");
    assert!(!d_g1.is_entry && !d_g1.store_at_exit);
}

/// Golden test for the explain query on the paper's worked example: the
/// exact causal chain the analyzer reports for web 3 (g1 over {B, D, E})
/// and for procedure B, byte for byte.
#[test]
fn explain_renders_the_figure3_decision_chain_exactly() {
    let opts = AnalyzerOptions {
        promotion: PromotionMode::Coloring { registers: 2 },
        spill_motion: false,
        ..AnalyzerOptions::default()
    };
    let (analysis, trace) = ipra_core::analyzer::analyze_traced(&figure3_summary(), &opts);
    // The trace observes without perturbing: same analysis as the untraced run.
    assert_eq!(analysis.database, analyze(&figure3_summary(), &opts).database);

    assert_eq!(
        ipra_obsv::explain_for(&trace, "g1", &vpr::target::VPR),
        "analyzer decisions mentioning `g1` (2 of 8 events):\n  \
         - web #0: formed for global `g1` over {B, D, E} (entries {B}), written; \
         benefit 50, entry cost 4\n  \
         - web #0: global `g1` promoted to s0 across {B, D, E} (loaded at entries {B}); \
         priority 46\n"
    );
    assert_eq!(
        ipra_obsv::explain_for(&trace, "B", &vpr::target::VPR),
        "analyzer decisions mentioning `B` (4 of 8 events):\n  \
         - web #0: formed for global `g1` over {B, D, E} (entries {B}), written; \
         benefit 50, entry cost 4\n  \
         - web #0: global `g1` promoted to s0 across {B, D, E} (loaded at entries {B}); \
         priority 46\n  \
         - web #3: formed for global `g3` over {A, B, C} (entries {A}), written; \
         benefit 30, entry cost 4\n  \
         - web #3: global `g3` promoted to s1 across {A, B, C} (loaded at entries {A}); \
         priority 26\n"
    );
    assert_eq!(
        ipra_obsv::explain_for(&trace, "zzz", &vpr::target::VPR),
        "no analyzer decisions mention `zzz`\n"
    );
}
