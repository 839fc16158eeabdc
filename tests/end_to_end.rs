//! End-to-end checks over the benchmark suite: every workload runs
//! correctly under every configuration, and the paper's headline effects
//! hold in aggregate — promotion reduces dynamic singleton memory
//! references (Table 5's direction), and interprocedural allocation never
//! breaks observable behavior.

use ipra_core::PaperConfig;
use ipra_driver::{compile, run_program, CompileOptions};
use ipra_workloads::all;

#[test]
fn promotion_reduces_singleton_refs_on_most_workloads() {
    let mut improved = 0;
    let mut total = 0;
    for w in all() {
        let l2 = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let c = compile(&w.sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let rl2 = run_program(&l2, &w.training_input).unwrap();
        let rc = run_program(&c, &w.training_input).unwrap();
        assert_eq!(rc.output, rl2.output, "{} output", w.name);
        total += 1;
        if rc.stats.singleton_refs() < rl2.stats.singleton_refs() {
            improved += 1;
        }
    }
    // Table 5 shows reductions on every benchmark; demand a solid
    // majority here to leave room for tiny training inputs.
    assert!(
        improved * 3 >= total * 2,
        "only {improved}/{total} workloads reduced singleton refs under C"
    );
}

#[test]
fn spill_motion_never_increases_singleton_refs_much() {
    // Config A moves save/restore code; it must never blow up memory
    // traffic (Table 5 column A is 0..14%).
    for w in all() {
        let l2 = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let a = compile(&w.sources, &CompileOptions::paper(PaperConfig::A)).unwrap();
        let rl2 = run_program(&l2, &w.training_input).unwrap();
        let ra = run_program(&a, &w.training_input).unwrap();
        assert_eq!(ra.output, rl2.output, "{} output", w.name);
        assert!(
            ra.stats.singleton_refs()
                <= rl2.stats.singleton_refs() + rl2.stats.singleton_refs() / 20,
            "{}: A = {} vs L2 = {}",
            w.name,
            ra.stats.singleton_refs(),
            rl2.stats.singleton_refs()
        );
    }
}

#[test]
fn analyzer_statistics_are_sane() {
    for w in all() {
        let c = compile(&w.sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let s = &c.stats;
        assert!(s.nodes > 0, "{}", w.name);
        assert!(s.webs_considered <= s.webs_total, "{}", w.name);
        assert!(s.webs_colored <= s.webs_considered, "{}", w.name);
        assert_eq!(
            s.webs_total,
            s.webs_considered + s.discarded_sparse + s.discarded_trivial + s.discarded_unprofitable,
            "{}: discard accounting",
            w.name
        );
        if s.clusters > 0 {
            assert!(s.avg_cluster_size >= 2.0, "{}: clusters have members", w.name);
        }
    }
}

#[test]
fn database_round_trips_through_json() {
    let w = ipra_workloads::protoc();
    let c = compile(&w.sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
    let json = serde_json::to_string_pretty(&c.database).unwrap();
    let back: ipra_core::ProgramDatabase = serde_json::from_str(&json).unwrap();
    assert_eq!(c.database, back);
    let sjson = serde_json::to_string_pretty(&c.summary).unwrap();
    let sback: ipra_summary::ProgramSummary = serde_json::from_str(&sjson).unwrap();
    assert_eq!(c.summary, sback);
}
