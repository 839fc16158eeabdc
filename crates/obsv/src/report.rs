//! Explainable diff reports: per-procedure dynamic cost deltas between two
//! configurations, joined with the analyzer decisions that caused them.

use crate::explain::{regset_names, render_event_for};
use ipra_core::database::{ProcDirectives, ProgramDatabase};
use ipra_core::trace::AnalyzerTrace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vpr::sim::{Attribution, ProcCost, RunStats};

/// Whole-program totals of one run (the columns the paper's Tables 4–5
/// report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Totals {
    /// Total cycles.
    pub cycles: u64,
    /// Total dynamic loads + stores.
    pub mem_refs: u64,
    /// Total singleton references.
    pub singleton_refs: u64,
    /// Total procedure calls.
    pub calls: u64,
}

impl Totals {
    /// Extracts the totals from a run's statistics.
    pub fn of(stats: &RunStats) -> Totals {
        Totals {
            cycles: stats.cycles,
            mem_refs: stats.mem_refs(),
            singleton_refs: stats.singleton_refs(),
            calls: stats.calls,
        }
    }
}

/// One procedure's cost under both configurations, with the deltas
/// (`b − a`; negative means configuration B saved) and the analyzer
/// decisions that explain them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcDelta {
    /// Procedure link name (or [`vpr::sim::STARTUP_PROC`]).
    pub name: String,
    /// Self cycles under configuration A.
    pub cycles_a: u64,
    /// Self cycles under configuration B.
    pub cycles_b: u64,
    /// `cycles_b − cycles_a`.
    pub cycles_delta: i64,
    /// Self memory references under A.
    pub mem_refs_a: u64,
    /// Self memory references under B.
    pub mem_refs_b: u64,
    /// `mem_refs_b − mem_refs_a`.
    pub mem_refs_delta: i64,
    /// Self singleton references under A.
    pub singleton_refs_a: u64,
    /// Self singleton references under B.
    pub singleton_refs_b: u64,
    /// `singleton_refs_b − singleton_refs_a`.
    pub singleton_refs_delta: i64,
    /// Activations under A.
    pub calls_a: u64,
    /// Activations under B.
    pub calls_b: u64,
    /// Inclusive (self + callees) cycles under A.
    pub inclusive_cycles_a: u64,
    /// Inclusive cycles under B.
    pub inclusive_cycles_b: u64,
    /// Why: configuration B's directives for this procedure, then every
    /// B-trace event mentioning it, rendered as human-readable lines.
    pub reasons: Vec<String>,
}

/// A per-procedure diff of two configurations' dynamic cost, with causes.
///
/// Invariant (checked by [`DiffReport::sums_match`]): the per-procedure
/// columns sum exactly to the whole-program totals on both sides — the
/// attribution is exact, so nothing is lost or double counted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffReport {
    /// Label of configuration A (the baseline, e.g. `L2`).
    pub config_a: String,
    /// Label of configuration B (the explained configuration, e.g. `C`).
    pub config_b: String,
    /// Whole-program totals under A.
    pub totals_a: Totals,
    /// Whole-program totals under B.
    pub totals_b: Totals,
    /// Per-procedure rows, most cycles saved first (ties by name).
    pub procs: Vec<ProcDelta>,
}

fn delta(b: u64, a: u64) -> i64 {
    b as i64 - a as i64
}

/// Configuration B's directive summary for one procedure, if it deviates
/// from the standard linkage convention.
fn directive_summary(d: &ProcDirectives) -> Option<String> {
    // Reports explain VPR builds; registers render with the VPR ABI names,
    // matching `explain` and `objdump`.
    let desc = &vpr::target::VPR;
    let mut parts: Vec<String> = Vec::new();
    for p in &d.promotions {
        let mut s = format!("holds `{}` in {}", p.sym, desc.reg_name(p.reg));
        if p.is_entry {
            s.push_str(if p.store_at_exit {
                " (web entry; stores back at exit)"
            } else {
                " (web entry; no exit store)"
            });
        }
        parts.push(s);
    }
    if d.is_cluster_root {
        parts.push(format!("cluster root spilling MSPILL {}", regset_names(d.usage.mspill, desc)));
    }
    if !d.usage.free.is_empty() {
        parts.push(format!("FREE {}", regset_names(d.usage.free, desc)));
    }
    if parts.is_empty() {
        None
    } else {
        Some(format!("directives: {}", parts.join("; ")))
    }
}

impl DiffReport {
    /// Builds the report from both runs' attributions and statistics plus
    /// configuration B's program database and decision trace.
    #[allow(clippy::too_many_arguments)] // the join really has seven inputs
    pub fn build(
        config_a: &str,
        config_b: &str,
        attr_a: &Attribution,
        attr_b: &Attribution,
        stats_a: &RunStats,
        stats_b: &RunStats,
        db_b: &ProgramDatabase,
        trace_b: &AnalyzerTrace,
    ) -> DiffReport {
        let names: BTreeSet<&String> = attr_a.procs.keys().chain(attr_b.procs.keys()).collect();
        let mut procs: Vec<ProcDelta> = names
            .into_iter()
            .map(|name| {
                let zero = ProcCost::default();
                let a = attr_a.get(name).unwrap_or(&zero);
                let b = attr_b.get(name).unwrap_or(&zero);
                let mut reasons: Vec<String> = Vec::new();
                if let Some(d) = db_b.get(name) {
                    reasons.extend(directive_summary(d));
                }
                // VPR names, as in `directive_summary`.
                let desc = &vpr::target::VPR;
                reasons.extend(trace_b.for_symbol(name).iter().map(|e| render_event_for(e, desc)));
                ProcDelta {
                    name: name.clone(),
                    cycles_a: a.cycles,
                    cycles_b: b.cycles,
                    cycles_delta: delta(b.cycles, a.cycles),
                    mem_refs_a: a.mem_refs(),
                    mem_refs_b: b.mem_refs(),
                    mem_refs_delta: delta(b.mem_refs(), a.mem_refs()),
                    singleton_refs_a: a.singleton_refs(),
                    singleton_refs_b: b.singleton_refs(),
                    singleton_refs_delta: delta(b.singleton_refs(), a.singleton_refs()),
                    calls_a: a.calls,
                    calls_b: b.calls,
                    inclusive_cycles_a: a.inclusive_cycles,
                    inclusive_cycles_b: b.inclusive_cycles,
                    reasons,
                }
            })
            .collect();
        procs.sort_by(|x, y| x.cycles_delta.cmp(&y.cycles_delta).then(x.name.cmp(&y.name)));
        DiffReport {
            config_a: config_a.to_string(),
            config_b: config_b.to_string(),
            totals_a: Totals::of(stats_a),
            totals_b: Totals::of(stats_b),
            procs,
        }
    }

    /// Do the per-procedure columns sum exactly to the whole-program totals
    /// on both sides?
    pub fn sums_match(&self) -> bool {
        let sum = |f: &dyn Fn(&ProcDelta) -> u64| self.procs.iter().map(f).sum::<u64>();
        sum(&|p| p.cycles_a) == self.totals_a.cycles
            && sum(&|p| p.cycles_b) == self.totals_b.cycles
            && sum(&|p| p.mem_refs_a) == self.totals_a.mem_refs
            && sum(&|p| p.mem_refs_b) == self.totals_b.mem_refs
            && sum(&|p| p.singleton_refs_a) == self.totals_a.singleton_refs
            && sum(&|p| p.singleton_refs_b) == self.totals_b.singleton_refs
            && sum(&|p| p.calls_a) == self.totals_a.calls
            && sum(&|p| p.calls_b) == self.totals_b.calls
    }

    /// Serializes the report as deterministic JSON (field order is fixed by
    /// the struct definitions; procedure order by the sort in `build`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying deserialization error message.
    pub fn from_json(text: &str) -> Result<DiffReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Renders the human-readable table plus per-procedure explanations.
    pub fn render_table(&self) -> String {
        let (a, b) = (&self.config_a, &self.config_b);
        let mut out = format!("per-procedure breakdown: {a} → {b}\n\n");
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
            "procedure",
            format!("cycles {a}"),
            format!("cycles {b}"),
            "Δcycles",
            "Δmemrefs",
            "Δsingleton"
        ));
        for p in &self.procs {
            if p.cycles_delta == 0 && p.mem_refs_delta == 0 && p.singleton_refs_delta == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<22} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
                p.name,
                p.cycles_a,
                p.cycles_b,
                p.cycles_delta,
                p.mem_refs_delta,
                p.singleton_refs_delta
            ));
        }
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
            "total",
            self.totals_a.cycles,
            self.totals_b.cycles,
            delta(self.totals_b.cycles, self.totals_a.cycles),
            delta(self.totals_b.mem_refs, self.totals_a.mem_refs),
            delta(self.totals_b.singleton_refs, self.totals_a.singleton_refs)
        ));
        for p in &self.procs {
            if p.cycles_delta == 0 || p.reasons.is_empty() {
                continue;
            }
            let verb = if p.cycles_delta < 0 { "saved" } else { "gained" };
            out.push_str(&format!(
                "\n`{}` {verb} {} cycles ({} mem refs):\n",
                p.name,
                p.cycles_delta.unsigned_abs(),
                p.mem_refs_delta
            ));
            for r in &p.reasons {
                out.push_str("  - ");
                out.push_str(r);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_core::trace::TraceEvent;
    use vpr::regs::Reg;

    fn cost(cycles: u64, loads: u64, calls: u64) -> ProcCost {
        ProcCost { cycles, loads, calls, inclusive_cycles: cycles, ..ProcCost::default() }
    }

    fn attribution(entries: &[(&str, ProcCost)]) -> (Attribution, RunStats) {
        let mut a = Attribution::default();
        let mut s = RunStats::default();
        for (name, c) in entries {
            a.procs.insert(name.to_string(), *c);
            s.cycles += c.cycles;
            s.loads += c.loads;
            s.calls += c.calls;
        }
        (a, s)
    }

    fn sample() -> DiffReport {
        let (aa, sa) = attribution(&[("f", cost(2000, 100, 3)), ("main", cost(500, 10, 1))]);
        let (ab, sb) = attribution(&[("f", cost(760, 40, 3)), ("main", cost(500, 10, 1))]);
        let mut trace = AnalyzerTrace::default();
        trace.push(TraceEvent::WebColored {
            web: 3,
            sym: "g".into(),
            nodes: vec!["f".into()],
            entries: vec!["f".into()],
            reg: Reg::new(12),
            priority: 120,
        });
        DiffReport::build("L2", "C", &aa, &ab, &sa, &sb, &ProgramDatabase::new(), &trace)
    }

    #[test]
    fn sums_and_ordering() {
        let r = sample();
        assert!(r.sums_match());
        // f saved the most cycles → first row.
        assert_eq!(r.procs[0].name, "f");
        assert_eq!(r.procs[0].cycles_delta, -1240);
        assert_eq!(r.procs[0].mem_refs_delta, -60);
        // The delta is linked to the promotion event (r12 renders as its
        // VPR ABI name, s9).
        assert!(r.procs[0].reasons.iter().any(|s| s.contains("s9")), "{:?}", r.procs[0].reasons);
    }

    #[test]
    fn json_round_trip_and_determinism() {
        let r = sample();
        let j1 = r.to_json();
        let j2 = sample().to_json();
        assert_eq!(j1, j2, "same inputs must serialize identically");
        let back = DiffReport::from_json(&j1).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn table_mentions_cause() {
        let r = sample();
        let t = r.render_table();
        assert!(t.contains("`f` saved 1240 cycles"), "{t}");
        assert!(t.contains("promoted to s9"), "{t}");
        assert!(t.contains("total"), "{t}");
    }

    #[test]
    fn mismatched_totals_fail_the_invariant() {
        let mut r = sample();
        r.totals_a.cycles += 1;
        assert!(!r.sums_match());
    }
}
