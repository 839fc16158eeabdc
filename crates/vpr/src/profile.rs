//! Execution profiles: per-pc hit counts and their derived views.
//!
//! When [`SimOptions::profile`](crate::sim::SimOptions::profile) is on,
//! both engines record one counter per code address — `pc_counts[pc]` is
//! bumped once per executed instruction — and return the raw vector as
//! [`ExecProfile`] in [`RunResult::profile`](crate::sim::RunResult::profile).
//!
//! Everything else (the per-opcode-class histogram, per-basic-block hot
//! counts, per-procedure self-cycle tables) is *derived after the run* by
//! joining `pc_counts` with the executable's instruction and function
//! tables. Because the engines agree on every executed pc (the bit-identity
//! invariant), derived profiles are identical across engines **by
//! construction**, and the total of every view equals
//! [`RunStats::cycles`](crate::sim::RunStats::cycles) exactly — each
//! executed cycle bumps exactly one pc slot.

use crate::inst::Inst;
use crate::program::Executable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The raw execution profile of one run: `pc_counts[pc]` = number of times
/// the instruction at `pc` executed. `pc_counts.len()` equals the
/// executable's code length; the sum of all slots equals the run's cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecProfile {
    /// Executions per code address, dense over the whole code segment.
    pub pc_counts: Vec<u64>,
}

/// One basic block's share of a profile (see [`ExecProfile::block_counts`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCount {
    /// First pc of the block.
    pub start: usize,
    /// One past the last pc of the block.
    pub end: usize,
    /// Executions of the block head (how often control entered here).
    pub entries: u64,
    /// Total cycles spent in the block (sum of its pcs' counts).
    pub cycles: u64,
    /// `proc+offset` symbolization of `start`, when it falls inside a
    /// linked procedure.
    pub sym: Option<String>,
}

/// One procedure's share of a profile (see [`ExecProfile::proc_table`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcProfileRow {
    /// Link name ([`crate::sim::STARTUP_PROC`] for the startup stub).
    pub name: String,
    /// Cycles spent in the procedure's own instructions.
    pub self_cycles: u64,
}

impl ExecProfile {
    /// Total executed instructions — equals the run's
    /// [`RunStats::cycles`](crate::sim::RunStats::cycles) by construction.
    pub fn total(&self) -> u64 {
        self.pc_counts.iter().sum()
    }

    /// Instructions retired per opcode class (see [`Inst::opcode_class`]),
    /// keyed by class name for deterministic iteration. Sums to
    /// [`total`](ExecProfile::total).
    pub fn opcode_histogram(&self, exe: &Executable) -> BTreeMap<String, u64> {
        let mut h = BTreeMap::new();
        for (pc, inst) in exe.insts().iter().enumerate() {
            let n = self.pc_counts.get(pc).copied().unwrap_or(0);
            if n > 0 {
                *h.entry(inst.opcode_class().to_string()).or_insert(0) += n;
            }
        }
        h
    }

    /// Folds the profile into basic blocks of the linked code: leaders are
    /// pc 0, every branch/call target, every procedure entry, and every
    /// successor of a control transfer. Blocks are returned in address
    /// order with entry counts, cycle totals, and symbolized heads; block
    /// cycle totals sum to [`total`](ExecProfile::total).
    pub fn block_counts(&self, exe: &Executable) -> Vec<BlockCount> {
        let code = exe.insts();
        let n = code.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        for f in exe.funcs() {
            if f.entry <= n {
                leader[f.entry] = true;
            }
        }
        for (pc, inst) in code.iter().enumerate() {
            match inst {
                Inst::B { target } => {
                    if (target.0 as usize) < n {
                        leader[target.0 as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::Comb { target, .. } => {
                    if (target.0 as usize) < n {
                        leader[target.0 as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::CallAbs { entry } => {
                    if (*entry as usize) < n {
                        leader[*entry as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::CallInd { .. } | Inst::Bv { .. } | Inst::Halt => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut start = 0usize;
        for (pc, &lead) in leader.iter().enumerate().skip(1) {
            if pc == n || lead {
                let cycles: u64 =
                    (start..pc).map(|i| self.pc_counts.get(i).copied().unwrap_or(0)).sum();
                blocks.push(BlockCount {
                    start,
                    end: pc,
                    entries: self.pc_counts.get(start).copied().unwrap_or(0),
                    cycles,
                    sym: exe.symbolize(start),
                });
                start = pc;
            }
        }
        blocks
    }

    /// The run's deterministic simulator counters: total cycles, memory
    /// and call traffic from `stats`, plus `sim.op.<class>` instructions
    /// retired per opcode class from this profile. Because the profile and
    /// every [`RunStats`](crate::sim::RunStats) field are bit-identical
    /// across engines, so is this map.
    pub fn sim_counters(
        &self,
        exe: &Executable,
        stats: &crate::sim::RunStats,
    ) -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("sim.cycles".to_string(), stats.cycles);
        c.insert("sim.loads".to_string(), stats.loads);
        c.insert("sim.stores".to_string(), stats.stores);
        c.insert("sim.calls".to_string(), stats.calls);
        for (class, n) in self.opcode_histogram(exe) {
            c.insert(format!("sim.op.{class}"), n);
        }
        c
    }

    /// Per-procedure self-cycle table in link order, with a final
    /// [`crate::sim::STARTUP_PROC`] row for code outside every linked
    /// procedure. `self_cycles` sums to [`total`](ExecProfile::total).
    pub fn proc_table(&self, exe: &Executable) -> Vec<ProcProfileRow> {
        let mut covered = vec![false; self.pc_counts.len()];
        let mut rows = Vec::with_capacity(exe.funcs().len() + 1);
        for f in exe.funcs() {
            let end = (f.entry + f.len).min(self.pc_counts.len());
            let start = f.entry.min(end);
            let mut self_cycles = 0u64;
            for (pc, seen) in covered.iter_mut().enumerate().take(end).skip(start) {
                if !*seen {
                    *seen = true;
                    self_cycles += self.pc_counts[pc];
                }
            }
            rows.push(ProcProfileRow { name: f.name.clone(), self_cycles });
        }
        let outside: u64 =
            self.pc_counts.iter().zip(&covered).filter_map(|(&n, &c)| (!c).then_some(n)).sum();
        rows.push(ProcProfileRow {
            name: crate::sim::STARTUP_PROC.to_string(),
            self_cycles: outside,
        });
        rows
    }
}

impl Inst {
    /// The instruction's opcode class for profile histograms: a small,
    /// stable set of names grouping variants by what they do dynamically.
    /// Pseudo variants share their resolved form's class (a linked
    /// executable never contains them anyway).
    pub fn opcode_class(&self) -> &'static str {
        match self {
            Inst::Ldi { .. } => "ldi",
            Inst::Copy { .. } => "copy",
            Inst::Alu { .. } => "alu",
            Inst::Alui { .. } => "alui",
            Inst::Cmp { .. } => "cmp",
            Inst::Ldw { .. } | Inst::Ldg { .. } => "load",
            Inst::Stw { .. } | Inst::Stg { .. } => "store",
            Inst::Lga { .. } | Inst::Ldfa { .. } => "addr",
            Inst::Call { .. } | Inst::CallAbs { .. } | Inst::CallInd { .. } => "call",
            Inst::Bv { .. } => "bv",
            Inst::B { .. } | Inst::Comb { .. } => "branch",
            Inst::Out { .. } => "out",
            Inst::In { .. } => "in",
            Inst::Halt => "halt",
            Inst::Nop => "nop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};
    use crate::program::{link, MachineFunction, ObjectModule};
    use crate::regs::Reg;
    use crate::sim::{run_reference, run_with, SimOptions};

    fn looping_exe() -> Executable {
        // sum 1..=5 via a COMB loop, then call leaf once.
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });
        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        let r_i = Reg::new(19);
        let r_lim = Reg::new(20);
        f.push(Inst::Ldi { rd: r_i, imm: 1 });
        f.push(Inst::Ldi { rd: r_lim, imm: 5 });
        let top = f.new_label();
        let done = f.new_label();
        f.bind_label(top);
        f.push(Inst::Comb { cond: Cond::Gt, rs1: r_i, rs2: r_lim, target: done });
        f.push(Inst::Alui { op: AluOp::Add, rd: r_i, rs1: r_i, imm: 1 });
        f.push(Inst::B { target: top });
        f.bind_label(done);
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: r_i });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });
        link(&[ObjectModule {
            name: "t".into(),
            functions: vec![leaf, f],
            globals: vec![],
            ..Default::default()
        }])
        .unwrap()
    }

    #[test]
    fn profile_totals_equal_cycles_and_engines_agree() {
        let exe = looping_exe();
        let opts = SimOptions { profile: true, ..SimOptions::default() };
        let r = &run_with(&exe, &opts).unwrap();
        assert_eq!(*r, run_reference(&exe, &opts).unwrap());
        let p = r.profile.as_ref().unwrap();
        assert_eq!(p.pc_counts.len(), exe.code_len());
        assert_eq!(p.total(), r.stats.cycles);
        let hist = p.opcode_histogram(&exe);
        assert_eq!(hist.values().sum::<u64>(), r.stats.cycles);
        // The loop body ran 5 times.
        assert_eq!(hist["branch"], 6 /* COMB */ + 5 /* B */);
        let blocks = p.block_counts(&exe);
        assert_eq!(blocks.iter().map(|b| b.cycles).sum::<u64>(), r.stats.cycles);
        let procs = p.proc_table(&exe);
        assert_eq!(procs.iter().map(|row| row.self_cycles).sum::<u64>(), r.stats.cycles);
        let main = procs.iter().find(|row| row.name == "main").unwrap();
        assert!(main.self_cycles > 0);
        let stub = procs.last().unwrap();
        assert_eq!(stub.name, crate::sim::STARTUP_PROC);
        assert_eq!(stub.self_cycles, 2); // CALL main + HALT
    }

    #[test]
    fn profiling_never_perturbs_the_run() {
        let exe = looping_exe();
        let plain = run_with(&exe, &SimOptions::default()).unwrap();
        let profiled =
            run_with(&exe, &SimOptions { profile: true, ..SimOptions::default() }).unwrap();
        assert_eq!(plain.stats, profiled.stats);
        assert_eq!(plain.output, profiled.output);
        assert_eq!(plain.exit, profiled.exit);
        assert!(plain.profile.is_none());
        assert!(profiled.profile.is_some());
    }

    #[test]
    fn block_heads_are_symbolized() {
        let exe = looping_exe();
        let opts = SimOptions { profile: true, ..SimOptions::default() };
        let r = run_with(&exe, &opts).unwrap();
        let blocks = r.profile.unwrap().block_counts(&exe);
        assert!(blocks.iter().any(|b| b.sym.as_deref() == Some("main+0")));
        assert!(blocks.iter().any(|b| b.sym.as_deref() == Some("leaf+0")));
    }
}
