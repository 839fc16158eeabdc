//! The VPR simulator: run options, results and traps, plus the reference
//! interpreter.
//!
//! [`run`] and [`run_with`] execute a linked [`Executable`] on the fast
//! engine ([`crate::exec`]). [`run_reference`] interprets it one [`Inst`]
//! at a time — the simplest implementation of the same semantics, kept as
//! the oracle the fast engine is tested against. Both charge one cycle per
//! instruction (the paper's Table 4 measures "total cycles measured by a
//! simulator, excluding cache miss penalties" on a single-cycle RISC) and
//! keep the dynamic accounting the paper's evaluation needs:
//!
//! * total cycles / instructions,
//! * dynamic loads and stores, split into *singleton* and other references
//!   (Table 5),
//! * per-procedure and per-call-graph-edge call counts — the moral
//!   equivalent of the paper's `gprof` profile feed for analyzer
//!   configurations B and F.

use crate::inst::Inst;
use crate::program::{Executable, DEFAULT_MEM_WORDS, GLOBALS_BASE};
use crate::regs::Reg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Options controlling a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Simulated memory size in words.
    pub mem_words: usize,
    /// Abort after this many executed instructions.
    pub max_steps: u64,
    /// Values returned by `IN` instructions, in order (then −1).
    pub input: Vec<i64>,
    /// Attribute every cycle and memory reference to a procedure via the
    /// shadow call stack ([`RunResult::attribution`]). Exact, not sampled;
    /// never changes the run's [`RunStats`].
    pub attribute: bool,
    /// Record per-pc execution counts ([`RunResult::profile`]). Exact, not
    /// sampled; never changes the run's [`RunStats`].
    pub profile: bool,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            mem_words: DEFAULT_MEM_WORDS,
            max_steps: 2_000_000_000,
            input: Vec::new(),
            attribute: false,
            profile: false,
        }
    }
}

/// The attribution bucket for code outside any linked procedure: the
/// two-instruction startup stub (`CALL main; HALT`).
pub const STARTUP_PROC: &str = "<startup>";

/// Exact dynamic cost of one procedure within a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcCost {
    /// Cycles spent in the procedure itself (excluding callees).
    pub cycles: u64,
    /// Loads executed by the procedure's own instructions.
    pub loads: u64,
    /// Stores executed by the procedure's own instructions.
    pub stores: u64,
    /// Of `loads`, those classified as singleton references.
    pub singleton_loads: u64,
    /// Of `stores`, those classified as singleton references.
    pub singleton_stores: u64,
    /// Activations of the procedure.
    pub calls: u64,
    /// Cycles with at least one activation of the procedure on the call
    /// stack (self + callees; recursion counted once).
    pub inclusive_cycles: u64,
}

impl ProcCost {
    /// Self loads + stores.
    pub fn mem_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Self singleton loads + stores.
    pub fn singleton_refs(&self) -> u64 {
        self.singleton_loads + self.singleton_stores
    }
}

/// Exact per-procedure attribution of a run's dynamic cost, keyed by link
/// name (plus [`STARTUP_PROC`]). Every cycle, memory reference, and call of
/// the run is charged to exactly one procedure, so the self-cost columns
/// sum to the run's [`RunStats`] — [`Attribution::matches`] checks this.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Per-procedure costs, ordered by name for deterministic serialization.
    pub procs: BTreeMap<String, ProcCost>,
}

impl Attribution {
    /// The cost record for `name`, if the procedure was linked.
    pub fn get(&self, name: &str) -> Option<&ProcCost> {
        self.procs.get(name)
    }

    /// Sums the self-cost columns over all procedures. `inclusive_cycles`
    /// is left zero: inclusive windows overlap, so their sum is meaningless.
    pub fn self_totals(&self) -> ProcCost {
        let mut t = ProcCost::default();
        for c in self.procs.values() {
            t.cycles += c.cycles;
            t.loads += c.loads;
            t.stores += c.stores;
            t.singleton_loads += c.singleton_loads;
            t.singleton_stores += c.singleton_stores;
            t.calls += c.calls;
        }
        t
    }

    /// Do the per-procedure self costs sum exactly to `stats`?
    pub fn matches(&self, stats: &RunStats) -> bool {
        let t = self.self_totals();
        t.cycles == stats.cycles
            && t.loads == stats.loads
            && t.stores == stats.stores
            && t.singleton_loads == stats.singleton_loads
            && t.singleton_stores == stats.singleton_stores
            && t.calls == stats.calls
    }
}

/// Dynamic execution statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total cycles (= instructions, on this single-cycle machine).
    pub cycles: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Dynamic loads classified as singleton references.
    pub singleton_loads: u64,
    /// Dynamic stores classified as singleton references.
    pub singleton_stores: u64,
    /// Total procedure calls executed.
    pub calls: u64,
    /// Calls per callee, indexed by the executable's function index.
    /// Ordered so serialized stats and iteration-based reports are
    /// deterministic run-to-run.
    pub call_counts: BTreeMap<usize, u64>,
    /// Calls per `(caller, callee)` function-index pair, ordered for
    /// deterministic serialization. The startup stub's call of `main` uses
    /// `usize::MAX` as the caller.
    pub call_edges: BTreeMap<(usize, usize), u64>,
}

impl RunStats {
    /// Total dynamic memory references.
    pub fn mem_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total dynamic singleton memory references (the paper's Table 5 metric).
    pub fn singleton_refs(&self) -> u64 {
        self.singleton_loads + self.singleton_stores
    }
}

/// The observable outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunResult {
    /// Values emitted by `OUT`, in order.
    pub output: Vec<i64>,
    /// `main`'s return value (the `RV` register at `HALT`).
    pub exit: i64,
    /// Dynamic statistics.
    pub stats: RunStats,
    /// Per-procedure attribution ([`SimOptions::attribute`]); `None` when
    /// attribution was off.
    #[serde(default)]
    pub attribution: Option<Attribution>,
    /// Per-pc execution counts ([`SimOptions::profile`]); `None` when
    /// profiling was off.
    #[serde(default)]
    pub profile: Option<crate::profile::ExecProfile>,
}

/// A runtime trap or simulator resource error. Trap variants carry the
/// faulting `pc` plus `sym`, the `proc+offset` form resolved from the
/// executable's function table (`None` when the pc falls outside every
/// linked procedure, e.g. in the startup stub).
#[allow(missing_docs)] // field names (pc, addr, limit, sym) are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Integer division or remainder by zero.
    DivByZero { pc: usize, sym: Option<String> },
    /// Memory access outside the simulated address space.
    MemFault { pc: usize, addr: i64, sym: Option<String> },
    /// Control transferred outside the code segment.
    BadPc { pc: usize, sym: Option<String> },
    /// The step budget was exhausted (likely an infinite loop).
    StepLimit { limit: u64 },
    /// An unresolved pseudo instruction reached the simulator
    /// (indicates an unlinked or corrupted executable).
    UnresolvedPseudo { pc: usize, sym: Option<String> },
}

/// `main+3 (pc 12)` when symbolized, `pc 12` otherwise.
fn fmt_loc(f: &mut fmt::Formatter<'_>, pc: usize, sym: &Option<String>) -> fmt::Result {
    match sym {
        Some(s) => write!(f, "{s} (pc {pc})"),
        None => write!(f, "pc {pc}"),
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DivByZero { pc, sym } => {
                write!(f, "division by zero at ")?;
                fmt_loc(f, *pc, sym)
            }
            SimError::MemFault { pc, addr, sym } => {
                write!(f, "memory fault at ")?;
                fmt_loc(f, *pc, sym)?;
                write!(f, ": address {addr}")
            }
            SimError::BadPc { pc, sym } => {
                write!(f, "control transfer outside code at ")?;
                fmt_loc(f, *pc, sym)
            }
            SimError::StepLimit { limit } => write!(f, "step limit of {limit} exhausted"),
            SimError::UnresolvedPseudo { pc, sym } => {
                write!(f, "unresolved pseudo instruction at ")?;
                fmt_loc(f, *pc, sym)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `exe` to completion with default options.
///
/// # Errors
///
/// See [`SimError`].
pub fn run(exe: &Executable) -> Result<RunResult, SimError> {
    run_with(exe, &SimOptions::default())
}

/// Runs `exe` with explicit [`SimOptions`] on the fast engine
/// ([`crate::exec`]), decoding it first. To run one executable many times,
/// [`decode`](crate::exec::decode) it once and call
/// [`DecodedProgram::run_with`](crate::exec::DecodedProgram::run_with).
///
/// # Errors
///
/// See [`SimError`].
pub fn run_with(exe: &Executable, opts: &SimOptions) -> Result<RunResult, SimError> {
    crate::exec::decode(exe).run_with(opts)
}

/// Runs `exe` on the reference interpreter: the differential-testing
/// oracle for [`run_with`]. It interprets [`Inst`] directly, counts every
/// call straight into the [`RunStats`] maps and charges every cycle to the
/// procedure on top of its shadow stack, sharing no counting code with the
/// fast engine; every observable — [`RunResult`] and [`SimError`] (kind,
/// pc, symbolization) — must equal the fast engine's.
///
/// # Errors
///
/// See [`SimError`].
pub fn run_reference(exe: &Executable, opts: &SimOptions) -> Result<RunResult, SimError> {
    Machine::new(exe, opts).run()
}

// Per-slot attribution state: slot i < nfuncs is function index i, slot
// nfuncs is the startup stub ([`STARTUP_PROC`]). `depth`/`entered_at`
// implement exact inclusive accounting in O(1) per call/return: a slot's
// inclusive window opens when its on-stack count goes 0→1 and closes
// (adding `cycles − entered_at`) when it returns to 0, so recursion is
// counted once.
pub(crate) struct AttrState {
    pub(crate) nfuncs: usize,
    pub(crate) cost: Vec<ProcCost>,
    pub(crate) depth: Vec<u32>,
    pub(crate) entered_at: Vec<u64>,
}

impl AttrState {
    pub(crate) fn new(nfuncs: usize) -> AttrState {
        let slots = nfuncs + 1;
        let mut a = AttrState {
            nfuncs,
            cost: vec![ProcCost::default(); slots],
            depth: vec![0; slots],
            entered_at: vec![0; slots],
        };
        // The startup stub is "active" from cycle 0.
        a.depth[nfuncs] = 1;
        a
    }

    fn slot(&self, func: usize) -> usize {
        if func < self.nfuncs {
            func
        } else {
            self.nfuncs
        }
    }

    /// The cost record of the procedure on top of the shadow stack (the
    /// startup-stub slot when the stack is empty or holds its sentinel).
    fn cur(&mut self, shadow: &[usize]) -> &mut ProcCost {
        let slot = match shadow.last() {
            Some(&f) if f < self.nfuncs => f,
            _ => self.nfuncs,
        };
        &mut self.cost[slot]
    }
}

struct Machine<'a> {
    exe: &'a Executable,
    regs: [i64; Reg::COUNT],
    mem: Vec<i64>,
    pc: usize,
    steps: u64,
    max_steps: u64,
    input: &'a [i64],
    input_pos: usize,
    output: Vec<i64>,
    stats: RunStats,
    // Shadow stack of function indices for call-edge accounting.
    shadow: Vec<usize>,
    // Per-procedure attribution (opt-in; `None` keeps the run untouched).
    attr: Option<AttrState>,
    // Per-pc execution counts (opt-in; `None` keeps the run untouched).
    prof: Option<Vec<u64>>,
    // Linkage roles of the executable's target convention.
    rp: Reg,
    rv: Reg,
}

impl<'a> Machine<'a> {
    fn new(exe: &'a Executable, opts: &'a SimOptions) -> Machine<'a> {
        let mut mem = vec![0i64; opts.mem_words];
        for &(addr, v) in exe.data_init() {
            if (addr as usize) < mem.len() {
                mem[addr as usize] = v;
            }
        }
        // Both supported targets keep the hardwired zero at index 0 (the
        // `get`/`set` suppression below relies on it); the data pointer,
        // stack pointer and link/return roles come from the description.
        let desc = exe.target().desc();
        let mut regs = [0i64; Reg::COUNT];
        regs[desc.dp.index()] = GLOBALS_BASE;
        regs[desc.sp.index()] = opts.mem_words as i64;
        Machine {
            exe,
            regs,
            mem,
            pc: 0,
            steps: 0,
            max_steps: opts.max_steps,
            input: &opts.input,
            input_pos: 0,
            output: Vec::new(),
            stats: RunStats::default(),
            shadow: vec![usize::MAX],
            attr: opts.attribute.then(|| AttrState::new(exe.funcs().len())),
            prof: opts.profile.then(|| vec![0u64; exe.insts().len()]),
            rp: desc.rp,
            rv: desc.rv,
        }
    }

    /// Symbolizes the current pc for a trap.
    fn here(&self) -> Option<String> {
        self.exe.symbolize(self.pc)
    }

    fn get(&self, r: Reg) -> i64 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    fn load(&mut self, base: Reg, disp: i64, singleton: bool) -> Result<i64, SimError> {
        let addr = self.get(base).wrapping_add(disp);
        let v = *self
            .mem
            .get(addr as usize)
            .filter(|_| addr >= 0)
            .ok_or_else(|| SimError::MemFault { pc: self.pc, addr, sym: self.here() })?;
        self.stats.loads += 1;
        if singleton {
            self.stats.singleton_loads += 1;
        }
        if let Some(a) = &mut self.attr {
            let c = a.cur(&self.shadow);
            c.loads += 1;
            if singleton {
                c.singleton_loads += 1;
            }
        }
        Ok(v)
    }

    fn store(&mut self, base: Reg, disp: i64, v: i64, singleton: bool) -> Result<(), SimError> {
        let addr = self.get(base).wrapping_add(disp);
        if addr < 0 || addr as usize >= self.mem.len() {
            return Err(SimError::MemFault { pc: self.pc, addr, sym: self.here() });
        }
        self.mem[addr as usize] = v;
        self.stats.stores += 1;
        if singleton {
            self.stats.singleton_stores += 1;
        }
        if let Some(a) = &mut self.attr {
            let c = a.cur(&self.shadow);
            c.stores += 1;
            if singleton {
                c.singleton_stores += 1;
            }
        }
        Ok(())
    }

    fn record_call(&mut self, entry: usize) {
        self.stats.calls += 1;
        let callee = self.exe.func_at_entry(entry).unwrap_or(usize::MAX);
        let caller = *self.shadow.last().unwrap_or(&usize::MAX);
        *self.stats.call_counts.entry(callee).or_insert(0) += 1;
        *self.stats.call_edges.entry((caller, callee)).or_insert(0) += 1;
        self.shadow.push(callee);
        if let Some(a) = &mut self.attr {
            let slot = a.slot(callee);
            a.cost[slot].calls += 1;
            a.depth[slot] += 1;
            if a.depth[slot] == 1 {
                a.entered_at[slot] = self.stats.cycles;
            }
        }
    }

    /// Closes a procedure's inclusive window if its last activation left the
    /// stack (called when `Bv` pops `func` from the shadow stack).
    fn record_return(&mut self, func: usize) {
        if let Some(a) = &mut self.attr {
            let slot = a.slot(func);
            if a.depth[slot] > 0 {
                a.depth[slot] -= 1;
                if a.depth[slot] == 0 {
                    a.cost[slot].inclusive_cycles += self.stats.cycles - a.entered_at[slot];
                }
            }
        }
    }

    /// Closes every still-open inclusive window (at `HALT`) and builds the
    /// name-keyed attribution.
    fn finish_attribution(&mut self) -> Option<Attribution> {
        let cycles = self.stats.cycles;
        let mut a = self.attr.take()?;
        for slot in 0..a.cost.len() {
            if a.depth[slot] > 0 {
                a.cost[slot].inclusive_cycles += cycles - a.entered_at[slot];
                a.depth[slot] = 0;
            }
        }
        let mut procs = BTreeMap::new();
        for (i, f) in self.exe.funcs().iter().enumerate() {
            procs.insert(f.name.clone(), a.cost[i]);
        }
        procs.insert(STARTUP_PROC.to_string(), a.cost[a.nfuncs]);
        Some(Attribution { procs })
    }

    fn run(mut self) -> Result<RunResult, SimError> {
        let code = self.exe.insts();
        loop {
            if self.steps >= self.max_steps {
                return Err(SimError::StepLimit { limit: self.max_steps });
            }
            let inst = match code.get(self.pc) {
                Some(inst) => inst,
                None => return Err(SimError::BadPc { pc: self.pc, sym: self.here() }),
            };
            self.steps += 1;
            self.stats.cycles += 1;
            if let Some(a) = &mut self.attr {
                a.cur(&self.shadow).cycles += 1;
            }
            if let Some(p) = &mut self.prof {
                p[self.pc] += 1;
            }
            let mut next = self.pc + 1;
            match inst {
                Inst::Ldi { rd, imm } => self.set(*rd, *imm),
                Inst::Copy { rd, rs } => {
                    let v = self.get(*rs);
                    self.set(*rd, v);
                }
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op
                        .eval(self.get(*rs1), self.get(*rs2))
                        .ok_or_else(|| SimError::DivByZero { pc: self.pc, sym: self.here() })?;
                    self.set(*rd, v);
                }
                Inst::Alui { op, rd, rs1, imm } => {
                    let v = op
                        .eval(self.get(*rs1), *imm)
                        .ok_or_else(|| SimError::DivByZero { pc: self.pc, sym: self.here() })?;
                    self.set(*rd, v);
                }
                Inst::Cmp { cond, rd, rs1, rs2 } => {
                    let v = cond.eval(self.get(*rs1), self.get(*rs2)) as i64;
                    self.set(*rd, v);
                }
                Inst::Ldw { rd, base, disp, class } => {
                    let v = self.load(*base, *disp, class.is_singleton())?;
                    self.set(*rd, v);
                }
                Inst::Stw { rs, base, disp, class } => {
                    let v = self.get(*rs);
                    self.store(*base, *disp, v, class.is_singleton())?;
                }
                Inst::CallAbs { entry } => {
                    self.set(self.rp, next as i64);
                    self.record_call(*entry as usize);
                    next = *entry as usize;
                }
                Inst::CallInd { base } => {
                    let entry = self.get(*base);
                    if entry < 0 || entry as usize >= code.len() {
                        return Err(SimError::BadPc { pc: self.pc, sym: self.here() });
                    }
                    self.set(self.rp, next as i64);
                    self.record_call(entry as usize);
                    next = entry as usize;
                }
                Inst::Bv { base } => {
                    let target = self.get(*base);
                    if target < 0 || target as usize >= code.len() {
                        return Err(SimError::BadPc { pc: self.pc, sym: self.here() });
                    }
                    if let Some(func) = self.shadow.pop() {
                        self.record_return(func);
                    }
                    next = target as usize;
                }
                Inst::B { target } => next = target.0 as usize,
                Inst::Comb { cond, rs1, rs2, target } => {
                    if cond.eval(self.get(*rs1), self.get(*rs2)) {
                        next = target.0 as usize;
                    }
                }
                Inst::Out { rs } => self.output.push(self.get(*rs)),
                Inst::In { rd } => {
                    let v = self.input.get(self.input_pos).copied().unwrap_or(-1);
                    self.input_pos += 1;
                    self.set(*rd, v);
                }
                Inst::Halt => {
                    let exit = self.get(self.rv);
                    let attribution = self.finish_attribution();
                    let profile =
                        self.prof.take().map(|pc_counts| crate::profile::ExecProfile { pc_counts });
                    return Ok(RunResult {
                        output: self.output,
                        exit,
                        stats: self.stats,
                        attribution,
                        profile,
                    });
                }
                Inst::Nop => {}
                Inst::Ldg { .. }
                | Inst::Stg { .. }
                | Inst::Lga { .. }
                | Inst::Ldfa { .. }
                | Inst::Call { .. } => {
                    return Err(SimError::UnresolvedPseudo { pc: self.pc, sym: self.here() });
                }
            }
            self.pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, MemClass};
    use crate::program::{link, GlobalDef, MachineFunction, ObjectModule};

    fn exe_of(functions: Vec<MachineFunction>, globals: Vec<GlobalDef>) -> Executable {
        link(&[ObjectModule { name: "t".into(), functions, globals, ..Default::default() }])
            .unwrap()
    }

    #[test]
    fn returns_value_in_rv() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::RV, imm: 17 });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.exit, 17);
        assert!(r.output.is_empty());
        // stub call + ldi + bv + halt
        assert_eq!(r.stats.cycles, 4);
    }

    #[test]
    fn arithmetic_loop_and_output() {
        // sum 1..=10 via a COMB loop, print, return.
        let mut f = MachineFunction::new("main");
        let r_i = Reg::new(19);
        let r_sum = Reg::new(20);
        let r_lim = Reg::new(21);
        f.push(Inst::Ldi { rd: r_i, imm: 1 });
        f.push(Inst::Ldi { rd: r_sum, imm: 0 });
        f.push(Inst::Ldi { rd: r_lim, imm: 10 });
        let top = f.new_label();
        let done = f.new_label();
        f.bind_label(top);
        f.push(Inst::Comb { cond: Cond::Gt, rs1: r_i, rs2: r_lim, target: done });
        f.push(Inst::Alu { op: AluOp::Add, rd: r_sum, rs1: r_sum, rs2: r_i });
        f.push(Inst::Alui { op: AluOp::Add, rd: r_i, rs1: r_i, imm: 1 });
        f.push(Inst::B { target: top });
        f.bind_label(done);
        f.push(Inst::Out { rs: r_sum });
        f.push(Inst::Copy { rd: Reg::RV, rs: r_sum });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.output, vec![55]);
        assert_eq!(r.exit, 55);
    }

    #[test]
    fn globals_load_store_and_accounting() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::new(19),
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::new(19), rs1: Reg::new(19), imm: 5 });
        f.push(Inst::Stg {
            rs: Reg::new(19),
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Bv { base: Reg::RP });
        let g = GlobalDef { sym: "g".into(), size: 1, init: vec![37] };
        let r = run(&exe_of(vec![f], vec![g])).unwrap();
        assert_eq!(r.exit, 42);
        assert_eq!(r.stats.loads, 2);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.singleton_refs(), 3);
    }

    #[test]
    fn calls_are_profiled() {
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        // Save RP in a callee-saves register (we know leaf doesn't touch it).
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 1 });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: Reg::RV });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![leaf, f], vec![]);
        let r = run(&exe).unwrap();
        assert_eq!(r.exit, 3);
        assert_eq!(r.stats.calls, 3); // stub->main, main->leaf ×2
        let leaf_idx = exe.funcs().iter().position(|fi| fi.name == "leaf").unwrap();
        let main_idx = exe.funcs().iter().position(|fi| fi.name == "main").unwrap();
        assert_eq!(r.stats.call_counts[&leaf_idx], 2);
        assert_eq!(r.stats.call_counts[&main_idx], 1);
        assert_eq!(r.stats.call_edges[&(main_idx, leaf_idx)], 2);
        assert_eq!(r.stats.call_edges[&(usize::MAX, main_idx)], 1);
    }

    #[test]
    fn indirect_call_through_function_address() {
        let mut target = MachineFunction::new("target");
        target.push(Inst::Ldi { rd: Reg::RV, imm: 99 });
        target.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldfa { rd: Reg::new(19), func: "target".into() });
        f.push(Inst::CallInd { base: Reg::new(19) });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![target, f], vec![])).unwrap();
        assert_eq!(r.exit, 99);
    }

    #[test]
    fn input_stream_then_minus_one() {
        let mut f = MachineFunction::new("main");
        for _ in 0..3 {
            f.push(Inst::In { rd: Reg::new(19) });
            f.push(Inst::Out { rs: Reg::new(19) });
        }
        f.push(Inst::Bv { base: Reg::RP });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { input: vec![7, 8], ..SimOptions::default() };
        let r = run_with(&exe, &opts).unwrap();
        assert_eq!(r.output, vec![7, 8, -1]);
    }

    #[test]
    fn traps() {
        // Division by zero.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Alu { op: AluOp::Div, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::ZERO });
        assert!(matches!(run(&exe_of(vec![f], vec![])), Err(SimError::DivByZero { .. })));

        // Memory fault.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: -1, class: MemClass::Indirect });
        assert!(matches!(run(&exe_of(vec![f], vec![])), Err(SimError::MemFault { .. })));

        // Step limit.
        let mut f = MachineFunction::new("main");
        let l = f.new_label();
        f.bind_label(l);
        f.push(Inst::B { target: l });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { max_steps: 100, ..SimOptions::default() };
        assert_eq!(run_with(&exe, &opts), Err(SimError::StepLimit { limit: 100 }));
    }

    #[test]
    fn attribution_is_exact_and_cycle_neutral() {
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 1 });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: Reg::RV });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![leaf, f], vec![]);
        let plain = run(&exe).unwrap();
        let attributed =
            run_with(&exe, &SimOptions { attribute: true, ..SimOptions::default() }).unwrap();
        // Attribution never perturbs the run.
        assert_eq!(plain.stats, attributed.stats);
        assert_eq!(plain.output, attributed.output);
        assert_eq!(plain.exit, attributed.exit);
        assert!(plain.attribution.is_none());

        let a = attributed.attribution.unwrap();
        assert!(a.matches(&attributed.stats), "{a:?}");
        let leaf = a.get("leaf").unwrap();
        assert_eq!(leaf.calls, 2);
        assert_eq!(leaf.cycles, 4); // two instructions × two activations
        let main = a.get("main").unwrap();
        assert_eq!(main.calls, 1);
        assert_eq!(main.cycles, 7);
        // main's inclusive window covers both leaf activations.
        assert_eq!(main.inclusive_cycles, main.cycles + leaf.cycles);
        // The startup stub is on-stack for the whole run.
        let stub = a.get(STARTUP_PROC).unwrap();
        assert_eq!(stub.inclusive_cycles, attributed.stats.cycles);
        assert_eq!(stub.cycles, 2); // CALL main + HALT
    }

    #[test]
    fn recursion_counts_inclusive_cycles_once() {
        // rec(n): if n != 0 { rec(n - 1) }, with RP saved on the stack.
        let mut rec = MachineFunction::new("rec");
        let done = rec.new_label();
        rec.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
        rec.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        rec.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::ARGS[0], rs2: Reg::ZERO, target: done });
        rec.push(Inst::Alui { op: AluOp::Sub, rd: Reg::ARGS[0], rs1: Reg::ARGS[0], imm: 1 });
        rec.push(Inst::Call { target: "rec".into() });
        rec.bind_label(done);
        rec.push(Inst::Ldw { rd: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        rec.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
        rec.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 3 });
        f.push(Inst::Call { target: "rec".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![rec, f], vec![]);
        let r = run_with(&exe, &SimOptions { attribute: true, ..SimOptions::default() }).unwrap();
        let a = r.attribution.unwrap();
        assert!(a.matches(&r.stats), "{a:?}");
        let rec = a.get("rec").unwrap();
        assert_eq!(rec.calls, 4); // n = 3, 2, 1, 0
                                  // One inclusive window spanning all nested activations — not four.
        assert!(rec.inclusive_cycles >= rec.cycles);
        assert!(rec.inclusive_cycles < r.stats.cycles);
        let main = a.get("main").unwrap();
        assert!(main.inclusive_cycles > rec.inclusive_cycles);
    }

    #[test]
    fn traps_are_symbolized() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(19), imm: 0 });
        f.push(Inst::Alu { op: AluOp::Div, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::new(19) });
        let err = run(&exe_of(vec![f], vec![])).unwrap_err();
        match &err {
            SimError::DivByZero { sym, .. } => assert_eq!(sym.as_deref(), Some("main+1")),
            other => panic!("expected DivByZero, got {other:?}"),
        }
        assert!(err.to_string().contains("main+1"), "{err}");

        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: -1, class: MemClass::Indirect });
        let err = run(&exe_of(vec![f], vec![])).unwrap_err();
        match &err {
            SimError::MemFault { sym, .. } => assert_eq!(sym.as_deref(), Some("main+0")),
            other => panic!("expected MemFault, got {other:?}"),
        }
        assert!(err.to_string().contains("main+0"), "{err}");
    }

    #[test]
    fn tiny_memory_faults_cleanly_on_stack_use() {
        // A function that needs a frame cannot run in a 32-word machine
        // whose stack pointer starts at 32 but whose frame store lands
        // in-bounds... shrink further so the global segment collides.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 8 });
        f.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::SP, disp: 100, class: MemClass::Frame });
        f.push(Inst::Bv { base: Reg::RP });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { mem_words: 64, ..SimOptions::default() };
        assert!(matches!(run_with(&exe, &opts), Err(SimError::MemFault { .. })));
    }

    #[test]
    fn writes_to_r0_are_ignored() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::ZERO, imm: 123 });
        f.push(Inst::Copy { rd: Reg::RV, rs: Reg::ZERO });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.exit, 0);
    }
}
