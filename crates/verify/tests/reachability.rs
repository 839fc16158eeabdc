//! Whole-program closure tests: machine reachability and the memory-access
//! closure on a program whose call chain runs *against* definition order.
//!
//! `main` is defined first and calls the last-defined link of a chain
//! `p6 -> p5 -> … -> p1`, each link defined before its caller. The only
//! `LDFA` in the program sits in `p1`, the link reached last; `p5`, reached
//! early, makes an indirect call through the pointer the chain returns.
//! So `victim`, the `LDFA` target, becomes reachable only once the whole
//! chain has been walked, and then only through an indirect call site that
//! was visited long before. `victim` is the entry of a written web for
//! `gv` and calls `deep1 -> deep2`, defined caller-first. Whatever order
//! the verifier's closures visit procedures in, both must reach the same
//! fixpoint as the definitional one.

use ipra_core::{ProcDirectives, ProgramDatabase, Promotion};
use ipra_verify::{verify_modules, DiagKind, VerifyReport};
use vpr::inst::{AluOp, Inst, MemClass};
use vpr::program::{MachineFunction, ObjectModule};
use vpr::regs::Reg;
use vpr::target::TargetId;

/// Chain length: `p1` … `p6`.
const CHAIN: usize = 6;

/// A procedure that saves `saves` in a frame, runs `body` and returns.
fn framed(name: &str, saves: &[Reg], body: Vec<Inst>) -> MachineFunction {
    let mut f = MachineFunction::new(name);
    let frame = saves.len() as i64;
    if frame > 0 {
        f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: frame });
    }
    for (k, &r) in saves.iter().enumerate() {
        let class = if r == Reg::RP { MemClass::Frame } else { MemClass::Spill };
        f.push(Inst::Stw { rs: r, base: Reg::SP, disp: k as i64, class });
    }
    for i in body {
        f.push(i);
    }
    for (k, &r) in saves.iter().enumerate().rev() {
        let class = if r == Reg::RP { MemClass::Frame } else { MemClass::Spill };
        f.push(Inst::Ldw { rd: r, base: Reg::SP, disp: k as i64, class });
    }
    if frame > 0 {
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: frame });
    }
    f.push(Inst::Bv { base: Reg::RP });
    f
}

fn call(target: &str) -> Inst {
    Inst::Call { target: target.into() }
}

/// The home register of `gv` inside `victim`'s web.
const HOME: u8 = 5;

/// Where to inject a fault into the clean program.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// `deep2` reads `gv`'s memory home: `victim` reaches it through
    /// `deep1` while its register copy is newer.
    WebEscape,
    /// `p1` stores to `gv` through a pointer. `gv` is promoted only in
    /// `victim`, so the store matters only if `victim` is reachable.
    IndirectStore,
}

/// An indirect store to `gv`: take its address, write through it.
fn store_through_pointer() -> Vec<Inst> {
    let p = Reg::new(19);
    vec![
        Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
        Inst::Stw { rs: Reg::ZERO, base: p, disp: 0, class: MemClass::Indirect },
    ]
}

fn program(fault: Fault) -> (Vec<ObjectModule>, ProgramDatabase) {
    let home = Reg::new(HOME);
    let mut funcs = vec![framed("main", &[Reg::RP], vec![call(&format!("p{CHAIN}"))])];
    for k in 1..=CHAIN {
        let name = format!("p{k}");
        let f = match k {
            // The only LDFA: hand `victim`'s address back up the chain.
            1 => {
                let mut body = vec![Inst::Ldfa { rd: Reg::RV, func: "victim".into() }];
                if fault == Fault::IndirectStore {
                    body.extend(store_through_pointer());
                }
                framed(&name, &[], body)
            }
            // Call down the chain, then through the returned pointer.
            k if k == CHAIN - 1 => framed(
                &name,
                &[Reg::RP],
                vec![call(&format!("p{}", k - 1)), Inst::CallInd { base: Reg::RV }],
            ),
            k => framed(&name, &[Reg::RP], vec![call(&format!("p{}", k - 1))]),
        };
        funcs.push(f);
    }
    // The web entry: load the home, write it, call out, store it back.
    funcs.push(framed(
        "victim",
        &[Reg::RP, home],
        vec![
            Inst::Ldg { rd: home, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
            Inst::Alui { op: AluOp::Add, rd: home, rs1: home, imm: 1 },
            call("deep1"),
            Inst::Stg { rs: home, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
        ],
    ));
    funcs.push(framed("deep1", &[Reg::RP], vec![call("deep2")]));
    let deep2 = match fault {
        Fault::WebEscape => vec![Inst::Ldg {
            rd: Reg::RV,
            sym: "gv".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        }],
        _ => vec![Inst::Ldi { rd: Reg::RV, imm: 1 }],
    };
    funcs.push(framed("deep2", &[], deep2));
    // Never called and never address-taken: its pointer store to `gv`
    // cannot execute, so it must not be reported.
    funcs.push(framed("dead", &[], store_through_pointer()));

    let module =
        ObjectModule { name: "t".into(), functions: funcs, globals: vec![], ..Default::default() };
    let mut db = ProgramDatabase::new();
    let mut v = ProcDirectives::standard_for("victim", TargetId::Vpr);
    v.promotions.push(Promotion {
        sym: "gv".into(),
        reg: home,
        is_entry: true,
        store_at_exit: true,
    });
    db.insert(v);
    (vec![module], db)
}

fn verify(fault: Fault) -> VerifyReport {
    let (modules, db) = program(fault);
    verify_modules(&modules, &db)
}

#[test]
fn chain_against_definition_order_verifies_clean() {
    let report = verify(Fault::None);
    assert!(report.is_clean(), "got:\n{report}");
    assert_eq!(report.procs, CHAIN + 5);
}

#[test]
fn web_escape_behind_a_late_indirect_target_is_found() {
    let report = verify(Fault::WebEscape);
    let kinds: Vec<DiagKind> = report.diagnostics.iter().map(|d| d.kind).collect();
    assert_eq!(kinds, vec![DiagKind::WebEscape], "got:\n{report}");
    let d = &report.diagnostics[0];
    assert_eq!(d.proc, "victim", "{d}");
    assert!(d.detail.contains("deep1") && d.detail.contains("gv"), "{d}");
}

#[test]
fn indirect_store_is_checked_once_the_web_is_reachable() {
    let report = verify(Fault::IndirectStore);
    let kinds: Vec<DiagKind> = report.diagnostics.iter().map(|d| d.kind).collect();
    assert_eq!(kinds, vec![DiagKind::IndirectStoreToPromoted], "got:\n{report}");
    assert_eq!(report.diagnostics[0].proc, "p1", "{report}");
}
