//! # ipra-workloads — the benchmark suite (paper Table 3)
//!
//! Seven multi-module `cmin` programs shaped after the paper's benchmarks:
//! the same size classes, call-intensity profiles and global-variable usage
//! styles, so the analyzer faces the same kinds of call graphs the
//! prototype did. Each workload carries a default input (used by the
//! tables harness) and a smaller training input for the profile-fed
//! configurations.
//!
//! [`generator`] additionally provides a seeded random-program generator
//! used by the differential test suite, and [`scaled`] builds deterministic
//! N-module programs for the compile-time benchmark.

#![warn(missing_docs)]

pub mod generator;
pub mod scaled;

use ipra_driver::SourceFile;

/// A named multi-module benchmark with its inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (matches the paper's Table 3 where applicable).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Source modules.
    pub sources: Vec<SourceFile>,
    /// Input for measured runs.
    pub input: Vec<i64>,
    /// Smaller training input for profile collection (configs B/F).
    pub training_input: Vec<i64>,
}

macro_rules! module {
    ($name:literal) => {
        SourceFile::new($name, include_str!(concat!("programs/", $name, ".cmin")))
    };
}

/// The Dhrystone-like synthetic CPU benchmark (Table 3: 380 LoC).
pub fn dhrystone() -> Workload {
    Workload {
        name: "dhrystone",
        description: "synthetic CPU benchmark, record bank + hot scalar globals",
        sources: vec![module!("dhrystone"), module!("dhrystone2")],
        input: vec![300],
        training_input: vec![40],
    }
}

/// Deterministic pseudo-text for fgrep: lowercase words with the planted
/// patterns sprinkled in, one symbol per input value, newline = 10.
fn fgrep_text(lines: usize, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut next = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut text = Vec::new();
    let plants: [&[i64]; 4] = [&[116, 104, 101], &[97, 110, 100], &[114, 105, 110, 103], &[97, 98]];
    for line in 0..lines {
        let words = 3 + next(8) as usize;
        for w in 0..words {
            if w > 0 {
                text.push(32);
            }
            // Every few words, plant a pattern.
            if next(5) == 0 {
                text.extend_from_slice(plants[(line + w) % plants.len()]);
            }
            let len = 2 + next(6);
            for _ in 0..len {
                text.push(97 + next(26) as i64);
            }
        }
        text.push(10);
    }
    text
}

/// The text pattern matching tool (Table 3: 460 LoC).
pub fn fgrep() -> Workload {
    Workload {
        name: "fgrep",
        description: "multi-pattern text scanner, hot cursor/limit globals",
        sources: vec![module!("fgrep"), module!("fgrep_match")],
        input: fgrep_text(400, 99),
        training_input: fgrep_text(40, 7),
    }
}

/// The Othello game program (Table 3: 800 LoC).
pub fn othello() -> Workload {
    Workload {
        name: "othello",
        description: "greedy self-play Othello, ray-walking move evaluator",
        sources: vec![module!("othello"), module!("othello_eval")],
        input: vec![120],
        training_input: vec![16],
    }
}

/// The War card game (Table 3: 1500 LoC class).
pub fn war() -> Workload {
    Workload {
        name: "war",
        description: "card game over circular-buffer hands, queue-cursor globals",
        sources: vec![module!("war"), module!("war_deck")],
        input: vec![2000, 12345],
        training_input: vec![150, 999],
    }
}

/// The code repositioning tool (Table 3: 2700 LoC class).
pub fn crtool() -> Workload {
    Workload {
        name: "crtool",
        description: "Pettis–Hansen-style block chaining over a synthetic CFG",
        sources: vec![module!("crtool"), module!("crtool_graph")],
        input: vec![160, 777],
        training_input: vec![24, 5],
    }
}

/// Deterministic Proto C source text (`v = expr;` statements) as a symbol
/// stream. Expressions are well-formed with bounded nesting.
fn protoc_program(statements: usize, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut next_fn = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    fn emit_expr(text: &mut Vec<i64>, next: &mut dyn FnMut(u64) -> u64, depth: u64) {
        emit_term(text, next, depth);
        let tails = next(3);
        for _ in 0..tails {
            text.push(if next(2) == 0 { 43 } else { 45 }); // + or -
            emit_term(text, next, depth);
        }
    }
    fn emit_term(text: &mut Vec<i64>, next: &mut dyn FnMut(u64) -> u64, depth: u64) {
        emit_factor(text, next, depth);
        let tails = next(2);
        for _ in 0..tails {
            // The VM defines x/0 = 0, but divisions here still use nonzero
            // literal divisors so constant folding stays busy.
            if next(4) == 0 {
                text.push(47); // '/'
                let d = 1 + next(9);
                for ch in d.to_string().bytes() {
                    text.push(ch as i64);
                }
            } else {
                text.push(42); // '*'
                emit_factor(text, next, depth);
            }
        }
    }
    fn emit_factor(text: &mut Vec<i64>, next: &mut dyn FnMut(u64) -> u64, depth: u64) {
        if depth > 0 && next(4) == 0 {
            text.push(40); // '('
            emit_expr(text, next, depth - 1);
            text.push(41); // ')'
        } else if next(3) == 0 {
            text.push(97 + next(26) as i64); // variable
        } else {
            let n = next(100);
            for ch in n.to_string().bytes() {
                text.push(ch as i64);
            }
        }
    }
    let mut text: Vec<i64> = Vec::new();
    for _ in 0..statements {
        text.push(97 + next_fn(26) as i64); // target variable
        text.push(32);
        text.push(61); // '='
        text.push(32);
        emit_expr(&mut text, &mut next_fn, 3);
        text.push(59); // ';'
        text.push(10);
    }
    text
}

/// The Proto C compiler compiling a program (Table 3: 6600 LoC class).
pub fn protoc() -> Workload {
    Workload {
        name: "protoc",
        description: "mini compiler + stack VM, written to exploit global register variables",
        sources: vec![module!("protoc"), module!("protoc_lex"), module!("protoc_gen")],
        input: protoc_program(220, 4242),
        training_input: protoc_program(25, 11),
    }
}

/// The optimizer-as-workload (Table 3: the 85000 LoC PA optimizer class).
pub fn paopt() -> Workload {
    Workload {
        name: "paopt",
        description:
            "multi-pass optimizer over a synthetic program, dozens of cross-module globals",
        sources: vec![module!("paopt"), module!("paopt_ir"), module!("paopt_passes")],
        input: vec![60, 40, 424242],
        training_input: vec![8, 16, 31],
    }
}

/// Every workload, in the paper's Table 3 order.
pub fn all() -> Vec<Workload> {
    vec![dhrystone(), fgrep(), othello(), war(), crtool(), protoc(), paopt()]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_core::PaperConfig;
    use ipra_driver::{compile, interpret_sources, run_program, CompileOptions};

    /// Every workload must run identically under the interpreter and under
    /// the compiled L2 baseline, on the training input.
    #[test]
    fn workloads_match_interpreter_on_training_input() {
        for w in all() {
            let oracle = interpret_sources(&w.sources, &w.training_input)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
                .unwrap_or_else(|e| panic!("{}: interp trap {e}", w.name));
            let program = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let r = run_program(&program, &w.training_input)
                .unwrap_or_else(|e| panic!("{}: sim trap {e}", w.name));
            assert_eq!(r.output, oracle.output, "{} output", w.name);
            assert_eq!(r.exit, oracle.exit, "{} exit", w.name);
            assert!(!r.output.is_empty(), "{} must produce output", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("dhrystone").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(all().len(), 7);
    }

    /// Every workload under every analyzer configuration produces the same
    /// observable output on the training input, and every configuration's
    /// machine code passes the register-discipline verifier.
    #[test]
    fn workloads_agree_across_all_configs() {
        for w in all() {
            let baseline = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let report = ipra_driver::verify_program(&baseline);
            assert!(report.is_clean(), "{}/L2 failed verification:\n{report}", w.name);
            let expect = run_program(&baseline, &w.training_input)
                .unwrap_or_else(|e| panic!("{}: sim trap {e}", w.name));
            for config in PaperConfig::ALL_WITH_ALIAS {
                if config == PaperConfig::L2 {
                    continue;
                }
                let program = ipra_driver::compile_configured(
                    &w.sources,
                    config,
                    &w.training_input,
                    &CompileOptions::default(),
                    &ipra_driver::CompilationCache::new(),
                )
                .unwrap_or_else(|e| panic!("{}/{config}: {e}", w.name))
                .unwrap_or_else(|e| panic!("{}/{config}: trap {e}", w.name));
                let report = ipra_driver::verify_program(&program);
                assert!(report.is_clean(), "{}/{config} failed verification:\n{report}", w.name);
                let r = run_program(&program, &w.training_input)
                    .unwrap_or_else(|e| panic!("{}/{config}: sim trap {e}", w.name));
                assert_eq!(r.output, expect.output, "{}/{config} output", w.name);
                assert_eq!(r.exit, expect.exit, "{}/{config} exit", w.name);
            }
        }
    }

    /// Workloads that self-check (paopt's digest, crtool's cost
    /// comparison) must report success.
    #[test]
    fn workload_self_checks_pass() {
        let w = paopt();
        let p = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let r = run_program(&p, &w.training_input).unwrap();
        assert_eq!(*r.output.last().unwrap(), 1, "paopt digest mismatch: {:?}", r.output);
        // The optimizer must actually shrink the program.
        assert!(r.output[1] < r.output[0], "paopt did not optimize: {:?}", r.output);

        let w = crtool();
        let p = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let r = run_program(&p, &w.training_input).unwrap();
        assert_eq!(*r.output.last().unwrap(), 1, "crtool cost grew: {:?}", r.output);

        let w = fgrep();
        let p = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let r = run_program(&p, &w.training_input).unwrap();
        // total_lines (output[n-7]) and at least one match.
        let n = r.output.len();
        assert!(r.output[n - 6] > 0, "fgrep saw no lines: {:?}", r.output);
        assert!(r.output[n - 5] > 0, "fgrep found no matches: {:?}", r.output);
    }
}
