//! Artifact file handling for `cminc`: loaders and writers for the
//! versioned [`ipra_artifact`] formats (`.csum`/`.cdir`/`.vo`/`.vx`/`.vlib`),
//! which judge a file's kind by its header rather than its name, plus the
//! `c`, `lib` and `objdump` subcommands.

use crate::{flag_value, module_name, positionals, read};
use ipra_artifact::{
    ArtifactKind, DirectivesArtifact, ExecutableArtifact, LibraryArtifact, LibraryMember,
    ObjectArtifact, SummaryArtifact,
};
use ipra_core::ProgramDatabase;
use ipra_driver::SourceFile;
use ipra_summary::ModuleSummary;
use serde::Deserialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vpr::inst::Inst;
use vpr::program::{Executable, ObjectModule};
use vpr::regs::RegSet;
use vpr::target::{TargetDesc, TargetId};

fn artifact_err(e: ipra_artifact::ArtifactError) -> String {
    e.to_string()
}

/// Reads the file at `path` and the artifact kind its header declares. A
/// file without an artifact header is an error naming the path.
fn read_artifact(path: &str) -> Result<(ArtifactKind, String), String> {
    let text = read(path)?;
    let (kind, _, _) = ipra_artifact::sniff(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((kind, text))
}

/// Decodes artifact `text` read from `path` as `kind`.
fn decode<T: Deserialize>(path: &str, kind: ArtifactKind, text: &str) -> Result<T, String> {
    ipra_artifact::decode(kind, text).map_err(|e| format!("{path}: {e}"))
}

/// Reads the artifact at `path`, which must be of `kind`.
fn load<T: Deserialize>(path: &str, kind: ArtifactKind) -> Result<T, String> {
    decode(path, kind, &read(path)?)
}

/// Reads module summaries from one input file: a `.csum` artifact, or a
/// `.vlib` archive (all member summaries, in archive order).
pub fn load_summaries(path: &str) -> Result<Vec<ModuleSummary>, String> {
    match read_artifact(path)? {
        (ArtifactKind::Summary, text) => {
            let a: SummaryArtifact = decode(path, ArtifactKind::Summary, &text)?;
            Ok(vec![a.summary])
        }
        (ArtifactKind::Library, text) => {
            let a: LibraryArtifact = decode(path, ArtifactKind::Library, &text)?;
            Ok(a.members.into_iter().map(|m| m.summary).collect())
        }
        (k, _) => Err(format!("{path}: expected a summary or library artifact, found {k}")),
    }
}

/// Reads one relocatable object (a `.vo` artifact).
pub fn load_object(path: &str) -> Result<ObjectModule, String> {
    Ok(load::<ObjectArtifact>(path, ArtifactKind::Object)?.object)
}

/// Reads a program database (a `.cdir` artifact).
pub fn load_database(path: &str) -> Result<ProgramDatabase, String> {
    Ok(load::<DirectivesArtifact>(path, ArtifactKind::Directives)?.database)
}

/// Writes a program database as a `.cdir` artifact, its header stamped for
/// `target`: the directive registers are target-specific, so `objdump`
/// needs the provenance.
pub fn write_database_for(
    path: &str,
    config: &str,
    database: &ProgramDatabase,
    target: TargetId,
) -> Result<(), String> {
    let payload = DirectivesArtifact { config: config.to_string(), database: database.clone() };
    ipra_artifact::write_file_for(ArtifactKind::Directives, Path::new(path), &payload, target)
        .map_err(artifact_err)
}

/// Reads an executable (a `.vx` artifact, whatever the file is named).
pub fn load_executable(path: &str) -> Result<Executable, String> {
    Ok(load::<ExecutableArtifact>(path, ArtifactKind::Executable)?.exe)
}

/// Writes an executable as a `.vx` artifact, whatever the file is named.
pub fn write_executable(path: &str, exe: &Executable) -> Result<(), String> {
    ipra_artifact::write_file_for(
        ArtifactKind::Executable,
        Path::new(path),
        &ExecutableArtifact { exe: exe.clone() },
        exe.target(),
    )
    .map_err(artifact_err)
}

/// Opens the compilation cache: persistent when `--cache-dir` is given,
/// in-memory (useless across processes, but harmless) otherwise.
pub fn open_cache(args: &[String]) -> Result<ipra_driver::CompilationCache, String> {
    match flag_value(args, "--cache-dir") {
        Some(dir) => ipra_driver::CompilationCache::with_disk(&dir)
            .map_err(|e| format!("--cache-dir {dir}: {e}")),
        None => Ok(ipra_driver::CompilationCache::new()),
    }
}

/// `cminc c`: separate compilation of one module — phase 1 + phase 2 under
/// the directives in `--dir` (standard conventions without it), writing the
/// `.vo` object and, beside it unless `--summary` says otherwise, the
/// `.csum` summary. With `--cache-dir`, both phases are
/// served from the persistent cache when their fingerprints still match.
pub fn c_cmd(args: &[String]) -> Result<(), String> {
    let files = positionals(args);
    let [src_path] = files.as_slice() else {
        return Err("c takes exactly one source file".into());
    };
    let stem = module_name(src_path);
    let out = flag_value(args, "-o").unwrap_or(format!("{stem}.vo"));
    // The summary lands beside the object, where `lib` looks for it.
    let sum_out = flag_value(args, "--summary")
        .unwrap_or_else(|| Path::new(&out).with_extension("csum").display().to_string());
    let database = match flag_value(args, "--dir") {
        Some(p) => load_database(&p)?,
        None => ProgramDatabase::new(),
    };
    let target = crate::parse_target(args)?;
    let cache = open_cache(args)?;
    let src = SourceFile::new(stem, read(src_path)?);
    let product = ipra_driver::separate::build_module_for(&src, &database, true, &cache, target)
        .map_err(|e| e.to_string())?;
    // The object carries machine code for `target`; the summary is phase-1
    // output (target-independent) and stays unstamped.
    ipra_artifact::write_file_for(ArtifactKind::Object, Path::new(&out), &product.object, target)
        .map_err(artifact_err)?;
    ipra_artifact::write_file(ArtifactKind::Summary, Path::new(&sum_out), &product.summary)
        .map_err(artifact_err)?;
    let leg = |hit: bool| if hit { "hit" } else { "miss" };
    eprintln!(
        "c: {src_path} -> {out}, {sum_out} (phase1 {}, phase2 {})",
        leg(product.phase1_hit),
        leg(product.phase2_hit)
    );
    Ok(())
}

/// `cminc lib`: archives `.vo` objects (each with its sibling `.csum`
/// summary) into a `.vlib` library, in argument order.
pub fn lib_cmd(args: &[String]) -> Result<(), String> {
    let objs = positionals(args);
    if objs.is_empty() {
        return Err("lib needs at least one .vo object file".into());
    }
    let out = flag_value(args, "-o").ok_or("lib needs -o <lib.vlib>")?;
    let mut members = Vec::with_capacity(objs.len());
    for o in &objs {
        let object = load_object(o)?;
        let sum_path = PathBuf::from(o).with_extension("csum");
        let summary: SummaryArtifact = ipra_artifact::read_file(ArtifactKind::Summary, &sum_path)
            .map_err(|e| {
            format!("{o}: library members need their summary ({}): {e}", sum_path.display())
        })?;
        members.push(LibraryMember { object, summary: summary.summary });
    }
    let lib = LibraryArtifact { members };
    ipra_artifact::write_file(ArtifactKind::Library, Path::new(&out), &lib)
        .map_err(artifact_err)?;
    eprintln!("lib: {} member(s) -> {out}", lib.members.len());
    Ok(())
}

/// Splits `link` inputs into root objects and library archives, pulling
/// needed library members ar-style (to fixpoint across all libraries).
pub fn collect_link_inputs(paths: &[String]) -> Result<Vec<ObjectModule>, String> {
    let mut roots = Vec::new();
    let mut library = LibraryArtifact::default();
    for p in paths {
        match read_artifact(p)? {
            (ArtifactKind::Library, text) => {
                let a: LibraryArtifact = decode(p, ArtifactKind::Library, &text)?;
                library.members.extend(a.members);
            }
            (ArtifactKind::Object, text) => {
                roots.push(decode::<ObjectArtifact>(p, ArtifactKind::Object, &text)?.object);
            }
            (k, _) => {
                return Err(format!("{p}: expected an object or library artifact, found {k}"))
            }
        }
    }
    for i in library.select(&roots) {
        roots.push(library.members[i].object.clone());
    }
    Ok(roots)
}

// ---------------------------------------------------------------------------
// objdump.

/// `cminc objdump <file>`: pretty-prints any of the five artifact kinds.
pub fn objdump_cmd(args: &[String]) -> Result<(), String> {
    let files = positionals(args);
    let [path] = files.as_slice() else {
        return Err("objdump takes exactly one artifact file".into());
    };
    let (kind, version, target) =
        ipra_artifact::sniff_file(Path::new(path)).map_err(artifact_err)?;
    println!("{path}: {kind} artifact v{version} (target {target})");
    let p = Path::new(path);
    match kind {
        ArtifactKind::Summary => {
            let a: SummaryArtifact = ipra_artifact::read_file(kind, p).map_err(artifact_err)?;
            println!("source fnv64:{:016x}  ir fnv64:{:016x}", a.source_fp, a.ir_fp);
            print!("{}", dump_summary(&a.summary));
        }
        ArtifactKind::Directives => {
            let a: DirectivesArtifact = ipra_artifact::read_file(kind, p).map_err(artifact_err)?;
            println!("config {}  ({} procedures)", a.config, a.database.len());
            // The directive registers are target-specific; the header
            // stamp names which convention to render them in.
            print!("{}", dump_directives(&a.database, target.desc()));
        }
        ArtifactKind::Object => {
            let a: ObjectArtifact = ipra_artifact::read_file(kind, p).map_err(artifact_err)?;
            println!("ir fnv64:{:016x}  directives fnv64:{:016x}", a.ir_fp, a.dir_fp);
            print!("{}", dump_object(&a.object));
        }
        ArtifactKind::Executable => {
            let a: ExecutableArtifact = ipra_artifact::read_file(kind, p).map_err(artifact_err)?;
            print!("{}", dump_executable(&a.exe));
        }
        ArtifactKind::Library => {
            let a: LibraryArtifact = ipra_artifact::read_file(kind, p).map_err(artifact_err)?;
            for (i, m) in a.members.iter().enumerate() {
                let funcs: Vec<&str> = m.object.functions.iter().map(|f| f.name()).collect();
                let globals: Vec<&str> = m.object.globals.iter().map(|g| g.sym.as_str()).collect();
                println!(
                    "member {i}: module {} defines [{}] globals [{}]",
                    m.object.name,
                    funcs.join(" "),
                    globals.join(" ")
                );
            }
        }
    }
    Ok(())
}

fn dump_summary(s: &ModuleSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module {}: {} procedure(s), {} global(s)",
        s.module,
        s.procs.len(),
        s.globals.len()
    );
    for g in &s.globals {
        let _ = writeln!(out, "  global {g:?}");
    }
    for p in &s.procs {
        let _ = writeln!(
            out,
            "  proc {}: callee-saves est {}, caller-saves est {}{}",
            p.name,
            p.callee_saves_estimate,
            p.caller_saves_estimate,
            if p.makes_indirect_calls { ", makes indirect calls" } else { "" }
        );
        for c in &p.calls {
            let _ = writeln!(out, "    call {c:?}");
        }
        for r in &p.global_refs {
            let _ = writeln!(out, "    ref  {r:?}");
        }
        for t in &p.taken_addresses {
            let _ = writeln!(out, "    addr-taken {t}");
        }
    }
    out
}

/// Renders a register set with the target's ABI names (`{a0, s3}`).
fn fmt_regset(set: RegSet, desc: &TargetDesc) -> String {
    let names: Vec<&str> = set.iter().map(|r| desc.reg_name(r)).collect();
    format!("{{{}}}", names.join(", "))
}

fn dump_directives(db: &ProgramDatabase, desc: &TargetDesc) -> String {
    let mut out = String::new();
    for d in db.iter() {
        let _ = writeln!(
            out,
            "proc {:<16} mspill {}{}  claimed {}  safe-across {}",
            d.name,
            fmt_regset(d.usage.mspill, desc),
            if d.is_cluster_root { "  cluster-root" } else { "" },
            fmt_regset(d.claimed_caller, desc),
            fmt_regset(d.safe_caller_across, desc)
        );
        for p in &d.promotions {
            let _ = writeln!(
                out,
                "  promote {:<14} -> {}{}{}",
                p.sym,
                desc.reg_name(p.reg),
                if p.is_entry { "  (entry: load here)" } else { "" },
                if p.store_at_exit { "  (store at exit)" } else { "" }
            );
        }
    }
    out
}

fn dump_object(m: &ObjectModule) -> String {
    let desc = m.target.desc();
    let mut out = String::new();
    let _ = writeln!(out, "module {} (target {})", m.name, m.target);
    for g in &m.globals {
        let _ = writeln!(out, "global {} ({} words)", g.sym, g.size);
    }
    for f in &m.functions {
        out.push_str(&vpr::asm::function_asm_for(f, desc));
    }
    let relocs = m.relocations();
    let _ = writeln!(out, "; {} relocation(s)", relocs.len());
    for r in &relocs {
        let _ = writeln!(out, ";   {}+{}: {} {}", r.func, r.inst, r.kind, r.sym);
    }
    let symbols = m.symbol_table();
    let list = |set: &std::collections::BTreeSet<String>| {
        set.iter().cloned().collect::<Vec<_>>().join(" ")
    };
    let _ = writeln!(out, "; defines funcs [{}]", list(&symbols.defined_funcs));
    let _ = writeln!(out, "; defines globals [{}]", list(&symbols.defined_globals));
    let _ = writeln!(out, "; needs funcs [{}]", list(&symbols.undefined_funcs));
    let _ = writeln!(out, "; needs globals [{}]", list(&symbols.undefined_globals));
    out
}

/// Linked disassembly with call targets symbolized back to `proc+offset`
/// through [`Executable::symbolize`].
fn dump_executable(exe: &Executable) -> String {
    let desc = exe.target().desc();
    let mut out = String::new();
    for (pc, inst) in exe.insts().iter().enumerate() {
        if let Some(fi) = exe.funcs().iter().find(|fi| fi.entry == pc) {
            let _ = writeln!(out, "\n{}:  ; @{}", fi.name, fi.entry);
        }
        let _ = write!(out, "  {pc:6}  {}", vpr::asm::inst_asm(inst, desc));
        if let Inst::CallAbs { entry } = inst {
            if let Some(sym) = exe.symbolize(*entry as usize) {
                let _ = write!(out, "  ; -> {sym}");
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "\n; --- data ---");
    for g in exe.globals() {
        let _ = writeln!(out, ";   {} @ {} ({} words)", g.sym, g.addr, g.size);
    }
    out
}
