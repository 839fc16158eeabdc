//! End-to-end test of the `cminc` command-line driver: the full file-based
//! Figure 1 pipeline over artifacts — `c` per module, `analyze`, `c --dir`
//! per module, `link`, `run` — plus the profile round trip and the
//! one-shot `build`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cminc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cminc"))
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cminc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const LIB_SRC: &str = "static int calls;
int total;
int add_in(int v) { calls = calls + 1; total = total + v; return total; }
int call_count() { return calls; }";

const MAIN_SRC: &str = "extern int total;
extern int add_in(int);
extern int call_count();
int main() {
    int v = in();
    while (v >= 0) { add_in(v); v = in(); }
    out(total);
    out(call_count());
    return total;
}";

/// Runs `cminc` in `dir` and asserts it succeeded.
fn ok(dir: &Path, args: &[&str]) -> Output {
    let out = cminc().current_dir(dir).args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The Figure 1 pipeline over artifacts: `c` per module (phase 1, plus a
/// standard-convention object), `analyze` over the summaries, `c --dir`
/// per module (phase 2 under the directives), `link`.
fn staged_build(dir: &Path, config: &str, db: &str) {
    for src in ["counterlib.cmin", "app.cmin"] {
        ok(dir, &["c", src]);
    }
    assert!(dir.join("counterlib.csum").exists());
    assert!(dir.join("app.vo").exists());
    ok(dir, &["analyze", "counterlib.csum", "app.csum", "--config", config, "-o", db]);
    // Phase 2 on each module — deliberately in the opposite order, which
    // the paper's design explicitly allows.
    for stem in ["app", "counterlib"] {
        ok(dir, &["c", &format!("{stem}.cmin"), "--dir", db]);
    }
    ok(dir, &["link", "counterlib.vo", "app.vo", "-o", "prog.vx"]);
}

#[test]
fn file_based_pipeline_end_to_end() {
    let dir = tempdir("pipeline");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    staged_build(&dir, "C", "program.cdir");
    let db_text = std::fs::read_to_string(dir.join("program.cdir")).unwrap();
    assert!(db_text.contains("add_in"));

    let out = ok(
        &dir,
        &["run", "prog.vx", "--input", "5 10 15", "--stats", "--profile-out", "prof.json"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim().lines().collect::<Vec<_>>(), vec!["30", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cycles:"), "{stderr}");

    // Profile file exists and names the hot procedure.
    let prof = std::fs::read_to_string(dir.join("prof.json")).unwrap();
    assert!(prof.contains("add_in"));

    // Without `--summary`, the summary lands beside the object.
    std::fs::create_dir_all(dir.join("out")).unwrap();
    ok(&dir, &["c", "app.cmin", "-o", "out/app.vo"]);
    assert!(dir.join("out/app.csum").exists());

    // Profile-fed analysis (config F) consumes it.
    ok(
        &dir,
        &[
            "analyze",
            "counterlib.csum",
            "app.csum",
            "--config",
            "F",
            "--profile",
            "prof.json",
            "-o",
            "program_f.cdir",
        ],
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_one_shot_matches_pipeline() {
    let dir = tempdir("build");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let out = cminc()
        .current_dir(&dir)
        .args([
            "build",
            "counterlib.cmin",
            "app.cmin",
            "--config",
            "C",
            "--run",
            "--stats",
            "--input",
            "1 2 3 4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "build: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim().lines().collect::<Vec<_>>(), vec!["10", "4"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_is_deterministic_and_names_the_decisions() {
    let dir = tempdir("explain");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let run = |symbol: &str| {
        cminc()
            .current_dir(&dir)
            .args(["explain", symbol, "counterlib.cmin", "app.cmin", "--config", "C"])
            .output()
            .unwrap()
    };
    let out = run("total");
    assert!(out.status.success(), "explain: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("analyzer decisions mentioning `total`"), "{text}");
    assert!(text.contains("formed for global `total`"), "{text}");
    // Promotions land on callee-saves registers, rendered with the
    // target's ABI names (`s0`, `s1`, …) rather than raw indices.
    assert!(text.contains("promoted to s"), "{text}");
    assert_eq!(out.stdout, run("total").stdout, "explain must be deterministic");
    let missing = run("no_such_symbol");
    assert!(missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stdout).contains("no analyzer decisions"));

    // The saved-trace path renders the same chain.
    let out = cminc()
        .current_dir(&dir)
        .args(["build", "counterlib.cmin", "app.cmin", "--config", "C", "--trace", "t.json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "build --trace: {}", String::from_utf8_lossy(&out.stderr));
    let from_file =
        cminc().current_dir(&dir).args(["explain", "total", "--trace", "t.json"]).output().unwrap();
    assert!(from_file.status.success());
    assert_eq!(String::from_utf8_lossy(&from_file.stdout), text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_is_byte_deterministic_and_sums() {
    let dir = tempdir("report");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let run = |json: &str| {
        cminc()
            .current_dir(&dir)
            .args([
                "report",
                "counterlib.cmin",
                "app.cmin",
                "--config-b",
                "C",
                "--input",
                "5 10 15",
                "--json",
                json,
            ])
            .output()
            .unwrap()
    };
    let out = run("r1.json");
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(table.contains("per-procedure breakdown: L2 → C"), "{table}");
    assert!(table.contains("add_in"), "{table}");
    assert!(table.contains("cycles"), "{table}");
    let again = run("r2.json");
    assert_eq!(out.stdout, again.stdout, "report table must be deterministic");
    let j1 = std::fs::read(dir.join("r1.json")).unwrap();
    let j2 = std::fs::read(dir.join("r2.json")).unwrap();
    assert_eq!(j1, j2, "report JSON must be byte-identical run to run");
    let json = String::from_utf8(j1).unwrap();
    assert!(json.contains("\"config_b\": \"C\""), "{json}");
    assert!(json.contains("\"reasons\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_stats_json_dumps_exact_attribution() {
    let dir = tempdir("statsjson");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    ok(&dir, &["build", "counterlib.cmin", "app.cmin", "--config", "C"]);
    // Rebuild through the file pipeline to get an exe on disk.
    staged_build(&dir, "C", "p.cdir");
    ok(&dir, &["run", "prog.vx", "--input", "5 10 15", "--stats-json", "s.json"]);
    let dump = std::fs::read_to_string(dir.join("s.json")).unwrap();
    for key in ["funcs", "call_counts", "call_edges", "attribution", "inclusive_cycles", "add_in"] {
        assert!(dump.contains(key), "missing `{key}` in {dump}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let dir = tempdir("errors");
    let bad = write(&dir, "bad.cmin", "int f( {");
    let out = cminc().current_dir(&dir).args(["c", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad"));

    let out = cminc().args(["analyze", "-o", "x.cdir"]).output().unwrap();
    assert!(!out.status.success());

    // The Figure-1 phases run through `c`; `phase1`/`phase2` are not commands.
    for cmd in ["frobnicate", "phase1", "phase2"] {
        let out = cminc().args([cmd]).output().unwrap();
        assert!(!out.status.success(), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown command `{cmd}`")), "{stderr}");
        assert!(stderr.contains("usage"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_b_requires_profile() {
    let dir = tempdir("needprof");
    write(&dir, "m.cmin", "int main() { return 0; }");
    ok(&dir, &["c", "m.cmin"]);
    let out = cminc()
        .current_dir(&dir)
        .args(["analyze", "m.csum", "--config", "B", "-o", "x.cdir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every input is an artifact, recognized by its header: the bare JSON
/// body of one (the pre-artifact file format) is rejected with an error
/// naming the file, and an artifact's name never changes its bytes.
#[test]
fn inputs_are_artifacts_judged_by_header() {
    let dir = tempdir("formats");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    staged_build(&dir, "C", "program.cdir");

    // Strip the header line, leaving the bare JSON payload.
    let strip = |from: &str, to: &str| {
        let text = std::fs::read_to_string(dir.join(from)).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        std::fs::write(dir.join(to), body).unwrap();
    };
    strip("app.csum", "app.sum");
    strip("app.vo", "app.obj");
    strip("prog.vx", "prog.json");
    for (args, path) in [
        (vec!["analyze", "counterlib.csum", "app.sum", "-o", "x.cdir"], "app.sum"),
        (vec!["link", "counterlib.vo", "app.obj", "-o", "x.vx"], "app.obj"),
        (vec!["run", "prog.json"], "prog.json"),
    ] {
        let out = cminc().current_dir(&dir).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} accepted bare JSON");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{path}: not an artifact")), "{args:?}: {stderr}");
    }

    // `-o` writes the same artifact whatever the name, and it runs.
    for out in ["prog.exe", "prog.vx"] {
        ok(&dir, &["build", "counterlib.cmin", "app.cmin", "--config", "C", "-o", out]);
    }
    let exe = std::fs::read(dir.join("prog.exe")).unwrap();
    assert_eq!(exe, std::fs::read(dir.join("prog.vx")).unwrap());
    let out = ok(&dir, &["run", "prog.exe", "--input", "5 10 15"]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim().lines().collect::<Vec<_>>(),
        ["30", "3"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
