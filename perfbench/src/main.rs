//! Runs one workload of the benchmark and prints its result.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`): the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! is a detail object with the host's core count, the seed, the sample
//! count behind every median and percentile, the failure ratio, the
//! tracing overhead, the per-program rows, the uncorrected wall-clock
//! medians and the host-speed readings that correct the timings. A traced run also writes its
//! spans as a Chrome trace to `out/trace-<workload>-seed<seed>.json` in
//! this crate's directory. The process exits non-zero when any check fails.

use perfbench::{nproc, num, render, Config, Json, Sizes, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-64 of this executable's bytes, so that exact counts are compared
/// only between runs of the same build: a change to the compiler may move
/// them on purpose.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h = ipra_core::fingerprint::Fnv64::new();
    h.write(&bytes);
    Ok(format!("{:016x}", h.finish()))
}

/// Compares this run's exact counts with those an earlier run of the same
/// build, workload and seed left in `out/`, then records them for the
/// next run.
fn check_exact_across_runs(
    workload: &str,
    seed: u64,
    exact: &BTreeMap<String, u64>,
) -> Result<(), String> {
    let path = format!("out/exact-{workload}-seed{seed}-{}.txt", build_id()?);
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let Some((key, value)) = line.split_once(' ') else { continue };
            if let (Some(now), Ok(before)) = (exact.get(key), value.parse::<u64>()) {
                if *now != before {
                    return Err(format!(
                        "count {key} is {now}, an earlier run of this build read {before}"
                    ));
                }
            }
        }
    }
    let text: String = exact.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scale_cold|edit_daemon|paper_suite> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Every file the run reads or writes lives under this crate's directory.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .and_then(|()| std::fs::create_dir_all("out"))
    {
        eprintln!("perfbench: {}: {e}", env!("CARGO_MANIFEST_DIR"));
        return ExitCode::FAILURE;
    }
    let name = args.workload.name();
    let mut out = perfbench::run(Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::full(),
    });
    let run = &mut out.run;
    let across = check_exact_across_runs(name, args.seed, &run.exact);
    run.op(across);

    let mut detail = vec![
        ("workload".to_string(), Json::Str(name.to_string())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::UInt(nproc() as u64)),
        ("fail_ratio".into(), num(run.failed as f64 / run.attempted.max(1) as f64)),
        ("failures".into(), Json::Array(run.failures.iter().cloned().map(Json::Str).collect())),
    ];
    detail.append(&mut run.detail);
    if args.trace {
        let e2e = out.end_to_end.iter().map(|(k, v)| (k.to_string(), num(*v))).collect();
        detail.push(("traced_end_to_end".into(), Json::Object(e2e)));
        let path = format!("out/trace-{name}-seed{}.json", args.seed);
        if let Err(e) = std::fs::write(&path, out.run.spans.chrome_json()) {
            out.run.op(Err(format!("{path}: {e}")));
        }
        detail.push(("trace_file".into(), Json::Str(format!("perfbench/{path}"))));
    }
    let run = &out.run;
    println!("{}", render(&Json::Object(vec![("detail".into(), Json::Object(detail))])));

    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, unit)| (n.to_string(), metric(out.per_layer.get(n).copied(), unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, unit)| (n.to_string(), metric(out.end_to_end.get(n).copied(), unit)))
            .collect()
    };
    let correct = run.failed == 0 && run.attempted > 0;
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(run.attempted)),
        ("failed".into(), Json::UInt(run.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{}", render(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(value: Option<f64>, unit: &str) -> Json {
    Json::Object(vec![
        ("value".into(), num(value.unwrap_or(f64::NAN))),
        ("unit".into(), Json::Str(unit.to_string())),
    ])
}
