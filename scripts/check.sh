#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build + test suite.
# Everything runs offline against the vendored stub crates; a clean exit
# here is what CI (and the next PR) expects to inherit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc --workspace (deny warnings: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> tier-1: cargo build --release"
cargo build --release -q
# The root build only compiles dependency *libraries*; the cminc binary
# lives in the cli crate and must be requested explicitly so the
# report smoke below never runs a stale binary.
cargo build --release -q -p ipra-cli

echo "==> tier-1: cargo test"
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> benchmark smoke (perfbench builds against every public name it imports)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> simulator benchmark (fast engine vs reference oracle, parity gated)"
cargo run --release -q -p ipra-bench --bin sim_bench -- --check --out BENCH_sim.json
test -s BENCH_sim.json

echo "==> compile-time benchmark (8/64/256 modules, cache checks on, sim regime folded in)"
cargo run --release -q -p ipra-bench --bin compile_bench -- --check \
  --sim-json BENCH_sim.json --out BENCH_compile.json
test -s BENCH_compile.json
grep -q '"sim"' BENCH_compile.json

echo "==> cminc report smoke (two runs must be byte-identical)"
report_dir="$(mktemp -d)"
trap 'rm -rf "$report_dir"' EXIT
cat > "$report_dir/counter.cmin" <<'EOF'
static int hits;
int total;
int bump(int k) { hits = hits + 1; total = total + k; return total; }
int hits_of() { return hits; }
EOF
cat > "$report_dir/app.cmin" <<'EOF'
extern int total;
extern int bump(int);
extern int hits_of();
int main() {
    for (int i = 0; i < 50; i = i + 1) { bump(i); }
    out(total);
    out(hits_of());
    return total;
}
EOF
cminc=target/release/cminc
for i in 1 2; do
  "$cminc" report "$report_dir/counter.cmin" "$report_dir/app.cmin" \
    --config-b C --json "$report_dir/report$i.json" > "$report_dir/table$i.txt"
done
cmp "$report_dir/report1.json" "$report_dir/report2.json"
cmp "$report_dir/table1.txt" "$report_dir/table2.txt"
grep -q '"reasons"' "$report_dir/report1.json"

echo "==> fuzz smoke (fixed seed, two jobs widths must agree byte-for-byte)"
"$cminc" fuzz --seed 1 --iters 150 --jobs 2 > "$report_dir/fuzz2.txt"
"$cminc" fuzz --seed 1 --iters 150 --jobs 8 > "$report_dir/fuzz8.txt"
cmp "$report_dir/fuzz2.txt" "$report_dir/fuzz8.txt"
grep -q '150 iterations, 0 failure(s)' "$report_dir/fuzz2.txt"

echo "==> regression corpus replay"
cargo test -q --test corpus

echo "==> separate-compile smoke (artifact pipeline == one-shot build, byte-for-byte)"
# A Figure-3-shaped program: main(A) -> {B, C}, B -> {D, E}, C -> {F, G},
# G -> H, with shared globals g1-g3 split across two modules.
sep="$report_dir/sep"
mkdir -p "$sep"
cat > "$sep/m1.cmin" <<'EOF'
int g1;
int g2;
int g3;
extern int cc(int);
int dd(int x) { g1 = g1 + x; return g1; }
int ee(int x) { g2 = g2 + x; return g2; }
int bb(int x) { return dd(x) + ee(x + 1); }
int main() {
    int t = 0;
    for (int i = 0; i < 10; i = i + 1) { t = t + bb(i) + cc(i); }
    out(t);
    out(g1);
    out(g2);
    out(g3);
    return 0;
}
EOF
cat > "$sep/m2.cmin" <<'EOF'
extern int g1;
extern int g3;
static int h_calls;
int hh(int x) { h_calls = h_calls + 1; return x + h_calls; }
int gg(int x) { g3 = g3 + hh(x); return g3; }
int ff(int x) { return x * 2 + g1; }
int cc(int x) { return ff(x) + gg(x); }
EOF
ccache="$sep/.ccache"
"$cminc" c "$sep/m1.cmin" -o "$sep/m1.vo" --summary "$sep/m1.csum" --cache-dir "$ccache" 2>/dev/null
"$cminc" c "$sep/m2.cmin" -o "$sep/m2.vo" --summary "$sep/m2.csum" --cache-dir "$ccache" 2>/dev/null
"$cminc" analyze "$sep/m1.csum" "$sep/m2.csum" --config C -o "$sep/prog.cdir"
"$cminc" c "$sep/m1.cmin" -o "$sep/m1.vo" --dir "$sep/prog.cdir" --cache-dir "$ccache" 2>/dev/null
"$cminc" c "$sep/m2.cmin" -o "$sep/m2.vo" --dir "$sep/prog.cdir" --cache-dir "$ccache" 2>/dev/null
"$cminc" link "$sep/m1.vo" "$sep/m2.vo" -o "$sep/prog.vx"
"$cminc" verify "$sep/m1.vo" "$sep/m2.vo" --db "$sep/prog.cdir"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$sep/prog2.vx" > /dev/null
cmp "$sep/prog.vx" "$sep/prog2.vx"
"$cminc" run "$sep/prog.vx" 2>/dev/null > "$sep/sep-run.txt"
"$cminc" run "$sep/prog2.vx" 2>/dev/null > "$sep/build-run.txt"
cmp "$sep/sep-run.txt" "$sep/build-run.txt"

echo "==> run --stats-json smoke (same output; the stats carry the attribution)"
# Fast-vs-reference parity lives in tests/engines.rs and tests/telemetry.rs.
"$cminc" run "$sep/prog.vx" --stats-json "$sep/run-stats.json" 2>/dev/null > "$sep/stats-run.txt"
cmp "$sep/sep-run.txt" "$sep/stats-run.txt"
grep -q '"attribution"' "$sep/run-stats.json"
"$cminc" objdump "$sep/prog.vx" > /dev/null
"$cminc" objdump "$sep/prog.cdir" > /dev/null

echo "==> cross-target smoke (vpr bytes match the golden; rv32 builds, verifies, runs identically)"
# The machine-description refactor must never move a VPR byte: the linked
# executable is compared against the pre-refactor golden.
cmp "$sep/prog.vx" scripts/goldens/sep_C.vx
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --target rv32 --verify \
  -o "$sep/prog-rv32.vx" > /dev/null
"$cminc" run "$sep/prog-rv32.vx" 2>/dev/null > "$sep/rv32-run.txt"
cmp "$sep/sep-run.txt" "$sep/rv32-run.txt"
# Headers name the target (objdump output lands in a file first: `grep -q`
# on a pipe would close it mid-print and SIGPIPE the tool under pipefail).
"$cminc" objdump "$sep/prog-rv32.vx" > "$sep/rv32-dump.txt"
grep -q 'target rv32' "$sep/rv32-dump.txt"
"$cminc" objdump "$sep/prog.vx" > "$sep/vpr-dump.txt"
grep -q 'target vpr' "$sep/vpr-dump.txt"

echo "==> telemetry smoke (Chrome-trace shape; metrics byte-identical across jobs widths)"
tele="$report_dir/tele"
mkdir -p "$tele"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --run -j 4 \
  --trace-out "$tele/trace.json" --metrics-out "$tele/m1.json" \
  --stats-json "$tele/stats.json" > /dev/null 2>&1
python3 - "$tele/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"
stacks = {}
for e in events:
    assert e["pid"] == 1, "pid is always 1"
    assert isinstance(e["tid"], int) and isinstance(e["ts"], int)
    stack = stacks.setdefault(e["tid"], [])
    if e["ph"] == "B":
        stack.append(e["name"])
    elif e["ph"] == "E":
        assert stack and stack.pop() == e["name"], f"unbalanced span {e['name']}"
    else:
        raise AssertionError(f"unexpected ph {e['ph']!r}")
assert all(not s for s in stacks.values()), "unfinished spans"
names = {e["name"] for e in events}
for want in ("build", "phase1", "analyze", "phase2", "link"):
    assert want in names, f"missing {want} span"
assert any(e["tid"] != 0 for e in events), "no worker-lane spans"
print(f"trace ok: {len(events)} events across {len(stacks)} lanes")
EOF
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --run -j 1 \
  --metrics-out "$tele/m2.json" > /dev/null 2>&1
cmp "$tele/m1.json" "$tele/m2.json"
grep -q '"sim.cycles"' "$tele/m1.json"
grep -q '"schema": "ipra-build-stats-v1"' "$tele/stats.json"
"$cminc" profile "$sep/prog.vx" --top 5 > "$tele/profile.txt" 2>/dev/null
grep -q 'procedures (self cycles):' "$tele/profile.txt"
"$cminc" stats "$sep/m1.cmin" "$sep/m2.cmin" --config C --run > "$tele/stats-run.json" 2>/dev/null
grep -q '"sim.op.' "$tele/stats-run.json"
"$cminc" fuzz --seed 1 --iters 5 --metrics-out "$tele/fuzz.json" > /dev/null 2>&1
grep -q '"fuzz.iterations": 5' "$tele/fuzz.json"

echo "==> persistent cache smoke (second process recompiles only the edited module)"
bcache="$sep/.bcache"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --cache-dir "$bcache" -o "$sep/cache1.vx" > /dev/null
sed -i 's/x \* 2/x \* 3/' "$sep/m2.cmin"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C --cache-dir "$bcache" --stats \
  -o "$sep/cache2.vx" > "$sep/cache-stats.txt" 2>&1
grep -q 'recompiled: m2$' "$sep/cache-stats.txt"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$sep/nocache.vx" > /dev/null
cmp "$sep/cache2.vx" "$sep/nocache.vx"

echo "==> .vlib link smoke (unresolved library callee: clean failure, then trap stubs)"
cat > "$sep/libm.cmin" <<'EOF'
extern int ghost(int);
int helper(int k) { if (k) { return ghost(k); } return k + 5; }
EOF
cat > "$sep/app.cmin" <<'EOF'
extern int helper(int);
int main() { out(helper(in())); return 0; }
EOF
"$cminc" c "$sep/libm.cmin" -o "$sep/libm.vo" --summary "$sep/libm.csum" 2>/dev/null
"$cminc" lib "$sep/libm.vo" -o "$sep/mylib.vlib"
"$cminc" c "$sep/app.cmin" -o "$sep/app.vo" --summary "$sep/app.csum" 2>/dev/null
if "$cminc" link "$sep/app.vo" "$sep/mylib.vlib" -o "$sep/bad.vx" 2> "$sep/link-err.txt"; then
  echo "link with an unresolved callee unexpectedly succeeded" >&2
  exit 1
fi
grep -q 'ghost' "$sep/link-err.txt"
"$cminc" link "$sep/app.vo" "$sep/mylib.vlib" --allow-undefined -o "$sep/app.vx"
"$cminc" run "$sep/app.vx" --input "0" 2>/dev/null | grep -qx '5'
"$cminc" objdump "$sep/mylib.vlib" > /dev/null

echo "==> alias precision smoke (config P promotes strictly more than C on pointer code)"
al="$report_dir/alias"
mkdir -p "$al"
cat > "$al/hot.cmin" <<'EOF'
int counter;
int scratch;
int step(int k) { counter = counter + k; return counter; }
int peek(int p) { return (*p); }
static int never_called(int x) {
    int p = &counter;
    *p = x;
    return (*p);
}
EOF
cat > "$al/papp.cmin" <<'EOF'
extern int counter;
extern int scratch;
extern int step(int);
extern int peek(int);
int main() {
    for (int i = 0; i < 40; i = i + 1) {
        step(i);
        scratch = scratch + peek(&scratch);
    }
    out(counter);
    out(scratch);
    return 0;
}
EOF
# Behavior must be bit-identical across the two configurations.
"$cminc" build "$al/hot.cmin" "$al/papp.cmin" --config C -o "$al/c.vx" > /dev/null
"$cminc" build "$al/hot.cmin" "$al/papp.cmin" --config P -o "$al/p.vx" > /dev/null
"$cminc" run "$al/c.vx" 2>/dev/null > "$al/c-run.txt"
"$cminc" run "$al/p.vx" 2>/dev/null > "$al/p-run.txt"
cmp "$al/c-run.txt" "$al/p-run.txt"
# The points-to solver must promote strictly more globals than the blanket
# address-taken flags: `counter` only escapes in dead code.
"$cminc" c "$al/hot.cmin" -o "$al/hot.vo" --summary "$al/hot.csum" 2>/dev/null
"$cminc" c "$al/papp.cmin" -o "$al/papp.vo" --summary "$al/papp.csum" 2>/dev/null
"$cminc" analyze "$al/hot.csum" "$al/papp.csum" --config C -o "$al/c.cdir"
"$cminc" analyze "$al/hot.csum" "$al/papp.csum" --config P -o "$al/p.cdir"
count_promoted() {
  # `|| true`: a database with zero promotions is a legal count, not an error.
  "$cminc" objdump "$1" | { grep '^  promote' || true; } | awk '{print $2}' | sort -u | wc -l
}
nc="$(count_promoted "$al/c.cdir")"
np="$(count_promoted "$al/p.cdir")"
if [ "$np" -le "$nc" ]; then
  echo "alias smoke: P promoted $np globals, expected strictly more than C's $nc" >&2
  exit 1
fi
# The alias-aware report must be byte-deterministic, like the C one above.
for i in 1 2; do
  "$cminc" report "$al/hot.cmin" "$al/papp.cmin" \
    --config-b P --json "$al/report$i.json" > "$al/table$i.txt"
done
cmp "$al/report1.json" "$al/report2.json"
cmp "$al/table1.txt" "$al/table2.txt"

echo "==> daemon smoke (serve, concurrent remote builds == local build, drain, fallback)"
dm="$report_dir/daemon"
mkdir -p "$dm"
dsock="$dm/cmind.sock"
"$cminc" serve --socket "$dsock" --cap 64 2> "$dm/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$dsock" ] && break
  sleep 0.1
done
[ -S "$dsock" ] || { echo "daemon socket never appeared" >&2; exit 1; }
"$cminc" remote ping --socket "$dsock" | grep -qx 'pong'
# Two concurrent clients submitting the same program: both must return
# bytes identical to each other and to a plain local `cminc build`.
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/r1.vx" 2>/dev/null &
c1=$!
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/r2.vx" 2>/dev/null &
c2=$!
wait "$c1" "$c2"
"$cminc" build "$sep/m1.cmin" "$sep/m2.cmin" --config C -o "$dm/local.vx" > /dev/null
cmp "$dm/r1.vx" "$dm/r2.vx"
cmp "$dm/r1.vx" "$dm/local.vx"
"$cminc" remote stats --socket "$dsock" > "$dm/stats.json"
grep -q '"daemon.builds"' "$dm/stats.json"
"$cminc" remote shutdown --socket "$dsock"
wait "$serve_pid"
[ ! -e "$dsock" ] || { echo "daemon left its socket file behind" >&2; exit 1; }
# Daemon gone: `remote build` must degrade to a byte-identical local compile.
"$cminc" remote build --socket "$dsock" "$sep/m1.cmin" "$sep/m2.cmin" \
  --config C -o "$dm/fallback.vx" 2> "$dm/fallback.log"
grep -q 'building locally' "$dm/fallback.log"
cmp "$dm/fallback.vx" "$dm/local.vx"

echo "==> daemon benchmark (cold/warm/N-client throughput, dedup gated)"
cargo run --release -q -p ipra-bench --bin daemon_bench -- --check \
  --out BENCH_daemon.json
test -s BENCH_daemon.json
grep -q '"warm_n_over_cold_1"' BENCH_daemon.json

echo "All checks passed."
