#!/usr/bin/env bash
# Two sets of ten runs of the same commit, every workload, a different seed
# each run: the driver's own acceptance protocol. Prints, per workload and
# end-to-end metric, each set's median and quartiles, the spread
# (q3 - q1) / median, and how much worse set B's median is than set A's;
# fails if a spread or a set-to-set difference exceeds the metric's bound in
# BENCHMARK.json (setup_s is held to the set-to-set difference only, as the
# driver holds it), or if a durable_write window crossed fewer than three
# checkpoints. One traced run per workload adds the per-layer numbers, the
# paper's figures among them. The output is markdown: benchmark/BASELINE.md is
# this script's output, and is where BENCHMARK.json's choice of gated metrics
# comes from.
#
#   benchmark/repeat.sh > benchmark/BASELINE.md      about 50 minutes
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Build once up front, so no run of the first set pays for it.
mkdir -p benchmark/out
benchmark/run.sh --smoke >/dev/null 2>benchmark/out/repeat-smoke.log || {
    echo "smoke run failed; see benchmark/out/repeat-smoke.log" >&2
    exit 1
}

python3 - <<'EOF'
import json, os, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
runs = 10
seconds = spec["run_seconds"]
sets = {"A": [100 + i for i in range(runs)], "B": [200 + i for i in range(runs)]}


def run(workload, seed, trace):
    """One run: the result line's metrics, and with them everything else the
    run measured (from the record it leaves in benchmark/out/)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    full = json.load(open(f"benchmark/out/result-{workload}-trace{trace}.json"))
    if workload == "durable_write" and not trace:
        checkpoints = int(full["record"]["checkpoints_in_window"])
        if checkpoints < 3:
            sys.exit(f"durable_write seed {seed}: {checkpoints} checkpoints in the window, want 3")
    return {**full["per_layer"], **result["metrics"]}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def git_rev():
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True).stdout.strip()
    dirty = " plus uncommitted changes" if git("status", "--porcelain") else ""
    return (git("rev-parse", "--short", "HEAD") or "unknown") + dirty


print("# Baseline: two sets of runs of one commit\n")
print(f"Produced by `benchmark/repeat.sh` at git rev {git_rev()}: {runs} runs per set and workload,")
print(f"{seconds} s windows, seeds {sets['A'][0]}… (set A) and {sets['B'][0]}… (set B), `nproc` = {os.cpu_count()}.")
print("`spread` is (q3 − q1) / median over a set's runs, as `statistics.quantiles(values, n=4)`")
print("gives them; `B vs A` is how much *worse* set B's median is than set A's (negative = better).")
print("The driver refuses a benchmark if a gated metric's spread exceeds its bound or if set B's")
print("median is worse than set A's by more than the bound (at most 0.25); `README.md` says which")
print("end-to-end candidates are gated on those grounds. The others follow each gated table, from")
print("the same untraced runs.")
print("No gain is claimed: `\"claim\": null`.\n")

def row(m, values):
    a, b = quartiles(values["A"][m["name"]]), quartiles(values["B"][m["name"]])
    spread_a = (a[2] - a[0]) / a[1]
    spread_b = (b[2] - b[0]) / b[1] if b[1] else float("nan")
    worse = (b[1] - a[1]) / a[1] * (1 if m["better"] == "lower" else -1)
    text = (f"| `{m['name']}` | {m['unit']} | {a[0]:.4g} | {a[1]:.4g} | {a[2]:.4g} | {spread_a:.3f} | "
            f"{b[1]:.4g} | {spread_b:.3f} | {worse:+.3f} |")
    return text, max(spread_a, spread_b), worse


failed = []
for w in spec["workloads"]:
    name = w["name"]
    values = {s: {} for s in sets}
    for s, seeds in sets.items():
        for seed in seeds:
            for metric, v in run(name, seed, 0).items():
                values[s].setdefault(metric, []).append(v["value"])
    print(f"## {name}\n")
    print("| metric | unit | A q1 | A median | A q3 | A spread | B median | B spread | B vs A | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        text, spread, worse = row(m, values)
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or spread <= m["bound"])
        if not ok:
            failed.append(f"{name}/{m['name']}")
        print(f"{text} {m['bound']} | {'ok' if ok else 'FAIL'} |")
    print("\nNot gated, from the same untraced runs:\n")
    print("| metric | unit | A q1 | A median | A q3 | A spread | B median | B spread | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in spec["per_layer"]:
        if statistics.median(values["A"][m["name"]]) != 0:
            print(row(m, values)[0])
    layers = run(name, sets["A"][0], 1)
    print(f"\nPer layer, one traced run (seed {sets['A'][0]}; metrics that read 0 do not apply here):\n")
    print("| metric | value | unit |")
    print("|---|---|---|")
    for m in spec["per_layer"]:
        v = layers[m["name"]]["value"]
        if v != 0:
            print(f"| `{m['name']}` | {v:.6g} | {m['unit']} |")
    print()
    sys.stdout.flush()

if failed:
    print("FAILED: " + ", ".join(failed))
    sys.exit(1)
print("All end-to-end metrics repeat within their bounds.")
EOF
