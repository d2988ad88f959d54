#!/usr/bin/env bash
# Same-host A/B benchmark of the working tree against a git revision.
#
#   ci/bench_ab.sh <rev>
#
# Builds <rev> in a temporary git worktree and the working tree, each into
# its own CARGO_TARGET_DIR, then runs
#
#   python3 perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 0
#
# on both sides for every workload in BENCHMARK.json, with <s> its
# `run_seconds`: 10 pairs per workload, alternating which side runs first,
# so slow drift of the host's speed lands on both sides alike. Prints each
# end-to-end metric's median and interquartile range (relative to the
# median) at <rev> and in the working tree. Marks a metric WORSE when its
# median is worse than <rev>'s by more than its BENCHMARK.json bound,
# MISSING when a side lacks it or <rev>'s median is zero, and UNRESOLVED
# when either side's interquartile range is wider than the bound. Exits 1
# when a metric is marked or a run failed.
# Reads perfbench/ and BENCHMARK.json and changes neither.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: ci/bench_ab.sh <rev>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
root="$(pwd)"
tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$1"

python3 -u - "$root" "$tmp" "$1" <<'PY'
import json, math, os, statistics, subprocess, sys

root, tmp, rev = sys.argv[1:4]
bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
seconds = str(bench["run_seconds"])
pairs = 10
sides = {
    rev: (os.path.join(tmp, "base"), os.path.join(tmp, "base_target")),
    "working tree": (root, os.path.join(tmp, "change_target")),
}


def run(side, workload):
    cwd, target = sides[side]
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", "0"],
        cwd=cwd, env=dict(os.environ, CARGO_TARGET_DIR=target),
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit(f"bench_ab: {workload} failed on {side}")
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, result["failed"]


def summary(xs):
    """Median and interquartile range relative to the median; NaN for
    both when there are too few samples to tell."""
    if len(xs) < 2:
        return float("nan"), float("nan")
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


failed_runs = 0
worse, missing, unresolved = [], [], []
for w in bench["workloads"]:
    name = w["name"]
    samples = {side: [] for side in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            values, failed = run(side, name)
            samples[side].append(values)
            failed_runs += failed
    print(f"{name} ({pairs} pairs, {seconds} s each)")
    print(f"  {'metric':<16} {rev:>14} {'(iqr)':>7} {'working tree':>14} {'(iqr)':>7}  change")
    for m in bench["end_to_end"]:
        med, iqr = {}, {}
        for side in sides:
            med[side], iqr[side] = summary(
                [v[m["name"]] for v in samples[side] if v.get(m["name"]) is not None])
        base, new = med[rev], med["working tree"]
        delta = (new - base) / base if base else float("nan")
        bad = -delta if m["better"] == "higher" else delta
        mark = ""
        if math.isnan(bad):
            mark = "  MISSING"
            missing.append(f"{name} {m['name']}")
        elif bad > m["bound"]:
            mark = f"  WORSE (bound {m['bound']:.0%})"
            worse.append(f"{name} {m['name']}")
        elif not max(iqr.values()) <= m["bound"]:
            mark = f"  UNRESOLVED (spread past bound {m['bound']:.0%})"
            unresolved.append(f"{name} {m['name']}")
        print(f"  {m['name']:<16} {base:>14.6g} {iqr[rev]:>7.1%} "
              f"{new:>14.6g} {iqr['working tree']:>7.1%}  {delta:+.1%}{mark}")

if failed_runs:
    print(f"bench_ab: {failed_runs} failed passes")
for label, names in (("worse than the bound", worse), ("missing or zero", missing),
                     ("spread wider than the bound", unresolved)):
    if names:
        print(f"bench_ab: {label}: " + ", ".join(names))
sys.exit(1 if failed_runs or worse or missing or unresolved else 0)
PY
