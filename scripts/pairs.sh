#!/usr/bin/env bash
# The ten-pair protocol: runs `oracle_bench` at two commits in alternating
# pairs, one pair per seed and workload, and prints per workload and
# end-to-end metric what a claim is judged on.
#
#   scripts/pairs.sh PARENT CHILD --seeds A..B [WORKLOAD...]
#
# PARENT and CHILD are any git revisions (for an uncommitted tree, stage it
# and pass `$(git stash create)`, a commit object that moves no ref). Each
# is exported (`git archive`) into its own directory and its `oracle_bench`
# built into its own target directory, so neither build touches the working
# tree or the other's artifacts. Every seed in A..B is one pair per
# workload (all five when none is named); even pairs run the parent first,
# odd pairs the child first. Each run is the command line BENCHMARK.json
# names: `--workload W --seed S --seconds $PAIRS_SECONDS --trace 0`
# (PAIRS_SECONDS defaults to its `run_seconds`). Each pair's two runs are
# then judged by the child's own `oracle_bench --compare`.
#
# Per workload and metric the summary gives the median change (positive is
# worse, as `--compare` reads it), the parent's IQR/median, the pairs the
# child won out of N, how many pairs `--compare` called regressed or
# unresolved, and the metric's BENCHMARK.json bound. For `solver_long_mt`
# it prints each pair's mode by the classifier in use until a mode marker
# exists: a run is fast when its `request_ref_ratio_p50` is below 0.30.
#
# Seeds listed in scripts/dev_seeds.txt were used while developing a change
# and are refused: a claim is judged on seeds it was not tuned on.
#
# PAIRS_DIR (default: a fresh directory under ${TMPDIR:-/tmp}) holds the
# exports, builds and every run's output; it is left in place for reading.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT CHILD --seeds A..B [WORKLOAD...]" >&2
    exit 2
}

repo=$(git rev-parse --show-toplevel)
[ $# -ge 4 ] || usage
parent_rev=$1 child_rev=$2
shift 2
seeds="" named=()
while [ $# -gt 0 ]; do
    case $1 in
        --seeds) [ $# -ge 2 ] || usage; seeds=$2; shift 2 ;;
        *) named+=("$1"); shift ;;
    esac
done
[[ $seeds =~ ^([0-9]+)\.\.([0-9]+)$ ]] || usage
first=${BASH_REMATCH[1]} last=${BASH_REMATCH[2]}
[ "$first" -le "$last" ] || usage

all_workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
workloads=${named[*]:-$all_workloads}
for w in $workloads; do
    [[ " $all_workloads " == *" $w "* ]] || { echo "unknown workload $w (one of: $all_workloads)" >&2; exit 2; }
done
seconds=${PAIRS_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}

# Development seeds: one seed or A..B range per line, `#` starts a comment.
refused=$(python3 - "$repo/scripts/dev_seeds.txt" "$first" "$last" <<'EOF'
import sys
path, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
listed = set()
for line in open(path):
    line = line.split("#", 1)[0].strip()
    if not line:
        continue
    lo, _, hi = line.partition("..")
    listed.update(range(int(lo), int(hi or lo) + 1))
print(" ".join(str(s) for s in range(first, last + 1) if s in listed))
EOF
)
if [ -n "$refused" ]; then
    echo "refusing development seeds listed in scripts/dev_seeds.txt: $refused" >&2
    exit 2
fi

dir=${PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")}
mkdir -p "$dir/runs"
echo "pairs: $parent_rev -> $child_rev, seeds $first..$last, ${seconds}s per run, in $dir" >&2

build() { # side revision
    local side=$1 rev=$2
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side/src"
    git -C "$repo" archive "$rev" | tar -x -C "$dir/$side/src"
    git -C "$repo" rev-parse "$rev" >"$dir/$side/commit"
    CARGO_TARGET_DIR="$dir/$side/target" cargo build --release --quiet --offline \
        --manifest-path "$dir/$side/src/oracle_bench/Cargo.toml" >&2
}
build parent "$parent_rev"
build child "$child_rev"

run() { # side workload seed
    local out="$dir/runs/$1-$2-$3.txt"
    (cd "$dir/$1/src" && CARGO_TARGET_DIR="$dir/$1/target" "$dir/$1/target/release/oracle_bench" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 >"$out")
}

pair=0
for seed in $(seq "$first" "$last"); do
    for w in $workloads; do
        if [ $((pair % 2)) -eq 0 ]; then order="parent child"; else order="child parent"; fi
        echo "pair $pair: $w seed $seed ($order)" >&2
        for side in $order; do run "$side" "$w" "$seed"; done
    done
    pair=$((pair + 1))
done

python3 - "$dir" "$repo/BENCHMARK.json" "$first" "$last" $workloads <<'EOF'
import json, os, re, statistics, subprocess, sys

root, bench, first, last = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
workloads = sys.argv[5:]
metrics = json.load(open(bench))["end_to_end"]
compare = os.path.join(root, "child/target/release/oracle_bench")
row = re.compile(r"^\s+(\S+)\s+(\S+)\s+\S+\s+spread\s+(\S+)")

def reading(side, w, seed):
    """The last line's values and failures, and the table's spreads."""
    lines = open(os.path.join(root, "runs", f"{side}-{w}-{seed}.txt")).read().splitlines()
    last = json.loads(lines[-1])
    spread = {m.group(1): float(m.group(3)) for m in map(row.match, lines) if m}
    values = {k: (v["value"], spread[k]) for k, v in last["metrics"].items()}
    return values, int(last["failed"]), int(last["attempted"])

def suite_file(side, w, seed, values):
    """One run as the suite result file `--compare` reads."""
    path = os.path.join(root, "runs", f"{side}-{w}-{seed}.json")
    e2e = {k: {"value": v, "spread": s} for k, (v, s) in values.items()}
    doc = {"env": {"nproc": os.cpu_count(), "cpu_model": "pairs"}, "workloads": {w: {"end_to_end": e2e}}}
    json.dump(doc, open(path, "w"))
    return path

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"parent {open(os.path.join(root, 'parent/commit')).read().strip()[:12]}  "
      f"child {open(os.path.join(root, 'child/commit')).read().strip()[:12]}  seeds {first}..{last}")
print("change: median over pairs of how much worse the child reads (negative = better)")
for w in workloads:
    seeds = range(first, last + 1)
    runs = {s: (reading("parent", w, s), reading("child", w, s)) for s in seeds}
    verdicts = {}
    for s, ((pv, _, _), (cv, _, _)) in runs.items():
        out = subprocess.run([compare, "--compare", suite_file("parent", w, s, pv), suite_file("child", w, s, cv)],
                             capture_output=True, text=True).stdout
        for line in out.splitlines()[1:]:
            name, verdict = line.split()[0], line.split("%", 1)[1].split()[0]
            verdicts.setdefault(name, []).append(verdict)
    failed = [(p[1], c[1]) for p, c in runs.values()]
    attempted = sum(p[2] + c[2] for p, c in runs.values())
    print(f"\n{w}: {len(runs)} pairs, failed parent {sum(f[0] for f in failed)} child "
          f"{sum(f[1] for f in failed)} of {attempted} operations")
    print(f"  {'metric':<26} {'change':>8} {'parent IQR/med':>14} {'wins':>6} {'regr/unres':>10} {'bound':>6}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [runs[s][0][0][name][0] for s in seeds]
        c = [runs[s][1][0][name][0] for s in seeds]
        worse = [((b - a) if lower else (a - b)) / a for a, b in zip(p, c)]
        q1, q3 = quartiles(p)
        med = statistics.median(worse)
        v = verdicts.get(name, [])
        flag = "  OUT OF BOUND" if med > m["bound"] else ""
        print(f"  {name:<26} {med * 100:>+7.1f}% {(q3 - q1) / statistics.median(p) * 100:>13.1f}% "
              f"{sum(x < 0 for x in worse):>3}/{len(worse):<2} {v.count('regressed'):>4}/{v.count('unresolved'):<5} "
              f"{m['bound'] * 100:>5.0f}%{flag}")
    if w == "solver_long_mt":
        mode = lambda r: "fast" if r < 0.30 else "slow"
        print("  modes (classifier: fast when request_ref_ratio_p50 < 0.30), parent/child per seed:")
        print("   " + "  ".join(f"{s}:{mode(runs[s][0][0]['request_ref_ratio_p50'][0])}/"
                                f"{mode(runs[s][1][0]['request_ref_ratio_p50'][0])}" for s in seeds))
EOF
