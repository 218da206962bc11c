#!/usr/bin/env bash
# Paired parent/change runs of the end-to-end benchmark: the table a PR
# that claims a gain has to show (choosing-metrics section 8).
#
#   scripts/paired_runs.sh <parent-tree> <change-tree> \
#       [--workload W] [--seed S] [--seconds N] [--pairs P] [--trace 0|1] [--out DIR]
#
# Each tree is a checkout of this repository (make the parent's with
# `git clone` or `git archive`). Each is built once into a
# CARGO_TARGET_DIR of its own under --out (default target/paired_runs)
# by a one-second warm-up run; then P pairs of
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace T
# run one at a time, the parent first in odd pairs and the change first
# in even ones. From every run the last stdout line (the driver's JSON)
# and the report's fingerprint are kept. Printed per metric: both sides'
# values in pair order, median and quartiles, how many pairs the change
# won (ties count for neither) and the gap between the medians beside
# the distance between the parent's quartiles; then whether the
# fingerprints and the two count metrics are identical on every run.
# Exits non-zero when a run fails a check or reports a failed operation.
set -euo pipefail

usage() {
    sed -n '2,8p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
shift 2
workload=paper_uniform seed=2015 seconds=45 pairs=10 trace=0 out=target/paired_runs
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --pairs) pairs="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
        *) usage ;;
    esac
    shift 2
done
mkdir -p "$out"
out="$(cd "$out" && pwd)"
logs="$out/$workload-seed$seed-trace$trace"
rm -rf "$logs"
mkdir -p "$logs"

# run <side> <tree> <seconds> <log>: build output and cargo chatter go
# to the terminal's stderr, the report to the log.
run() {
    (cd "$2" && CARGO_TARGET_DIR="$out/$1-target" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$3" --trace "$trace") >"$4"
}

echo "building $parent -> $out/parent-target" >&2
run parent "$parent" 1 "$logs/warmup-parent.log"
echo "building $change -> $out/change-target" >&2
run change "$change" 1 "$logs/warmup-change.log"

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        if [ "$side" = parent ]; then tree="$parent"; else tree="$change"; fi
        run "$side" "$tree" "$seconds" "$logs/$side-$i.log"
    done
done

python3 - "$logs" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json, re, sys

logs, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
counts = ("uplink_msgs_per_kmeas", "index_paths_mean")


def load(side, i):
    text = open(f"{logs}/{side}-{i}.log").read()
    result = json.loads(text.strip().splitlines()[-1])
    fingerprint = re.search(r"fingerprint ([0-9a-f]{16})", text)
    return result, fingerprint.group(1) if fingerprint else None


def quantile(sorted_values, p):
    at = p * (len(sorted_values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (at - lo)


def summary(values):
    s = sorted(values)
    return quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
first = runs["parent"][0][0]["metrics"]
bad = 0
for name in [n for n in better if n in first]:
    p = [r["metrics"][name]["value"] for r, _ in runs["parent"]]
    c = [r["metrics"][name]["value"] for r, _ in runs["change"]]
    sign = 1 if better[name] == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(p, c) if a == b)
    (pm, pq1, pq3), (cm, cq1, cq3) = summary(p), summary(c)
    gap, iqr = sign * (cm - pm), pq3 - pq1
    rel = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "n/a"
    print(f"{name} [{first[name]['unit']}, {better[name]} is better]")
    print(f"  parent {' '.join(f'{v:.6g}' for v in p)}")
    print(f"         median {pm:.6g}  quartiles {pq1:.6g} / {pq3:.6g}")
    print(f"  change {' '.join(f'{v:.6g}' for v in c)}")
    print(f"         median {cm:.6g}  quartiles {cq1:.6g} / {cq3:.6g}")
    verdict = "identical" if ties == pairs else (
        f"change wins {wins}/{pairs}, median {rel}: {abs(gap):.6g} "
        f"{'in its favour' if gap > 0 else 'against it'}, "
        f"parent inter-quartile distance {iqr:.6g}")
    print(f"  {verdict}")

fingerprints = {f for side in runs.values() for _, f in side}
print(f"fingerprints: {'identical' if len(fingerprints) == 1 else 'DIFFER'} {sorted(map(str, fingerprints))}")
for name in counts:
    if name in first:
        values = {r["metrics"][name]["value"] for side in runs.values() for r, _ in side}
        print(f"{name}: {'identical' if len(values) == 1 else 'DIFFER'} {sorted(values)}")
for side, side_runs in runs.items():
    failed = sum(r["failed"] for r, _ in side_runs)
    incorrect = sum(1 for r, _ in side_runs if not r["correct"])
    print(f"{side}: {failed} failed operations, {incorrect} runs with a failed check")
    bad += failed + incorrect
sys.exit(1 if bad else 0)
EOF
