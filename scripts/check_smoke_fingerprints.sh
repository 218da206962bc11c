#!/usr/bin/env bash
# Compares the fingerprints in a `bash benchmark/run.sh --smoke` report
# with the checked-in expectation:
#
#   bash benchmark/run.sh --smoke | tee smoke.txt
#   scripts/check_smoke_fingerprints.sh smoke.txt [expected-file]
#
# The expected file (default scripts/smoke_fingerprints.txt) holds one
# `<workload> <fingerprint>` per line; `#` starts a comment. Exits 1 when
# a workload's fingerprint differs, or when a workload is in one of the
# two and missing from the other.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,10p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
report="$1"
expected="${2:-$(dirname "${BASH_SOURCE[0]}")/smoke_fingerprints.txt}"

python3 - "$report" "$expected" <<'EOF'
import re, sys

report, expected = sys.argv[1], sys.argv[2]
want = {}
for line in open(expected):
    line = line.split("#", 1)[0].split()
    if line:
        want[line[0]] = line[1]
got, workload = {}, None
for line in open(report):
    if m := re.match(r"== (\S+) \|", line):
        workload = m.group(1)
    elif m := re.search(r"\| fingerprint ([0-9a-f]{16}) \|", line):
        got[workload] = m.group(1)
bad = 0
for name in sorted(want.keys() | got.keys()):
    w, g = want.get(name, "missing"), got.get(name, "missing")
    ok = w == g
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {name:<18} expected {w}  got {g}")
sys.exit(1 if bad else 0)
EOF
