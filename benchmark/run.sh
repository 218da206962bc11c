#!/usr/bin/env bash
# One command: builds `hotpathd` at the repository root and this
# package, then runs the benchmark. With no arguments it runs every
# workload with tracing off, prints every end-to-end metric by name and
# unit, checks the outputs and exits non-zero on a failed check;
# `--traced` runs the separate traced pass. The driver's form is
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# whose last line of standard output is one JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, absolute so that neither `cd`
# nor cargo's own manifest-relative default moves it.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the report.
(cd "$root" && cargo build --release --offline --quiet -p hotpath-serve --bin hotpathd) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

exec "$target/release/hotpath-benchmark" --hotpathd "$target/release/hotpathd" "$@"
