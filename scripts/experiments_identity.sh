#!/usr/bin/env bash
# Output identity of the `experiments` binary between two trees: the
# check that a change moved nothing any figure, claim or scenario prints.
#
#   scripts/experiments_identity.sh <parent-tree> <change-tree> [--scale S] [--out DIR]
#
# Each tree is a checkout of this repository (make the parent's with
# `git clone` or `git archive`). Each tree's `experiments` is built once
# into a CARGO_TARGET_DIR of its own under --out (default
# target/experiments_identity; one build when both trees are the same
# directory); then `all --scale S` and `scenario all --scale S` (default
# scale quick) run on both. Masked, because they differ between two runs
# of the same binary: the `SP ms/epoch` column of the Figure 7/8 tables,
# the time ratio in the two `shape:` lines, `ms/epoch` on `crisp :`
# lines, and `total wall clock`. Everything else, and each run's exit
# status, is diffed. Then `scenario all`, `fig7` and `fig8` run again
# with `--csv` on both trees, and the CSV files are diffed with their
# `processing_ms` and `sp_time_ms` columns masked. The script exits
# non-zero on any difference.
set -euo pipefail
shopt -s nullglob

usage() {
    sed -n '2,19p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
shift 2
scale=quick out=target/experiments_identity
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --scale) scale="$2" ;;
        --out) out="$2" ;;
        *) usage ;;
    esac
    shift 2
done
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# build <side> <tree>: prints the path of the tree's experiments binary.
build() {
    local target="$out/$1-target"
    echo "building $2 -> $target" >&2
    CARGO_TARGET_DIR="$target" cargo build --release -q \
        --manifest-path "$2/Cargo.toml" -p hotpath-bench --bin experiments >&2
    echo "$target/release/experiments"
}

# mask: blanks the fields that vary between two runs of one binary.
mask() {
    awk '
        /SP ms\/epoch/ { table = 1; print; next }
        /^[[:space:]]*$/ { table = 0 }
        table && /^[[:space:]]*[0-9]/ { sub(/[^[:space:]]+$/, "<ms>") }
        { print }
    ' | sed -E \
        -e 's/SP time grows [^ ]+x/SP time grows <ratio>x/' \
        -e 's/processing time falls [^ ]+x/processing time falls <ratio>x/' \
        -e '/^ *crisp :/s/[^ ]+ ms\/epoch/<ms> ms\/epoch/' \
        -e 's/^total wall clock: .*/total wall clock: <s>/'
}

# mask_csv: blanks the timing columns of a CSV, found by header name.
mask_csv() {
    awk -F, -v OFS=, '
        NR == 1 { for (i = 1; i <= NF; i++) if ($i == "processing_ms" || $i == "sp_time_ms") t[i] = 1 }
        NR > 1 { for (i in t) $i = "<ms>" }
        { print }
    '
}

parent_bin="$(build parent "$parent")"
if [ "$parent" = "$change" ]; then
    change_bin="$parent_bin"
else
    change_bin="$(build change "$change")"
fi

status=0
for cmd in "all" "scenario all"; do
    tag="${cmd// /_}-$scale"
    for side in parent change; do
        if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
        echo "running $side: experiments $cmd --scale $scale" >&2
        # A failed invariant exits 1; that is output too, so compare it.
        code=0
        # shellcheck disable=SC2086
        "$bin" $cmd --scale "$scale" >"$out/$side-$tag.raw" || code=$?
        { mask <"$out/$side-$tag.raw"; echo "exit status: $code"; } >"$out/$side-$tag.txt"
    done
    if diff -u "$out/parent-$tag.txt" "$out/change-$tag.txt"; then
        echo "experiments $cmd --scale $scale: identical ($(wc -l <"$out/change-$tag.txt") lines)"
    else
        echo "experiments $cmd --scale $scale: DIFFERS"
        status=1
    fi
done

# The CSV series. Stdout is not compared here: it names each side's
# output directory.
for cmd in "scenario all" "fig7" "fig8"; do
    tag="csv_${cmd// /_}-$scale"
    for side in parent change; do
        if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
        dir="$out/$side-$tag"
        rm -rf "$dir"
        mkdir -p "$dir"
        echo "running $side: experiments $cmd --scale $scale --csv" >&2
        code=0
        # shellcheck disable=SC2086
        "$bin" $cmd --scale "$scale" --csv "$dir" >/dev/null || code=$?
        {
            for f in "$dir"/*.csv; do
                echo "== $(basename "$f")"
                mask_csv <"$f"
            done
            echo "exit status: $code"
        } >"$out/$side-$tag.txt"
    done
    if diff -u "$out/parent-$tag.txt" "$out/change-$tag.txt"; then
        echo "experiments $cmd --scale $scale --csv: identical ($(wc -l <"$out/change-$tag.txt") lines)"
    else
        echo "experiments $cmd --scale $scale --csv: DIFFERS"
        status=1
    fi
done
exit "$status"
