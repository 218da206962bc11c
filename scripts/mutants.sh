#!/usr/bin/env bash
# Mutation check of the coordinator's reference differential:
#
#   scripts/mutants.sh [mutant-name ...]
#
# Copies the working tree (without target/) to a throwaway directory
# under $TMPDIR, runs `cargo test -q -p hotpath-baseline --test reference`
# on the unmutated copy, then once per mutant below with that one edit
# applied. Each mutant is (name, file, exact original text, replacement);
# the script refuses to run when an original no longer occurs exactly
# once in its file. Exits 1 when the unmutated copy fails or any mutant
# passes, 2 on a stale mutant or one that does not build. Names select
# a subset.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
core=crates/hotpath-core/src

# name | file | original | replacement, four entries per mutant.
mutants=(
  phase_b_floor_above_rank "$core/strategy/singlepath.rs"
  'let floor = best.map_or(0, |(rank, ..)| rank as usize);'
  'let floor = best.map_or(0, |(rank, ..)| rank as usize + 1);'

  stab_count_counts_the_neighbourhood "$core/strategy/overlap.rs"
  'self.scratch.hits.iter().filter(|&&i| self.set.rects[i as usize].contains(p)).count()'
  'self.scratch.hits.len()'

  stab_count_open_set "$core/strategy/overlap.rs"
  'self.scratch.hits.iter().filter(|&&i| self.set.rects[i as usize].contains(p)).count()'
  'self.scratch.hits.iter().filter(|&&i| { let r = self.set.rects[i as usize]; r.lo().x < p.x && p.x < r.hi().x && r.lo().y < p.y && p.y < r.hi().y }).count()'

  case1_length_tie_flipped "$core/strategy/singlepath.rs"
  'ra.cmp(rb).then_with(|| a.len.total_cmp(&b.len))'
  'ra.cmp(rb).then_with(|| b.len.total_cmp(&a.len))'

  case2_tie_to_the_generated_vertex "$core/strategy/singlepath.rs"
  'let floor = best.map_or(0, |(rank, ..)| rank as usize);'
  'let floor = best.map_or(0, |(rank, ..)| (rank as usize).saturating_sub(1));'

  case3_at_the_fsa_centroid "$core/strategy/singlepath.rs"
  'best = Some((depth as u32, false, region.centroid()));'
  'best = Some((depth as u32, false, st.fsa.centroid()));'

  expiry_one_tick_late "$core/time.rs"
  'te.after(self.len)'
  'te.after(self.len + 1)'

  top_n_length_tie_flipped "$core/index/path_table.rs"
  '(Reverse(r.count), Reverse(r.len.to_bits()), r.path.id)'
  '(Reverse(r.count), r.len.to_bits(), r.path.id)'

  case2_grid_probe_skips_a_cell "$core/index/grid.rs"
  'for cy in lo.1..=hi.1 {'
  'for cy in lo.1..hi.1 {'

  sparse_grid_walk_skips_the_range_check "$core/index/grid.rs"
  '.filter(|e| range.contains(&e.endpoint))'
  ''

  fsa_rebuild_keeps_the_last_batch "$core/strategy/overlap.rs"
  'self.rects.clear();'
  ''
)

# Occurrences of the literal $2 in the contents of file $1.
occurrences() {
  local text stripped
  text=$(cat "$1")
  stripped=${text//"$2"/}
  echo $(( (${#text} - ${#stripped}) / ${#2} ))
}

# Whether mutant $1 is among the names that follow (all when none do).
selected() {
  local want=$1; shift
  [ $# -eq 0 ] && return 0
  for n in "$@"; do [ "$n" = "$want" ] && return 0; done
  return 1
}

stale=0
for ((i = 0; i < ${#mutants[@]}; i += 4)); do
  name=${mutants[i]} file=${mutants[i+1]} orig=${mutants[i+2]}
  n=$(occurrences "$root/$file" "$orig")
  if [ "$n" -ne 1 ]; then
    echo "stale mutant $name: its original occurs $n times in $file" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 2

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./target -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"

test_cmd=(cargo test -q --offline -p hotpath-baseline --test reference)
build() { (cd "$work" && "${test_cmd[@]}" --no-run >/dev/null 2>&1); }
run() { (cd "$work" && "${test_cmd[@]}" >/dev/null 2>&1); }

if ! build || ! run; then
  echo "the unmutated copy fails the differential" >&2
  exit 1
fi
echo "unmutated passes"

survivors=0
for ((i = 0; i < ${#mutants[@]}; i += 4)); do
  name=${mutants[i]} file=${mutants[i+1]} orig=${mutants[i+2]} repl=${mutants[i+3]}
  selected "$name" "$@" || continue
  cp "$work/$file" "$work/$file.orig"
  text=$(cat "$work/$file.orig")
  printf '%s\n' "${text/"$orig"/"$repl"}" > "$work/$file"
  if ! build; then
    echo "mutant $name does not build" >&2
    exit 2
  elif run; then
    echo "SURVIVED $name"
    survivors=$((survivors + 1))
  else
    echo "killed   $name"
  fi
  mv "$work/$file.orig" "$work/$file"
done
[ "$survivors" -eq 0 ]
