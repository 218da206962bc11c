#!/usr/bin/env bash
# Mutation check of the coordinator's reference differential, of the
# core's checkpoint and expiry tests, of the workload generator's tests
# and of the run reports' tests:
#
#   scripts/mutants.sh [mutant-name ...]
#
# Copies the working tree (without target/) to a throwaway directory
# under $TMPDIR. For each table below it runs the table's test command
# on the unmutated copy, then once per mutant with that one edit
# applied: `cargo test -q -p hotpath-baseline --test reference` for the
# core's mutants, `cargo test -q -p hotpath-core` for the checkpoint's
# and the expiry heap's,
# `cargo test -q -p hotpath-netsim` for the generator's,
# `cargo test -q -p hotpath-sim` for the report's.
# Each mutant is (name, file, exact original text, replacement); the
# script refuses to run when an original no longer occurs exactly once
# in its file. Exits 1 when an unmutated copy fails or any mutant
# passes, 2 on a stale mutant or one that does not build. Names select
# a subset.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
core=crates/hotpath-core/src
netsim=crates/hotpath-netsim/src
sim=crates/hotpath-sim/src

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

  fsa_clear_keeps_the_last_batch "$core/strategy/overlap.rs"
  'self.rects.clear();'
  ''

  push_reports_a_hit_twice "$core/strategy/overlap.rs"
  'if self.stamps[i as usize] != self.gen && meets(i) {'
  'if meets(i) {'

  sweep_ends_before_starts "$core/strategy/overlap.rs"
  'a.0.total_cmp(&b.0).then(b.1.cmp(&a.1))'
  'a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))'

  degraded_epoch_mints_off_the_centroid "$core/strategy/singlepath.rs"
  'let cand = (1, false, st.fsa.centroid());'
  'let cand = (1, false, st.fsa.lo());'

  degrade_trigger_off_by_one "$core/coordinator.rs"
  'states.len() > degrade'
  'states.len() >= degrade'

  eject_keys_the_oldest_state "$core/coordinator.rs"
  '*te = (*te).max(s.te);'
  '*te = (*te).min(s.te);'

  eject_tie_to_the_larger_id "$core/coordinator.rs"
  'slowest.sort_unstable();'
  'slowest.sort_unstable_by_key(|&(te, object)| (te, std::cmp::Reverse(object)));'

  eject_one_client_too_many "$core/coordinator.rs"
  'if kept <= cap {'
  'if kept < cap {'

  gathered_ends_skip_the_liveness_filter "$core/strategy/singlepath.rs"
  'for e in arrivals.ends(i).iter().filter(|e| table.contains(e.id)) {'
  'for e in arrivals.ends(i).iter() {'

  phase_b_skips_paths_earlier_neighbours_created "$core/strategy/singlepath.rs"
  'for e in earlier.iter().filter_map(|&j| made[j as usize]) {'
  'for e in earlier.iter().filter_map(|&j| made[j as usize].filter(|_| false)) {'
)

# The checkpoint's mutants (codec and adoption), in the same layout.
checkpoint_mutants=(
  decoder_accepts_trailing_bytes "$core/checkpoint.rs"
  'if r.at != bytes.len() {'
  'if false {'

  adoption_keeps_an_event_naming_no_path "$core/index/path_table.rs"
  'return Err(format!("an expiry event names {}, which is not stored", ev.id));'
  'continue;'

  adoption_ignores_the_config_echo "$core/coordinator.rs"
  'if image.config != config {'
  'if false {'

  restore_drops_the_pending_batch "$core/coordinator.rs"
  'pending: image.pending.clone(),'
  'pending: Vec::new(),'
)

# The expiry heap's mutants, in the same layout.
expiry_mutants=(
  expiry_fires_one_tick_early "$core/index/path_table.rs"
  'if ev.expiry > now {'
  'if ev.expiry > now.after(1) {'

  equal_expiries_pop_in_descending_id "$core/index/path_table.rs"
  '#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ExpiryEvent {
    /// Expiry timestamp `te + W`.
    pub expiry: Timestamp,
    /// The path whose count decrements then.
    pub id: PathId,
}'
  '#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExpiryEvent {
    /// Expiry timestamp `te + W`.
    pub expiry: Timestamp,
    /// The path whose count decrements then.
    pub id: PathId,
}

impl Ord for ExpiryEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.expiry.cmp(&other.expiry).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for ExpiryEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}'
)

# The workload generator's mutants, in the same layout.
generator_mutants=(
  walker_keeps_a_stale_position "$netsim/mobility/walker.rs"
  'self.pos = locate(net, self.from, self.link, self.offset);
        self.pos'
  'locate(net, self.from, self.link, self.offset)'

  mover_prefix_one_too_long "$netsim/mobility/population.rs"
  'self.movers = movers.min(self.walkers.len());'
  'self.movers = (movers + 1).min(self.walkers.len());'
)

# The per-epoch CSV's derived comm columns, in the same layout.
report_mutants=(
  comm_byte_sizes_swapped "$sim/report.rs"
  '(e.comm.uplink_msgs * ClientState::WIRE_BYTES as u64).to_string(),
                downlink.to_string(),
                (downlink * EndpointResponse::WIRE_BYTES as u64).to_string(),'
  '(e.comm.uplink_msgs * EndpointResponse::WIRE_BYTES as u64).to_string(),
                downlink.to_string(),
                (downlink * ClientState::WIRE_BYTES as u64).to_string(),'

  downlink_from_the_uplink_delta "$sim/report.rs"
  'let downlink = answered - std::mem::replace(&mut answered_before, answered);'
  'let downlink = e.comm.uplink_msgs;'
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
for table in mutants checkpoint_mutants expiry_mutants generator_mutants report_mutants; do
  declare -n entries=$table
  for ((i = 0; i < ${#entries[@]}; i += 4)); do
    name=${entries[i]} file=${entries[i+1]} orig=${entries[i+2]}
    n=$(occurrences "$root/$file" "$orig")
    if [ "$n" -ne 1 ]; then
      echo "stale mutant $name: its original occurs $n times in $file" >&2
      stale=1
    fi
  done
done
[ "$stale" -eq 0 ] || exit 2

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./target -cf - . | tar -C "$work" -xf -
export CARGO_TARGET_DIR="$work/target"

build() { (cd "$work" && "${test_cmd[@]}" --no-run >/dev/null 2>&1); }
run() { (cd "$work" && "${test_cmd[@]}" >/dev/null 2>&1); }

names=("$@")
survivors=0
# check <table> <test command ...>: the unmutated copy must pass the
# command and every selected mutant of the table must fail it.
check() {
  local -n table=$1
  shift
  test_cmd=("$@")
  local i any=0
  for ((i = 0; i < ${#table[@]}; i += 4)); do
    selected "${table[i]}" "${names[@]}" && any=1
  done
  [ "$any" -eq 1 ] || return 0

  if ! build || ! run; then
    echo "the unmutated copy fails ${test_cmd[*]}" >&2
    exit 1
  fi
  echo "unmutated passes ${test_cmd[*]}"

  for ((i = 0; i < ${#table[@]}; i += 4)); do
    name=${table[i]} file=${table[i+1]} orig=${table[i+2]} repl=${table[i+3]}
    selected "$name" "${names[@]}" || continue
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
    # A restored file keeps the mtime of its copy, older than the
    # mutant's build: touch it so the next build of the crate, the next
    # table's unmutated run included, does not reuse the mutant.
    mv "$work/$file.orig" "$work/$file"
    touch "$work/$file"
  done
}

check mutants cargo test -q --offline -p hotpath-baseline --test reference
check checkpoint_mutants cargo test -q --offline -p hotpath-core
check expiry_mutants cargo test -q --offline -p hotpath-core
check generator_mutants cargo test -q --offline -p hotpath-netsim
check report_mutants cargo test -q --offline -p hotpath-sim
[ "$survivors" -eq 0 ]
