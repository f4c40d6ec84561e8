#!/usr/bin/env bash
# Style check for the repository's OCaml sources (the CI "format" job).
#
# ocamlformat is not part of the pinned toolchain, so this script enforces
# the invariants the codebase already follows and that keep diffs from
# churning: no tabs, no trailing whitespace, no CRLF line endings, and a
# final newline in every source file.  Run it locally with:
#
#   bash scripts/check_style.sh
#
# It exits non-zero and prints the offending file:line pairs on drift.
set -u

cd "$(dirname "$0")/.."

# markdown is excluded: trailing double-spaces are meaningful there, and
# PAPERS.md / SNIPPETS.md are reference material, not code
files=$(git ls-files -- '*.ml' '*.mli' 'dune' '*/dune' 'dune-project' '*.sh' '*.yml')

status=0

fail() {
  echo "style: $1"
  status=1
}

# 1. no tab characters
hits=$(grep -nP '\t' $files 2>/dev/null)
if [ -n "$hits" ]; then
  fail "tab characters found:"
  echo "$hits" | head -20
fi

# 2. no trailing whitespace
hits=$(grep -nE ' +$' $files 2>/dev/null)
if [ -n "$hits" ]; then
  fail "trailing whitespace found:"
  echo "$hits" | head -20
fi

# 3. no CRLF line endings
hits=$(grep -lP '\r$' $files 2>/dev/null)
if [ -n "$hits" ]; then
  fail "CRLF line endings found:"
  echo "$hits" | head -20
fi

# 4. every file ends with a newline
for f in $files; do
  if [ -s "$f" ] && [ -n "$(tail -c 1 "$f")" ]; then
    fail "$f: missing final newline"
  fi
done

# 5. every library module has an explicit interface.  lib/core/magis.ml is
# the facade (pure re-exports; an .mli would just duplicate it).
for f in $(git ls-files -- 'lib/*.ml' 'lib/**/*.ml'); do
  case "$f" in
    lib/core/magis.ml) continue ;;
  esac
  if [ ! -f "${f}i" ]; then
    fail "$f: library module without a corresponding .mli"
  fi
done

# 6. lib/obs is the bottom of the dependency stack: every other library
# may instrument through it, so it must never depend back on one of them
# (only the compiler stdlib and unix).
hits=$(grep -nE 'magis_[a-z]+' lib/obs/dune 2>/dev/null | grep -v 'name magis_obs')
if [ -n "$hits" ]; then
  fail "lib/obs/dune depends on another magis library (layering violation):"
  echo "$hits"
fi

# 7. every rewrite rule declares its soundness status: each rule record
# in the two rule modules must carry a spec field (Sound templates or an
# explicit Waiver) for the Rule_sound verifier to discharge.  Counting
# rule names against spec fields keeps the check syntactic but exact:
# both appear once per rule record.
for f in lib/rules/taso_rules.ml lib/rules/sched_rules.ml; do
  names=$(grep -cE '^ *name = "' "$f")
  specs=$(grep -cE '^ *spec =' "$f")
  if [ "$names" != "$specs" ]; then
    fail "$f: $names rule(s) but $specs spec declaration(s) — every rule must declare Sound templates or a Waiver"
  fi
done

# 8. lib/ir is the bottom of the compiler stack: the graph, its shape
# semantics and the Reach closures every analysis layer shares.  It must
# never depend on another magis library, so those users stay above it.
hits=$(grep -nE 'magis_[a-z]+' lib/ir/dune 2>/dev/null | grep -v 'name magis_ir')
if [ -n "$hits" ]; then
  fail "lib/ir/dune depends on another magis library (layering violation):"
  echo "$hits"
fi

# 9. lib/ir, lib/sched, lib/dgraph and lib/ftree run on every search
# candidate or every pop (rescheduling, the F-Tree refresh of
# Algorithm 1), so their maps, sets and queues compare keys
# monomorphically: no functor key that forwards to the polymorphic
# compare (e.g. a tuple key declared with `let compare = compare`).
hits=$(grep -nE 'let compare = (Stdlib\.)?compare( |$)' \
  $(git ls-files -- 'lib/ir/*.ml' 'lib/sched/*.ml' 'lib/dgraph/*.ml' 'lib/ftree/*.ml') 2>/dev/null)
if [ -n "$hits" ]; then
  fail "polymorphic-compare functor key in a per-candidate layer (lib/ir, lib/sched, lib/dgraph, lib/ftree):"
  echo "$hits"
fi

# 10. the simulator, the lifetime analysis, the F-Tree, the WL hash and
# the incremental rescheduler (incremental.ml, and the member table,
# partition and schedulers it schedules a window with) run on every
# search candidate or every pop, so they read node records, operand
# shapes, operands, consumers, membership and member-set outputs from
# one Graph_index: no node-by-node lookup in the graph's persistent
# maps (Graph.node, op, shape, pre, succ_set, suc, mem or outs_of;
# `Graph.node` as a type, annotation or array, is fine).
# Partition.partition and Reorder's graph-keyed entry points build one
# index and read its member table.
hits=$(grep -nP 'Graph\.(node(?!\s*(\)|array))|op|shape|pre|succ_set|suc|mem|outs_of)\b' \
  lib/cost/simulator.ml lib/cost/lifetime.ml lib/ftree/ftree.ml \
  lib/ir/wl_hash.ml lib/sched/incremental.ml lib/sched/members.ml \
  lib/sched/partition.ml lib/sched/reorder.ml 2>/dev/null)
if [ -n "$hits" ]; then
  fail "per-node map lookup in the simulator, the lifetime analysis, the F-Tree, the WL hash or the rescheduler (read a Graph_index instead):"
  echo "$hits"
fi

# 10 (continued). the rewrite rules match on every pop: their site
# passes read the popped state's Rule.view (its index's node array,
# consumers by slot and order) and their builds prune from the removed
# node upward, so lib/rules reads no graph map and walks no whole
# graph (Graph.fold, iter, nodes, node_ids, node, op, shape, suc,
# succ_set, pre, out_degree, mem, outputs, topo_order or prune_dead).
hits=$(grep -HnP 'Graph\.(node(?!\s*(\)|array))|nodes|node_ids|fold|iter|op|shape|suc|succ_set|pre|out_degree|mem|outputs|topo_order|prune_dead)\b' \
  $(git ls-files -- 'lib/rules/*.ml') 2>/dev/null)
if [ -n "$hits" ]; then
  fail "graph-map read or whole-graph walk in lib/rules (match on the Rule.view's index, prune with Graph.prune_from):"
  echo "$hits"
fi

# 11. the fission check has one implementation, Fission.structure on a
# Graph_index: the map-walking Graph.is_convex and
# Graph.is_weakly_connected stay in lib/ir as references for the tests,
# and no library calls them.
hits=$(grep -rnP 'Graph\.(is_convex|is_weakly_connected)\b' \
  $(git ls-files -- 'lib/*.ml' 'lib/**/*.ml') 2>/dev/null)
if [ -n "$hits" ]; then
  fail "map-walking convexity or connectivity test in a library (use Fission.structure on a Graph_index):"
  echo "$hits"
fi

# 12. a search candidate's topological order is its Graph_index's
# (Graph_index.order, forced once by the WL hash and read again by the
# rescheduler): no Graph.topo_order walk between the proposal type and
# the main loop's end in search.ml.
hits=$(awk '/^type proposal = /{on=1} /^\(\* Convenience wrappers/{on=0}
  on && /Graph\.topo_order/{print FILENAME ":" FNR ": " $0}' lib/opt/search.ml)
if [ -n "$hits" ]; then
  fail "Graph.topo_order on search.ml's candidate path (read Graph_index.order of the candidate's index):"
  echo "$hits"
fi

# 13. a search candidate is evaluated as a delta of its popped parent:
# on search.ml's candidate path a rewrite is relabelled from the
# parent's WL labels (Wl_hash.relabel_on) and a node's base cost is
# inherited from the parent's (Op_cost.inherited_cost_on), so neither
# the full WL hash (Wl_hash.hash_on, Wl_hash.hash) nor a direct
# Op_cost.node_cost_on appears there.  The trajectory fingerprint,
# which digests the input graph once per run, is exempt.
hits=$(awk '/^type proposal = /{on=1} /^\(\* Convenience wrappers/{on=0}
  /^let trajectory_fingerprint /{skip=1; next} skip && /^(let |\(\*)/{skip=0}
  on && !skip && /Wl_hash\.hash(_on)?([^_a-zA-Z0-9]|$)|Op_cost\.node_cost_on/{print FILENAME ":" FNR ": " $0}' lib/opt/search.ml)
if [ -n "$hits" ]; then
  fail "full WL hash or operator-cost query on search.ml's candidate path (relabel and inherit from the parent view):"
  echo "$hits"
fi

# 14. the Reach closure has one builder, Reach.of_arrays, over the
# index's own arrays (node records and consumers by operand slot, over
# the index's order): nothing in reach.ml reads a graph map
# (`Graph.node` as a type is fine).
hits=$(grep -HnP 'Graph\.(node(?!\s*(\)|array))|pre|succ_set|suc|mem|topo_order)\b' lib/ir/reach.ml)
if [ -n "$hits" ]; then
  fail "graph map read in lib/ir/reach.ml (read the index's arrays):"
  echo "$hits"
fi

# 15. the operator cost is a pure function of hardware, operator and
# shapes: a roofline formula is cheaper to compute than to look up, so
# lib/cost/op_cost.ml keeps no memo table, lock or counter (no Mutex,
# Hashtbl or mutable field), and every domain shares one Op_cost.t.
hits=$(grep -HnP '\b(Mutex|Hashtbl|mutable)\b' lib/cost/op_cost.ml)
if [ -n "$hits" ]; then
  fail "memo table, lock or mutable field in lib/cost/op_cost.ml (compute the cost instead):"
  echo "$hits"
fi

# 16. the simulator makes the only forward pass of a simulation: its
# pass over the schedule records positions and last readers, which
# Lifetime.sweep turns into the memory analysis, so
# lib/cost/simulator.ml calls no Lifetime.analyze or Lifetime.analyze_on.
hits=$(grep -HnP 'Lifetime\.analyze(_on)?\b' lib/cost/simulator.ml)
if [ -n "$hits" ]; then
  fail "second forward pass in lib/cost/simulator.ml (hand the pass's arrays to Lifetime.sweep):"
  echo "$hits"
fi

# 17. everything a pop's candidates read (the pop's index, positions
# and WL labels before they are hashed, its rescheduling context and
# base costs before the misses are evaluated) is built once, before
# them, and the loop state is one record: lib/opt/search.ml takes no
# lock and defers nothing to the first candidate that asks (no Mutex,
# Atomic, Lazy or lazy).
hits=$(grep -HnP '\b(Mutex|Atomic|Lazy|lazy)\b' lib/opt/search.ml)
if [ -n "$hits" ]; then
  fail "lock, atomic or lazy value in lib/opt/search.ml (build the pop's context before its candidates read it):"
  echo "$hits"
fi

# 18. the simulation cache is probed once per survivor, right after
# dedup, and only misses are evaluated: in lib/opt/search.ml
# Sim_cache.find appears only in expand's [probe] (so never in
# hash_proposal, before dedup, nor in evaluate_proposal, which only
# stores the miss it evaluated).
# With no striped probing left, the cache is one Hashtbl under one
# Mutex, and nothing under lib/ names Striped.
hits=$(awk '/let probe /{probe=1; ind=match($0, /[^ ]/); next}
  probe && /^ *in$/ && match($0, /[^ ]/) == ind {probe=0; next}
  !probe && /Sim_cache\.find/{print FILENAME ":" FNR ": " $0}' lib/opt/search.ml
  grep -rHnw 'Striped' lib/)
if [ -n "$hits" ]; then
  fail "cache probe off the serial probe in search.ml, or a striped table under lib/ (probe once per survivor after dedup):"
  echo "$hits"
fi

# 19. a search stops only through its caller's poll, and signals belong
# to the process that owns them (the CLI, the daemon), which wires them
# into that poll: nothing under lib/opt or lib/frontier names Interrupt.
hits=$(grep -rHnw 'Interrupt' lib/opt lib/frontier)
if [ -n "$hits" ]; then
  fail "signal state read under lib/opt or lib/frontier (stop the search through its poll):"
  echo "$hits"
fi

# 20. the search is one serial loop, and only the daemon runs domains:
# outside lib/serve nothing under lib/ calls Domain.spawn, and no
# scanned file names the deleted domain-pool library (the pattern is
# bracketed so this script does not match itself).
hits=$(grep -rHn 'Domain\.spawn' lib --include='*.ml' | grep -v '^lib/serve/'
  grep -Hn 'Magis_[p]ar' $files 2>/dev/null)
if [ -n "$hits" ]; then
  fail "domain spawned outside lib/serve, or the domain-pool library named (the search runs one serial loop):"
  echo "$hits"
fi

# 21. a run keeps one accounting table, and every step counts into it
# only once the step has succeeded, so a retried candidate is counted
# once without a table of its own: lib/opt/search.ml calls fresh_table
# exactly once, for the run's table.
calls=$(grep -n 'fresh_table ()' lib/opt/search.ml | grep -v 'let fresh_table ()')
if [ "$(echo "$calls" | grep -c .)" -ne 1 ]; then
  fail "fresh_table called other than once in lib/opt/search.ml (count into the run's one table):"
  echo "$calls"
fi

# 22. no baseline outlives its gate: every file in bench/baselines/ is
# named by a `bash scripts/compare_bench.sh` line of the CI workflow, and
# every baseline such a line names exists.
gated=$(grep -hE '^ *bash scripts/compare_bench\.sh ' .github/workflows/ci.yml |
  grep -oE 'bench/baselines/[^ ]+' | sort -u)
for f in bench/baselines/*; do
  [ -e "$f" ] || continue
  if ! echo "$gated" | grep -qxF "$f"; then
    fail "$f: baseline that no compare_bench.sh line in .github/workflows/ci.yml gates"
  fi
done
for f in $gated; do
  if [ ! -f "$f" ]; then
    fail "$f: gated by .github/workflows/ci.yml but missing"
  fi
done

# 23. no byte from a socket is ever unmarshalled: outside the checkpoint
# container (lib/resilience/checkpoint.ml, which checks a file's header,
# length and digest first) and the search's own replayed F-Trees
# (lib/opt/search.ml, bytes this process wrote), no OCaml source calls
# Marshal.from_*.
hits=$(grep -HnP 'Marshal\.from_' $(git ls-files -- '*.ml' '*.mli') 2>/dev/null |
  grep -vE '^(lib/resilience/checkpoint\.ml|lib/opt/search\.ml):')
if [ -n "$hits" ]; then
  fail "Marshal.from_* outside lib/resilience/checkpoint.ml and lib/opt/search.ml (unmarshal only bytes this process or its checkpoint container vouches for):"
  echo "$hits"
fi

if [ "$status" -eq 0 ]; then
  echo "style: clean ($(echo "$files" | wc -w) files)"
fi
exit "$status"
