#!/usr/bin/env bash
# hipcheck driver: every quality gate the tree ships, one flag per pass.
#
#   scripts/check.sh              # default gates: normal + ASan+UBSan tier-1
#   scripts/check.sh --fast       # normal build only
#   scripts/check.sh --flow       # hipcloud_flow whole-tree analysis + self-test
#                                 # (per-file lint rules and flow-* rules)
#   scripts/check.sh --flow-ipa   # --flow plus the interprocedural gates:
#                                 # cross-TU call-graph determinism at
#                                 # several job counts against the golden
#   scripts/check.sh --flow-wire  # --flow plus the wire-taint gates: the
#                                 # flow-wire-* fixture self-tests and the
#                                 # taint-map determinism dump against its
#                                 # golden at several job counts
#   scripts/check.sh --tidy       # clang-tidy over compile_commands.json
#                                 # (skips, not fails, if clang-tidy absent)
#   scripts/check.sh --audit      # HIPCLOUD_AUDIT=ON build, full tier-1 +
#                                 # audit-trip suite + determinism auditor
#   scripts/check.sh --tsan       # HIPCLOUD_SANITIZE=thread build, tier-1 +
#                                 # the parallel determinism sweep under TSan
#   scripts/check.sh --bench-smoke # build every bench binary and run the
#                                 # `bench`-labeled tests once (no JSON emit),
#                                 # including a no-acceleration env-matrix run
#   scripts/check.sh --scale      # full fig_scale run: the sharded world at
#                                 # 1/2/4/8(+auto) workers across all client
#                                 # scales plus the adaptive-lookahead
#                                 # ablation and the sharded RUBiS curve,
#                                 # regenerating BENCH_scale.json (fails on
#                                 # any worker-count hash mismatch), then the
#                                 # full sharded chaos drill (guest-link
#                                 # flaps masked with zero client errors),
#                                 # regenerating BENCH_shard_chaos.json
#   scripts/check.sh --all        # every pass above
#
# Flags compose (`--flow --tsan` runs exactly those two passes). Every
# pass runs even if an earlier one fails; the exit status is nonzero if
# ANY pass failed. Build parallelism honours CMAKE_BUILD_PARALLEL_LEVEL
# and test parallelism CTEST_PARALLEL_LEVEL (both default to nproc). All
# builds use -DHIPCLOUD_WERROR=ON: the gates are also the warning wall.
set -uo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc 2>/dev/null || echo 2)}"
tjobs="${CTEST_PARALLEL_LEVEL:-$(nproc 2>/dev/null || echo 2)}"

run_normal=0 run_san=0 run_flow=0 run_flow_ipa=0 \
  run_flow_wire=0 run_tidy=0 run_audit=0 run_tsan=0 run_bench=0 run_scale=0
if [[ $# -eq 0 ]]; then
  run_normal=1 run_san=1
fi
for arg in "$@"; do
  case "$arg" in
    --fast)  run_normal=1 ;;
    --flow)  run_flow=1 ;;
    --flow-ipa) run_flow=1 run_flow_ipa=1 ;;
    --flow-wire) run_flow=1 run_flow_wire=1 ;;
    --tidy)  run_tidy=1 ;;
    --audit) run_audit=1 ;;
    --tsan)  run_tsan=1 ;;
    --bench-smoke) run_bench=1 ;;
    --scale) run_scale=1 ;;
    --all)   run_normal=1 run_san=1 run_flow=1 run_flow_ipa=1 \
             run_flow_wire=1 run_tidy=1 run_audit=1 run_tsan=1 run_bench=1 \
             run_scale=1 ;;
    *)
      echo "usage: $0 [--fast] [--flow] [--flow-ipa] [--flow-wire]" \
           "[--tidy] [--audit] [--tsan] [--bench-smoke] [--scale] [--all]" >&2
      exit 2
      ;;
  esac
done

failures=()

# run <pass-name> <cmd...> — runs the command, records the pass name on
# failure, never aborts the script.
run() {
  local name="$1"
  shift
  echo "== $name =="
  if ! "$@"; then
    echo "** FAILED: $name **" >&2
    failures+=("$name")
  fi
}

# configure_build <dir> <extra cmake args...>
configure_build() {
  local dir="$1"
  shift
  cmake -S "$root" -B "$dir" -DHIPCLOUD_WERROR=ON "$@" >/dev/null &&
    cmake --build "$dir" -j "$jobs"
}

if [[ "$run_normal" == 1 ]]; then
  run "tier-1: normal build" \
    configure_build "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  run "tier-1: normal tests" \
    ctest --test-dir "$root/build" -LE bench -j "$tjobs" --output-on-failure
fi

if [[ "$run_flow" == 1 ]]; then
  # The analyzer needs the exported compile_commands.json, which the
  # configure step below produces as a side effect.
  run "flow: build hipcloud_flow" bash -c \
    "cmake -S '$root' -B '$root/build' -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DHIPCLOUD_WERROR=ON >/dev/null &&
     cmake --build '$root/build' -j '$jobs' --target hipcloud_flow"
  run "flow: self-test" \
    "$root/build/tools/hipcloud_flow" --self-test "$root/tools/flow/fixtures"
  run "flow: tree" \
    "$root/build/tools/hipcloud_flow" --root "$root" \
    --compdb "$root/build/compile_commands.json" --jobs "$jobs"
  if [[ "$run_flow_ipa" == 1 || "$run_flow_wire" == 1 ]]; then
    # Interprocedural extras (--flow-ipa and --flow-wire share them): the
    # linked cross-TU call graph and the resolved wire-taint map must be
    # byte-identical to their goldens at every job count (extraction
    # parallelism must never be observable in the merged summaries).
    run "flow-ipa/wire: call-graph + taint-map determinism (jobs 1/2/8)" \
      bash "$root/tools/flow/callgraph_determinism_test.sh" \
      "$root/build/tools/hipcloud_flow" \
      "$root/tools/flow/fixtures/callgraph" \
      "$root/tools/flow/fixtures/callgraph/expected_callgraph.txt" \
      "$root/tools/flow/fixtures/wireindex" \
      "$root/tools/flow/fixtures/wireindex/expected_taint.txt"
  fi
  if [[ "$run_flow_wire" == 1 ]]; then
    # The baseline must carry zero flow-wire debt — hand-rolled parsers
    # converge onto wire::Reader instead of accumulating quotas.
    run "flow-wire: no flow-wire baseline debt" \
      bash -c "! grep -q '^flow-wire' '$root/tools/flow/baseline.flow'"
  fi
fi

if [[ "$run_tidy" == 1 ]]; then
  # clang-tidy is optional tooling: absent in the minimal container, so
  # a missing binary is a SKIP, not a failure. When present it runs over
  # the same compile_commands.json the flow analyzer uses, with the
  # curated profile in .clang-tidy.
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== tidy: SKIPPED (clang-tidy not installed) =="
  else
    run "tidy: configure (export compile commands)" bash -c \
      "cmake -S '$root' -B '$root/build' -DCMAKE_BUILD_TYPE=RelWithDebInfo \
         -DHIPCLOUD_WERROR=ON >/dev/null"
    run "tidy: clang-tidy" bash -c \
      "cd '$root' && git ls-files 'src/*.cpp' |
         xargs -P '$jobs' -n 8 clang-tidy -p '$root/build' --quiet"
  fi
fi

if [[ "$run_san" == 1 ]]; then
  run "tier-1: ASan+UBSan build" \
    configure_build "$root/build-san" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHIPCLOUD_SANITIZE=ON
  run "tier-1: ASan+UBSan tests" \
    ctest --test-dir "$root/build-san" -LE bench -j "$tjobs" \
    --output-on-failure
fi

if [[ "$run_audit" == 1 ]]; then
  run "audit: HIPCLOUD_AUDIT=ON build" \
    configure_build "$root/build-audit" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHIPCLOUD_AUDIT=ON
  # Full tier-1 with audits armed: healthy code must not trip a single
  # invariant, and the audit-trip suite must see every planted
  # regression throw.
  run "audit: tier-1 with invariants armed" \
    ctest --test-dir "$root/build-audit" -LE bench -j "$tjobs" \
    --output-on-failure
  run "audit: determinism auditor (full grid)" \
    "$root/build-audit/bench/audit_determinism"
fi

if [[ "$run_tsan" == 1 ]]; then
  run "tsan: HIPCLOUD_SANITIZE=thread build" \
    configure_build "$root/build-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHIPCLOUD_SANITIZE=thread
  run "tsan: tier-1" \
    ctest --test-dir "$root/build-tsan" -LE bench -j "$tjobs" \
    --output-on-failure
  # The multi-threaded paths in the tree: the parallel sweep runner, the
  # shard coordinator (cross-shard inboxes, barrier epochs, per-shard
  # logging) and the sweep/logging machinery under them. Tier-1 above
  # already covers the shard unit/fabric tests under TSan; the two
  # auditors below drive both axes at full width.
  run "tsan: parallel determinism sweep" \
    "$root/build-tsan/bench/audit_determinism" --quick
  run "tsan: sharded scaling smoke" \
    "$root/build-tsan/bench/fig_scale" --quick
  run "tsan: sharded chaos smoke" \
    "$root/build-tsan/bench/fig_shard_chaos" --quick
fi

if [[ "$run_bench" == 1 ]]; then
  # Perf smoke: every bench binary must still build, and the
  # `bench`-labeled CTest entries (micro_crypto symmetric filter,
  # micro_sim --quick) must run clean once. No JSON is emitted — this
  # gate catches bit-rot in the bench tree, not perf regressions. A
  # second run with the accelerated crypto backends disabled proves the
  # scalar fallbacks stay healthy on every host.
  run "bench-smoke: build benches" \
    configure_build "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  run "bench-smoke: bench-labeled tests" \
    ctest --test-dir "$root/build" -L bench -j "$tjobs" --output-on-failure
  run "bench-smoke: bench-labeled tests (no SHA-NI / no multi-buffer)" \
    env HIPCLOUD_NO_SHANI=1 HIPCLOUD_NO_SHAMB=1 HIPCLOUD_NO_AESNI=1 \
    ctest --test-dir "$root/build" -L bench -j "$tjobs" --output-on-failure
fi

if [[ "$run_scale" == 1 ]]; then
  # Full scaling curve: regenerates BENCH_scale.json from the normal
  # build and fails on any worker-count hash divergence. Runs from $root
  # so the JSON lands next to the other BENCH_*.json artifacts.
  run "scale: build fig_scale + fig_shard_chaos" bash -c \
    "cmake -S '$root' -B '$root/build' -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DHIPCLOUD_WERROR=ON >/dev/null &&
     cmake --build '$root/build' -j '$jobs' --target fig_scale \
       fig_shard_chaos"
  run "scale: sharded scaling curve (full)" bash -c \
    "cd '$root' && '$root/build/bench/fig_scale'"
  run "scale: sharded chaos drill (full)" bash -c \
    "cd '$root' && '$root/build/bench/fig_shard_chaos'"
fi

echo
if [[ ${#failures[@]} -gt 0 ]]; then
  echo "FAILED passes:"
  printf '  - %s\n' "${failures[@]}"
  exit 1
fi
echo "== all green =="
