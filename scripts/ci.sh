#!/usr/bin/env bash
# Canonical verification entry point: configure, build, and run the tier-1
# suite. This is what CI runs on every change and what a local checkout
# should run before pushing.
#
# Usage:
#   scripts/ci.sh                      # plain build + tier1
#   MULTIEDGE_SANITIZE=ON scripts/ci.sh        # ASan+UBSan build
#   MULTIEDGE_SANITIZE=address scripts/ci.sh   # pick specific sanitizers
#   CTEST_LABEL=tier2 scripts/ci.sh            # run the stress tier instead
#   CTEST_LABEL=trace scripts/ci.sh            # just the observability tests
#   CTEST_LABEL=kv scripts/ci.sh               # just the key-value store suite
#
# Environment:
#   MULTIEDGE_SANITIZE  ""/OFF (default), ON (= address,undefined), or any
#                       value accepted by -fsanitize=
#   BUILD_DIR           build directory (default: build, or build-san when
#                       sanitizers are on)
#   CTEST_LABEL         ctest -L label to run (default: tier1)
#   MULTIEDGE_SKIP_BENCH  set non-empty to skip the Release bench smoke stage
#   BENCH_BUILD_DIR     Release build directory for the bench stage
#                       (default: build-bench)
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${MULTIEDGE_SANITIZE:-}"
case "$SAN" in
  OFF|off) SAN="" ;;
  ON|on) SAN="address,undefined" ;;
esac

if [ -n "$SAN" ]; then
  BUILD_DIR="${BUILD_DIR:-build-san}"
else
  BUILD_DIR="${BUILD_DIR:-build}"
fi
LABEL="${CTEST_LABEL:-tier1}"

# Flight-recorder postmortems from stress runs land here; CI uploads the
# directory as an artifact when a job goes red (see .github/workflows/ci.yml).
export MULTIEDGE_POSTMORTEM_DIR="${MULTIEDGE_POSTMORTEM_DIR:-$PWD/postmortems}"
mkdir -p "$MULTIEDGE_POSTMORTEM_DIR"

# Prefer Ninja for fresh build dirs; never fight an existing cache's
# generator choice.
GEN_ARGS=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
  GEN_ARGS+=(-G Ninja)
fi

# The plain build treats the project's own warnings as errors. restrict
# stays a warning: GCC 12 reports a false positive inside libstdc++'s
# std::string operator+.
WERROR_ARGS=()
if [ -z "$SAN" ]; then
  WERROR_ARGS+=("-DCMAKE_CXX_FLAGS=-Werror -Wno-error=restrict")
fi

echo "== configure ($BUILD_DIR, sanitize='${SAN:-none}')"
cmake -B "$BUILD_DIR" -S . "${GEN_ARGS[@]}" "${WERROR_ARGS[@]}" \
  -DMULTIEDGE_SANITIZE="$SAN"

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The x86-64 fiber switch (src/sim/fiber_switch_x86_64.S) returns on a
# different stack than it was called on, which a CET shadow stack would
# kill. Its object carries no GNU property note, so no binary linking it may
# come out marked shadow-stack compatible, whatever -fcf-protection the
# toolchain defaults to.
if [ "$(uname -m)" = x86_64 ]; then
  echo "== shadow-stack marking"
  if readelf -n "$BUILD_DIR/tests/sim_test" | grep -q SHSTK; then
    echo "sim_test is marked SHSTK-compatible; the fiber switch breaks call/ret pairing"
    exit 1
  fi
fi

echo "== ctest -L $LABEL"
ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure -j "$(nproc)"

# The collective and key-value layers ride along with every tier-1 run
# (differential algorithm checks + fault tolerance; see tests/coll_test.cpp
# and tests/kv_test.cpp).
if [ "$LABEL" = "tier1" ]; then
  echo "== ctest -L coll"
  ctest --test-dir "$BUILD_DIR" -L coll --output-on-failure -j "$(nproc)"
  echo "== ctest -L kv"
  ctest --test-dir "$BUILD_DIR" -L kv --output-on-failure -j "$(nproc)"
  echo "== ctest -L member"
  ctest --test-dir "$BUILD_DIR" -L member --output-on-failure -j "$(nproc)"
  echo "== ctest -L svc"
  ctest --test-dir "$BUILD_DIR" -L svc --output-on-failure -j "$(nproc)"
  echo "== ctest -L rma"
  ctest --test-dir "$BUILD_DIR" -L rma --output-on-failure -j "$(nproc)"
fi

# A green test tier is necessary but not sufficient for the hot path: a
# Release bench smoke catches throughput regressions and — via the exact
# per-workload counter fingerprints in BENCH_simspeed.json — any behavioral
# drift in the protocol. Skipped under sanitizers (wall-clock there is
# meaningless) or when MULTIEDGE_SKIP_BENCH is set.
if [ -z "${MULTIEDGE_SKIP_BENCH:-}" ] && [ -z "$SAN" ]; then
  BENCH_DIR="${BENCH_BUILD_DIR:-build-bench}"
  BGEN_ARGS=()
  if [ ! -f "$BENCH_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    BGEN_ARGS+=(-G Ninja)
  fi
  echo "== bench smoke ($BENCH_DIR, Release)"
  cmake -B "$BENCH_DIR" -S . "${BGEN_ARGS[@]}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BENCH_DIR" -j "$(nproc)" --target paper_bench \
    --target simspeed --target coll_bench --target kv_bench --target svc_bench \
    --target scale_bench --target rma_bench
  # perfbench/ is its own CMake package that compiles ../src and links the
  # libraries by target name; building it here makes a src/ change that
  # breaks the end-to-end benchmark fail CI.
  cmake -S perfbench -B "$BENCH_DIR/perfbench"
  cmake --build "$BENCH_DIR/perfbench" -j "$(nproc)"
  # ... and running it checks what an event-loop change must keep: a
  # repeated input reproduces its per-layer fingerprints, and a traced run
  # matches an untraced one. The last stdout line must say "correct": true.
  for w in kv-write dsm-radix; do
    log="$BENCH_DIR/perfbench-$w.log"
    "$BENCH_DIR"/perfbench/perfbench --workload "$w" --seed 1 --seconds 2 \
      --trace 1 > "$log" || { tail -n 20 "$log"; exit 1; }
    if ! tail -n 1 "$log" | grep -q '^{"correct": true,'; then
      echo "perfbench $w: not correct"
      tail -n 20 "$log"
      exit 1
    fi
  done
  # The paper's evaluation: Figure 2, Table 1, Figures 3-6, the ablations
  # and the future-work studies. Gates are the paper's claims (latency band,
  # line-rate fractions, the Figure 3 speedup ordering, Figure 6 within 2 %
  # of Figure 5, ...), and every row's fingerprint covers each printed digit
  # of the committed BENCH_paper.json.
  "$BENCH_DIR"/bench/paper_bench --check=BENCH_paper.json
  # Protocol smoke: throughput floor + exact counter fingerprints, plus the
  # small-op submission-batching gate (smallop-batched must finish >= 1.3x
  # faster in simulated time than smallop-unbatched; see bench/simspeed.cpp).
  "$BENCH_DIR"/bench/simspeed --check=BENCH_simspeed.json
  # Collective layer: headline properties (log-depth barrier wins at 16
  # nodes, ring all-reduce saturates both 2L rails) plus exact per-workload
  # counter fingerprints against the committed BENCH_coll.json.
  "$BENCH_DIR"/bench/coll_bench --check=BENCH_coll.json
  # Key-value store: zipfian one-sided GETs must get >= 1.5x throughput from
  # the second rail and hold the committed p99 tail, with exact counter
  # fingerprints against BENCH_kv.json. Also gates the PUT-heavy hot-server
  # pair: doorbell batching + selective signaling + server burst drain must
  # lift small-value throughput >= 1.3x over the unbatched run.
  "$BENCH_DIR"/bench/kv_bench --check=BENCH_kv.json
  # Serving tier: open-loop overload curves. The broker must match the
  # per-client baseline's peak goodput with >= 8x fewer connections, hold
  # >= 0.8x its peak goodput at ~2x the saturating load with explicit
  # admission rejections (not unbounded queueing) absorbing the overload,
  # and keep its accepted-op p99 below the collapsing baseline's, with
  # exact counter fingerprints against BENCH_svc.json. The artifact carries
  # the full latency-vs-offered-load and incast curves (see ci.yml upload).
  "$BENCH_DIR"/bench/svc_bench --json="$BENCH_DIR"/BENCH_svc.json \
    --check=BENCH_svc.json
  # Notified-access RMA: at 8 nodes, blocking in wait_notify must beat 1us
  # flag-polling by >= 1.3x per hop, with exact counter fingerprints
  # against BENCH_rma.json (see bench/rma_bench.cpp and DESIGN.md §17).
  "$BENCH_DIR"/bench/rma_bench --check=BENCH_rma.json
  # Scale-out: SWIM vs mesh convergence, probe-rate asymptotics at 128
  # nodes, and KV/collective scaling on hierarchical fabrics, against the
  # committed BENCH_scale.json (full sweep: the 128-node rows ARE the gate).
  "$BENCH_DIR"/bench/scale_bench --check=BENCH_scale.json
fi

echo "== OK"
