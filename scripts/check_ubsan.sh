#!/bin/sh
# Builds the tree with UndefinedBehaviorSanitizer (-DHG_SANITIZE=undefined,
# non-recoverable so the first report aborts) and runs all seven test
# binaries. Signed overflow, misaligned or out-of-range loads, bad shifts
# and invalid enum/bool values in the codecs, the spill merge, the cost
# model and the engine fail the run (UBSan exits nonzero). UBSan leaves the
# allocator alone, so hg_alloc_tests keeps counting allocations.
set -eu
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=undefined \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target hg_util_tests hg_io_tests hg_net_tests hg_graph_tests \
  hg_core_tests hg_alloc_tests hg_serve_tests

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
for t in hg_util_tests hg_io_tests hg_net_tests hg_graph_tests hg_core_tests \
         hg_alloc_tests hg_serve_tests; do
  echo "--> $t"
  "$BUILD_DIR"/tests/$t
done
echo "UBSan clean: all seven test binaries ran without undefined behavior"
