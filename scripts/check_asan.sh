#!/bin/sh
# Builds the tree with AddressSanitizer (-DHG_SANITIZE=address) and runs the
# memory-hazard-sensitive suites: codec/fuzz decoding of corrupted inputs,
# the fail-point + fault-injection paths, the TCP transport, and checkpoint
# restore from truncated/bit-flipped images. Any heap error fails the run
# (ASan exits nonzero).
set -eu
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DHG_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target hg_util_tests hg_net_tests hg_core_tests hg_io_tests hg_graph_tests hg_serve_tests

export ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}"
"$BUILD_DIR"/tests/hg_util_tests --gtest_filter='FailPoint*:Codec*:Buffer*'
"$BUILD_DIR"/tests/hg_net_tests
"$BUILD_DIR"/tests/hg_core_tests \
  --gtest_filter='FaultInjection*:DifferentialFuzz*:Recovery*:Checkpoint*:*MessagePath*:HybridGolden*:TraceSpans*:*Pipeline*:*Adaptive*:Frontier*:SkewArmor*:EpochDifferential*:Ghp*:WireBounds*'
# The overlay decodes delta-run blobs (including torn-compaction leftovers)
# and the serve protocol decodes wire payloads — both are corruption-fuzzed.
"$BUILD_DIR"/tests/hg_graph_tests --gtest_filter='VeBlockOverlay*:EdgeStream*:BoundaryInner*'
"$BUILD_DIR"/tests/hg_serve_tests
# The spill suite decodes deliberately truncated/bit-flipped run files and
# streams merges through minimal buffers — the OOB-sensitive paths the
# corruption fuzzers exist for.
"$BUILD_DIR"/tests/hg_io_tests \
  --gtest_filter='*Spill*:*MergeIterator*:*Corruption*:Prefetch*:Storage*'
echo "ASan clean: codec fuzz + fault injection + transport + recovery + spill + overlay/serve tests ran leak/overflow-free"
