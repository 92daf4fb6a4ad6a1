#!/bin/sh
# Single-entry CI gate: plain build + full test suite, then both sanitizer
# sweeps. Everything a change must pass before it merges.
#
#   scripts/ci.sh            # uses build/, build-asan/, build-tsan/
set -eu
cd "$(dirname "$0")/.."

echo "==> header hygiene (each public core header compiles in an isolated TU)"
sh scripts/check_headers.sh

# Warnings are errors here (the build is warning-free); plain developer
# builds keep them as warnings.
echo "==> plain build (-Werror) + full ctest"
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "==> spill micro-benchmark (BENCH_spill.json)"
./build/bench/bench_spill BENCH_spill.json

echo "==> overlapped-I/O pipeline bench (BENCH_pipeline.json)"
./build/bench/bench_pipeline BENCH_pipeline.json

echo "==> adaptive-crossover bench (BENCH_adaptive.json)"
./build/bench/bench_fig11_13_prediction BENCH_adaptive.json

echo "==> skew-armor bench (BENCH_skew.json)"
./build/bench/bench_skew BENCH_skew.json

echo "==> streaming-epoch bench (BENCH_stream.json)"
./build/bench/bench_stream BENCH_stream.json

echo "==> graphhp bench (BENCH_ghp.json)"
./build/bench/bench_ghp BENCH_ghp.json

echo "==> graphhp cross-thread determinism (diff_metrics.py)"
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 1 --csv build/ghp_t1.csv >/dev/null
./build/tools/hg_run --graph dataset:wiki --algo sssp --mode graphhp \
    --threads 8 --csv build/ghp_t8.csv >/dev/null
python3 scripts/diff_metrics.py build/ghp_t1.csv build/ghp_t8.csv

# B_i = 2000 spills most of each superstep's messages: staging, push apply,
# spill runs and the spill merge all run, on per-node state only.
echo "==> push-spill cross-thread determinism (diff_metrics.py)"
./build/tools/hg_run --graph dataset:wiki --algo pagerank --mode push \
    --buffer 2000 --threads 1 --csv build/push_spill_t1.csv >/dev/null
./build/tools/hg_run --graph dataset:wiki --algo pagerank --mode push \
    --buffer 2000 --threads 8 --csv build/push_spill_t8.csv >/dev/null
python3 scripts/diff_metrics.py build/push_spill_t1.csv build/push_spill_t8.csv

# The measured prefetch_* columns differ between these two runs; the script
# ignores every kMeasured column of the schema by default.
echo "==> prefetch b-pull cross-thread determinism (diff_metrics.py)"
./build/tools/hg_run --graph dataset:wiki --algo pagerank --mode bpull \
    --prefetch-depth 4 --buffer 2000 --threads 1 \
    --csv build/pf_bpull_t1.csv >/dev/null
./build/tools/hg_run --graph dataset:wiki --algo pagerank --mode bpull \
    --prefetch-depth 4 --buffer 2000 --threads 8 \
    --csv build/pf_bpull_t8.csv >/dev/null
python3 scripts/diff_metrics.py build/pf_bpull_t1.csv build/pf_bpull_t8.csv

# The benchmark baselines are under version control so regressions show up
# as diffs. The gate only reports drift against the committed files; it never
# commits. Refreshing a baseline is a separate, deliberate commit.
echo "==> benchmark baseline drift (git diff --stat)"
git diff --stat -- BENCH_spill.json BENCH_pipeline.json BENCH_adaptive.json \
    BENCH_skew.json BENCH_stream.json BENCH_ghp.json 2>/dev/null || true

echo "==> AddressSanitizer sweep"
sh scripts/check_asan.sh build-asan

echo "==> ThreadSanitizer sweep"
sh scripts/check_tsan.sh build-tsan

echo "CI gate passed: build, tests, ASan and TSan all clean"
