#!/usr/bin/env bash
# Local CI driver — the same matrix as .github/workflows/ci.yml, runnable
# offline. Jobs:
#   tier1  plain build + full ctest (the correctness gate)
#   asan   ASan build running the `fuzz` label (parsers + validators
#          under 10k seeded mutations each)
#   ubsan  UBSan build running the `fault` + `fuzz` labels
#   obs    observability gate: quickstart under TG_TRACE/TG_METRICS must
#          produce parseable artifacts covering every layer, tg_top must
#          render both, and the disabled-mode span overhead selfcheck
#          must stay within budget
#   tsan   TSan build running the `tsan` label (thread pool, allocator,
#          the level-walk STA's threaded and concurrent shared-graph
#          sweeps and its cancellation checkpoints, serving plane)
#   bench  perf gate: micro_models --selfcheck (steady-state allocator
#          hit rate on real train steps) plus micro_nn_ops/micro_models/
#          micro_sta --json medians vs the checked-in bench/BENCH_*.json
#          baselines, failing on >25% regression (ci/check_bench.py),
#          thread-scaling guards: BM_TimingGnnTrainStep and
#          BM_TimingGnnInfer at TG_THREADS=$(nproc) must each stay within
#          1.2x of the serial run, and
#          a multi-row kernel guard: a hidden-8 MLP block must run in at
#          most 0.6x the time of the same block one row per kernel call,
#          and an incremental-read guard: an ECO session's cone GNN read
#          must run in at most 0.25x the time of a full read, and an
#          embedding guard: at $(nproc) threads the fused net embedding
#          must run in at most 0.5x the time of its op-chain twin. Every
#          gate runs; the job then names each one that failed and exits 1
#   serve  serving-plane gate: `serve` label suites, the tg_serve_load
#          acceptance drill (deadlines + overload spike + injected worker
#          faults; non-zero exit on any hang or untagged response),
#          serve_slack's request-latency medians (each row's median
#          over five runs) vs the checked-in bench/BENCH_serve_slack.json
#          baseline, and a cone guard: in each run, an ECO move answered
#          by the incremental cone must take at most 0.6x the time of the
#          same move answered by a full re-time
# Usage: ci/run.sh [tier1|asan|ubsan|tsan|obs|bench|serve|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

job="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_tier1() {
  echo "==> tier1: build + ctest"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "$jobs"
  ctest --test-dir build-ci --output-on-failure -j "$jobs"
}

run_asan() {
  echo "==> asan: fuzz label under AddressSanitizer"
  cmake -B build-asan -S . -DTG_SANITIZE=address
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L fuzz
}

run_ubsan() {
  echo "==> ubsan: fault + fuzz labels under UBSan"
  cmake -B build-ubsan -S . -DTG_SANITIZE=undefined
  cmake --build build-ubsan -j "$jobs"
  ctest --test-dir build-ubsan --output-on-failure -L 'fault|fuzz'
}

run_tsan() {
  echo "==> tsan: tsan label under ThreadSanitizer"
  cmake -B build-tsan -S . -DTG_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -L tsan
}

run_obs() {
  echo "==> obs: trace/metrics artifacts + overhead selfcheck"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "$jobs" --target quickstart tg_top micro_obs
  local dir
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' RETURN
  TG_TRACE="$dir/trace.json" TG_METRICS="$dir/metrics.json" \
    ./build-ci/examples/quickstart --design=spm --scale=0.03125 > /dev/null
  for cat in sta route data nn core; do
    grep -q "\"cat\":\"$cat\"" "$dir/trace.json" \
      || { echo "obs: missing $cat spans in trace" >&2; return 1; }
  done
  ./build-ci/tools/tg_top --trace="$dir/trace.json" | grep -q 'top self time'
  ./build-ci/tools/tg_top --metrics="$dir/metrics.json" | grep -q 'histograms'
  ./build-ci/bench/micro_obs --selfcheck
}

run_bench() {
  echo "==> bench: allocator selfcheck + perf baselines"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "$jobs" --target micro_nn_ops micro_models micro_sta
  local dir
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' RETURN
  # Every gate runs even after an earlier one failed; the job fails at the
  # end and names each gate that failed.
  local failed=""
  gate() {
    local name="$1"
    shift
    "$@" || failed="$failed $name"
  }
  # Steady-state allocator gate: real train steps, alloc/miss must be ~0.
  gate alloc-selfcheck \
    env TG_THREADS=1 ./build-ci/bench/micro_models --selfcheck
  # Perf gate: single-threaded medians vs the checked-in baselines.
  # min_time is short and the medians are taken over 3 repetitions — the
  # 25% threshold absorbs what's left of small-sample noise.
  TG_THREADS=1 ./build-ci/bench/micro_nn_ops \
    --json="$dir/BENCH_micro_nn_ops.json" --benchmark_min_time=0.1 \
    --benchmark_repetitions=3 > /dev/null
  TG_THREADS=1 ./build-ci/bench/micro_models \
    --json="$dir/BENCH_micro_models.json" --benchmark_min_time=0.2 \
    --benchmark_repetitions=3 > /dev/null
  # The plain propagation and incremental benches; the SWEEP_* scaling
  # entries in the checked-in baseline are machine-shaped and skipped by
  # the gate.
  TG_THREADS=1 ./build-ci/bench/micro_sta \
    --json="$dir/BENCH_micro_sta.json" --benchmark_min_time=0.1 \
    --benchmark_repetitions=3 > /dev/null
  gate micro_nn_ops-baseline python3 ci/check_bench.py \
    bench/BENCH_micro_nn_ops.json "$dir/BENCH_micro_nn_ops.json"
  gate micro_models-baseline python3 ci/check_bench.py \
    bench/BENCH_micro_models.json "$dir/BENCH_micro_models.json"
  gate micro_sta-baseline python3 ci/check_bench.py \
    bench/BENCH_micro_sta.json "$dir/BENCH_micro_sta.json"
  # Multi-row kernel guard: a 32-row hidden-8 MLP block through
  # Mlp::infer_rows (register-tiled matmul_rows) against the same block and
  # weights run one row per kernel call, in one run with interleaved
  # repetitions, so no recorded baseline is involved. Twenty runs on a
  # shared 4-core AVX2 box read 0.31-0.48; with the tile reverted to
  # per-row calls they read 0.76-0.95, so 0.6 sits about 25% from both.
  # The LUT-coefficient shape (arg 1) is not gated: at widths >= 32 both
  # forms do the same mul+add count, and its 0.70-0.89 spread overlaps the
  # revert's 0.71-1.11.
  TG_THREADS=1 ./build-ci/bench/micro_nn_ops \
    --benchmark_filter='^BM_MlpInferRow' --json="$dir/BENCH_mlp_rows.json" \
    --benchmark_min_time=0.05 --benchmark_repetitions=9 \
    --benchmark_enable_random_interleaving=true > /dev/null
  gate mlp-rows-ratio python3 ci/check_bench.py --threshold=0.6 \
    --ratio=BM_MlpInferRows/0:BM_MlpInferRowByRow/0 \
    "$dir/BENCH_mlp_rows.json"
  # Vector-exp guard: the dispatched 8x7 softmax (one lane per group, the
  # exp in lanes where dispatch accepted the vector exp) against the same
  # rows forced onto the portable kernels (scalar std::exp), interleaved in
  # one run. Ten runs on a shared 4-core AVX2+FMA box read 0.249-0.306;
  # ten alternating runs of a build whose probe rejects the vector exp (so
  # dispatch runs the portable softmax) read 0.923-1.171, so 0.45 sits 1.5x
  # above the first and 2.1x below the second. Like the mlp-rows gate it
  # assumes the box runs the AVX2 backend, here with FMA (the vector exp
  # needs it).
  TG_THREADS=1 ./build-ci/bench/micro_nn_ops \
    --benchmark_filter='^BM_SoftmaxGroups' --json="$dir/BENCH_softmax.json" \
    --benchmark_min_time=0.1 --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true > /dev/null
  gate softmax-ratio python3 ci/check_bench.py --threshold=0.45 \
    --ratio=BM_SoftmaxGroups/32768:BM_SoftmaxGroupsPortable/32768 \
    "$dir/BENCH_softmax.json"
  # Incremental GNN read guard: an ECO session's cone read (patch, re-embed
  # the touched nets, re-propagate the dirty cone) against a full read
  # (extract, plan, embed, forward) on one fixture, picorv32a at 1/32 with
  # 7 resizes per read, in one run. Ten runs on a shared 4-core AVX2 box
  # read 0.090-0.116; ten runs of a build that marks every row dirty read
  # 0.332-0.537, so 0.25 sits 2.2x above the first and 1.3x below the
  # second.
  TG_THREADS=1 ./build-ci/bench/micro_models \
    --benchmark_filter='^BM_EcoGnnRead/' --json="$dir/BENCH_eco_read.json" \
    --benchmark_min_time=0.1 --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true > /dev/null
  gate eco-read-ratio python3 ci/check_bench.py --threshold=0.25 \
    --ratio=BM_EcoGnnRead/cone:BM_EcoGnnRead/full \
    "$dir/BENCH_eco_read.json"
  # Thread-scaling guards: the train step and the fused inference step at
  # the machine's thread count must not run more than 1.2x slower than
  # serially (util/parallel forks only regions that pay for the fork).
  # Both sides run back to back, on one machine in one job, so no recorded
  # baseline is involved.
  local threads
  threads="$(nproc 2>/dev/null || echo 1)"
  if [ "$threads" -lt 2 ]; then
    echo "bench: nproc=$threads < 2, skipping the thread-scaling and embed guards"
  else
    local bm
    for bm in TrainStep Infer; do
      for t in 1 "$threads"; do
        TG_THREADS="$t" ./build-ci/bench/micro_models \
          --benchmark_filter="^BM_TimingGnn$bm\$" \
          --json="$dir/BENCH_${bm}_t$t.json" --benchmark_min_time=0.2 \
          --benchmark_repetitions=3 > /dev/null
      done
    done
    gate train-step-threads python3 ci/check_bench.py --threshold=1.2 \
      "$dir/BENCH_TrainStep_t1.json" "$dir/BENCH_TrainStep_t$threads.json"
    gate infer-threads python3 ci/check_bench.py --threshold=1.2 \
      "$dir/BENCH_Infer_t1.json" "$dir/BENCH_Infer_t$threads.json"
    # Fused-embedding guard: the serving embedding (TimingGnn::embed, one
    # net-local parallel_for over blocks of whole nets) against its op-chain
    # twin (NetEmbed::forward run tape-free), aes256 at 1/16 at the serving
    # width, interleaved in one run at the machine's thread count: the
    # fused body forks as one region where the op chain's per-op regions
    # mostly stay serial. Ten runs on a shared 4-core AVX2 box read
    # 0.16-0.22 (serially the two differ only by the gathers, concats and
    # segment ops fusion saves: 0.55-0.65); a build whose embed runs the op
    # chain reads ~1.0, so 0.5 sits 2.3x above the first and 2x below the
    # second.
    TG_THREADS="$threads" ./build-ci/bench/micro_models \
      --benchmark_filter='^BM_NetEmbedInfer' --json="$dir/BENCH_embed.json" \
      --benchmark_min_time=0.1 --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true > /dev/null
    gate embed-ratio python3 ci/check_bench.py --threshold=0.5 \
      --ratio=BM_NetEmbedInfer:BM_NetEmbedInferOpChain \
      "$dir/BENCH_embed.json"
  fi
  if [ -n "$failed" ]; then
    for name in $failed; do echo "bench: gate failed: $name" >&2; done
    return 1
  fi
}

run_serve() {
  echo "==> serve: serving-plane gate (label suites + load drill + baseline)"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "$jobs" \
    --target serve_test serve_fault_test serve_tsan_test tg_serve_load serve_slack
  ctest --test-dir build-ci --output-on-failure -L serve
  # Acceptance drill: a multi-template tenant mix with per-request
  # deadlines, an overload spike past queue capacity and a persistent
  # worker-fault window, all at once. The tool exits non-zero if any
  # future hangs, any answered response is untagged, or the
  # completed/submitted accounting drifts.
  ./build-ci/tools/tg_serve_load --design=spm,zipdiv,xtea --scale=0.03125 \
    --sessions=9 --requests=24 --workers=2 --queue=16 --deadline-ms=50 \
    --cancel-frac=0.1 --move-frac=0.3 --spike=true --fault=worker:3:4
  local dir
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' RETURN
  # Five runs, each baseline row gated on its median across them: on a
  # shared box a row can land in a fast or a slow mode run to run, so one
  # run fails a 1.25x gate whenever it draws the slow mode, while a real
  # regression slows every run.
  local runs=()
  for i in 1 2 3 4 5; do
    TG_THREADS=1 ./build-ci/bench/serve_slack --design=spm --scale=0.03125 \
      --requests=32 --workers=2 --json="$dir/BENCH_serve_slack_$i.json" \
      > /dev/null
    runs+=("$dir/BENCH_serve_slack_$i.json")
  done
  local failed=0
  python3 ci/check_bench.py bench/BENCH_serve_slack.json "${runs[@]}" \
    || failed=1
  # Cone guard: serve_move (the incremental dirty-cone answer) against
  # serve_move_full (the same bounce moves on a second session, each
  # answered by a forced full re-time, interleaved request by request on
  # one worker), gated within each run, so no recorded baseline is
  # involved. Ten runs on a shared 4-core AVX2 box read 0.373-0.416; ten
  # runs of a build whose IncrementalTimer::update re-times the whole
  # graph read 0.984-1.014, so 0.6 sits 1.4x above the first and 1.6x
  # below the second.
  local run
  for run in "${runs[@]}"; do
    python3 ci/check_bench.py --threshold=0.6 \
      --ratio=serve_move/816:serve_move_full/816 "$run" || failed=1
  done
  return "$failed"
}

case "$job" in
  tier1) run_tier1 ;;
  asan)  run_asan ;;
  ubsan) run_ubsan ;;
  tsan)  run_tsan ;;
  obs)   run_obs ;;
  bench) run_bench ;;
  serve) run_serve ;;
  all)   run_tier1; run_asan; run_ubsan; run_tsan; run_obs; run_bench; run_serve ;;
  *) echo "usage: $0 [tier1|asan|ubsan|tsan|obs|bench|serve|all]" >&2; exit 2 ;;
esac
echo "==> $job: OK"
