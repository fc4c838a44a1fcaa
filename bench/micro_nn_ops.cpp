/// \file micro_nn_ops.cpp
/// google-benchmark microbenchmarks for the autodiff tensor ops that
/// dominate model training time (matmul, message-passing scatter/gather,
/// the fused LUT interpolation op) and the inference MLP block.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "micro_common.hpp"
#include "nn/kernels.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "util/parallel.hpp"

namespace tg::nn {
namespace {

Tensor randn(std::int64_t r, std::int64_t c, Rng& rng, bool grad = false) {
  std::vector<float> v(static_cast<std::size_t>(r * c));
  for (float& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(std::move(v), r, c, grad);
}

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = randn(n, 64, rng);
  Tensor b = randn(64, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_Matmul)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_MatmulBackward(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  for (auto _ : state) {
    Tensor a = randn(n, 64, rng, true);
    Tensor b = randn(64, 64, rng, true);
    mean_all(matmul(a, b)).backward();
  }
}
BENCHMARK(BM_MatmulBackward)->Arg(1024)->Arg(8192);

void BM_SegmentSum(benchmark::State& state) {
  const std::int64_t e = state.range(0);
  Rng rng(2);
  Tensor x = randn(e, 64, rng);
  std::vector<int> seg(static_cast<std::size_t>(e));
  const std::int64_t n = e / 3 + 1;
  for (auto& s : seg) s = static_cast<int>(rng.uniform_int(0, n - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment_sum(x, seg, n).data().data());
  }
  state.SetItemsProcessed(state.iterations() * e * 64);
}
BENCHMARK(BM_SegmentSum)->Arg(8192)->Arg(65536);

void BM_SegmentMax(benchmark::State& state) {
  const std::int64_t e = state.range(0);
  Rng rng(3);
  Tensor x = randn(e, 64, rng);
  std::vector<int> seg(static_cast<std::size_t>(e));
  const std::int64_t n = e / 3 + 1;
  for (auto& s : seg) s = static_cast<int>(rng.uniform_int(0, n - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment_max(x, seg, n).data().data());
  }
}
BENCHMARK(BM_SegmentMax)->Arg(8192)->Arg(65536);

void BM_GatherRows(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(4);
  Tensor x = randn(n, 64, rng);
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (auto& i : idx) i = static_cast<int>(rng.uniform_int(0, n - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gather_rows(x, idx).data().data());
  }
}
BENCHMARK(BM_GatherRows)->Arg(65536);

void BM_Spmm(benchmark::State& state) {
  const std::int64_t e = state.range(0);
  Rng rng(5);
  const std::int64_t n = e / 4 + 1;
  Tensor x = randn(n, 64, rng);
  std::vector<int> src(static_cast<std::size_t>(e)), dst(static_cast<std::size_t>(e));
  std::vector<float> w(static_cast<std::size_t>(e), 0.3f);
  for (std::size_t k = 0; k < src.size(); ++k) {
    src[k] = static_cast<int>(rng.uniform_int(0, n - 1));
    dst[k] = static_cast<int>(rng.uniform_int(0, n - 1));
  }
  // Built once outside the timed loop, as Gcnii builds its adjacency.
  const SpmmCsr csr = build_spmm_csr(src, dst, w, n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm_csr(csr, x).data().data());
  }
  state.SetItemsProcessed(state.iterations() * e * 64);
}
BENCHMARK(BM_Spmm)->Arg(65536)->Arg(262144);

void BM_LutKronDot(benchmark::State& state) {
  const std::int64_t e = state.range(0);
  Rng rng(6);
  Tensor a = randn(e, 8 * 7, rng);
  Tensor b = randn(e, 8 * 7, rng);
  Tensor lut = randn(e, 8 * 49, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut_kron_dot(a, b, lut, 7).data().data());
  }
  state.SetItemsProcessed(state.iterations() * e * 8 * 49);
}
BENCHMARK(BM_LutKronDot)->Arg(4096)->Arg(32768);

void BM_SoftmaxGroups(benchmark::State& state) {
  Rng rng(7);
  Tensor x = randn(state.range(0), 56, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_groups(x, 7).data().data());
  }
}
BENCHMARK(BM_SoftmaxGroups)->Arg(32768);

/// BM_SoftmaxGroups forced onto the portable kernels (scalar std::exp, no
/// lanes). `ci/run.sh bench` gates the dispatched row against this twin,
/// measured in the same run.
void BM_SoftmaxGroupsPortable(benchmark::State& state) {
  kern::set_force_portable(true);
  BM_SoftmaxGroups(state);
  kern::set_force_portable(false);
}
BENCHMARK(BM_SoftmaxGroupsPortable)->Arg(32768);

/// The fused inference step's MLPs at the serving config (perfbench's
/// serve_model_config): arg 0 is a hidden-8 propagation MLP (32→8→8→8),
/// arg 1 a LUT coefficient MLP (24→32→32→56).
Mlp serving_mlp(std::int64_t shape, Rng& rng) {
  return shape == 0 ? Mlp(32, 8, 8, 2, &rng) : Mlp(24, 56, 32, 2, &rng);
}

constexpr std::int64_t kInferBlock = 32;  // the fused step's block rows

/// One 32-row block through Mlp::infer_rows, as the fused level step runs
/// it: each layer is one multi-row matmul_rows call.
void BM_MlpInferRows(benchmark::State& state) {
  Rng rng(8);
  const Mlp mlp = serving_mlp(state.range(0), rng);
  const Tensor x = randn(kInferBlock, mlp.in_features(), rng);
  std::vector<float> out(static_cast<std::size_t>(kInferBlock *
                                                  mlp.out_features()));
  std::vector<float> scratch(mlp.infer_scratch(kInferBlock));
  for (auto _ : state) {
    mlp.infer_rows(x.data().data(), kInferBlock, out.data(), scratch.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kInferBlock);
}
BENCHMARK(BM_MlpInferRows)->Arg(0)->Arg(1);

/// The same block and weights through the same steps as Mlp::infer_rows,
/// except that the matmul runs one row per kernel call (matmul_rows with
/// rows = 1), as inference ran before the multi-row tile. The two differ
/// only in the tile, so `ci/run.sh bench` gates BM_MlpInferRows against
/// it within one run.
void BM_MlpInferRowByRow(benchmark::State& state) {
  Rng rng(8);
  const Mlp mlp = serving_mlp(state.range(0), rng);
  const Tensor x = randn(kInferBlock, mlp.in_features(), rng);
  const std::vector<Tensor>& params = mlp.parameters();  // w, b per layer
  std::vector<float> h[2];
  for (auto _ : state) {
    const float* cur = x.data().data();
    for (std::size_t l = 0; l < params.size(); l += 2) {
      const auto k = static_cast<std::size_t>(params[l].rows());
      const auto m = static_cast<std::size_t>(params[l].cols());
      const float* bias = params[l + 1].data().data();
      const bool hidden = l + 2 < params.size();
      std::vector<float>& y = h[(l / 2) % 2];
      y.resize(kInferBlock * m);
      for (std::size_t r = 0; r < kInferBlock; ++r) {
        kern::matmul_rows(y.data() + r * m, cur + r * k,
                          params[l].data().data(), 1, k, m);
      }
      for (std::size_t r = 0; r < kInferBlock; ++r) {
        float* yr = y.data() + r * m;
        if (hidden) {
          kern::add_relu(yr, yr, bias, m);
        } else {
          kern::add(yr, yr, bias, m);
        }
      }
      cur = y.data();
    }
    benchmark::DoNotOptimize(cur);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kInferBlock);
}
BENCHMARK(BM_MlpInferRowByRow)->Arg(0)->Arg(1);

/// What one fork costs, on a pool at nproc (at least 2 threads) with one
/// index per thread. Arg 0 runs an empty body back to back: the caller's
/// own cost of a fork, since it runs every chunk the sleeping workers do
/// not reach first. Arg 1 makes every chunk wait until all threads hold
/// one, after the caller ran 500 µs alone (about the serial stretch
/// between two large regions of a training step), so the workers have
/// gone back to sleep: the time until every worker is awake and working.
/// That is what a fork must save to pay; util/parallel sizes
/// kMinChunkWork from it. The binary's pool size is restored afterwards.
void BM_ParallelForDispatch(benchmark::State& state) {
  const bool rendezvous = state.range(0) != 0;
  const int saved = num_threads();
  const int threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  set_num_threads(threads);
  const std::int64_t forked = forked_regions();
  std::atomic<int> arrived{0};
  for (auto _ : state) {
    if (rendezvous) {
      state.PauseTiming();
      arrived.store(0);
      const auto idle_until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(500);
      while (std::chrono::steady_clock::now() < idle_until) {
      }
      state.ResumeTiming();
    }
    parallel_for(0, threads, Work{kMinChunkWork, 0},
                 [&](std::int64_t b, std::int64_t e) {
                   benchmark::DoNotOptimize(b + e);
                   if (!rendezvous) return;
                   arrived.fetch_add(1);
                   while (arrived.load() < threads) {
                   }
                 });
  }
  state.counters["forked"] = benchmark::Counter(
      static_cast<double>(forked_regions() - forked),
      benchmark::Counter::kAvgIterations);
  state.SetLabel("threads:" + std::to_string(threads));
  set_num_threads(saved);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->Arg(1);

/// --sweep: the two training-dominant kernels (matmul, segment_sum)
/// across thread counts × sizes (see micro_common.hpp).
void register_sweep(const std::vector<int>& thread_counts) {
  static const std::int64_t kMatmulSizes[] = {8192, 65536};
  for (const std::int64_t n : kMatmulSizes) {
    for (const int t : thread_counts) {
      const std::string name = "SWEEP_Matmul/" + std::to_string(n) +
                               "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(
          name.c_str(), [n, t](benchmark::State& state) {
            set_num_threads(t);
            Rng rng(1);
            Tensor a = randn(n, 64, rng);
            Tensor b = randn(64, 64, rng);
            for (auto _ : state) {
              benchmark::DoNotOptimize(matmul(a, b).data().data());
            }
            state.SetItemsProcessed(state.iterations() * n * 64 * 64);
          });
    }
  }
  static const std::int64_t kSegmentSizes[] = {65536, 262144};
  for (const std::int64_t e : kSegmentSizes) {
    for (const int t : thread_counts) {
      const std::string name = "SWEEP_SegmentSum/" + std::to_string(e) +
                               "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(
          name.c_str(), [e, t](benchmark::State& state) {
            set_num_threads(t);
            Rng rng(2);
            Tensor x = randn(e, 64, rng);
            std::vector<int> seg(static_cast<std::size_t>(e));
            const std::int64_t n = e / 3 + 1;
            for (auto& s : seg) s = static_cast<int>(rng.uniform_int(0, n - 1));
            for (auto _ : state) {
              benchmark::DoNotOptimize(segment_sum(x, seg, n).data().data());
            }
            state.SetItemsProcessed(state.iterations() * e * 64);
          });
    }
  }
}

}  // namespace
}  // namespace tg::nn

int main(int argc, char** argv) {
  return tg::bench_micro::run_micro_main(argc, argv, tg::nn::register_sweep);
}
