#pragma once
/// \file workloads.hpp
/// The four perfbench workloads and the traced run's layer probes (README.md
/// says why each workload exists). A workload object is set up once (the
/// caller times setup()), driven by run() as a closed loop for a wall-clock
/// budget with every answer recorded in the ledger, and checked by
/// verify(), the correctness oracle, outside any timed phase.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/timing_gnn.hpp"
#include "data/dataset.hpp"
#include "stats.hpp"

namespace perfbench {

/// predict_mix tenants: four floor-size designs, each at three clock
/// corners (0 = the suite's default).
inline constexpr const char* kMixDesigns[] = {"spm", "zipdiv", "xtea",
                                              "cic_decimator"};
inline constexpr double kMixCorners[] = {0.0, 0.92, 1.08};
/// eco_stream sessions, opened under a tight clock.
inline constexpr const char* kEcoDesigns[] = {"picorv32a", "xtea",
                                              "usbf_device", "zipdiv"};
inline constexpr double kEcoClock = 0.92;
/// Every kEcoReadEvery-th eco_stream request on a session is a GNN read.
inline constexpr int kEcoReadEvery = 8;
/// cold_design's size ladder.
inline constexpr const char* kLadder[] = {"spm", "picorv32a", "aes256"};
/// train's six training designs and two held-out test designs.
inline constexpr const char* kTrainDesigns[] = {
    "usb", "cic_decimator", "zipdiv", "usb_cdc_core", "wbqspiflash",
    "genericfir"};
inline constexpr const char* kTestDesigns[] = {"spm", "xtea"};

/// train's dataset at scale 1/32 (maze-routed labels), with the training
/// designs' step order permuted by `seed`.
[[nodiscard]] tg::data::SuiteDataset build_train_dataset(std::uint64_t seed);
/// train's model: hidden width 16, two-layer MLPs, seed 1.
[[nodiscard]] tg::core::TimingGnnConfig train_model_config();

/// A named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one timed phase produced.
struct Phase {
  double wall_s = 0.0;
  std::int64_t ops = 0;            ///< operations completed
  std::vector<double> latency_ms;  ///< one per primary operation
};

/// The machine shape a workload runs at: results of different shapes are
/// not comparable.
struct Shape {
  int pool_threads = 1;    ///< TG_THREADS pool size
  int server_workers = 0;  ///< 0 when no server answers the load
  std::string scale;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual Phase run(double seconds) = 0;
  virtual void verify() = 0;
  /// Numbers read off the phases run so far, beyond the end-to-end ones.
  virtual void report(Metrics& out) const = 0;
};

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Shape workload_shape(const std::string& name);
/// Sizes the thread pool for workload `name` and returns its shape.
Shape enter_shape(const std::string& name);
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Ledger& ledger);
/// Usable CPUs, as `nproc` counts them (the affinity mask).
[[nodiscard]] int nproc();

/// Runs every layer probe (probes.cpp) and appends its metrics to `out`.
void run_layer_probes(std::uint64_t seed, Metrics& out);

}  // namespace perfbench
