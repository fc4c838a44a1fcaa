#pragma once
/// \file trainer.hpp
/// Training / evaluation drivers for the three learned models of the
/// paper's evaluation:
///  - TimingGnnTrainer: the full two-stage model (Table 5, Fig. 4),
///  - NetEmbedTrainer: the net-embedding stage standalone (Table 4),
///  - GcniiTrainer: the vanilla deep-GNN baseline (Table 5).
/// All three run one loop, TrainLoop: full-graph gradient steps over the
/// training designs (the paper's setup: one graph per design, no
/// mini-batching). Each trainer hands it only its per-design loss.

#include <atomic>
#include <functional>
#include <map>
#include <memory>

#include "core/gcnii.hpp"
#include "core/timing_gnn.hpp"
#include "data/dataset.hpp"
#include "nn/optim.hpp"

namespace tg::core {

struct TrainOptions {
  int epochs = 12;
  float lr = 1e-3f;
  /// Final learning rate: lr decays geometrically to this across the run
  /// (improves final calibration). <= 0 keeps lr constant.
  float lr_final = 0.0f;
  float grad_clip = 5.0f;
  bool verbose = true;
  /// Crash-safe checkpointing: when non-empty, fit() atomically writes
  /// {params, Adam moments, epoch} here after every
  /// `checkpoint_every`-th epoch (and after the final one). Restoring via
  /// load_checkpoint and re-running fit() reproduces the uninterrupted
  /// run bit-identically.
  std::string checkpoint_path;
  int checkpoint_every = 1;
  /// Training telemetry: when non-empty, fit() appends one JSON object per
  /// epoch here (JSONL) with loss, mean global gradient L2 norm, learning
  /// rate, epoch wall time, peak RSS, and the non-finite-step count. See
  /// DESIGN.md §9 "Observability".
  std::string telemetry_path;
  /// Cooperative graceful shutdown: when non-null and flipped true (e.g.
  /// by a SIGINT/SIGTERM handler), fit() stops at the next epoch boundary
  /// — after writing a checkpoint if checkpoint_path is set — and returns
  /// normally. Resuming from that checkpoint reproduces the uninterrupted
  /// run bit-identically (the stop never lands mid-step).
  const std::atomic<bool>* stop_requested = nullptr;
  /// Deterministic stand-in for a mid-run signal (tests): when > 0, fit()
  /// behaves as if stop_requested flipped after this many completed
  /// epochs.
  int stop_after_epochs = 0;
};

/// Per-design evaluation record; R² definitions follow the paper
/// (pooled over the 4 EL/RF corners).
struct DesignEval {
  std::string name;
  bool is_test = false;
  double r2_arrival_endpoints = 0.0;  ///< Table 5 headline metric
  double r2_atslew_all = 0.0;         ///< arrival+slew over all pins
  double r2_net_delay = 0.0;          ///< Table 4 metric (net sinks)
  double r2_cell_delay = 0.0;
  double r2_slack_setup = 0.0;        ///< Fig. 4 (setup)
  double r2_slack_hold = 0.0;         ///< Fig. 4 (hold)
  double pearson_setup = 0.0;
  double pearson_hold = 0.0;
  double infer_seconds = 0.0;         ///< Table 5 "Our GNN" runtime
};

/// Averages a metric over evals.
[[nodiscard]] double mean_of(const std::vector<DesignEval>& evals,
                             double DesignEval::* field);

/// The training loop every trainer runs, and the state that travels with
/// it: options, Adam, completed epochs, skipped steps and the TGCK
/// checkpoint, keyed by the trainer tag ("timing-gnn", "net-embed",
/// "gcnii"). The tag also names the trainer in warnings and telemetry.
class TrainLoop {
 public:
  /// Atomic, checksummed checkpoint (same format rules as graph_io/serialize;
  /// see DESIGN.md "Failure model & persistence"). Throws CheckError on any
  /// I/O failure, leaving a previous checkpoint at `path` intact.
  void save_checkpoint(const std::string& path) const;
  /// Restores params + Adam state + epoch counter; the next fit() continues
  /// from the stored epoch.
  void load_checkpoint(const std::string& path);
  /// Epochs completed so far (nonzero after load_checkpoint or fit()).
  [[nodiscard]] int completed_epochs() const { return epoch_; }
  /// Training steps skipped by the non-finite loss and gradient guards.
  [[nodiscard]] long long non_finite_steps() const { return non_finite_steps_; }

 protected:
  /// The per-design training loss (forward + loss, on the tape).
  using LossFn = std::function<nn::Tensor(const data::DatasetGraph&)>;

  /// Keeps a reference to `model`, which the derived trainer owns.
  TrainLoop(const char* tag, nn::Module& model, const TrainOptions& options);

  /// Runs epochs completed_epochs()..options.epochs over dataset.train_ids,
  /// one step per design. Returns the last epoch's mean loss over its good
  /// steps, NaN when the non-finite guards skipped all of them. `caller`
  /// names the empty-split error; `label` starts the verbose epoch line.
  double run(const data::SuiteDataset& dataset, const char* caller,
             const std::string& label, const LossFn& loss);

 private:
  const char* tag_;
  nn::Module& module_;
  TrainOptions options_;
  nn::Adam adam_;
  int epoch_ = 0;
  long long non_finite_steps_ = 0;
};

class TimingGnnTrainer : public TrainLoop {
 public:
  TimingGnnTrainer(const TimingGnnConfig& config, const TrainOptions& options);

  /// Trains on dataset.train_ids; returns final mean training loss.
  double fit(const data::SuiteDataset& dataset);

  [[nodiscard]] DesignEval evaluate(const data::DatasetGraph& g);

  /// Predicted and true endpoint slacks for scatter plots (Fig. 4).
  struct SlackScatter {
    std::vector<double> true_setup, pred_setup, true_hold, pred_hold;
  };
  [[nodiscard]] SlackScatter slack_scatter(const data::DatasetGraph& g);

  [[nodiscard]] TimingGnn& model() { return *model_; }
  [[nodiscard]] const PropPlan& plan_for(const data::DatasetGraph& g);

 private:
  TimingGnnTrainer(std::unique_ptr<TimingGnn> model,
                   const TrainOptions& options);

  std::unique_ptr<TimingGnn> model_;
  /// Keyed by topology, of which the plan is a pure function. The key
  /// holds the topology alive, so a later graph cannot reuse its address.
  std::map<std::shared_ptr<const data::Topology>, PropPlan> plans_;
};

class NetEmbedTrainer : public TrainLoop {
 public:
  /// `seed` initialises the model's weights.
  NetEmbedTrainer(const NetEmbedConfig& config, const TrainOptions& options,
                  std::uint64_t seed = 11);

  double fit(const data::SuiteDataset& dataset);
  /// R² of net-delay prediction at net sinks, pooled over corners.
  [[nodiscard]] double evaluate_r2(const data::DatasetGraph& g) const;

  [[nodiscard]] NetEmbed& model() { return *model_; }

 private:
  NetEmbedTrainer(std::unique_ptr<NetEmbed> model, const TrainOptions& options);

  std::unique_ptr<NetEmbed> model_;
};

class GcniiTrainer : public TrainLoop {
 public:
  GcniiTrainer(const GcniiConfig& config, const TrainOptions& options);

  double fit(const data::SuiteDataset& dataset);
  [[nodiscard]] DesignEval evaluate(const data::DatasetGraph& g);

  [[nodiscard]] Gcnii& model() { return *model_; }

 private:
  GcniiTrainer(std::unique_ptr<Gcnii> model, const TrainOptions& options);

  std::unique_ptr<Gcnii> model_;
  /// Keyed by topology, as TimingGnnTrainer::plans_.
  std::map<std::shared_ptr<const data::Topology>, GcniiAdjacency>
      adjacencies_;
  const GcniiAdjacency& adjacency_for(const data::DatasetGraph& g);
};

}  // namespace tg::core
