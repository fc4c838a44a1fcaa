#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <utility>

#include "metrics/metrics.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"
#include "util/io.hpp"
#include "util/log.hpp"
#include "util/obs/telemetry.hpp"
#include "util/obs/trace.hpp"
#include "util/timer.hpp"

namespace tg::core {

using nn::Tensor;

namespace {

/// Pools tensor rows `rows` (all columns) of pred/target into flat vectors
/// and returns R².
double pooled_r2(const Tensor& truth, const Tensor& pred,
                 const std::vector<int>& rows) {
  std::vector<double> t, p;
  t.reserve(rows.size() * static_cast<std::size_t>(truth.cols()));
  p.reserve(t.capacity());
  for (int r : rows) {
    for (std::int64_t c = 0; c < truth.cols(); ++c) {
      t.push_back(truth.at(r, c));
      p.push_back(pred.at(r, c));
    }
  }
  return r2_score(std::span<const double>(t), std::span<const double>(p));
}

std::vector<int> all_rows(std::int64_t n) {
  std::vector<int> rows(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = static_cast<int>(i);
  return rows;
}

// ---- crash-safe checkpointing --------------------------------------------

constexpr std::uint32_t kCheckpointMagic = 0x4B434754;  // "TGCK" (LE bytes)
constexpr std::uint32_t kCheckpointVersion = 2;

/// Checkpoint = {tag, completed epochs, parameter block, Adam state},
/// checksummed and committed atomically (util/io), so a save killed at any
/// point leaves the previous checkpoint loadable.
void write_checkpoint(const std::string& path, const char* tag,
                      const nn::Module& model, const nn::Adam& adam,
                      int epoch) {
  io::BinaryWriter out(path);
  out.write_u32(kCheckpointMagic);
  out.write_u32(kCheckpointVersion);
  out.write_string(tag);
  out.write_u32(static_cast<std::uint32_t>(epoch));
  nn::write_parameter_block(model, out);
  adam.save_state(out);
  out.commit();
}

int read_checkpoint(const std::string& path, const char* tag,
                    nn::Module& model, nn::Adam& adam) {
  io::BinaryReader in(path);
  in.verify_crc();
  TG_CHECK_MSG(in.read_u32("magic") == kCheckpointMagic,
               "not a training checkpoint: " << path);
  TG_CHECK_MSG(in.read_u32("format version") == kCheckpointVersion,
               path << ": unsupported checkpoint version");
  const std::string file_tag = in.read_string("trainer tag");
  TG_CHECK_MSG(file_tag == tag, path << " is a '" << file_tag
                                     << "' checkpoint, expected '" << tag
                                     << "'");
  const int epoch = static_cast<int>(in.read_u32("epoch"));
  nn::read_parameter_block(model, in);
  adam.load_state(in);
  in.expect_eof();
  return epoch;
}

/// True after the `completed`-th epoch when a periodic checkpoint is due.
bool checkpoint_due(const TrainOptions& options, int completed) {
  if (options.checkpoint_path.empty()) return false;
  const int every = std::max(1, options.checkpoint_every);
  return completed % every == 0 || completed == options.epochs;
}

/// Graceful-shutdown poll, evaluated only at epoch boundaries so a stop
/// never lands mid-step (which is what makes resume bit-identical).
bool stop_requested(const TrainOptions& options, int completed) {
  if (options.stop_after_epochs > 0 && completed >= options.stop_after_epochs) {
    return true;
  }
  return options.stop_requested != nullptr &&
         options.stop_requested->load(std::memory_order_relaxed);
}

/// An empty train split would train nothing and report a NaN loss every
/// epoch. Fail loudly instead, naming each design and the split it landed
/// in.
void require_train_split(const data::SuiteDataset& dataset,
                         const char* trainer) {
  TG_CHECK_MSG(!dataset.train_ids.empty(), [&] {
    std::ostringstream os;
    os << trainer << ": empty train split; designs:";
    for (const data::DatasetGraph& g : dataset.graphs) {
      os << ' ' << g.name << (g.is_test ? "=test" : "=train");
    }
    for (const data::QuarantinedBenchmark& q : dataset.quarantined) {
      os << ' ' << q.name << "=quarantined";
    }
    os << "; add at least one training design";
    return os.str();
  }());
}

/// In-memory rollback target for the non-finite-loss guard: the state after
/// the most recent successful step. Capturing is plain copies, so the guard
/// never perturbs the numerics of a healthy run.
class GoodState {
 public:
  void capture(const nn::Module& model, const nn::Adam& adam) {
    const auto& params = model.parameters();
    params_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      const auto data = params[i].data();
      params_[i].assign(data.begin(), data.end());
    }
    adam_ = adam.state();
  }

  void restore(const nn::Module& model, nn::Adam& adam) const {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      nn::Tensor t = model.parameters()[i];
      std::copy(params_[i].begin(), params_[i].end(), t.data().begin());
    }
    adam.set_state(adam_);
  }

 private:
  std::vector<std::vector<float>> params_;
  nn::Adam::State adam_;
};

/// Full-level gradient tripwire (DESIGN.md §8): sweeps every parameter
/// gradient after backward and names the first non-finite entry, so the
/// weight that diverged is identified at the step that produced it.
/// Returns "" when clean or when TG_VALIDATE is below "full" (the
/// non-finite-loss guard alone covers the fast level).
std::string first_nonfinite_grad(const nn::Module& model) {
  if (validate_level() != ValidateLevel::kFull) return {};
  const std::vector<Tensor>& params = model.parameters();
  const std::vector<std::string>& names = model.parameter_names();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i];
    if (!t.requires_grad()) continue;
    const std::span<const float> g = std::as_const(t).grad();
    for (std::size_t j = 0; j < g.size(); ++j) {
      if (!std::isfinite(g[j])) {
        std::ostringstream os;
        os << (i < names.size() ? names[i] : "param#" + std::to_string(i))
           << '[' << j << "]=" << g[j];
        return os.str();
      }
    }
  }
  return {};
}

/// Global L2 norm over all parameter gradients. Only evaluated when the
/// telemetry stream is active — it touches every gradient entry.
double global_grad_norm(const nn::Module& model) {
  double acc = 0.0;
  for (const Tensor& t : model.parameters()) {
    if (!t.requires_grad()) continue;
    for (float gv : std::as_const(t).grad()) {
      acc += static_cast<double>(gv) * static_cast<double>(gv);
    }
  }
  return std::sqrt(acc);
}

/// A double as a JSON value: JSON has no NaN or infinity, so a non-finite
/// value (the loss of an epoch with no good step) writes null.
struct JsonNumber {
  double v;
};

std::ostream& operator<<(std::ostream& os, JsonNumber n) {
  if (std::isfinite(n.v)) return os << n.v;
  return os << "null";
}

/// Per-epoch JSONL telemetry (TrainOptions::telemetry_path): one JSON
/// object per epoch, flushed per line so a crashed run keeps every
/// completed epoch.
class TelemetryStream {
 public:
  TelemetryStream(const std::string& path, const char* trainer)
      : trainer_(trainer) {
    if (!path.empty()) writer_.open(path);
  }

  /// Whether per-step extras (gradient norms) are worth computing.
  [[nodiscard]] bool active() const { return writer_.ok(); }

  void emit_epoch(const TrainOptions& options, int epoch, double loss,
                  double grad_norm, float lr, double epoch_seconds,
                  long long non_finite_steps) {
    if (!writer_.ok()) return;
    std::ostringstream os;
    os.precision(10);
    os << "{\"trainer\":\"" << trainer_ << "\",\"epoch\":" << epoch
       << ",\"epochs\":" << options.epochs
       << ",\"loss\":" << JsonNumber{loss}
       << ",\"grad_norm\":" << JsonNumber{grad_norm} << ",\"lr\":" << lr
       << ",\"epoch_seconds\":" << epoch_seconds << ",\"peak_rss_mb\":"
       << static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0)
       << ",\"non_finite_steps\":" << non_finite_steps << "}";
    writer_.write_line(os.str());
  }

 private:
  const char* trainer_;
  obs::JsonlWriter writer_;
};

/// Geometric decay from options.lr to options.lr_final across the run.
float scheduled_lr(const TrainOptions& options, int epoch) {
  if (options.lr_final <= 0.0f || options.epochs <= 1 ||
      options.lr_final >= options.lr) {
    return options.lr;
  }
  const float t = static_cast<float>(epoch) /
                  static_cast<float>(options.epochs - 1);
  return options.lr * std::pow(options.lr_final / options.lr, t);
}

/// The Table 5 metrics of an [N, 8] arrival+slew prediction: R² pooled
/// over every pin and column, and arrival R² at the endpoints (pred's
/// first kNumCorners columns are the arrivals).
DesignEval atslew_eval(const data::DatasetGraph& g, const Tensor& atslew,
                       double infer_seconds) {
  DesignEval eval;
  eval.infer_seconds = infer_seconds;
  eval.name = g.name;
  eval.is_test = g.is_test;
  const Tensor truth_parts[] = {g.arrival, g.slew};
  eval.r2_atslew_all =
      pooled_r2(nn::concat_cols(truth_parts), atslew, all_rows(g.num_nodes()));
  eval.r2_arrival_endpoints = pooled_r2(g.arrival, atslew, g.endpoints);
  return eval;
}

/// Endpoint slack pairs for Fig. 4 from an already-computed prediction.
TimingGnnTrainer::SlackScatter scatter_from(const data::DatasetGraph& g,
                                            const Tensor& atslew) {
  TimingGnnTrainer::SlackScatter s;
  for (std::size_t i = 0; i < g.endpoints.size(); ++i) {
    const EndpointSlack ps = predicted_endpoint_slack(g, atslew, g.endpoints[i]);
    s.pred_setup.push_back(ps.setup);
    s.pred_hold.push_back(ps.hold);
    s.true_setup.push_back(g.endpoint_setup_slack[i]);
    s.true_hold.push_back(g.endpoint_hold_slack[i]);
  }
  return s;
}

}  // namespace

double mean_of(const std::vector<DesignEval>& evals,
               double DesignEval::* field) {
  if (evals.empty()) return 0.0;
  double acc = 0.0;
  for (const DesignEval& e : evals) acc += e.*field;
  return acc / static_cast<double>(evals.size());
}

// ---- TrainLoop -------------------------------------------------------------

TrainLoop::TrainLoop(const char* tag, nn::Module& model,
                     const TrainOptions& options)
    : tag_(tag),
      module_(model),
      options_(options),
      adam_(model.parameters(),
            nn::AdamConfig{.lr = options.lr, .grad_clip = options.grad_clip}) {}

double TrainLoop::run(const data::SuiteDataset& dataset, const char* caller,
                      const std::string& label, const LossFn& step_loss) {
  TG_TRACE_SCOPE("core/train", obs::kSpanCoarse);
  require_train_split(dataset, caller);
  TelemetryStream telemetry(options_.telemetry_path, tag_);
  double mean_loss = 0.0;
  GoodState good;
  good.capture(module_, adam_);
  for (int epoch = epoch_; epoch < options_.epochs; ++epoch) {
    TG_TRACE_SCOPE("core/train_epoch", obs::kSpanDetail);
    WallTimer epoch_timer;
    const float lr = scheduled_lr(options_, epoch);
    adam_.set_lr(lr);
    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    int good_steps = 0;
    for (int id : dataset.train_ids) {
      TG_TRACE_SCOPE("core/train_step", obs::kSpanVerbose);
      const data::DatasetGraph& g = dataset.graphs[static_cast<std::size_t>(id)];
      adam_.zero_grad();
      Tensor loss = step_loss(g);
      const double loss_value = loss.item();
      if (!std::isfinite(loss_value)) {
        ++non_finite_steps_;
        TG_WARN("non-finite-loss trainer=" << tag_ << " design=" << g.name
                << " epoch=" << epoch + 1 << " loss=" << loss_value
                << " action=restore-last-good-state,skip-step");
        good.restore(module_, adam_);
        continue;
      }
      loss.backward();
      const std::string bad = first_nonfinite_grad(module_);
      if (!bad.empty()) {
        ++non_finite_steps_;
        TG_WARN("non-finite-gradient trainer=" << tag_ << " design=" << g.name
                << " epoch=" << epoch + 1 << " first-offender=" << bad
                << " action=restore-last-good-state,skip-step");
        good.restore(module_, adam_);
        continue;
      }
      if (telemetry.active()) grad_norm_sum += global_grad_norm(module_);
      adam_.step();
      good.capture(module_, adam_);
      epoch_loss += loss_value;
      ++good_steps;
    }
    epoch_ = epoch + 1;
    // The mean over good steps: a skipped step neither adds to the loss nor
    // pulls it toward 0, and an epoch that trained nothing reports NaN.
    double grad_norm = std::numeric_limits<double>::quiet_NaN();
    if (good_steps > 0) {
      mean_loss = epoch_loss / static_cast<double>(good_steps);
      grad_norm = grad_norm_sum / good_steps;
    } else {
      mean_loss = std::numeric_limits<double>::quiet_NaN();
      TG_WARN("no-good-step trainer=" << tag_ << " epoch=" << epoch_ << "/"
              << options_.epochs << " skipped=" << dataset.train_ids.size()
              << " action=report-nan-loss");
    }
    telemetry.emit_epoch(options_, epoch_, mean_loss, grad_norm, lr,
                         epoch_timer.seconds(), non_finite_steps_);
    if (options_.verbose) {
      TG_INFO(label << " epoch " << epoch + 1 << "/" << options_.epochs
                    << " loss=" << mean_loss);
    }
    bool due = checkpoint_due(options_, epoch_);
    if (stop_requested(options_, epoch_)) {
      TG_WARN("graceful-stop trainer=" << tag_ << " epoch=" << epoch_ << "/"
              << options_.epochs << " action=checkpoint-and-return");
      due = !options_.checkpoint_path.empty();
      if (due) save_checkpoint(options_.checkpoint_path);
      break;
    }
    if (due) save_checkpoint(options_.checkpoint_path);
  }
  return mean_loss;
}

void TrainLoop::save_checkpoint(const std::string& path) const {
  write_checkpoint(path, tag_, module_, adam_, epoch_);
}

void TrainLoop::load_checkpoint(const std::string& path) {
  epoch_ = read_checkpoint(path, tag_, module_, adam_);
}

// ---- TimingGnnTrainer ----------------------------------------------------

TimingGnnTrainer::TimingGnnTrainer(const TimingGnnConfig& config,
                                   const TrainOptions& options)
    : TimingGnnTrainer(std::make_unique<TimingGnn>(config), options) {}

TimingGnnTrainer::TimingGnnTrainer(std::unique_ptr<TimingGnn> model,
                                   const TrainOptions& options)
    : TrainLoop("timing-gnn", *model, options), model_(std::move(model)) {}

const PropPlan& TimingGnnTrainer::plan_for(const data::DatasetGraph& g) {
  // Keyed by topology, not name: the same benchmark can exist at several
  // scales within one process.
  auto it = plans_.find(g.topo);
  if (it == plans_.end()) {
    it = plans_.emplace(g.topo, build_prop_plan(g)).first;
  }
  return it->second;
}

double TimingGnnTrainer::fit(const data::SuiteDataset& dataset) {
  return run(dataset, "TimingGnnTrainer::fit", "timing-gnn",
             [this](const data::DatasetGraph& g) {
               const PropPlan& plan = plan_for(g);
               return model_->loss(g, plan, model_->forward(g, plan));
             });
}

DesignEval TimingGnnTrainer::evaluate(const data::DatasetGraph& g) {
  TG_TRACE_SCOPE("core/evaluate", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;  // evaluation never replays the tape
  const PropPlan& plan = plan_for(g);
  WallTimer timer;
  const TimingGnn::Prediction pred = model_->forward(g, plan);
  DesignEval eval = atslew_eval(g, pred.atslew, timer.seconds());
  eval.r2_net_delay =
      pooled_r2(g.net_delay, pred.net_delay, g.topo->net_sinks());
  {
    const Tensor cell_truth = nn::gather_rows(
        g.cell_delay, data::share(g.topo, g.topo->csr().cell_perm));
    eval.r2_cell_delay = pooled_r2(cell_truth, pred.cell_delay,
                                   all_rows(cell_truth.rows()));
  }

  const SlackScatter scatter = scatter_from(g, pred.atslew);
  eval.r2_slack_setup = r2_score(std::span<const double>(scatter.true_setup),
                                 std::span<const double>(scatter.pred_setup));
  eval.r2_slack_hold = r2_score(std::span<const double>(scatter.true_hold),
                                std::span<const double>(scatter.pred_hold));
  eval.pearson_setup = pearson_r(std::span<const double>(scatter.true_setup),
                                 std::span<const double>(scatter.pred_setup));
  eval.pearson_hold = pearson_r(std::span<const double>(scatter.true_hold),
                                std::span<const double>(scatter.pred_hold));
  return eval;
}

TimingGnnTrainer::SlackScatter TimingGnnTrainer::slack_scatter(
    const data::DatasetGraph& g) {
  const nn::NoGradGuard no_grad;
  const PropPlan& plan = plan_for(g);
  return scatter_from(g, model_->forward(g, plan).atslew);
}

// ---- NetEmbedTrainer ------------------------------------------------------

NetEmbedTrainer::NetEmbedTrainer(const NetEmbedConfig& config,
                                 const TrainOptions& options,
                                 std::uint64_t seed)
    : NetEmbedTrainer(
          [&] {
            Rng rng(seed);  // used only for the initial weights
            return std::make_unique<NetEmbed>(config, rng);
          }(),
          options) {}

NetEmbedTrainer::NetEmbedTrainer(std::unique_ptr<NetEmbed> model,
                                 const TrainOptions& options)
    : TrainLoop("net-embed", *model, options), model_(std::move(model)) {}

double NetEmbedTrainer::fit(const data::SuiteDataset& dataset) {
  return run(
      dataset, "NetEmbedTrainer::fit", "net-embed",
      [this](const data::DatasetGraph& g) {
        Tensor pred = model_->predict_net_delay(g, model_->forward(g));
        const nn::IndexVec sinks = data::share(g.topo, g.topo->net_sinks());
        Tensor target = nn::gather_rows(g.net_delay, sinks);
        return nn::mse_loss_rows(pred, sinks, target);
      });
}

double NetEmbedTrainer::evaluate_r2(const data::DatasetGraph& g) const {
  const nn::NoGradGuard no_grad;
  Tensor pred = model_->predict_net_delay(g, model_->forward(g));
  return pooled_r2(g.net_delay, pred, g.topo->net_sinks());
}

// ---- GcniiTrainer ---------------------------------------------------------

GcniiTrainer::GcniiTrainer(const GcniiConfig& config,
                           const TrainOptions& options)
    : GcniiTrainer(std::make_unique<Gcnii>(config), options) {}

GcniiTrainer::GcniiTrainer(std::unique_ptr<Gcnii> model,
                           const TrainOptions& options)
    : TrainLoop("gcnii", *model, options), model_(std::move(model)) {}

const GcniiAdjacency& GcniiTrainer::adjacency_for(const data::DatasetGraph& g) {
  auto it = adjacencies_.find(g.topo);
  if (it == adjacencies_.end()) {
    it = adjacencies_.emplace(g.topo, build_gcnii_adjacency(g)).first;
  }
  return it->second;
}

double GcniiTrainer::fit(const data::SuiteDataset& dataset) {
  return run(dataset, "GcniiTrainer::fit",
             "gcnii-" + std::to_string(model_->config().num_layers),
             [this](const data::DatasetGraph& g) {
               return model_->loss(g, model_->forward(g, adjacency_for(g)));
             });
}

DesignEval GcniiTrainer::evaluate(const data::DatasetGraph& g) {
  TG_TRACE_SCOPE("core/evaluate", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;
  const GcniiAdjacency& adj = adjacency_for(g);
  WallTimer timer;
  Tensor pred = model_->forward(g, adj);
  return atslew_eval(g, pred, timer.seconds());
}

}  // namespace tg::core
