#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
constexpr std::uint32_t kCheckpointVersion = 1;

/// Checkpoint = {tag, completed epochs, optional RNG stream, parameter
/// block, Adam state}, checksummed and committed atomically (util/io), so a
/// save killed at any point leaves the previous checkpoint loadable.
void write_checkpoint(const std::string& path, const char* tag,
                      const nn::Module& model, const nn::Adam& adam,
                      int epoch, const Rng* rng) {
  io::BinaryWriter out(path);
  out.write_u32(kCheckpointMagic);
  out.write_u32(kCheckpointVersion);
  out.write_string(tag);
  out.write_u32(static_cast<std::uint32_t>(epoch));
  out.write_u8(rng != nullptr ? 1 : 0);
  if (rng != nullptr) {
    const RngState st = rng->state();
    for (std::uint64_t word : st.s) out.write_u64(word);
    out.write_u8(st.has_cached_normal ? 1 : 0);
    out.write_f64(st.cached_normal);
  }
  nn::write_parameter_block(model, out);
  adam.save_state(out);
  out.commit();
}

int read_checkpoint(const std::string& path, const char* tag,
                    nn::Module& model, nn::Adam& adam, Rng* rng) {
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
  if (in.read_u8("rng flag") != 0) {
    RngState st;
    for (std::uint64_t& word : st.s) word = in.read_u64("rng state word");
    st.has_cached_normal = in.read_u8("rng cached-normal flag") != 0;
    st.cached_normal = in.read_f64("rng cached normal");
    if (rng != nullptr) rng->set_state(st);
  }
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
template <typename Model>
std::string first_nonfinite_grad(const Model& model) {
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
template <typename Model>
double global_grad_norm(const Model& model) {
  double acc = 0.0;
  for (const Tensor& t : model.parameters()) {
    if (!t.requires_grad()) continue;
    for (float gv : std::as_const(t).grad()) {
      acc += static_cast<double>(gv) * static_cast<double>(gv);
    }
  }
  return std::sqrt(acc);
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
       << ",\"epochs\":" << options.epochs << ",\"loss\":" << loss
       << ",\"grad_norm\":" << grad_norm << ",\"lr\":" << lr
       << ",\"epoch_seconds\":" << epoch_seconds << ",\"peak_rss_mb\":"
       << static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0)
       << ",\"non_finite_steps\":" << non_finite_steps << "}";
    writer_.write_line(os.str());
  }

 private:
  const char* trainer_;
  obs::JsonlWriter writer_;
};

}  // namespace

double mean_of(const std::vector<DesignEval>& evals,
               double DesignEval::* field) {
  if (evals.empty()) return 0.0;
  double acc = 0.0;
  for (const DesignEval& e : evals) acc += e.*field;
  return acc / static_cast<double>(evals.size());
}

// ---- TimingGnnTrainer ----------------------------------------------------

TimingGnnTrainer::TimingGnnTrainer(const TimingGnnConfig& config,
                                   const TrainOptions& options)
    : model_(config),
      options_(options),
      adam_(model_.parameters(),
            nn::AdamConfig{.lr = options.lr, .grad_clip = options.grad_clip}) {}

const PropPlan& TimingGnnTrainer::plan_for(const data::DatasetGraph& g) {
  // Keyed by address, not name: the same benchmark can exist at several
  // scales within one process.
  auto it = plans_.find(&g);
  if (it == plans_.end()) {
    it = plans_.emplace(&g, build_prop_plan(g)).first;
  }
  return it->second;
}

namespace {
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
}  // namespace

double TimingGnnTrainer::fit(const data::SuiteDataset& dataset) {
  TG_TRACE_SCOPE("core/train", obs::kSpanCoarse);
  TelemetryStream telemetry(options_.telemetry_path, "timing-gnn");
  double mean_loss = 0.0;
  GoodState good;
  good.capture(model_, adam_);
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
      const PropPlan& plan = plan_for(g);
      adam_.zero_grad();
      const TimingGnn::Prediction pred = model_.forward(g, plan);
      Tensor loss = model_.loss(g, plan, pred);
      const double loss_value = loss.item();
      if (!std::isfinite(loss_value)) {
        ++non_finite_steps_;
        TG_WARN("non-finite-loss trainer=timing-gnn design=" << g.name
                << " epoch=" << epoch + 1 << " loss=" << loss_value
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      loss.backward();
      if (const std::string bad = first_nonfinite_grad(model_); !bad.empty()) {
        ++non_finite_steps_;
        TG_WARN("non-finite-gradient trainer=timing-gnn design=" << g.name
                << " epoch=" << epoch + 1 << " first-offender=" << bad
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      if (telemetry.active()) grad_norm_sum += global_grad_norm(model_);
      adam_.step();
      good.capture(model_, adam_);
      epoch_loss += loss_value;
      ++good_steps;
    }
    mean_loss = epoch_loss / static_cast<double>(dataset.train_ids.size());
    epoch_ = epoch + 1;
    telemetry.emit_epoch(
        options_, epoch_, mean_loss,
        good_steps > 0 ? grad_norm_sum / good_steps : 0.0, lr,
        epoch_timer.seconds(), non_finite_steps_);
    if (options_.verbose) {
      TG_INFO("timing-gnn epoch " << epoch + 1 << "/" << options_.epochs
                                  << " loss=" << mean_loss);
    }
    bool due = checkpoint_due(options_, epoch_);
    if (stop_requested(options_, epoch_)) {
      TG_WARN("graceful-stop trainer=timing-gnn epoch=" << epoch_ << "/"
              << options_.epochs << " action=checkpoint-and-return");
      due = !options_.checkpoint_path.empty();
      if (due) save_checkpoint(options_.checkpoint_path);
      break;
    }
    if (due) save_checkpoint(options_.checkpoint_path);
  }
  return mean_loss;
}

void TimingGnnTrainer::save_checkpoint(const std::string& path) const {
  write_checkpoint(path, "timing-gnn", model_, adam_, epoch_, nullptr);
}

void TimingGnnTrainer::load_checkpoint(const std::string& path) {
  epoch_ = read_checkpoint(path, "timing-gnn", model_, adam_, nullptr);
}

namespace {

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

DesignEval TimingGnnTrainer::evaluate(const data::DatasetGraph& g) {
  TG_TRACE_SCOPE("core/evaluate", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;  // evaluation never replays the tape
  const PropPlan& plan = plan_for(g);
  WallTimer timer;
  const TimingGnn::Prediction pred = model_.forward(g, plan);
  DesignEval eval;
  eval.infer_seconds = timer.seconds();
  eval.name = g.name;
  eval.is_test = g.is_test;

  const Tensor truth_parts[] = {g.arrival, g.slew};
  const Tensor atslew_truth = nn::concat_cols(truth_parts);
  eval.r2_atslew_all =
      pooled_r2(atslew_truth, pred.atslew, all_rows(g.num_nodes));

  // Arrival R² at endpoints (Table 5): arrival columns only.
  {
    std::vector<double> t, p;
    for (int ep : g.endpoints) {
      for (int c = 0; c < kNumCorners; ++c) {
        t.push_back(g.arrival.at(ep, c));
        p.push_back(pred.atslew.at(ep, c));
      }
    }
    eval.r2_arrival_endpoints =
        r2_score(std::span<const double>(t), std::span<const double>(p));
  }

  eval.r2_net_delay = pooled_r2(g.net_delay, pred.net_delay, g.net_sinks);
  {
    const Tensor cell_truth = nn::gather_rows(g.cell_delay, plan.cell_order);
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
  return scatter_from(g, model_.forward(g, plan).atslew);
}

// ---- NetEmbedTrainer ------------------------------------------------------

NetEmbedTrainer::NetEmbedTrainer(const NetEmbedConfig& config,
                                 const TrainOptions& options,
                                 std::uint64_t seed)
    : rng_(seed),
      model_(config, rng_),
      options_(options),
      adam_(model_.parameters(),
            nn::AdamConfig{.lr = options.lr, .grad_clip = options.grad_clip}) {}

double NetEmbedTrainer::fit(const data::SuiteDataset& dataset) {
  TG_TRACE_SCOPE("core/train", obs::kSpanCoarse);
  TelemetryStream telemetry(options_.telemetry_path, "net-embed");
  double mean_loss = 0.0;
  GoodState good;
  good.capture(model_, adam_);
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
      Tensor emb = model_.forward(g);
      Tensor pred = model_.predict_net_delay(g, emb);
      const nn::IndexVec& sinks = data::shared_net_sinks(g);
      Tensor target = nn::gather_rows(g.net_delay, sinks);
      Tensor loss = nn::mse_loss_rows(pred, sinks, target);
      const double loss_value = loss.item();
      if (!std::isfinite(loss_value)) {
        ++non_finite_steps_;
        TG_WARN("non-finite-loss trainer=net-embed design=" << g.name
                << " epoch=" << epoch + 1 << " loss=" << loss_value
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      loss.backward();
      if (const std::string bad = first_nonfinite_grad(model_); !bad.empty()) {
        ++non_finite_steps_;
        TG_WARN("non-finite-gradient trainer=net-embed design=" << g.name
                << " epoch=" << epoch + 1 << " first-offender=" << bad
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      if (telemetry.active()) grad_norm_sum += global_grad_norm(model_);
      adam_.step();
      good.capture(model_, adam_);
      epoch_loss += loss_value;
      ++good_steps;
    }
    mean_loss = epoch_loss / static_cast<double>(dataset.train_ids.size());
    epoch_ = epoch + 1;
    telemetry.emit_epoch(
        options_, epoch_, mean_loss,
        good_steps > 0 ? grad_norm_sum / good_steps : 0.0, lr,
        epoch_timer.seconds(), non_finite_steps_);
    if (options_.verbose) {
      TG_INFO("net-embed epoch " << epoch + 1 << "/" << options_.epochs
                                 << " loss=" << mean_loss);
    }
    bool due = checkpoint_due(options_, epoch_);
    if (stop_requested(options_, epoch_)) {
      TG_WARN("graceful-stop trainer=net-embed epoch=" << epoch_ << "/"
              << options_.epochs << " action=checkpoint-and-return");
      due = !options_.checkpoint_path.empty();
      if (due) save_checkpoint(options_.checkpoint_path);
      break;
    }
    if (due) save_checkpoint(options_.checkpoint_path);
  }
  return mean_loss;
}

void NetEmbedTrainer::save_checkpoint(const std::string& path) const {
  write_checkpoint(path, "net-embed", model_, adam_, epoch_, &rng_);
}

void NetEmbedTrainer::load_checkpoint(const std::string& path) {
  epoch_ = read_checkpoint(path, "net-embed", model_, adam_, &rng_);
}

double NetEmbedTrainer::evaluate_r2(const data::DatasetGraph& g) const {
  const nn::NoGradGuard no_grad;
  Tensor pred = model_.predict_net_delay(g, model_.forward(g));
  std::vector<double> t, p;
  for (int r : g.net_sinks) {
    for (int c = 0; c < kNumCorners; ++c) {
      t.push_back(g.net_delay.at(r, c));
      p.push_back(pred.at(r, c));
    }
  }
  return r2_score(std::span<const double>(t), std::span<const double>(p));
}

// ---- GcniiTrainer ---------------------------------------------------------

GcniiTrainer::GcniiTrainer(const GcniiConfig& config,
                           const TrainOptions& options)
    : model_(config),
      options_(options),
      adam_(model_.parameters(),
            nn::AdamConfig{.lr = options.lr, .grad_clip = options.grad_clip}) {}

const GcniiAdjacency& GcniiTrainer::adjacency_for(const data::DatasetGraph& g) {
  auto it = adjacencies_.find(&g);
  if (it == adjacencies_.end()) {
    it = adjacencies_.emplace(&g, build_gcnii_adjacency(g)).first;
  }
  return it->second;
}

double GcniiTrainer::fit(const data::SuiteDataset& dataset) {
  TG_TRACE_SCOPE("core/train", obs::kSpanCoarse);
  TelemetryStream telemetry(options_.telemetry_path, "gcnii");
  double mean_loss = 0.0;
  GoodState good;
  good.capture(model_, adam_);
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
      Tensor pred = model_.forward(g, adjacency_for(g));
      Tensor loss = model_.loss(g, pred);
      const double loss_value = loss.item();
      if (!std::isfinite(loss_value)) {
        ++non_finite_steps_;
        TG_WARN("non-finite-loss trainer=gcnii design=" << g.name
                << " epoch=" << epoch + 1 << " loss=" << loss_value
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      loss.backward();
      if (const std::string bad = first_nonfinite_grad(model_); !bad.empty()) {
        ++non_finite_steps_;
        TG_WARN("non-finite-gradient trainer=gcnii design=" << g.name
                << " epoch=" << epoch + 1 << " first-offender=" << bad
                << " action=restore-last-good-state,skip-step");
        good.restore(model_, adam_);
        continue;
      }
      if (telemetry.active()) grad_norm_sum += global_grad_norm(model_);
      adam_.step();
      good.capture(model_, adam_);
      epoch_loss += loss_value;
      ++good_steps;
    }
    mean_loss = epoch_loss / static_cast<double>(dataset.train_ids.size());
    epoch_ = epoch + 1;
    telemetry.emit_epoch(
        options_, epoch_, mean_loss,
        good_steps > 0 ? grad_norm_sum / good_steps : 0.0, lr,
        epoch_timer.seconds(), non_finite_steps_);
    if (options_.verbose) {
      TG_INFO("gcnii-" << model_.config().num_layers << " epoch " << epoch + 1
                       << "/" << options_.epochs << " loss=" << mean_loss);
    }
    bool due = checkpoint_due(options_, epoch_);
    if (stop_requested(options_, epoch_)) {
      TG_WARN("graceful-stop trainer=gcnii epoch=" << epoch_ << "/"
              << options_.epochs << " action=checkpoint-and-return");
      due = !options_.checkpoint_path.empty();
      if (due) save_checkpoint(options_.checkpoint_path);
      break;
    }
    if (due) save_checkpoint(options_.checkpoint_path);
  }
  return mean_loss;
}

void GcniiTrainer::save_checkpoint(const std::string& path) const {
  write_checkpoint(path, "gcnii", model_, adam_, epoch_, nullptr);
}

void GcniiTrainer::load_checkpoint(const std::string& path) {
  epoch_ = read_checkpoint(path, "gcnii", model_, adam_, nullptr);
}

DesignEval GcniiTrainer::evaluate(const data::DatasetGraph& g) {
  TG_TRACE_SCOPE("core/evaluate", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;
  const GcniiAdjacency& adj = adjacency_for(g);
  WallTimer timer;
  Tensor pred = model_.forward(g, adj);
  DesignEval eval;
  eval.infer_seconds = timer.seconds();
  eval.name = g.name;
  eval.is_test = g.is_test;

  const Tensor truth_parts[] = {g.arrival, g.slew};
  eval.r2_atslew_all =
      pooled_r2(nn::concat_cols(truth_parts), pred, all_rows(g.num_nodes));
  std::vector<double> t, p;
  for (int ep : g.endpoints) {
    for (int c = 0; c < kNumCorners; ++c) {
      t.push_back(g.arrival.at(ep, c));
      p.push_back(pred.at(ep, c));
    }
  }
  eval.r2_arrival_endpoints =
      r2_score(std::span<const double>(t), std::span<const double>(p));
  return eval;
}

}  // namespace tg::core
