#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iterator>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/trainer.hpp"
#include "pipeline.hpp"
#include "serve/server.hpp"
#include "streams.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tg::serve::Request;
using tg::serve::RequestMode;
using tg::serve::Response;
using tg::serve::ResponseStatus;
using tg::serve::ServeTier;
using tg::serve::SessionId;
using tg::serve::SlackServer;

/// Served endpoint slacks must match their reference this closely.
constexpr double kTolerance = 1e-6;

double ms_of(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool is_shed(const Response& r) { return r.status == ResponseStatus::kShed; }
bool is_degraded(const Response& r) {
  return r.status == ResponseStatus::kDegraded;
}

/// "xtea@0.92"; the bare name at the suite's default clock.
std::string tenant_label(const std::string& design, double clock_factor) {
  if (clock_factor <= 0.0) return design;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@%.4g", clock_factor);
  return design + buf;
}

std::unique_ptr<SlackServer> make_server(int workers) {
  tg::serve::ServeOptions options;
  options.workers = workers;
  return std::make_unique<SlackServer>(options);
}

/// Marks `slot` wrong at the first endpoint where `got` strays from
/// `expected`.
void check_slacks(Ledger& ledger, std::int64_t slot, const std::string& label,
                  const std::vector<double>& got,
                  const std::vector<double>& expected) {
  const std::optional<Mismatch> m = first_mismatch(got, expected, kTolerance);
  if (!m) return;
  ledger.mark_wrong(slot, label,
                    m->endpoint < 0 ? std::string("endpoint count")
                                    : "endpoint " + std::to_string(m->endpoint),
                    m->got, m->expected);
}

/// Drives a closed loop from the calling thread, the one generator: each
/// slot keeps one request outstanding and submits its next only once the
/// answer is back, like the placer and ECO loops the serving plane answers.
/// Slots first submit in `order`. Stops submitting at the deadline, drains
/// what is in flight, and returns the wall time including the drain.
template <typename Next, typename Done>
double closed_loop(SlackServer& server, const std::vector<int>& order,
                   double seconds, Next&& next, Done&& done) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::future<Response>> slots(order.size());
  for (const int s : order) {
    slots[static_cast<std::size_t>(s)] = server.submit(next(s));
  }
  std::size_t in_flight = slots.size();
  std::size_t cursor = 0;
  while (in_flight > 0) {
    bool progressed = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      std::future<Response>& f = slots[s];
      if (!f.valid() ||
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      done(static_cast<int>(s), f.get());
      progressed = true;
      if (Clock::now() < deadline) {
        f = server.submit(next(static_cast<int>(s)));
      } else {
        --in_flight;
      }
    }
    if (progressed) continue;
    // Nothing ready: block briefly on one in-flight answer, round robin,
    // rather than spin on a core the server needs.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      std::future<Response>& f = slots[(cursor + i) % slots.size()];
      if (f.valid()) {
        (void)f.wait_for(std::chrono::microseconds(50));
        break;
      }
    }
    cursor = (cursor + 1) % slots.size();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// predict_mix: 12 tenants, each keeping one pristine prediction
/// outstanding. Embeddings are cached per template and packs per tenant
/// mix, so propagation is the whole cost; STA, routing and generation never
/// run after setup.
class PredictMix final : public Workload {
 public:
  PredictMix(std::uint64_t seed, Ledger& ledger)
      : seed_(seed), ledger_(ledger) {}

  void setup() override {
    server_ = make_server(enter_shape("predict_mix").server_workers);
    for (const double clock : kMixCorners) {
      for (const char* design : kMixDesigns) {
        tenants_.push_back(Tenant{
            design, clock, server_->open_session(design, kSmallScale, clock)});
      }
    }
    order_ = seeded_permutation(seed_, 1, static_cast<int>(tenants_.size()));
    // Two untimed waves fill the embedding and pack caches.
    for (int wave = 0; wave < 2; ++wave) {
      std::vector<std::future<Response>> answers;
      for (const int s : order_) answers.push_back(server_->submit(request(s)));
      for (std::future<Response>& a : answers) (void)a.get();
    }
  }

  Phase run(double seconds) override {
    Phase p;
    const tg::serve::ServerStats before = server_->stats();
    p.wall_s = closed_loop(
        *server_, order_, seconds, [&](int s) { return request(s); },
        [&](int s, Response r) {
          const Tenant& t = tenants_[static_cast<std::size_t>(s)];
          const std::int64_t slot =
              ledger_.record(t.label(), is_shed(r), is_degraded(r), r.error);
          ++p.ops;
          if (is_shed(r)) return;
          p.latency_ms.push_back(ms_of(r.latency));
          batch_sizes_.push_back(static_cast<double>(r.batch_size));
          answers_.push_back(Answer{slot, static_cast<std::size_t>(s),
                                    std::move(r.endpoint_setup)});
        });
    const tg::serve::ServerStats after = server_->stats();
    completed_ += static_cast<double>(after.completed - before.completed);
    cross_batched_ +=
        static_cast<double>(after.cross_batched - before.cross_batched);
    pack_hits_ += static_cast<double>(after.pack_hits - before.pack_hits);
    pack_misses_ += static_cast<double>(after.pack_misses - before.pack_misses);
    return p;
  }

  /// Every answer against TimingGnn::forward on the tenant's design, built
  /// outside the server.
  void verify() override {
    const tg::core::TimingGnn model(serve_model_config());
    std::vector<std::vector<double>> reference;
    for (const Tenant& t : tenants_) {
      const BuiltDesign b = build_design(t.design, kSmallScale, t.clock_factor);
      reference.push_back(reference_slacks(model, b.g, b.plan));
    }
    for (const Answer& a : answers_) {
      check_slacks(ledger_, a.slot, tenants_[a.tenant].label(),
                   a.endpoint_setup, reference[a.tenant]);
    }
  }

  void report(Metrics& out) const override {
    out.push_back({"serve.batch_size_mean", mean(batch_sizes_), "count"});
    out.push_back({"serve.cross_batched_frac",
                   ratio(cross_batched_, completed_), "ratio"});
    out.push_back({"serve.pack_hit_frac",
                   ratio(pack_hits_, pack_hits_ + pack_misses_), "ratio"});
    out.push_back({"serve.pack_misses", pack_misses_, "count"});
  }

 private:
  struct Tenant {
    std::string design;
    double clock_factor = 0.0;
    SessionId id = 0;
    [[nodiscard]] std::string label() const {
      return tenant_label(design, clock_factor);
    }
  };
  struct Answer {
    std::int64_t slot = 0;
    std::size_t tenant = 0;
    std::vector<double> endpoint_setup;
  };

  [[nodiscard]] Request request(int s) const {
    Request req;
    req.session = tenants_[static_cast<std::size_t>(s)].id;
    return req;
  }

  std::uint64_t seed_;
  Ledger& ledger_;
  std::unique_ptr<SlackServer> server_;
  std::vector<Tenant> tenants_;
  std::vector<int> order_;
  std::vector<Answer> answers_;
  std::vector<double> batch_sizes_;
  double completed_ = 0.0, cross_batched_ = 0.0, pack_hits_ = 0.0,
         pack_misses_ = 0.0;
};

/// eco_stream: ECO clients writing beside reading on the same sessions.
/// Requests are seeded same-function resizes in kSta mode, answered by the
/// cone tier's incremental STA; every kEcoReadEvery-th request on a session
/// is instead a GNN read of the mutated session, which nothing caches
/// (re-extract, re-plan, embed, propagate).
class EcoStreamLoad final : public Workload {
 public:
  EcoStreamLoad(std::uint64_t seed, Ledger& ledger)
      : seed_(seed), ledger_(ledger) {}

  void setup() override {
    server_ = make_server(enter_shape("eco_stream").server_workers);
    int index = 0;
    for (const char* design : kEcoDesigns) {
      Session s;
      s.design = design;
      s.id = server_->open_session(design, kSmallScale, kEcoClock);
      std::vector<ResizeChoice> choices;
      server_->inspect(s.id, [&](const tg::serve::SessionView& v) {
        choices = resize_choices(v.design);
      });
      s.stream = std::make_unique<EcoStream>(seed_, index++,
                                             std::move(choices), kEcoReadEvery);
      sessions_.push_back(std::move(s));
    }
    order_ = seeded_permutation(seed_, 2, static_cast<int>(sessions_.size()));
    // Untimed warm-up: each stream runs to its first read, so every session
    // is materialized and has been extracted once.
    for (const int s : order_) {
      Session& x = sessions_[static_cast<std::size_t>(s)];
      do {
        x.pending = x.stream->next();
        (void)server_->call(request(x));
      } while (!x.pending.read);
    }
  }

  Phase run(double seconds) override {
    Phase p;
    p.wall_s = closed_loop(
        *server_, order_, seconds,
        [&](int s) {
          Session& x = sessions_[static_cast<std::size_t>(s)];
          x.pending = x.stream->next();
          return request(x);
        },
        [&](int s, Response r) {
          Session& x = sessions_[static_cast<std::size_t>(s)];
          const std::int64_t slot =
              ledger_.record(x.design, is_shed(r), is_degraded(r), r.error);
          ++p.ops;
          if (is_shed(r)) return;
          if (x.pending.read) {
            reads_ms_.push_back(ms_of(r.latency));
            return;
          }
          p.latency_ms.push_back(ms_of(r.latency));
          moves_ += 1.0;
          if (r.tier == ServeTier::kCone) cone_answers_ += 1.0;
          x.last_move_slot = slot;
          x.last_move_answer = std::move(r.endpoint_setup);
        });
    return p;
  }

  /// The cone == full contract: a force_full kSta re-time of each session
  /// must match its last cone answer.
  void verify() override {
    for (Session& x : sessions_) {
      if (x.last_move_slot < 0) continue;
      Request req;
      req.session = x.id;
      req.mode = RequestMode::kSta;
      req.force_full = true;
      const Response full = server_->call(std::move(req));
      if (full.status != ResponseStatus::kOk || full.tier != ServeTier::kFull) {
        ledger_.mark_wrong(x.last_move_slot, x.design, "force_full tier",
                           static_cast<double>(static_cast<int>(full.tier)),
                           static_cast<double>(static_cast<int>(ServeTier::kFull)));
        continue;
      }
      check_slacks(ledger_, x.last_move_slot, x.design, x.last_move_answer,
                   full.endpoint_setup);
    }
  }

  void report(Metrics& out) const override {
    out.push_back({"serve.tier_cone_frac", ratio(cone_answers_, moves_),
                   "ratio"});
    out.push_back({"serve.eco_predict_p50_ms", median(reads_ms_), "ms"});
  }

 private:
  struct Session {
    std::string design;
    SessionId id = 0;
    std::unique_ptr<EcoStream> stream;
    EcoStep pending;
    std::int64_t last_move_slot = -1;
    std::vector<double> last_move_answer;
  };

  [[nodiscard]] static Request request(const Session& x) {
    Request req;
    req.session = x.id;
    if (x.pending.read) {
      req.mode = RequestMode::kGnn;
    } else {
      req.mode = RequestMode::kSta;
      req.moves.push_back({x.pending.inst, x.pending.new_cell});
    }
    return req;
  }

  std::uint64_t seed_;
  Ledger& ledger_;
  std::unique_ptr<SlackServer> server_;
  std::vector<Session> sessions_;
  std::vector<int> order_;
  std::vector<double> reads_ms_;
  double moves_ = 0.0, cone_answers_ = 0.0;
};

/// cold_design: the paper's Table 5 path, from raw design to the first
/// served answer. Each repetition starts a fresh server, so the template
/// cache is empty, and asks once per ladder design at a seeded clock
/// factor; queueing and batching never come into play.
class ColdDesign final : public Workload {
 public:
  ColdDesign(std::uint64_t seed, Ledger& ledger)
      : schedule_(seed, 4), ledger_(ledger) {}

  void setup() override {
    workers_ = enter_shape("cold_design").server_workers;
    (void)ladder(0.0, /*record=*/false);  // warm-up at the suite's clock
  }

  Phase run(double seconds) override {
    Phase p;
    const tg::WallTimer wall;
    do {
      p.latency_ms.push_back(ladder(schedule_.next(), /*record=*/true));
      ++p.ops;
    } while (wall.seconds() < seconds);
    p.wall_s = wall.seconds();
    return p;
  }

  /// Every answer against TimingGnn::forward on its design, built outside
  /// the server at the same clock factor.
  void verify() override {
    const tg::core::TimingGnn model(serve_model_config());
    std::map<std::pair<std::string, double>, std::vector<double>> reference;
    for (const Answer& a : answers_) {
      const auto key = std::make_pair(a.design, a.clock_factor);
      auto it = reference.find(key);
      if (it == reference.end()) {
        const BuiltDesign b =
            build_design(a.design, kLadderScale, a.clock_factor);
        it = reference.emplace(key, reference_slacks(model, b.g, b.plan)).first;
      }
      check_slacks(ledger_, a.slot, tenant_label(a.design, a.clock_factor),
                   a.endpoint_setup, it->second);
    }
  }

  void report(Metrics& out) const override {
    for (const auto& [design, ms] : design_ms_) {
      out.push_back({"cold_answer_ms." + design, median(ms), "ms"});
    }
  }

 private:
  struct Answer {
    std::int64_t slot = 0;
    std::string design;
    double clock_factor = 0.0;
    std::vector<double> endpoint_setup;
  };

  /// One repetition: a fresh server answers one request per ladder design.
  /// Returns the summed time to first answer, in ms.
  double ladder(double clock_factor, bool record) {
    const std::unique_ptr<SlackServer> server = make_server(workers_);
    double total_ms = 0.0;
    for (const char* design : kLadder) {
      Response r;
      const double ms = time_ms([&] {
        Request req;
        req.session = server->open_session(design, kLadderScale, clock_factor);
        r = server->call(std::move(req));
      });
      total_ms += ms;
      if (!record) continue;
      design_ms_[design].push_back(ms);
      const std::int64_t slot =
          ledger_.record(tenant_label(design, clock_factor), is_shed(r),
                         is_degraded(r), r.error);
      if (!is_shed(r)) {
        answers_.push_back(
            Answer{slot, design, clock_factor, std::move(r.endpoint_setup)});
      }
    }
    return total_ms;
  }

  ClockSchedule schedule_;
  Ledger& ledger_;
  int workers_ = 1;
  std::map<std::string, std::vector<double>> design_ms_;
  std::vector<Answer> answers_;
};

/// train: fixed-seed TimingGnn training at the shipped default thread count.
/// One fit() call is one epoch: the stop flag is always raised, and the
/// trainer honours it at each epoch boundary.
class Train final : public Workload {
 public:
  Train(std::uint64_t seed, Ledger& ledger) : seed_(seed), ledger_(ledger) {}

  void setup() override {
    (void)enter_shape("train");
    dataset_ = build_train_dataset(seed_);
    tg::core::TrainOptions options;
    options.epochs = 1 << 30;
    options.lr = 2e-3f;
    options.verbose = false;
    options.stop_requested = &stop_;
    trainer_ = std::make_unique<tg::core::TimingGnnTrainer>(
        train_model_config(), options);
    (void)trainer_->fit(dataset_);  // warm-up epoch: plans, arena buckets
  }

  Phase run(double seconds) override {
    Phase p;
    const auto steps = static_cast<std::int64_t>(dataset_.train_ids.size());
    const tg::WallTimer wall;
    do {
      const long long skipped_before = trainer_->non_finite_steps();
      const double ms = time_ms([&] { (void)trainer_->fit(dataset_); });
      p.latency_ms.push_back(ms / static_cast<double>(steps));
      p.ops += steps;
      const long long skipped = trainer_->non_finite_steps() - skipped_before;
      for (std::int64_t i = 0; i < steps; ++i) {
        const int id = dataset_.train_ids[static_cast<std::size_t>(i)];
        const std::string& name =
            dataset_.graphs[static_cast<std::size_t>(id)].name;
        const std::int64_t slot = ledger_.record(name, false, false);
        // fit() counts skipped steps but does not say which; charge the
        // epoch's first ones.
        if (i < skipped) {
          ledger_.mark_wrong(slot, name, "training loss", std::nan(""), 0.0);
        }
      }
    } while (wall.seconds() < seconds);
    p.wall_s = wall.seconds();
    return p;
  }

  /// The held-out evaluation must be finite.
  void verify() override {
    test_r2_.clear();
    for (const int id : dataset_.test_ids) {
      const tg::data::DatasetGraph& g =
          dataset_.graphs[static_cast<std::size_t>(id)];
      const double r2 = trainer_->evaluate(g).r2_arrival_endpoints;
      test_r2_.emplace_back(g.name, r2);
      const std::int64_t slot = ledger_.record(g.name, false, false);
      if (!std::isfinite(r2)) {
        ledger_.mark_wrong(slot, g.name, "test arrival R2", r2, 0.0);
      }
    }
  }

  void report(Metrics& out) const override {
    for (const auto& [name, r2] : test_r2_) {
      out.push_back({"test_arrival_r2." + name, r2, "r2"});
    }
  }

 private:
  std::uint64_t seed_;
  Ledger& ledger_;
  std::atomic<bool> stop_{true};
  tg::data::SuiteDataset dataset_;
  std::unique_ptr<tg::core::TimingGnnTrainer> trainer_;
  std::vector<std::pair<std::string, double>> test_r2_;
};

}  // namespace

tg::data::SuiteDataset build_train_dataset(std::uint64_t seed) {
  tg::data::DatasetOptions options;
  options.scale = kSmallScale;
  std::vector<std::string> only(std::begin(kTrainDesigns),
                                std::end(kTrainDesigns));
  only.insert(only.end(), std::begin(kTestDesigns), std::end(kTestDesigns));
  tg::data::SuiteDataset dataset =
      tg::data::build_suite_dataset(library(), options, only);
  if (!dataset.quarantined.empty()) {
    throw std::runtime_error("train dataset: " +
                             dataset.quarantined.front().name +
                             " was quarantined");
  }
  std::vector<int> order;
  for (const int i : seeded_permutation(
           seed, 3, static_cast<int>(dataset.train_ids.size()))) {
    order.push_back(dataset.train_ids[static_cast<std::size_t>(i)]);
  }
  dataset.train_ids = std::move(order);
  return dataset;
}

tg::core::TimingGnnConfig train_model_config() {
  tg::core::TimingGnnConfig config;
  config.net.hidden = config.net.mlp_hidden = 16;
  config.prop.hidden = config.prop.mlp_hidden = config.prop.lut.mlp_hidden =
      16;
  config.net.mlp_layers = config.prop.mlp_layers = 2;
  return config;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Shape workload_shape(const std::string& name) {
  if (name == "predict_mix" || name == "eco_stream") {
    return Shape{1, 2, "1/32"};
  }
  if (name == "cold_design") return Shape{nproc(), 1, "1/16"};
  if (name == "train") return Shape{nproc(), 0, "1/32"};
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (predict_mix, eco_stream, cold_design or train)");
}

Shape enter_shape(const std::string& name) {
  const Shape shape = workload_shape(name);
  tg::set_num_threads(shape.pool_threads);
  return shape;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Ledger& ledger) {
  if (name == "predict_mix") return std::make_unique<PredictMix>(seed, ledger);
  if (name == "eco_stream") {
    return std::make_unique<EcoStreamLoad>(seed, ledger);
  }
  if (name == "cold_design") return std::make_unique<ColdDesign>(seed, ledger);
  if (name == "train") return std::make_unique<Train>(seed, ledger);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
