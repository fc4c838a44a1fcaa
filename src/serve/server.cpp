#include "serve/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"

namespace tg::serve {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// Serving fault points (util/fault.hpp serve domain). `slow` stalls in
/// 1 ms slices so a deadline still preempts the stall at the next slice;
/// `worker` throws the way a real worker bug would.
void maybe_inject_faults() {
  if (fault::should_fail_serve("slow")) {
    const CancelToken token = current_cancel_token();
    for (int i = 0; i < 25; ++i) {
      token.throw_if_cancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.throw_if_cancelled();
  }
  if (fault::should_fail_serve("worker")) {
    throw std::runtime_error("injected serve worker fault");
  }
}

/// Sleeps `d` in 1 ms slices; false when the token tripped first.
bool backoff_sleep(std::chrono::nanoseconds d, const CancelToken& token) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
    if (token.cancelled()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return !token.cancelled();
}

long long env_number(const char* name, long long fallback) {
  if (const char* env = std::getenv(name)) return std::atoll(env);
  return fallback;
}

/// Resolves the env-defaulted ServeOptions knobs once, at construction
/// (DESIGN.md §12). A 0 field means "take the environment's word";
/// explicit non-zero fields always win, so tests and benches can pin
/// behaviour regardless of the ambient environment.
ServeOptions resolved_options(ServeOptions options) {
  if (options.max_sessions == 0) {
    options.max_sessions =
        static_cast<int>(env_number("TG_SERVE_MAX_SESSIONS", 0));
  }
  return options;
}

core::TimingGnnConfig model_config(const ServeOptions& options) {
  core::TimingGnnConfig config;
  config.net.hidden = options.gnn_hidden;
  config.net.mlp_hidden = options.gnn_hidden;
  config.prop.hidden = options.gnn_hidden;
  config.prop.mlp_hidden = options.gnn_hidden;
  return config;
}

/// Engine-derived payload from the session's current STA view.
Response engine_payload(const Session& s) {
  const StaResult& sta = s.engine_result();
  Response r;
  r.wns_setup = sta.wns_setup;
  r.tns_setup = sta.tns_setup;
  r.wns_hold = sta.wns_hold;
  const std::vector<int>& endpoints = s.tpl->g.endpoints;
  r.endpoint_setup.reserve(endpoints.size());
  for (int ep : endpoints) {
    r.endpoint_setup.push_back(endpoint_setup_slack(sta, ep));
  }
  return r;
}

/// GNN payload from predicted endpoint slacks (endpoint order).
Response slack_payload(const std::vector<core::EndpointSlack>& slacks) {
  Response r;
  r.wns_setup = std::numeric_limits<double>::infinity();
  r.wns_hold = std::numeric_limits<double>::infinity();
  r.endpoint_setup.reserve(slacks.size());
  for (const core::EndpointSlack& es : slacks) {
    r.endpoint_setup.push_back(es.setup);
    r.wns_setup = std::min(r.wns_setup, es.setup);
    r.wns_hold = std::min(r.wns_hold, es.hold);
    if (es.setup < 0.0) r.tns_setup += es.setup;
  }
  if (slacks.empty()) {
    r.wns_setup = 0.0;
    r.wns_hold = 0.0;
  }
  return r;
}

/// GNN answer for a pristine session: a full read of the corner's graph
/// from its physical template's cached net embedding (query- and
/// clock-invariant), with the head run on the endpoint rows only.
Response pristine_payload(const core::TimingGnn& model,
                          const SessionTemplate& tpl,
                          const nn::Tensor& embedding) {
  core::ReadCache cache;
  // A full read with an empty delta never writes cache.embedding, so the
  // cached tensor is shared here, not copied.
  cache.embedding = embedding;
  model.read(tpl.g, tpl.phys->plan, tpl.g.endpoints, data::GraphDelta{},
             /*full=*/true, cache);
  return slack_payload(cache.slack);
}

/// Flushes the session's pending engine work so its STA view is current.
/// `force_full` resets the incremental baseline (the reference answer).
/// An abort mid-update leaves the session marked timing_dirty so the next
/// request heals via run_full instead of trusting a half-propagated cone.
void ensure_engine_current(Session& s, bool force_full) {
  if (s.pristine()) return;
  if (force_full || s.timing_dirty) {
    s.timer->run_full();
    s.timing_dirty = false;
    return;
  }
  try {
    s.timer->update();
  } catch (...) {
    s.timing_dirty = true;
    throw;
  }
}

}  // namespace

const char* response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kShed: return "shed";
  }
  return "?";
}

const char* serve_tier_name(ServeTier tier) {
  switch (tier) {
    case ServeTier::kNone: return "none";
    case ServeTier::kFull: return "full";
    case ServeTier::kCone: return "cone";
    case ServeTier::kStale: return "stale";
  }
  return "?";
}

SlackServer::SlackServer(const ServeOptions& options)
    : options_(resolved_options(options)),
      queue_(options_.queue_capacity),
      model_(model_config(options_)) {
  TG_CHECK(options_.workers >= 1);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SlackServer::~SlackServer() { shutdown(); }

SessionId SlackServer::open_session(const std::string& design, double scale,
                                    double clock_factor) {
  const std::shared_ptr<const SessionTemplate> tpl =
      templates_.get_or_build(design, scale, clock_factor);
  auto session = std::make_shared<Session>();
  session->id = next_session_.fetch_add(1, std::memory_order_relaxed);
  session->tpl = tpl;
  session->last_used.store(lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.emplace(session->id, session);
    evict_lru_locked();
  }
  TG_METRIC_COUNT("serve/sessions_opened", 1);
  return session->id;
}

void SlackServer::evict_lru_locked() {
  if (options_.max_sessions <= 0) return;
  while (sessions_.size() > static_cast<std::size_t>(options_.max_sessions)) {
    // Least-recently-used idle candidate: skip sessions whose lock is held
    // (a worker is mid-request on them). Erasing only drops the map entry;
    // a shared_ptr already handed to a worker keeps the session alive
    // until that request completes.
    std::unordered_map<SessionId, std::shared_ptr<Session>>::iterator victim =
        sessions_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      const std::uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used >= oldest) continue;
      if (!it->second->mu.try_lock()) continue;  // busy: not idle, skip
      it->second->mu.unlock();
      victim = it;
      oldest = used;
    }
    if (victim == sessions_.end()) return;  // everything busy: soft cap
    sessions_.erase(victim);
    stats_.evicted.fetch_add(1, std::memory_order_relaxed);
    TG_METRIC_COUNT("serve/sessions_evicted", 1);
  }
}

std::shared_ptr<Session> SlackServer::find_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second->last_used.store(
      lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return it->second;
}

void SlackServer::close_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
}

std::future<Response> SlackServer::submit(Request req) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  TG_METRIC_COUNT("serve/submitted", 1);

  Ticket t;
  t.req = std::move(req);
  t.enqueued = std::chrono::steady_clock::now();
  std::future<Response> fut = t.promise.get_future();

  if (stopping_.load(std::memory_order_relaxed)) {
    fulfill(t, shed_response(CancelReason::kNone, "server shutting down"));
    return fut;
  }

  const std::shared_ptr<Session> session = find_session(t.req.session);
  if (!session) {
    fulfill(t, shed_response(CancelReason::kNone, "unknown session"));
    return fut;
  }

  const std::chrono::nanoseconds budget =
      t.req.budget.count() > 0 ? t.req.budget : options_.default_budget;
  if (budget.count() > 0) t.deadline = t.enqueued + budget;

  // push() only consumes the ticket when it admits it, so the shed path
  // below still owns a valid promise.
  if (!queue_.push(std::move(t))) {
    TG_METRIC_COUNT("serve/shed_at_door", 1);
    Response r = shed_response(CancelReason::kNone, "admission queue full");
    r.retry_after = retry_after_hint();
    fulfill(t, std::move(r));
    return fut;
  }
  static obs::Gauge& depth = obs::gauge("serve/queue_depth");
  depth.set_max(static_cast<double>(queue_.size()));
  return fut;
}

Response SlackServer::call(Request req) { return submit(std::move(req)).get(); }

bool SlackServer::inspect(SessionId id,
                          const std::function<void(const SessionView&)>& fn) {
  const std::shared_ptr<Session> session = find_session(id);
  if (session == nullptr) return false;
  const std::lock_guard<std::mutex> lock(session->mu);
  const SessionView view{session->current_design(),
                         session->current_routing(),
                         session->current_graph(),
                         session->engine_result(),
                         session->tpl->g.endpoints,
                         session->tpl->period,
                         session->pristine(),
                         session->tpl->g,
                         session->gnn ? &session->gnn->g : nullptr};
  fn(view);
  return true;
}

void SlackServer::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  std::vector<Ticket> leftover = queue_.stop();
  for (Ticket& t : leftover) {
    fulfill(t, shed_response(CancelReason::kNone, "server shutting down"));
  }
  for (std::thread& w : workers_) w.join();
}

ServerStats SlackServer::stats() const {
  ServerStats s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.ok = stats_.ok.load(std::memory_order_relaxed);
  s.degraded = stats_.degraded.load(std::memory_order_relaxed);
  s.shed = stats_.shed.load(std::memory_order_relaxed);
  s.retries = stats_.retries.load(std::memory_order_relaxed);
  s.faults = stats_.faults.load(std::memory_order_relaxed);
  s.quarantines = stats_.quarantines.load(std::memory_order_relaxed);
  s.cancelled = stats_.cancelled.load(std::memory_order_relaxed);
  s.deadline_expired =
      stats_.deadline_expired.load(std::memory_order_relaxed);
  s.evicted = stats_.evicted.load(std::memory_order_relaxed);
  s.physical_templates = templates_.physical_builds();
  return s;
}

void SlackServer::worker_loop() {
  while (true) {
    std::optional<Ticket> t = queue_.pop();
    if (!t) return;  // stopped and drained
    handle(std::move(*t));
  }
}

Response SlackServer::shed_response(CancelReason reason,
                                    std::string error) const {
  Response r;
  r.status = ResponseStatus::kShed;
  r.tier = ServeTier::kNone;
  r.stop_reason = reason;
  r.error = std::move(error);
  return r;
}

std::chrono::nanoseconds SlackServer::retry_after_hint() const {
  std::uint64_t ema = ema_latency_ns_.load(std::memory_order_relaxed);
  if (ema == 0) ema = 1000000;  // 1 ms floor before any sample exists
  const auto waves = static_cast<std::uint64_t>(
      queue_.size() / std::max(1, options_.workers) + 1);
  return std::chrono::nanoseconds(ema * waves);
}

void SlackServer::fulfill(Ticket& t, Response&& response) {
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t.enqueued);
  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  TG_METRIC_COUNT("serve/completed", 1);
  switch (response.status) {
    case ResponseStatus::kOk:
      stats_.ok.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/ok", 1);
      break;
    case ResponseStatus::kDegraded:
      stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/degraded", 1);
      break;
    case ResponseStatus::kShed:
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/shed", 1);
      break;
  }
  switch (response.tier) {
    case ServeTier::kFull: TG_METRIC_COUNT("serve/tier_full", 1); break;
    case ServeTier::kCone: TG_METRIC_COUNT("serve/tier_cone", 1); break;
    case ServeTier::kStale: TG_METRIC_COUNT("serve/tier_stale", 1); break;
    case ServeTier::kNone: break;
  }
  static obs::Histogram& latency = obs::histogram("serve/latency_ns");
  const auto ns = static_cast<std::uint64_t>(response.latency.count());
  latency.record(ns);
  if (response.tier != ServeTier::kNone) {
    // Answered-request latency EMA (alpha 1/8): the retry-after and
    // budget-degradation cost estimate.
    std::uint64_t prev = ema_latency_ns_.load(std::memory_order_relaxed);
    const std::uint64_t next = prev == 0 ? ns : prev - prev / 8 + ns / 8;
    ema_latency_ns_.store(next, std::memory_order_relaxed);
  }
  t.promise.set_value(std::move(response));
}

Response SlackServer::run_full_tier(Session& session, const Ticket& t) {
  TG_TRACE_SCOPE("serve/full", obs::kSpanDetail);
  maybe_inject_faults();
  const bool want_gnn = t.req.mode != RequestMode::kSta;
  Response r;
  if (want_gnn) {
    // No engine flush: a GNN read needs no STA labels (a moved session's
    // graph has none), so moves wait for the next engine answer.
    if (session.pristine()) {
      r = pristine_payload(model_, *session.tpl,
                           template_embedding(*session.tpl->phys));
    } else {
      r = session_gnn_read(session);
    }
  } else {
    ensure_engine_current(session, /*force_full=*/t.req.force_full);
    r = engine_payload(session);
  }
  r.tier = ServeTier::kFull;
  return r;
}

Response SlackServer::session_gnn_read(Session& session) {
  bool full = session.gnn_dirty;
  if (!session.gnn) {
    // First read after materialize: the template's topology, LUT table
    // and net-edge features with private copies of the rows a patch
    // rewrites, and its cached embedding.
    const data::DatasetGraph& base = session.tpl->g;
    auto gnn = std::make_unique<Session::GnnState>();
    gnn->g.name = base.name;
    gnn->g.topo = base.topo;
    gnn->g.lut_table = base.lut_table;
    gnn->g.node_feat = nn::detach(base.node_feat);
    gnn->g.net_edge_feat = base.net_edge_feat;
    gnn->g.cell_arc_lut = base.cell_arc_lut;
    gnn->g.rat = nn::detach(base.rat);
    gnn->cache.embedding =
        nn::detach(template_embedding(*session.tpl->phys));
    session.gnn = std::move(gnn);
    full = true;
  }
  data::DatasetGraph& g = session.gnn->g;
  core::ReadCache& cache = session.gnn->cache;
  const core::PropPlan& plan = session.tpl->phys->plan;
  const std::vector<int>& endpoints = session.tpl->g.endpoints;
  const bool recover = session.gnn_dirty;

  // Cleared only when the read completes: a stop anywhere below leaves
  // the cache out of step with the graph.
  session.gnn_dirty = true;
  std::sort(session.gnn_touched.begin(), session.gnn_touched.end());
  session.gnn_touched.erase(
      std::unique(session.gnn_touched.begin(), session.gnn_touched.end()),
      session.gnn_touched.end());
  const data::GraphDelta delta =
      data::patch_instances(g, *session.graph, session.gnn_touched);
  session.gnn_touched.clear();
  if (fault::should_fail_serve("gnn")) {
    throw std::runtime_error("injected fault mid GNN read");
  }
  std::int64_t rows = 0;
  if (recover) {
    // The previous read stopped part way: its patch may have landed
    // without its re-embed, so re-embed everything.
    cache.embedding = model_.embed(g);
    rows = model_.read(g, plan, endpoints, data::GraphDelta{}, true, cache);
  } else if (full) {
    rows = model_.read(g, plan, endpoints, delta, true, cache);
  } else {
    TG_TRACE_SCOPE("serve/gnn_cone", obs::kSpanDetail);
    rows = model_.read(g, plan, endpoints, delta, false, cache);
  }
  session.gnn_dirty = false;

  if (full) {
    TG_METRIC_COUNT("serve/gnn_read_full", 1);
  }
  TG_METRIC_COUNT("serve/gnn_read_nodes", g.num_nodes());
  static obs::Histogram& rows_hist = obs::histogram("serve/gnn_read_rows");
  rows_hist.record(static_cast<std::uint64_t>(rows));

  Response r = slack_payload(cache.slack);
  r.gnn_rows = rows;
  return r;
}

Response SlackServer::run_cone_tier(Session& session, const Ticket& t) {
  TG_TRACE_SCOPE("serve/cone", obs::kSpanDetail);
  maybe_inject_faults();
  (void)t;
  ensure_engine_current(session, /*force_full=*/false);
  Response r = engine_payload(session);
  r.tier = ServeTier::kCone;
  return r;
}

std::optional<Response> SlackServer::run_stale_tier(Session& session) {
  TG_TRACE_SCOPE("serve/stale", obs::kSpanDetail);
  if (!session.stale.valid) return std::nullopt;
  if (session.stale.compute_checksum() != session.stale.checksum) {
    // Corrupted entry: never serve it. Dropping it turns the next stale
    // request into a shed instead of a lie.
    session.stale.valid = false;
    TG_METRIC_COUNT("serve/stale_corrupt", 1);
    return std::nullopt;
  }
  Response r;
  r.wns_setup = session.stale.wns_setup;
  r.tns_setup = session.stale.tns_setup;
  r.wns_hold = session.stale.wns_hold;
  r.endpoint_setup = session.stale.endpoint_setup;
  r.tier = ServeTier::kStale;
  r.status = ResponseStatus::kDegraded;
  return r;
}

void SlackServer::store_stale(Session& session, const Response& r) {
  if (r.tier == ServeTier::kStale) return;  // never re-store a stale answer
  session.stale.wns_setup = r.wns_setup;
  session.stale.tns_setup = r.tns_setup;
  session.stale.wns_hold = r.wns_hold;
  session.stale.endpoint_setup = r.endpoint_setup;
  session.stale.checksum = session.stale.compute_checksum();
  session.stale.valid = true;
  if (fault::should_fail_serve("cache")) {
    // Corrupt-on-write drill: flip the payload after checksumming; the
    // read side's checksum verification must catch it.
    if (!session.stale.endpoint_setup.empty()) {
      session.stale.endpoint_setup[0] += 1.0;
    } else {
      session.stale.wns_setup += 1.0;
    }
  }
}

void SlackServer::handle(Ticket ticket) {
  const std::shared_ptr<Session> session = find_session(ticket.req.session);
  if (!session) {
    fulfill(ticket, shed_response(CancelReason::kNone, "unknown session"));
    return;
  }

  TG_TRACE_SCOPE("serve/request", obs::kSpanCoarse);
  const std::lock_guard<std::mutex> lock(session->mu);
  const auto now = std::chrono::steady_clock::now();

  // Quarantined sessions never reach compute: stale if possible, else
  // shed with the remaining bench time as the retry hint.
  if (session->quarantined_until > now) {
    if (std::optional<Response> stale = run_stale_tier(*session)) {
      fulfill(ticket, std::move(*stale));
      return;
    }
    Response r = shed_response(CancelReason::kNone, "session quarantined");
    r.retry_after = std::chrono::duration_cast<std::chrono::nanoseconds>(
        session->quarantined_until - now);
    fulfill(ticket, std::move(r));
    return;
  }

  // Deadline + client cancel merged into one ambient token chain: every
  // STA level, incremental cone batch and GNN level step below polls it.
  const CancelSource source =
      ticket.deadline != kNoDeadline
          ? CancelSource::with_deadline(ticket.deadline, ticket.req.cancel)
          : CancelSource::with_parent(ticket.req.cancel);
  const CancelToken token = source.token();
  const ScopedCancel ambient(token);

  // Apply moves first (cheap, idempotent); re-timing is the tiers' job.
  const bool moved = !ticket.req.moves.empty();
  if (moved) {
    try {
      session->apply_moves(ticket.req.moves);
    } catch (const std::exception& e) {
      stats_.faults.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/faults", 1);
      if (++session->consecutive_failures >= options_.quarantine_after) {
        session->quarantined_until = now + options_.quarantine_period;
        session->consecutive_failures = 0;
        stats_.quarantines.fetch_add(1, std::memory_order_relaxed);
        TG_METRIC_COUNT("serve/quarantines", 1);
      }
      fulfill(ticket, shed_response(CancelReason::kNone, e.what()));
      return;
    }
  }

  // The best tier this request can get: the cone fast path *is* the
  // contract answer for ECO move streams (incremental == full re-time);
  // predictions want the full tier (GNN or full engine view).
  const ServeTier best = (moved && !ticket.req.force_full &&
                          ticket.req.mode != RequestMode::kGnn)
                             ? ServeTier::kCone
                             : ServeTier::kFull;

  // Entry tier: load shedding by queue fill, budget awareness by latency
  // EMA. force_full requests never degrade.
  ServeTier tier = best;
  if (!ticket.req.force_full) {
    const double fill = queue_.fill();
    if (fill >= options_.stale_queue_frac) {
      tier = ServeTier::kStale;
    } else if (fill >= options_.degrade_queue_frac &&
               tier == ServeTier::kFull) {
      tier = ServeTier::kCone;
    }
    const std::uint64_t ema = ema_latency_ns_.load(std::memory_order_relaxed);
    if (tier == ServeTier::kFull && ema > 0 &&
        token.remaining() < std::chrono::nanoseconds(ema)) {
      tier = ServeTier::kCone;
    }
  }

  // Ladder descent with capped-exponential-backoff retries on faults.
  std::optional<Response> answer;
  CancelReason stop = CancelReason::kNone;
  std::string fail_msg;
  int retries_used = 0;
  bool fault_failed = false;
  while (!answer && tier != ServeTier::kStale) {
    try {
      answer = tier == ServeTier::kFull ? run_full_tier(*session, ticket)
                                        : run_cone_tier(*session, ticket);
    } catch (const CancelError& e) {
      stop = e.reason();
      if (e.reason() == CancelReason::kCancelled) {
        stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
        TG_METRIC_COUNT("serve/cancelled", 1);
        fulfill(ticket,
                shed_response(CancelReason::kCancelled, "client cancelled"));
        return;
      }
      stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/deadline_expired", 1);
      tier = ServeTier::kStale;  // past the deadline only stale is free
    } catch (const std::exception& e) {
      stats_.faults.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/faults", 1);
      fail_msg = e.what();
      if (retries_used < options_.max_retries) {
        const auto backoff = std::min(
            options_.backoff_base * (std::int64_t{1} << retries_used),
            options_.backoff_cap);
        ++retries_used;
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
        TG_METRIC_COUNT("serve/retries", 1);
        if (!backoff_sleep(backoff, token)) {
          stop = token.reason();
          tier = ServeTier::kStale;
          if (stop == CancelReason::kCancelled) {
            stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
            TG_METRIC_COUNT("serve/cancelled", 1);
            fulfill(ticket, shed_response(CancelReason::kCancelled,
                                          "client cancelled"));
            return;
          }
        }
        continue;  // retry the same tier
      }
      fault_failed = true;  // retry budget exhausted
      tier = ServeTier::kStale;
    }
  }

  if (answer) {
    answer->retries = retries_used;
    answer->stop_reason = stop;
    answer->status = answer->tier == best ? ResponseStatus::kOk
                                          : ResponseStatus::kDegraded;
    if (ticket.req.force_full && answer->tier != ServeTier::kFull) {
      answer->status = ResponseStatus::kDegraded;
    }
    store_stale(*session, *answer);
    session->consecutive_failures = 0;
    fulfill(ticket, std::move(*answer));
    return;
  }

  // Stale tier (and the quarantine bookkeeping for fault-driven descents).
  const bool force_full_refused = ticket.req.force_full;
  std::optional<Response> stale =
      force_full_refused ? std::nullopt : run_stale_tier(*session);
  const bool stale_corrupt = !stale && !force_full_refused && fault_failed &&
                             fault::matched_serve_ops() > 0;
  if (fault_failed || stale_corrupt) {
    if (++session->consecutive_failures >= options_.quarantine_after) {
      session->quarantined_until =
          std::chrono::steady_clock::now() + options_.quarantine_period;
      session->consecutive_failures = 0;
      stats_.quarantines.fetch_add(1, std::memory_order_relaxed);
      TG_METRIC_COUNT("serve/quarantines", 1);
    }
  }
  if (stale) {
    stale->retries = retries_used;
    stale->stop_reason = stop;
    fulfill(ticket, std::move(*stale));
    return;
  }
  Response r = shed_response(
      stop, fail_msg.empty() ? "no answer available at any tier" : fail_msg);
  r.retries = retries_used;
  r.retry_after = retry_after_hint();
  fulfill(ticket, std::move(r));
}

nn::Tensor SlackServer::template_embedding(const PhysicalTemplate& phys) {
  {
    const std::lock_guard<std::mutex> lock(embed_mu_);
    const auto it = embeds_.find(phys.key);
    if (it != embeds_.end()) return it->second;
  }
  // Compute outside the lock; racing workers on a fresh template produce
  // identical tensors and the first insert wins.
  nn::Tensor emb = model_.embed(phys.g);
  const std::lock_guard<std::mutex> lock(embed_mu_);
  return embeds_.try_emplace(phys.key, std::move(emb)).first->second;
}

}  // namespace tg::serve
