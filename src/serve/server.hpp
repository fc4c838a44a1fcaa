#pragma once
/// \file server.hpp
/// `SlackServer` — the multi-tenant slack-prediction server core
/// (DESIGN.md §12). Robustness is the contract:
///
///  * **Admission**: requests enter a bounded queue; when it is full they
///    are shed immediately with a retry-after hint (no unbounded latency).
///  * **Deadlines & cancellation**: each request's budget becomes a
///    `CancelSource` chained with the client's cancel token and installed
///    as the worker's ambient token, so the STA sweeps, the incremental
///    cone walk and the GNN forward all stop within one level of the trip
///    (util/cancel.hpp).
///  * **Graceful degradation**: a three-tier ladder keeps p99 bounded —
///    full compute → incremental dirty-cone fast path → checksummed
///    stale-cached answer flagged `degraded` — and only sheds when even
///    stale is impossible.
///  * **Fault recovery**: worker faults (TG_FAULT_SERVE) retry under
///    capped exponential backoff; sessions that keep failing are
///    quarantined for a period instead of poisoning the server.
///  * **Bounded session table**: `max_sessions` (TG_SERVE_MAX_SESSIONS)
///    LRU-evicts idle sessions on open, so a long-lived server does not
///    grow without bound; evicted designs reopen cheaply from the
///    template cache.
///
/// The model weights are built once, immutable, and shared by every
/// worker; concurrent forwards are safe because autograd state lives in
/// the result tensors, never in the modules. The template cache is bound
/// to them: it embeds each physical template once, as it builds it, so a
/// GNN answer reads only the template and the weights.

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "gen/suite.hpp"
#include "serve/admission.hpp"
#include "serve/session.hpp"

namespace tg::serve {

class SlackServer {
 public:
  explicit SlackServer(const ServeOptions& options = {});
  ~SlackServer();

  SlackServer(const SlackServer&) = delete;
  SlackServer& operator=(const SlackServer&) = delete;

  /// Opens a session on (design, scale); cheap after the first open of a
  /// design (template cache). `clock_factor` tightens/relaxes the
  /// calibrated clock (0 = suite default) — an ECO client opens with a
  /// deliberately tight clock so its move stream has violations to fix.
  /// Throws CheckError for unknown designs.
  SessionId open_session(const std::string& design,
                         double scale = kDefaultSuiteScale,
                         double clock_factor = 0.0);
  void close_session(SessionId id);

  /// Asynchronous entry point. The returned future is ALWAYS fulfilled —
  /// shed at the door, answered by a worker, or shed at shutdown.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Synchronous convenience: submit + get.
  Response call(Request req);

  /// Runs `fn` on a read-only view of the session under its lock (e.g.
  /// victim picking in an ECO loop). Returns false without running `fn`
  /// when the id is unknown — closed, never opened, or LRU-evicted; with
  /// a session cap that race is reachable by well-behaved clients.
  bool inspect(SessionId id, const std::function<void(const SessionView&)>& fn);

  /// Stops admission, sheds queued work, joins workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  [[nodiscard]] int queue_depth() const { return queue_.size(); }
  /// The shared serving model (immutable weights). The template cache
  /// embeds every physical template with it
  /// (PhysicalTemplate::embedding).
  [[nodiscard]] const core::TimingGnn& model() const { return model_; }

 private:
  struct StatsCells {
    std::atomic<std::uint64_t> submitted{0}, completed{0}, ok{0},
        degraded{0}, shed{0}, retries{0}, faults{0},
        quarantines{0}, cancelled{0}, deadline_expired{0}, evicted{0};
  };

  void worker_loop();
  void handle(Ticket ticket);
  /// Session lookup that bumps the LRU stamp; nullptr when unknown (or
  /// already evicted).
  [[nodiscard]] std::shared_ptr<Session> find_session(SessionId id);
  /// Evicts least-recently-used *idle* sessions until the table fits
  /// `max_sessions`. Caller holds `sessions_mu_`. Sessions whose lock is
  /// held (a request in flight) are skipped — the cap is soft under
  /// all-busy load.
  void evict_lru_locked();
  /// Fulfills `t` and records status counters/metrics. Every ticket goes
  /// through here exactly once.
  void fulfill(Ticket& t, Response&& response);
  Response shed_response(CancelReason reason, std::string error) const;
  /// Retry-after hint derived from queue depth and the latency EMA.
  [[nodiscard]] std::chrono::nanoseconds retry_after_hint() const;

  /// Executes the chosen tier for `t` on `session` (session lock held).
  /// Throws CancelError on deadline/cancel and anything else on faults.
  Response run_full_tier(Session& session, const Ticket& t);
  /// GNN answer for a moved session (session lock held): patches the
  /// instances moved since the last read into the session graph and
  /// brings its read cache up to date — the dirty cone only, or every
  /// row on the first read and after a stopped one (gnn_dirty).
  Response session_gnn_read(Session& session);
  Response run_cone_tier(Session& session);
  /// Serves the checksummed stale cache; nullopt when absent/corrupt.
  std::optional<Response> run_stale_tier(Session& session);
  /// Stores a good answer in the session's stale cache (applies the
  /// `cache` fault point: corrupt-on-write, detected by the read-side
  /// checksum).
  void store_stale(Session& session, const Response& r);
  ServeOptions options_;
  core::TimingGnn model_;  ///< immutable shared weights
  TemplateCache templates_;  ///< bound to model_
  AdmissionQueue queue_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> next_session_{1};
  /// Logical LRU clock: bumped per session lookup, stamped into
  /// Session::last_used.
  std::atomic<std::uint64_t> lru_clock_{0};

  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;

  StatsCells stats_;
  std::atomic<std::uint64_t> ema_latency_ns_{0};
};

}  // namespace tg::serve
