#pragma once
/// \file types.hpp
/// Request/response vocabulary of the slack-prediction serving plane
/// (DESIGN.md §12). A request targets one open session and either streams
/// ECO resize moves into it or asks for a fresh slack prediction; every
/// response is tagged with the admission outcome (`ok | degraded | shed`)
/// and the ladder tier that produced it, so a client can always tell how
/// trustworthy an answer is and when to retry.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cancel.hpp"

namespace tg::serve {

using SessionId = std::uint64_t;

/// One ECO gate-sizing move: swap instance `inst` to library cell
/// `new_cell` (same function, different drive — the caller guarantees pin
/// compatibility, as in examples/eco_resize).
struct ResizeMove {
  int inst = -1;
  int new_cell = -1;
};

/// Which predictor a slack query wants.
enum class RequestMode {
  kAuto,  ///< server's choice: GNN at the full tier, engine below it
  kGnn,   ///< the paper's GNN predictor (full-graph forward)
  kSta,   ///< engine values (golden STA / incremental timer)
};

struct Request {
  SessionId session = 0;
  /// Moves to apply before answering; empty = pure prediction query.
  std::vector<ResizeMove> moves;
  /// Per-request deadline budget, measured from submit (queue wait counts
  /// against it). zero = no deadline.
  std::chrono::nanoseconds budget{0};
  /// Optional client-side cancel handle; merged with the server-side
  /// deadline into one token chain.
  CancelToken cancel;
  RequestMode mode = RequestMode::kAuto;
  /// Skip the degradation ladder: compute the full tier or fail. Used by
  /// clients that need the reference answer (eco_resize's final check).
  bool force_full = false;
};

/// Admission outcome. Every submitted request receives exactly one.
enum class ResponseStatus {
  kOk,        ///< answered at the requested fidelity
  kDegraded,  ///< answered, but by a lower ladder tier (cone or stale)
  kShed,      ///< not answered: queue full, quarantine, cancel, shutdown
};

/// Ladder tier that produced the payload.
enum class ServeTier {
  kNone,   ///< no payload (shed)
  kFull,   ///< full-graph compute (GNN batch forward or full re-time)
  kCone,   ///< incremental dirty-cone fast path
  kStale,  ///< checksummed cached answer from an earlier request
};

[[nodiscard]] const char* response_status_name(ResponseStatus status);
[[nodiscard]] const char* serve_tier_name(ServeTier tier);

struct Response {
  ResponseStatus status = ResponseStatus::kShed;
  ServeTier tier = ServeTier::kNone;
  /// Why compute stopped early (deadline / client cancel), kNone otherwise.
  CancelReason stop_reason = CancelReason::kNone;

  // ---- payload (valid when tier != kNone) ------------------------------
  double wns_setup = 0.0;
  double tns_setup = 0.0;
  double wns_hold = 0.0;
  /// Setup slack per endpoint, aligned with the session's endpoint list
  /// (SessionView::endpoints).
  std::vector<double> endpoint_setup;

  // ---- serving diagnostics ---------------------------------------------
  std::chrono::nanoseconds latency{0};
  /// When shed for overload/quarantine: suggested client backoff.
  std::chrono::nanoseconds retry_after{0};
  int batch_size = 1;   ///< requests answered by the same full-graph pass
  int retries = 0;      ///< worker-fault retries this request survived
  /// Propagation rows a moved session's GNN read recomputed: every row on
  /// a full read, the dirty cone otherwise (0 for other answers).
  std::int64_t gnn_rows = 0;
  std::string error;    ///< human-readable cause when shed
};

struct ServeOptions {
  int workers = 2;
  int queue_capacity = 64;
  /// Max compatible full-graph prediction requests coalesced into one
  /// forward pass by the micro-batcher. 0 resolves TG_SERVE_MAX_BATCH at
  /// construction (default 8); must be >= 1 after resolution.
  int max_batch = 0;
  /// Cross-template coalescing: when on, the micro-batcher also drains
  /// batchable tickets of *other* templates and answers the mix with one
  /// packed forward (data/graph_pack.hpp). -1 resolves
  /// TG_SERVE_CROSS_BATCH at construction (default on); 0 disables.
  int cross_batch = -1;
  /// Node budget for one cross-template packed batch: the sum of the
  /// distinct member templates' node counts may not exceed it, so one
  /// giant design cannot starve the latency of small tenants (same-
  /// template extras are free — they share the packed rows). 0 resolves
  /// TG_SERVE_MAX_BATCH_NODES at construction (default 262144); < 0
  /// after resolution means unlimited.
  long long max_batch_nodes = 0;
  /// LRU capacity of the pack cache (packed super-graph + plan per
  /// recurring template-key set). 0 resolves TG_SERVE_PACK_CACHE at
  /// construction (default 8); must be >= 1 after resolution.
  int pack_cache = 0;
  /// Deadline applied when a request carries none. zero = unlimited.
  std::chrono::nanoseconds default_budget{0};
  /// Queue fill fractions where the entry tier drops to cone / stale.
  double degrade_queue_frac = 0.5;
  double stale_queue_frac = 0.875;
  /// Worker-fault retry policy: capped exponential backoff.
  int max_retries = 2;
  std::chrono::nanoseconds backoff_base{std::chrono::milliseconds(1)};
  std::chrono::nanoseconds backoff_cap{std::chrono::milliseconds(32)};
  /// Per-session quarantine: after this many consecutive failed requests
  /// the session is benched for `quarantine_period` (its requests shed
  /// with a retry-after hint) — a poisoned session never takes down the
  /// server.
  int quarantine_after = 3;
  std::chrono::nanoseconds quarantine_period{std::chrono::milliseconds(200)};
  /// Session-table cap for long-lived servers: opening a session past the
  /// cap evicts the least-recently-used *idle* session (its map entry is
  /// dropped; in-flight requests holding the shared_ptr still complete,
  /// later requests on the evicted id are shed as "unknown session").
  /// 0 resolves TG_SERVE_MAX_SESSIONS at construction; <= 0 after
  /// resolution means unlimited. Re-opening an evicted design is cheap —
  /// the template cache keeps the baseline, the session re-materializes
  /// on its first move.
  int max_sessions = 0;
  /// GNN model width (the serving model is built once and shared,
  /// immutable, across all sessions and workers).
  int gnn_hidden = 8;
};

/// Monotonic whole-server counters (see also the serve/* metrics).
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< promises fulfilled, any status
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t batched = 0;  ///< requests answered via a coalesced batch
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;  ///< worker faults observed (pre-retry)
  std::uint64_t quarantines = 0;
  std::uint64_t cancelled = 0;         ///< client-cancelled requests
  std::uint64_t deadline_expired = 0;  ///< requests that tripped a deadline
  std::uint64_t evicted = 0;           ///< sessions LRU-evicted at the cap
  /// Requests answered via a cross-template packed batch (subset of
  /// `batched`).
  std::uint64_t cross_batched = 0;
  /// Pack-cache hits/misses: a miss packs + plans the template set, a hit
  /// reuses the cached super-graph.
  std::uint64_t pack_hits = 0;
  std::uint64_t pack_misses = 0;
};

}  // namespace tg::serve
