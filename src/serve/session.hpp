#pragma once
/// \file session.hpp
/// Per-tenant state of the serving plane (DESIGN.md §12).
///
/// A `SessionTemplate` is the immutable, shareable baseline of one design:
/// generated + placed netlist, Steiner routing, timing graph, golden STA,
/// extracted DatasetGraph and its PropPlan — everything a *pristine*
/// session needs to answer full-graph prediction requests without owning
/// any mutable state. Moved sessions share its graph's topology and the
/// plan, and own copies of the value rows a resize rewrites. Templates
/// are built once per design hash and cached (`TemplateCache`), so
/// opening hundreds of sessions on the same design costs a hash lookup
/// plus a control block.
///
/// A `Session` starts as a thin handle on its template. The first resize
/// move *materializes* it (copy-on-write): the design and routing are
/// cloned, a session-owned TimingGraph + IncrementalTimer come up, and
/// from then on ECO moves are applied to session state only. The template
/// is never mutated — a corrupted or quarantined session can be closed and
/// reopened from the same baseline.
///
/// Thread-safety: all mutable session state is guarded by `mu`; the server
/// holds it for the whole request (compute included), so each session graph
/// sees one thread at a time. Template state is immutable after
/// construction and safe to read from any number of workers: the graph's
/// topology builds every index it derives eagerly, so no read of `g`
/// (nor a moved session's first copy of its values) ever writes to it.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/timing_gnn.hpp"
#include "data/extract.hpp"
#include "serve/types.hpp"
#include "sta/incremental.hpp"

namespace tg::serve {

/// Immutable per-design baseline. Built by TemplateCache::get_or_build.
struct SessionTemplate {
  std::uint64_t key = 0;  ///< design hash (name, scale, clock factor)
  std::string design_name;
  double scale = 0.0;
  double clock_factor = 0.0;  ///< 0 = the suite's default

  Design design;          ///< placed, clock calibrated
  DesignRouting routing;  ///< Steiner pre-routing estimate
  std::unique_ptr<TimingGraph> graph;  ///< over `design`
  StaResult sta;          ///< golden baseline STA
  data::DatasetGraph g;   ///< extracted features + labels
  core::PropPlan plan;    ///< GNN traversal schedule for `g`

  /// `lib` must outlive the template (the serving plane uses the
  /// process-wide synthetic library, a function-local static).
  explicit SessionTemplate(const Library& lib) : design("", &lib) {}
};

/// Design-hash-keyed cache of session templates. Building is serialized
/// per cache; lookups after the first are lock + hash only. Every template
/// graph of one cache points at the first template's LutTable: they all
/// come from one library, so the tables are byte-equal.
class TemplateCache {
 public:
  /// Returns the cached template for (design, scale, clock_factor),
  /// building it first if absent. `clock_factor` scales the calibrated
  /// clock period (< 1 = deliberately tight, the ECO-loop setup); 0 uses
  /// the suite's default. Throws CheckError for unknown design names.
  std::shared_ptr<const SessionTemplate> get_or_build(
      const std::string& design, double scale, double clock_factor = 0.0);

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const SessionTemplate>>
      cache_;
  std::shared_ptr<const data::LutTable> lut_table_;
};

/// FNV-1a design hash over (name, scale, clock factor). Stable across
/// processes.
[[nodiscard]] std::uint64_t design_hash(const std::string& design,
                                        double scale, double clock_factor);

/// Checksummed last-good answer for the stale tier. The checksum covers
/// the payload; serving verifies it so a corrupted entry (TG_FAULT_SERVE=
/// cache) is detected instead of returned.
struct StaleEntry {
  bool valid = false;
  double wns_setup = 0.0;
  double tns_setup = 0.0;
  double wns_hold = 0.0;
  std::vector<double> endpoint_setup;
  std::uint64_t checksum = 0;

  /// Recomputes the checksum over the current payload.
  [[nodiscard]] std::uint64_t compute_checksum() const;
};

/// One tenant. Created pristine (template-backed); materialized on the
/// first move.
struct Session {
  SessionId id = 0;
  std::shared_ptr<const SessionTemplate> tpl;

  std::mutex mu;  ///< guards everything below

  // ---- materialized ECO state (null while pristine) --------------------
  /// Atomic because submit() reads it lock-free as a batching *hint*; the
  /// authoritative check re-runs under `mu` before serving from the
  /// template. Mutated only under `mu`.
  std::atomic<bool> materialized{false};
  /// Set when a cone update was aborted mid-walk (deadline, cancel or
  /// injected fault): the incremental pruning invariant no longer holds,
  /// so the next engine answer must come from a full re-time.
  bool timing_dirty = false;
  std::unique_ptr<Design> design;
  std::unique_ptr<DesignRouting> routing;
  std::unique_ptr<TimingGraph> graph;
  std::unique_ptr<IncrementalTimer> timer;

  // ---- incremental GNN reads (DESIGN.md §12) ---------------------------
  /// The session's GNN graph and read cache. `g` holds tpl->g's topology,
  /// LUT table and net-edge features (shared) and its own copies of
  /// node_feat, cell_arc_lut and rat, patched to the session design; it
  /// has no labels. Resizes never change topology, so reads run on
  /// tpl->plan and tpl->g.endpoints. Null until the first GNN read after
  /// materialize.
  struct GnnState {
    data::DatasetGraph g;
    core::ReadCache cache;
  };
  std::unique_ptr<GnnState> gnn;
  /// Instances resized since the last GNN read patched them in.
  std::vector<InstId> gnn_touched;
  /// The GNN twin of timing_dirty: set while a read is in flight, left set
  /// when it stops early (deadline, cancel or injected fault), so the next
  /// read re-embeds and re-propagates every row.
  bool gnn_dirty = false;

  // ---- stale-answer cache ----------------------------------------------
  StaleEntry stale;

  // ---- health / quarantine ---------------------------------------------
  int consecutive_failures = 0;
  std::chrono::steady_clock::time_point quarantined_until{};

  /// LRU stamp from the server's logical use clock, bumped on every
  /// lookup (submit/handle/inspect). Atomic so the eviction scan can read
  /// it under `sessions_mu_` alone, without taking `mu`.
  std::atomic<std::uint64_t> last_used{0};

  /// Clones template design/routing and brings up the session-owned
  /// timing graph + incremental timer, seeded with a copy of the
  /// template's STA (the clones time exactly as the template did).
  /// No-op when already materialized. Caller holds `mu`.
  void materialize();

  /// Applies resize moves to materialized state: swaps cell ids,
  /// re-extracts parasitics of the nets whose loads changed, invalidates
  /// the affected nets on the incremental timer. Does NOT re-time — the
  /// ladder tier decides between timer->update() (cone) and a full
  /// re-time. Records the moved instances in gnn_touched for the next GNN
  /// read. Caller holds `mu`.
  void apply_moves(const std::vector<ResizeMove>& moves);

  /// Current engine view: session timer result when materialized, else
  /// the template baseline.
  [[nodiscard]] const StaResult& engine_result() const;
  [[nodiscard]] const Design& current_design() const;
  [[nodiscard]] const TimingGraph& current_graph() const;
  [[nodiscard]] const DesignRouting& current_routing() const;

  /// True while the session can be served from the shared template
  /// (no moves applied) — the micro-batcher's compatibility test.
  [[nodiscard]] bool pristine() const {
    return !materialized.load(std::memory_order_relaxed);
  }
};

/// Read-only view handed to SlackServer::inspect callbacks (under the
/// session lock). `endpoints` are node==pin ids, the alignment of
/// Response::endpoint_setup. `sta` is the engine's last answer: moves that
/// arrived with GNN reads are timed by the next engine (kSta) request.
/// `template_graph` is the template's extracted graph; `gnn_graph` the
/// moved session's GNN graph (Session::GnnState), null before its first
/// GNN read.
struct SessionView {
  const Design& design;
  const DesignRouting& routing;
  const TimingGraph& graph;
  const StaResult& sta;
  const std::vector<int>& endpoints;
  bool pristine = false;
  const data::DatasetGraph& template_graph;
  const data::DatasetGraph* gnn_graph = nullptr;
};

}  // namespace tg::serve
