#pragma once
/// \file session.hpp
/// Per-tenant state of the serving plane (DESIGN.md §12).
///
/// A template is the immutable, shareable baseline of one design, in two
/// parts. The `PhysicalTemplate`, keyed by (design, scale), holds what no
/// clock reaches: the generated + placed netlist, Steiner routing, timing
/// graph, the extracted DatasetGraph's features, labels and topology, and
/// its PropPlan. It is built once, however many clock corners open on the
/// design. A `SessionTemplate` is one clock corner of it, keyed by
/// (design, scale, clock factor): the calibrated period, an STA result
/// whose required times and slacks are swept under that period, and a
/// DatasetGraph that shares the physical graph's tensors and owns only
/// `rat`, `clock_period` and the endpoint slacks. Everything a *pristine*
/// session needs to answer full-graph prediction requests lives in the two,
/// so opening hundreds of sessions on the same design costs a hash lookup
/// plus a control block, and a second corner of a built design costs one
/// StaResult copy, one required-time sweep and one `rat` write.
///
/// A `Session` starts as a thin handle on its corner. The first resize
/// move *materializes* it (copy-on-write): the design and routing are
/// cloned, the clone takes the corner's period, a session-owned
/// TimingGraph + IncrementalTimer come up, and from then on ECO moves are
/// applied to session state only. No template is ever mutated after it is
/// published — pristine requests read it without a lock, and a corrupted
/// or quarantined session can be closed and reopened from the same
/// baseline. In particular the physical design's `clock_period()` is the
/// generator's, no corner's: a corner's period is `SessionTemplate::period`.
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

/// The clock-free part of a design's template. Built by
/// TemplateCache::get_or_build with the first corner opened on it.
struct PhysicalTemplate {
  std::uint64_t key = 0;  ///< physical_hash(name, scale)
  std::string design_name;
  double scale = 0.0;

  /// Placed; its clock_period() is the generator's, never calibrated.
  Design design;
  DesignRouting routing;  ///< Steiner pre-routing estimate
  std::unique_ptr<TimingGraph> graph;  ///< over `design`
  /// Extracted features, labels and topology. Clock-free: no `rat`, no
  /// endpoint slacks and clock_period 0 (a corner's graph has them).
  data::DatasetGraph g;
  core::PropPlan plan;  ///< GNN traversal schedule for `g`

  /// `lib` must outlive the template (the serving plane uses the
  /// process-wide synthetic library, a function-local static).
  explicit PhysicalTemplate(const Library& lib) : design("", &lib) {}
};

/// One clock corner of a physical template: the immutable baseline a
/// session opens on. Built by TemplateCache::get_or_build.
struct SessionTemplate {
  double clock_factor = 0.0;  ///< 0 = the suite's default
  double period = 0.0;        ///< calibrated from phys's arrivals
  std::shared_ptr<const PhysicalTemplate> phys;
  /// Golden baseline STA over phys->graph: the forward sweep every corner
  /// of phys shares, required times and slacks under `period`.
  StaResult sta;
  /// phys->g with this corner's clock rows (data::write_clock_rows): the
  /// tensors, topology and LUT table are phys->g's, shared; `rat`,
  /// `clock_period` and the endpoint slacks are this corner's own.
  data::DatasetGraph g;
};

/// Cache of session templates: physical templates by (design, scale), and
/// their clock corners by (design, scale, clock factor). Building is
/// serialized per cache; lookups after the first are lock + hash only.
/// Every template graph of one cache points at the first template's
/// LutTable: they all come from one library, so the tables are byte-equal.
class TemplateCache {
 public:
  /// Returns the cached corner for (design, scale, clock_factor), building
  /// it first if absent: with its physical template when no corner of
  /// (design, scale) exists yet, else from a copy of a sibling corner's
  /// STA re-swept under its own period. `clock_factor` scales the
  /// calibrated clock period (< 1 = deliberately tight, the ECO-loop
  /// setup); 0 uses the suite's default. Throws CheckError for unknown
  /// design names.
  std::shared_ptr<const SessionTemplate> get_or_build(
      const std::string& design, double scale, double clock_factor = 0.0);

  /// Physical templates built so far: one per (design, scale).
  [[nodiscard]] std::uint64_t physical_builds() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const SessionTemplate>>
      corners_;
  /// Physical key -> the first corner built on it, whose STA result later
  /// corners copy.
  std::unordered_map<std::uint64_t, std::shared_ptr<const SessionTemplate>>
      physical_;
  std::shared_ptr<const data::LutTable> lut_table_;
};

/// FNV-1a hash of a corner: (name, scale, clock factor). Stable across
/// processes.
[[nodiscard]] std::uint64_t design_hash(const std::string& design,
                                        double scale, double clock_factor);
/// FNV-1a hash of a physical template: (name, scale).
[[nodiscard]] std::uint64_t physical_hash(const std::string& design,
                                          double scale);

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
  bool materialized = false;
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
  /// tpl->phys->plan and tpl->g.endpoints. Null until the first GNN read
  /// after materialize.
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

  /// Clones the physical design/routing, sets the clone's period to the
  /// corner's, and brings up the session-owned timing graph + incremental
  /// timer, seeded with a copy of the corner's STA (the clones time
  /// exactly as the template did).
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
  /// (no moves applied). Caller holds `mu`.
  [[nodiscard]] bool pristine() const { return !materialized; }
};

/// Read-only view handed to SlackServer::inspect callbacks (under the
/// session lock). `endpoints` are node==pin ids, the alignment of
/// Response::endpoint_setup. `sta` is the engine's last answer: moves that
/// arrived with GNN reads are timed by the next engine (kSta) request.
/// `clock_period` is the corner's: a pristine view's `design` is the
/// shared physical one, whose own clock_period() is no corner's.
/// `template_graph` is the corner's extracted graph; `gnn_graph` the
/// moved session's GNN graph (Session::GnnState), null before its first
/// GNN read.
struct SessionView {
  const Design& design;
  const DesignRouting& routing;
  const TimingGraph& graph;
  const StaResult& sta;
  const std::vector<int>& endpoints;
  double clock_period = 0.0;
  bool pristine = false;
  const data::DatasetGraph& template_graph;
  const data::DatasetGraph* gnn_graph = nullptr;
};

}  // namespace tg::serve
