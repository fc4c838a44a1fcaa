#pragma once
/// \file hetero_graph.hpp
/// The extracted heterogeneous graph of the paper's Section 3.2: one
/// record per benchmark holding its topology (edge lists, levelization
/// and the indexes derived from them), pin-node features (Table 2),
/// net/cell edge features (Table 3) and STA labels — everything the
/// models and benches consume. Feature layout and sizes match the paper:
/// 10 node features, 2 net-edge features, 512 cell-edge features
/// (8 valid flags | 8×14 axis indices | 8×49 LUT values).
///
/// A cell edge's 512 floats depend only on its library arc, so they are
/// not stored per edge: each distinct row lives once in the library's
/// shared LutTable, and each cell edge holds the index of its row
/// (DatasetGraph::cell_arc_lut).

#include <memory>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "nn/ops.hpp"
#include "route/router.hpp"
#include "sta/timer.hpp"

namespace tg::data {

// ---- feature scaling constants (documented in DESIGN.md §4) -------------
inline constexpr float kDistScale = 0.01f;   ///< µm → 1/100 µm units
inline constexpr float kCapScale = 100.0f;   ///< pF → 1/100 pF units
inline constexpr float kSlewAxisScale = 1.0f / 0.6f;   ///< axis → [0,1]-ish
inline constexpr float kLoadAxisScale = 1.0f / 0.25f;  ///< axis → [0,1]-ish

// Per-task label scales. Targets of very different magnitudes (net delays
// are a few ps, arrivals tens of ns) would otherwise give the summed
// multi-task MSE terms of very different sizes, so the small-target heads
// would barely train. R² is invariant to scaling truth and prediction
// together, so the reported metrics are unaffected; divide by these to
// recover ns.
inline constexpr float kArrivalScale = 1.0f;     ///< ns
inline constexpr float kSlewLabelScale = 10.0f;  ///< 100 ps units
inline constexpr float kNetDelayScale = 1000.0f;  ///< ps units
inline constexpr float kCellDelayScale = 10.0f;  ///< 100 ps units

inline constexpr int kNodeFeatureDim = 10;
inline constexpr int kNetEdgeFeatureDim = 2;
inline constexpr int kNumLutsPerArc = 2 * kNumCorners;  // delay + slew × EL/RF
inline constexpr int kCellEdgeValidDim = kNumLutsPerArc;               // 8
inline constexpr int kCellEdgeIndexDim = kNumLutsPerArc * 2 * kLutDim;  // 112
inline constexpr int kCellEdgeValueDim = kNumLutsPerArc * kLutCells;    // 392
inline constexpr int kCellEdgeFeatureDim =
    kCellEdgeValidDim + kCellEdgeIndexDim + kCellEdgeValueDim;  // 512

/// Level-packed CSR adjacency, built by the Topology constructor and
/// reused by every consumer that walks the DAG level by level: the
/// timing-GNN's taped walk (through its PropPlan) and its fused walk.
/// Nodes and edges are packed into flat arrays sorted by (destination
/// level, destination id), with one offset array per kind — level l's
/// slice is [off[l], off[l+1]) — and, per edge kind, one per packed node:
/// the edges into node node_perm[k] are perm[row_off[k]], ...,
/// perm[row_off[k+1] - 1], ascending ids.
struct LevelCsr {
  std::vector<int> node_off;   ///< [L+1] offsets into node_perm
  std::vector<int> node_perm;  ///< [N] node ids sorted by (level, id)
  std::vector<int> node_row;   ///< [N] row of node v within its level block
  std::vector<int> net_off;    ///< [L+1] offsets into net_perm
  std::vector<int> net_row_off;  ///< [N+1] offsets into net_perm
  std::vector<int> net_perm;   ///< [En] net-edge ids by (dst level, dst, id)
  std::vector<int> cell_off;   ///< [L+1] offsets into cell_perm
  std::vector<int> cell_row_off;  ///< [N+1] offsets into cell_perm
  std::vector<int> cell_perm;  ///< [Ec] cell-edge ids by (dst level, dst, id)
};

/// Per-node lists in CSR form: node v's entries are
/// ids[off[v]], ..., ids[off[v+1] - 1].
struct NodeLists {
  std::vector<int> off;  ///< [N+1]
  std::vector<int> ids;
};

/// The nets of a pin graph: the components of its net-edge graph (a
/// driver and its sinks), ordered by their least node. Each lists its
/// nodes ascending and its net edges in ascending id; a node with no net
/// edge is a net of its own. No layer of the net embedding crosses a net
/// (DESIGN.md §12), so a net is the unit it runs on.
struct NetLists {
  std::vector<int> node_off;  ///< [nets + 1] offsets into nodes
  std::vector<int> nodes;     ///< [N] node ids, net by net
  std::vector<int> edge_off;  ///< [nets + 1] offsets into edges
  std::vector<int> edges;     ///< [En] net-edge ids, net by net
  std::vector<int> net_of;    ///< [N] net of each node
  std::vector<int> row;       ///< [N] position of each node in its net

  [[nodiscard]] int size() const {
    return static_cast<int>(node_off.size()) - 1;
  }
};

/// The topology of one design's pin graph: edge lists, levelization and
/// every index derived from them, built eagerly and range-checked by the
/// one constructor, then never changed. Graphs share it through a
/// `shared_ptr<const Topology>`: a serving template, its moved sessions
/// and the plans built from them all read one copy.
class Topology {
 public:
  /// The arrays a topology is built from.
  struct Arrays {
    int num_nodes = 0;
    int num_levels = 0;
    std::vector<int> node_level;          ///< topological level per node
    std::vector<int> net_src, net_dst;    ///< driver → sink
    std::vector<int> cell_src, cell_dst;  ///< cell input → output
  };

  /// Checks `arrays` (validate_topology) and builds the net sinks, the
  /// level CSR, the fanout and the nets. Throws CheckError naming
  /// the first offending field and entry; `name` labels the error.
  explicit Topology(Arrays arrays, const std::string& name = "");

  /// The shared topology of a graph with no nodes.
  [[nodiscard]] static const std::shared_ptr<const Topology>& empty();

  [[nodiscard]] int num_nodes() const { return a_.num_nodes; }
  [[nodiscard]] int num_levels() const { return a_.num_levels; }
  [[nodiscard]] const std::vector<int>& node_level() const {
    return a_.node_level;
  }
  [[nodiscard]] const std::vector<int>& net_src() const { return a_.net_src; }
  [[nodiscard]] const std::vector<int>& net_dst() const { return a_.net_dst; }
  [[nodiscard]] const std::vector<int>& cell_src() const {
    return a_.cell_src;
  }
  [[nodiscard]] const std::vector<int>& cell_dst() const {
    return a_.cell_dst;
  }
  /// Nodes with an incoming net arc: the distinct net_dst, ascending.
  [[nodiscard]] const std::vector<int>& net_sinks() const {
    return net_sinks_;
  }
  [[nodiscard]] const LevelCsr& csr() const { return csr_; }
  /// Out-neighbours over net and cell arcs: the rows a dirty-row walk
  /// marks when a row's state changes.
  [[nodiscard]] const NodeLists& fanout() const { return fanout_; }
  /// The nets: what a template embed runs over, and what a re-embed of
  /// some moved pins recomputes (their nets).
  [[nodiscard]] const NetLists& nets() const { return nets_; }

 private:
  Arrays a_;
  std::vector<int> net_sinks_;
  LevelCsr csr_;
  NodeLists fanout_;
  NetLists nets_;
};

/// Builds the level-packed CSR from a topology's edge lists and
/// levelization. Deterministic: sort keys are (level, id) only.
[[nodiscard]] LevelCsr build_level_csr(const Topology& topo);

/// Shared handle of `array`, one of `*topo`'s index arrays, for the
/// shared-index nn ops: it points at the array in place and keeps the
/// topology alive.
[[nodiscard]] inline nn::IndexVec share(
    const std::shared_ptr<const Topology>& topo,
    const std::vector<int>& array) {
  return {topo, &array};
}

/// The Table-3 cell-edge rows of one library, each distinct row stored
/// once, and the map from every library arc to its row. Built by
/// data::build_lut_table and never changed; graphs share it through a
/// `shared_ptr<const LutTable>`, as they share their Topology.
struct LutTable {
  /// [R, 512] distinct rows (valid | axis indices | LUT values), deduped
  /// by content: two arcs map to one row exactly when their rows are
  /// bitwise equal.
  nn::Tensor rows = nn::Tensor::zeros(0, kCellEdgeFeatureDim);
  /// [num_cells + 1] dense id of each cell's first arc: arc `i` of cell
  /// `c` has id cell_base[c] + i.
  std::vector<int> cell_base{0};
  /// [A] row of each library arc, by dense arc id.
  std::vector<int> arc_row;

  [[nodiscard]] int num_rows() const { return static_cast<int>(rows.rows()); }
  /// Row of arc `arc_index` of library cell `cell`.
  [[nodiscard]] int row_of(int cell, int arc_index) const {
    return arc_row[static_cast<std::size_t>(
        cell_base[static_cast<std::size_t>(cell)] + arc_index)];
  }
  /// True when both tables hold the same bytes.
  [[nodiscard]] bool same_content(const LutTable& other) const;

  /// The shared table of a graph with no cell arcs.
  [[nodiscard]] static const std::shared_ptr<const LutTable>& empty();
};

/// One benchmark's extracted graph: a topology handle, the value tensors
/// the model reads, STA labels and provenance.
struct DatasetGraph {
  std::string name;
  bool is_test = false;
  std::shared_ptr<const Topology> topo = Topology::empty();
  /// The cell-edge feature rows; cell edge e's row is
  /// lut_table->rows[cell_arc_lut[e]].
  std::shared_ptr<const LutTable> lut_table = LutTable::empty();

  [[nodiscard]] int num_nodes() const { return topo->num_nodes(); }
  [[nodiscard]] int num_levels() const { return topo->num_levels(); }

  // ---- values (placement-only information) ----------------------------
  // A resize rewrites rows of node_feat and rat and entries of
  // cell_arc_lut, never the topology or the table (data::patch_instances).
  nn::Tensor node_feat;       ///< [N, 10]
  nn::Tensor net_edge_feat;   ///< [En, 2]
  std::vector<int> cell_arc_lut;  ///< [Ec] lut_table row of each cell edge
  nn::Tensor rat;             ///< [N, 4], valid at endpoints

  // ---- labels (from ground-truth routing + golden STA) -----------------
  nn::Tensor net_delay;   ///< [N, 4], nonzero at net sinks
  nn::Tensor arrival;     ///< [N, 4]
  nn::Tensor slew;        ///< [N, 4]
  nn::Tensor cell_delay;  ///< [Ec, 4]
  std::vector<int> endpoints;  ///< endpoint node ids, ascending
  double clock_period = 0.0;

  // ---- bookkeeping for Tables 1 & 5 and Fig. 4 -------------------------
  DesignStats stats;
  double route_seconds = 0.0;  ///< ground-truth routing wall time
  double sta_seconds = 0.0;    ///< golden STA wall time
  std::vector<double> endpoint_setup_slack;  ///< aligned with `endpoints`
  std::vector<double> endpoint_hold_slack;

  /// Kept alive for the statistics-based baselines (Table 4) and runtime
  /// re-measurement; null when extraction ran in slim mode.
  std::shared_ptr<Design> design;
  std::shared_ptr<DesignRouting> truth_routing;
};

}  // namespace tg::data
