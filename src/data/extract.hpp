#pragma once
/// \file extract.hpp
/// Builds a DatasetGraph from a placed design, its ground-truth routing,
/// and a golden STA run. Features contain ONLY placement-time information
/// (pin positions/caps, cell LUTs); all time-valued labels come from the
/// routed design — the exact pre-routing prediction setup of the paper.
///
/// The feature rows a resize can change (a pin's caps, an endpoint's RAT)
/// are written by per-row helpers, so a full extraction and an in-place
/// patch of a moved design (patch_instances) run one definition. A cell
/// arc's LUT row comes from the library's shared LutTable; a resize
/// re-points the arc's index into it.

#include <span>

#include "data/hetero_graph.hpp"
#include "sta/timing_graph.hpp"

namespace tg::data {

/// Extracts the graph; its LutTable is built from design.library().
[[nodiscard]] DatasetGraph extract_graph(const Design& design,
                                         const TimingGraph& graph,
                                         const DesignRouting& truth,
                                         const StaResult& sta);

/// The LutTable of `lib`: one row per distinct Table-3 row of its arcs, in
/// order of first appearance over (cell id, arc index), and the row of
/// every arc of every cell, so a resize to any cell of `lib` finds its row.
[[nodiscard]] std::shared_ptr<const LutTable> build_lut_table(
    const Library& lib);

/// Node-feature row of pin `p` (kNodeFeatureDim floats, Table 2).
void write_node_features(const Design& design, PinId p, float* row);
/// Cell-edge feature row of library arc `arc` (kCellEdgeFeatureDim floats,
/// Table 3: valid | axis indices | LUT values).
void write_cell_edge_features(const TimingArc& arc, float* row);
/// RAT row of an endpoint (kNumCorners floats, arrival units).
void write_rat(const PerCorner& rat, float* row);

/// Rows of a DatasetGraph that an in-place patch rewrote with different
/// values, each list ascending.
struct GraphDelta {
  std::vector<int> pins;  ///< node_feat rows
  /// Cell edges whose cell_arc_lut entry changed. The table's rows are
  /// deduplicated, so these are exactly the edges whose 512 feature floats
  /// changed.
  std::vector<int> cell_edges;
  std::vector<int> endpoints;  ///< rat rows (endpoint node ids)

  [[nodiscard]] bool empty() const {
    return pins.empty() && cell_edges.empty() && endpoints.empty();
  }
};

/// Re-extracts, in place, the rows of `g` that depend on the cells of
/// `insts` after a resize: their pins' node features, their cell arcs'
/// LutTable indices and their endpoint pins' RAT (endpoint_required at
/// default StaOptions, the serving timers' options). `g` must have been
/// extracted from `graph` (same pins and arc order, a table built from
/// its library) and own its node_feat and rat storage — Tensor copies
/// share it. Labels are left untouched. Returns the rows whose bytes
/// changed.
[[nodiscard]] GraphDelta patch_instances(DatasetGraph& g,
                                         const TimingGraph& graph,
                                         std::span<const InstId> insts);

}  // namespace tg::data
