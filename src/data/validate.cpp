#include "data/validate.hpp"

#include <cmath>

namespace tg::data {

namespace {

/// Shape check for one tensor; returns false (and reports) on mismatch so
/// dependent checks can bail early.
bool check_shape(const nn::Tensor& t, const char* tname, std::int64_t rows,
                 std::int64_t cols, const DatasetGraph& g, DiagSink& sink) {
  if (!t.defined()) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
            tname << " tensor is undefined");
    return false;
  }
  if (t.rows() != rows || t.cols() != cols) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
            tname << " has shape [" << t.rows() << ", " << t.cols()
                  << "], expected [" << rows << ", " << cols << "]");
    return false;
  }
  return true;
}

/// Finiteness sweep; reports the first offending row/column only.
/// `allow_inf` admits ±Inf (RAT at unconstrained endpoints) but never NaN.
void check_finite(const nn::Tensor& t, const char* tname, bool allow_inf,
                  const DatasetGraph& g, DiagSink& sink) {
  if (!t.defined()) return;
  const std::span<const float> data = t.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float v = data[i];
    const bool bad = allow_inf ? std::isnan(v) : !std::isfinite(v);
    if (bad) {
      const std::int64_t row = static_cast<std::int64_t>(i) / t.cols();
      const std::int64_t col = static_cast<std::int64_t>(i) % t.cols();
      TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
              tname << '[' << row << "][" << col << "] = " << v
                    << " is not finite — first offender (node/edge " << row
                    << ")");
      return;
    }
  }
}

/// Reports the first entry of `ids` outside [0, n) as `what[i] = v`;
/// returns whether every entry is in range.
bool check_index_list(const std::vector<int>& ids, const char* what, int n,
                      const std::string& object, DiagSink& sink) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || ids[i] >= n) {
      TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
              what << '[' << i << "] = " << ids[i] << " out of range ("
                   << n << " nodes)");
      return false;
    }
  }
  return true;
}

void check_edges(const std::vector<int>& src, const std::vector<int>& dst,
                 const char* what, const Topology::Arrays& t, bool have_levels,
                 const std::string& object, DiagSink& sink) {
  const std::string name(what);
  if (src.size() != dst.size()) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
            name << "_src/" << name << "_dst length mismatch (" << src.size()
                 << " vs " << dst.size() << ")");
    return;
  }
  // A corrupted edge list usually has many bad entries; the first is enough.
  if (!check_index_list(src, (name + "_src").c_str(), t.num_nodes, object,
                        sink) ||
      !check_index_list(dst, (name + "_dst").c_str(), t.num_nodes, object,
                        sink) ||
      !have_levels) {
    return;
  }
  for (std::size_t e = 0; e < src.size(); ++e) {
    const int ls = t.node_level[static_cast<std::size_t>(src[e])];
    const int ld = t.node_level[static_cast<std::size_t>(dst[e])];
    if (ld <= ls) {
      TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
              name << " edge " << e << " does not increase level (" << ls
                   << " -> " << ld << ")");
      return;
    }
  }
}

}  // namespace

void validate_topology(const Topology::Arrays& t, DiagSink& sink,
                       const std::string& object) {
  if (t.num_nodes < 0 || t.num_levels < 0) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
            "negative node or level count (" << t.num_nodes << ", "
                                             << t.num_levels << ")");
    return;
  }
  // Extraction and packing leave no level empty, so more levels than
  // nodes means a corrupt count; bounding it also keeps the per-level
  // arrays of the level CSR and the plan from a huge allocation.
  if (t.num_levels > t.num_nodes) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
            "num_levels = " << t.num_levels << " exceeds num_nodes = "
                            << t.num_nodes);
    return;
  }
  bool have_levels = false;
  if (t.node_level.size() != static_cast<std::size_t>(t.num_nodes)) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
            "node_level holds " << t.node_level.size() << " entries for "
                                << t.num_nodes << " nodes");
  } else {
    have_levels = true;
    for (std::size_t i = 0; i < t.node_level.size(); ++i) {
      if (t.node_level[i] < 0 || t.node_level[i] >= t.num_levels) {
        TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, object,
                "node_level[" << i << "] = " << t.node_level[i]
                              << " outside [0, " << t.num_levels << ")");
        have_levels = false;
        break;
      }
    }
  }
  check_edges(t.net_src, t.net_dst, "net", t, have_levels, object, sink);
  check_edges(t.cell_src, t.cell_dst, "cell", t, have_levels, object, sink);
  check_index_list(t.net_sinks, "net_sinks", t.num_nodes, object, sink);
}

void validate_dataset_graph(const DatasetGraph& g, DiagSink& sink,
                            ValidateLevel level) {
  if (level == ValidateLevel::kOff) return;
  const Topology& topo = *g.topo;

  // ---- shapes (paper layout: 10 node / 2 net-edge / 512 cell-edge) ------
  const std::int64_t n = g.num_nodes();
  const auto num_net_edges = static_cast<std::int64_t>(topo.net_src().size());
  const auto num_cell_edges =
      static_cast<std::int64_t>(topo.cell_src().size());
  check_shape(g.node_feat, "node_feat", n, kNodeFeatureDim, g, sink);
  check_shape(g.net_edge_feat, "net_edge_feat", num_net_edges,
              kNetEdgeFeatureDim, g, sink);
  check_shape(g.cell_edge_feat, "cell_edge_feat", num_cell_edges,
              kCellEdgeFeatureDim, g, sink);
  check_shape(g.net_delay, "net_delay", n, kNumCorners, g, sink);
  check_shape(g.arrival, "arrival", n, kNumCorners, g, sink);
  check_shape(g.slew, "slew", n, kNumCorners, g, sink);
  check_shape(g.rat, "rat", n, kNumCorners, g, sink);
  check_shape(g.cell_delay, "cell_delay", num_cell_edges, kNumCorners, g,
              sink);

  // The topology's own indexes were checked when it was built.
  check_index_list(g.endpoints, "endpoints", g.num_nodes(), g.name, sink);
  if (!(std::isfinite(g.clock_period) && g.clock_period > 0.0)) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
            "clock period " << g.clock_period
                            << " is not a positive finite value");
  }

  // ---- full: finiteness sweep over every tensor -------------------------
  if (level == ValidateLevel::kFull) {
    check_finite(g.node_feat, "node_feat", false, g, sink);
    check_finite(g.net_edge_feat, "net_edge_feat", false, g, sink);
    check_finite(g.cell_edge_feat, "cell_edge_feat", false, g, sink);
    check_finite(g.net_delay, "net_delay", false, g, sink);
    check_finite(g.arrival, "arrival", false, g, sink);
    check_finite(g.slew, "slew", false, g, sink);
    check_finite(g.rat, "rat", true, g, sink);
    check_finite(g.cell_delay, "cell_delay", false, g, sink);
  }
}

}  // namespace tg::data
