#include "data/graph_pack.hpp"

#include <algorithm>
#include <cstddef>

#include "data/validate.hpp"
#include "util/check.hpp"

namespace tg::data {

namespace {

/// Copies `src` (rows × cols) into `dst` starting at row `row0`. Raw data
/// copy: packed tensors are detached leaves, never tape nodes.
void copy_rows(nn::Tensor& dst, std::int64_t row0, const nn::Tensor& src) {
  TG_CHECK(src.defined() && dst.defined() && src.cols() == dst.cols());
  TG_CHECK(row0 + src.rows() <= dst.rows());
  const std::span<const float> in = src.data();
  const std::span<float> out = dst.data();
  std::copy(in.begin(), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(row0 * dst.cols()));
}

/// Appends `ids` shifted by `base` to `out`.
void append_offset(std::vector<int>& out, const std::vector<int>& ids,
                   int base) {
  out.reserve(out.size() + ids.size());
  for (int id : ids) out.push_back(id + base);
}

}  // namespace

GraphPack pack_graphs(const std::vector<const DatasetGraph*>& parts) {
  GraphPack pack;
  pack.num_graphs = static_cast<int>(parts.size());

  // ---- offset tables ----------------------------------------------------
  pack.node_base.assign(1, 0);
  pack.net_base.assign(1, 0);
  pack.cell_base.assign(1, 0);
  pack.endpoint_base.assign(1, 0);
  int levels = 0;
  for (const DatasetGraph* p : parts) {
    TG_CHECK(p != nullptr);
    pack.node_base.push_back(pack.node_base.back() + p->num_nodes());
    pack.net_base.push_back(pack.net_base.back() +
                            static_cast<int>(p->topo->net_src().size()));
    pack.cell_base.push_back(pack.cell_base.back() +
                             static_cast<int>(p->topo->cell_src().size()));
    pack.endpoint_base.push_back(pack.endpoint_base.back() +
                                 static_cast<int>(p->endpoints.size()));
    levels = std::max(levels, p->num_levels());
  }

  DatasetGraph& g = pack.g;
  const int n = pack.node_base.back();
  const int en = pack.net_base.back();
  const int ec = pack.cell_base.back();
  g.name = "pack[" + std::to_string(pack.num_graphs) + "]";
  Topology::Arrays topo;
  topo.num_nodes = n;
  topo.num_levels = levels;

  // ---- concatenated tensors (detached leaves) ---------------------------
  g.node_feat = nn::Tensor::zeros(n, kNodeFeatureDim);
  g.net_edge_feat = nn::Tensor::zeros(en, kNetEdgeFeatureDim);
  g.net_delay = nn::Tensor::zeros(n, kNumCorners);
  g.arrival = nn::Tensor::zeros(n, kNumCorners);
  g.slew = nn::Tensor::zeros(n, kNumCorners);
  g.rat = nn::Tensor::zeros(n, kNumCorners);
  g.cell_delay = nn::Tensor::zeros(ec, kNumCorners);

  topo.node_level.reserve(static_cast<std::size_t>(n));
  pack.graph_of_node.reserve(static_cast<std::size_t>(n));
  topo.net_src.reserve(static_cast<std::size_t>(en));
  topo.net_dst.reserve(static_cast<std::size_t>(en));
  topo.cell_src.reserve(static_cast<std::size_t>(ec));
  topo.cell_dst.reserve(static_cast<std::size_t>(ec));
  g.cell_arc_lut.reserve(static_cast<std::size_t>(ec));

  // One table for the whole pack: the first part's. Every other part must
  // hold the same rows, so its indices stay valid unchanged.
  if (!parts.empty()) g.lut_table = parts.front()->lut_table;
  for (std::size_t k = 1; k < parts.size(); ++k) {
    const LutTable& t = *parts[k]->lut_table;
    TG_CHECK_MSG(&t == g.lut_table.get() || t.same_content(*g.lut_table),
                 "pack_graphs: part " << k << " (" << parts[k]->name
                                      << ") has a LUT table that differs "
                                         "from part 0's");
  }

  g.clock_period = 0.0;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const DatasetGraph& p = *parts[k];
    const Topology& pt = *p.topo;
    const int nb = pack.node_base[k];
    copy_rows(g.node_feat, nb, p.node_feat);
    copy_rows(g.net_edge_feat, pack.net_base[k], p.net_edge_feat);
    copy_rows(g.net_delay, nb, p.net_delay);
    copy_rows(g.arrival, nb, p.arrival);
    copy_rows(g.slew, nb, p.slew);
    copy_rows(g.rat, nb, p.rat);
    copy_rows(g.cell_delay, pack.cell_base[k], p.cell_delay);

    topo.node_level.insert(topo.node_level.end(), pt.node_level().begin(),
                           pt.node_level().end());
    pack.graph_of_node.insert(pack.graph_of_node.end(),
                              static_cast<std::size_t>(pt.num_nodes()),
                              static_cast<int>(k));
    append_offset(topo.net_src, pt.net_src(), nb);
    append_offset(topo.net_dst, pt.net_dst(), nb);
    append_offset(topo.cell_src, pt.cell_src(), nb);
    append_offset(topo.cell_dst, pt.cell_dst(), nb);
    append_offset(g.endpoints, p.endpoints, nb);
    g.cell_arc_lut.insert(g.cell_arc_lut.end(), p.cell_arc_lut.begin(),
                          p.cell_arc_lut.end());
    g.endpoint_setup_slack.insert(g.endpoint_setup_slack.end(),
                                  p.endpoint_setup_slack.begin(),
                                  p.endpoint_setup_slack.end());
    g.endpoint_hold_slack.insert(g.endpoint_hold_slack.end(),
                                 p.endpoint_hold_slack.begin(),
                                 p.endpoint_hold_slack.end());

    // Slack reconstruction reads per-node RAT rows, never the period, so
    // the max keeps validation honest without affecting any answer.
    g.clock_period = std::max(g.clock_period, p.clock_period);
    g.stats.num_nodes += p.stats.num_nodes;
    g.stats.num_net_edges += p.stats.num_net_edges;
    g.stats.num_cell_edges += p.stats.num_cell_edges;
    g.stats.num_endpoints += p.stats.num_endpoints;
    g.stats.num_instances += p.stats.num_instances;
    g.stats.num_nets += p.stats.num_nets;
    g.stats.num_ffs += p.stats.num_ffs;
  }
  if (g.clock_period <= 0.0) g.clock_period = 1.0;  // K = 0: stay valid

  g.topo = std::make_shared<const Topology>(std::move(topo), g.name);
  return pack;
}

void validate_graph_pack(const GraphPack& pack, DiagSink& sink,
                         ValidateLevel level) {
  if (level == ValidateLevel::kOff) return;
  const DatasetGraph& g = pack.g;
  const auto k = static_cast<std::size_t>(pack.num_graphs);

  auto check_base = [&](const std::vector<int>& base, int total,
                        const char* what) {
    if (base.size() != k + 1 || base.front() != 0 || base.back() != total ||
        !std::is_sorted(base.begin(), base.end())) {
      TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
              what << " base table is not a [K+1] prefix sum ending at "
                   << total);
    }
  };
  const Topology& topo = *g.topo;
  const int n = g.num_nodes();
  check_base(pack.node_base, n, "node");
  check_base(pack.net_base, static_cast<int>(topo.net_src().size()), "net");
  check_base(pack.cell_base, static_cast<int>(topo.cell_src().size()),
             "cell");
  check_base(pack.endpoint_base, static_cast<int>(g.endpoints.size()),
             "endpoint");

  if (pack.graph_of_node.size() != static_cast<std::size_t>(n)) {
    TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
            "graph_of_node holds " << pack.graph_of_node.size()
                                   << " entries for " << n << " nodes");
  } else {
    if (pack.node_base.size() == k + 1) {
      for (int v = 0; v < n; ++v) {
        const int part = pack.graph_of_node[static_cast<std::size_t>(v)];
        if (part < 0 || part >= pack.num_graphs ||
            v < pack.node_base[static_cast<std::size_t>(part)] ||
            v >= pack.node_base[static_cast<std::size_t>(part) + 1]) {
          TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
                  "graph_of_node[" << v << "] = " << part
                                   << " disagrees with node_base");
          break;
        }
      }
    }
    // No edge may cross a part boundary — the disjoint-union invariant
    // that makes the packed forward separable. (The topology guarantees
    // every endpoint is a node.)
    const auto check_edges = [&](const std::vector<int>& src,
                                 const std::vector<int>& dst,
                                 const char* what) {
      for (std::size_t e = 0; e < src.size(); ++e) {
        const int s = src[e];
        const int d = dst[e];
        if (pack.graph_of_node[static_cast<std::size_t>(s)] !=
            pack.graph_of_node[static_cast<std::size_t>(d)]) {
          TG_DIAG(sink, Severity::kError, Stage::kExtract, SrcLoc{}, g.name,
                  what << " edge " << e << " crosses the part boundary (" << s
                       << " -> " << d << ")");
          return;
        }
      }
    };
    check_edges(topo.net_src(), topo.net_dst(), "net");
    check_edges(topo.cell_src(), topo.cell_dst(), "cell");
  }

  validate_dataset_graph(g, sink, level);
}

}  // namespace tg::data
