#include "data/hetero_graph.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "data/validate.hpp"

namespace tg::data {

static_assert(kCellEdgeFeatureDim == 512,
              "cell edge feature layout must match the paper's Table 3");
static_assert(kNodeFeatureDim + 4 + 4 + 4 + 1 + 4 == 27,
              "node feature+task total must match the paper's Table 2");

namespace {

/// Packs `dst`-indexed edge ids sorted by (level(dst), dst, edge id): a
/// counting sort over each edge's destination position in `csr.node_perm`
/// (ascending (level, id)), whose ascending edge scan keeps the ids of one
/// destination ascending. Fills `row_off` [N+1] (each packed node's edge
/// slice) and `off` [L+1] (each level's) from the same counts.
void pack_edges(const std::vector<int>& dst, const std::vector<int>& node_level,
                const LevelCsr& csr, std::vector<int>& off,
                std::vector<int>& row_off, std::vector<int>& perm) {
  const auto pos = [&](std::size_t e) {
    const auto v = static_cast<std::size_t>(dst[e]);
    return static_cast<std::size_t>(
        csr.node_off[static_cast<std::size_t>(node_level[v])] +
        csr.node_row[v]);
  };
  row_off.assign(csr.node_perm.size() + 1, 0);
  for (std::size_t e = 0; e < dst.size(); ++e) ++row_off[pos(e) + 1];
  for (std::size_t k = 1; k < row_off.size(); ++k) {
    row_off[k] += row_off[k - 1];
  }
  perm.resize(dst.size());
  std::vector<int> cursor(row_off.begin(), row_off.end() - 1);
  for (std::size_t e = 0; e < dst.size(); ++e) {
    perm[static_cast<std::size_t>(cursor[pos(e)]++)] = static_cast<int>(e);
  }
  off.resize(csr.node_off.size());
  for (std::size_t l = 0; l < off.size(); ++l) {
    off[l] = row_off[static_cast<std::size_t>(csr.node_off[l])];
  }
}

/// Sizes `out` for `n` nodes with one entry per value in `keys` (each
/// value a node id) and returns each node's first free slot.
std::vector<int> size_lists(
    NodeLists& out, std::size_t n,
    std::initializer_list<const std::vector<int>*> keys) {
  out.off.assign(n + 1, 0);
  for (const std::vector<int>* key : keys) {
    for (const int v : *key) ++out.off[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) out.off[v + 1] += out.off[v];
  out.ids.resize(static_cast<std::size_t>(out.off.back()));
  return {out.off.begin(), out.off.end() - 1};
}

/// The components of the net-edge graph: union-find over the edges, nets
/// numbered in order of their least node, then counting sorts whose
/// ascending scans keep each net's nodes and edges ascending.
NetLists build_nets(int num_nodes, const std::vector<int>& src,
                    const std::vector<int>& dst) {
  const auto n = static_cast<std::size_t>(num_nodes);
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      int& up = parent[static_cast<std::size_t>(v)];
      up = parent[static_cast<std::size_t>(up)];
      v = up;
    }
    return v;
  };
  for (std::size_t e = 0; e < src.size(); ++e) {
    const int a = find(src[e]);
    const int b = find(dst[e]);
    parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }

  NetLists nets;
  nets.net_of.resize(n);
  nets.row.resize(n);
  std::vector<int> sizes;
  for (std::size_t v = 0; v < n; ++v) {
    // A root is its component's least node, so it is numbered first.
    const int r = find(static_cast<int>(v));
    int net = nets.net_of[static_cast<std::size_t>(r)];
    if (r == static_cast<int>(v)) {
      net = static_cast<int>(sizes.size());
      sizes.push_back(0);
    }
    nets.net_of[v] = net;
    nets.row[v] = sizes[static_cast<std::size_t>(net)]++;
  }
  const std::size_t num_nets = sizes.size();
  nets.node_off.assign(num_nets + 1, 0);
  nets.edge_off.assign(num_nets + 1, 0);
  for (std::size_t i = 0; i < num_nets; ++i) {
    nets.node_off[i + 1] = nets.node_off[i] + sizes[i];
  }
  nets.nodes.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto net = static_cast<std::size_t>(nets.net_of[v]);
    nets.nodes[static_cast<std::size_t>(nets.node_off[net] + nets.row[v])] =
        static_cast<int>(v);
  }
  for (const int s : src) {
    ++nets.edge_off[static_cast<std::size_t>(
                        nets.net_of[static_cast<std::size_t>(s)]) +
                    1];
  }
  for (std::size_t i = 0; i < num_nets; ++i) {
    nets.edge_off[i + 1] += nets.edge_off[i];
  }
  std::vector<int> fill(nets.edge_off.begin(), nets.edge_off.end() - 1);
  nets.edges.resize(src.size());
  for (std::size_t e = 0; e < src.size(); ++e) {
    const auto net =
        static_cast<std::size_t>(nets.net_of[static_cast<std::size_t>(src[e])]);
    nets.edges[static_cast<std::size_t>(fill[net]++)] = static_cast<int>(e);
  }
  return nets;
}

}  // namespace

LevelCsr build_level_csr(const Topology& topo) {
  const int num_nodes = topo.num_nodes();
  const int num_levels = topo.num_levels();
  const std::vector<int>& node_level = topo.node_level();
  LevelCsr csr;

  // Nodes sorted by (level, id): counting sort over levels; the ascending
  // node-id scan makes the within-level order ascending ids.
  csr.node_off.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (int v = 0; v < num_nodes; ++v) {
    ++csr.node_off[static_cast<std::size_t>(
                       node_level[static_cast<std::size_t>(v)]) +
                   1];
  }
  for (int l = 0; l < num_levels; ++l) {
    csr.node_off[static_cast<std::size_t>(l) + 1] +=
        csr.node_off[static_cast<std::size_t>(l)];
  }
  csr.node_perm.resize(static_cast<std::size_t>(num_nodes));
  csr.node_row.resize(static_cast<std::size_t>(num_nodes));
  std::vector<int> cursor(csr.node_off.begin(), csr.node_off.end() - 1);
  for (int v = 0; v < num_nodes; ++v) {
    const int lvl = node_level[static_cast<std::size_t>(v)];
    const int slot = cursor[static_cast<std::size_t>(lvl)]++;
    csr.node_perm[static_cast<std::size_t>(slot)] = v;
    csr.node_row[static_cast<std::size_t>(v)] =
        slot - csr.node_off[static_cast<std::size_t>(lvl)];
  }

  pack_edges(topo.net_dst(), node_level, csr, csr.net_off, csr.net_row_off,
             csr.net_perm);
  pack_edges(topo.cell_dst(), node_level, csr, csr.cell_off,
             csr.cell_row_off, csr.cell_perm);
  return csr;
}

Topology::Topology(Arrays arrays, const std::string& name)
    : a_(std::move(arrays)) {
  DiagSink sink;
  validate_topology(a_, sink, name);
  sink.throw_if_errors(name.empty() ? "topology" : name + " topology");
  net_sinks_ = a_.net_dst;
  std::sort(net_sinks_.begin(), net_sinks_.end());
  net_sinks_.erase(std::unique(net_sinks_.begin(), net_sinks_.end()),
                   net_sinks_.end());
  csr_ = build_level_csr(*this);

  const auto n = static_cast<std::size_t>(a_.num_nodes);
  const auto push = [](NodeLists& out, std::vector<int>& fill, int v,
                       int id) {
    out.ids[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] = id;
  };
  std::vector<int> fill = size_lists(fanout_, n, {&a_.net_src, &a_.cell_src});
  for (std::size_t e = 0; e < a_.net_src.size(); ++e) {
    push(fanout_, fill, a_.net_src[e], a_.net_dst[e]);
  }
  for (std::size_t e = 0; e < a_.cell_src.size(); ++e) {
    push(fanout_, fill, a_.cell_src[e], a_.cell_dst[e]);
  }
  nets_ = build_nets(a_.num_nodes, a_.net_src, a_.net_dst);
}

const std::shared_ptr<const Topology>& Topology::empty() {
  static const std::shared_ptr<const Topology> topo =
      std::make_shared<const Topology>(Arrays{});
  return topo;
}

bool LutTable::same_content(const LutTable& other) const {
  const std::span<const float> a = rows.data();
  const std::span<const float> b = other.rows.data();
  return rows.cols() == other.rows.cols() && a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0) &&
         cell_base == other.cell_base && arc_row == other.arc_row;
}

const std::shared_ptr<const LutTable>& LutTable::empty() {
  static const std::shared_ptr<const LutTable> table =
      std::make_shared<const LutTable>();
  return table;
}

}  // namespace tg::data
