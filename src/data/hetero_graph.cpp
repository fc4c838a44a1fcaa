#include "data/hetero_graph.hpp"

#include <algorithm>

#include "data/validate.hpp"

namespace tg::data {

static_assert(kCellEdgeFeatureDim == 512,
              "cell edge feature layout must match the paper's Table 3");
static_assert(kNodeFeatureDim + 4 + 4 + 4 + 1 + 4 == 27,
              "node feature+task total must match the paper's Table 2");

namespace {

/// Packs `dst`-indexed edge ids into per-level slices, sorted by
/// (level(dst), dst, edge id). Counting sort over levels keeps the build
/// linear; the within-level order comes from a stable sort by dst (edge
/// ids stay ascending within equal destinations).
void pack_edges(const std::vector<int>& dst, const std::vector<int>& node_level,
                int num_levels, std::vector<int>& off, std::vector<int>& perm) {
  const auto ne = static_cast<int>(dst.size());
  off.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (int e = 0; e < ne; ++e) {
    const int lvl =
        node_level[static_cast<std::size_t>(dst[static_cast<std::size_t>(e)])];
    ++off[static_cast<std::size_t>(lvl) + 1];
  }
  for (int l = 0; l < num_levels; ++l) {
    off[static_cast<std::size_t>(l) + 1] += off[static_cast<std::size_t>(l)];
  }
  perm.resize(static_cast<std::size_t>(ne));
  std::vector<int> cursor(off.begin(), off.end() - 1);
  for (int e = 0; e < ne; ++e) {
    const int lvl =
        node_level[static_cast<std::size_t>(dst[static_cast<std::size_t>(e)])];
    perm[static_cast<std::size_t>(cursor[static_cast<std::size_t>(lvl)]++)] = e;
  }
  for (int l = 0; l < num_levels; ++l) {
    const auto begin = perm.begin() + off[static_cast<std::size_t>(l)];
    const auto end = perm.begin() + off[static_cast<std::size_t>(l) + 1];
    std::stable_sort(begin, end, [&](int a, int b) {
      return dst[static_cast<std::size_t>(a)] < dst[static_cast<std::size_t>(b)];
    });
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

  pack_edges(topo.net_dst(), node_level, num_levels, csr.net_off,
             csr.net_perm);
  pack_edges(topo.cell_dst(), node_level, num_levels, csr.cell_off,
             csr.cell_perm);
  return csr;
}

Topology::Topology(Arrays arrays, const std::string& name)
    : a_(std::move(arrays)) {
  DiagSink sink;
  validate_topology(a_, sink, name);
  sink.throw_if_errors(name.empty() ? "topology" : name + " topology");
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
  // Edge e joins the lists of both its ends; the edge-order scan keeps
  // every list ascending.
  fill = size_lists(net_incidence_, n, {&a_.net_src, &a_.net_dst});
  for (std::size_t e = 0; e < a_.net_src.size(); ++e) {
    for (const int v : {a_.net_src[e], a_.net_dst[e]}) {
      push(net_incidence_, fill, v, static_cast<int>(e));
    }
  }
}

const std::shared_ptr<const Topology>& Topology::empty() {
  static const std::shared_ptr<const Topology> topo =
      std::make_shared<const Topology>(Arrays{});
  return topo;
}

}  // namespace tg::data
