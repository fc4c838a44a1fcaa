#include "sta/timing_graph.hpp"

#include <queue>

#include "util/check.hpp"

namespace tg {

namespace {

/// Builds CSR arrays from (node, item) pairs.
void build_csr(int num_nodes, const std::vector<std::pair<int, int>>& pairs,
               std::vector<int>& start, std::vector<int>& list) {
  start.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [node, item] : pairs) {
    (void)item;
    ++start[static_cast<std::size_t>(node) + 1];
  }
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  list.resize(pairs.size());
  std::vector<int> cursor(start.begin(), start.end() - 1);
  for (const auto& [node, item] : pairs) {
    list[static_cast<std::size_t>(cursor[static_cast<std::size_t>(node)]++)] = item;
  }
}

}  // namespace

TimingGraph::TimingGraph(const Design& design) : design_(&design) {
  build_arcs();
  levelize();
}

void TimingGraph::build_arcs() {
  const Design& d = *design_;

  in_net_arc_.assign(static_cast<std::size_t>(d.num_pins()), -1);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.is_clock) continue;  // ideal clock: no propagated clock arcs
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const int arc_id = static_cast<int>(net_arcs_.size());
      net_arcs_.push_back(NetArc{net.driver, net.sinks[s], n, static_cast<int>(s)});
      TG_CHECK_MSG(in_net_arc_[static_cast<std::size_t>(net.sinks[s])] == -1,
                   "pin with two incoming net arcs");
      in_net_arc_[static_cast<std::size_t>(net.sinks[s])] = arc_id;
    }
  }

  for (InstId i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(i);
    const CellType& cell = d.library().cell(inst.cell_id);
    for (std::size_t a = 0; a < cell.arcs.size(); ++a) {
      const TimingArc& arc = cell.arcs[a];
      cell_arcs_.push_back(CellArc{
          inst.pins[static_cast<std::size_t>(arc.from_pin)],
          inst.pins[static_cast<std::size_t>(arc.to_pin)], i, static_cast<int>(a)});
    }
  }

  std::vector<std::pair<int, int>> in_cell, out_net, out_cell;
  for (std::size_t a = 0; a < cell_arcs_.size(); ++a) {
    in_cell.emplace_back(cell_arcs_[a].to, static_cast<int>(a));
    out_cell.emplace_back(cell_arcs_[a].from, static_cast<int>(a));
  }
  for (std::size_t a = 0; a < net_arcs_.size(); ++a) {
    out_net.emplace_back(net_arcs_[a].from, static_cast<int>(a));
  }
  build_csr(design_->num_pins(), in_cell, in_cell_start_, in_cell_list_);
  build_csr(design_->num_pins(), out_net, out_net_start_, out_net_list_);
  build_csr(design_->num_pins(), out_cell, out_cell_start_, out_cell_list_);
}

std::span<const int> TimingGraph::in_cell_arcs(PinId pin) const {
  const auto b = static_cast<std::size_t>(in_cell_start_[static_cast<std::size_t>(pin)]);
  const auto e = static_cast<std::size_t>(in_cell_start_[static_cast<std::size_t>(pin) + 1]);
  return {in_cell_list_.data() + b, e - b};
}
std::span<const int> TimingGraph::out_net_arcs(PinId pin) const {
  const auto b = static_cast<std::size_t>(out_net_start_[static_cast<std::size_t>(pin)]);
  const auto e = static_cast<std::size_t>(out_net_start_[static_cast<std::size_t>(pin) + 1]);
  return {out_net_list_.data() + b, e - b};
}
std::span<const int> TimingGraph::out_cell_arcs(PinId pin) const {
  const auto b = static_cast<std::size_t>(out_cell_start_[static_cast<std::size_t>(pin)]);
  const auto e = static_cast<std::size_t>(out_cell_start_[static_cast<std::size_t>(pin) + 1]);
  return {out_cell_list_.data() + b, e - b};
}

const TimingArc& TimingGraph::lib_arc(const CellArc& arc) const {
  const Instance& inst = design_->instance(arc.inst);
  const CellType& cell = design_->library().cell(inst.cell_id);
  return cell.arcs[static_cast<std::size_t>(arc.arc_index)];
}

void TimingGraph::levelize() {
  const int n = design_->num_pins();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const NetArc& a : net_arcs_) ++indeg[static_cast<std::size_t>(a.to)];
  for (const CellArc& a : cell_arcs_) ++indeg[static_cast<std::size_t>(a.to)];

  level_.assign(static_cast<std::size_t>(n), 0);
  topo_order_.clear();
  topo_order_.reserve(static_cast<std::size_t>(n));
  std::queue<PinId> ready;
  for (PinId p = 0; p < n; ++p) {
    if (indeg[static_cast<std::size_t>(p)] == 0) ready.push(p);
  }
  while (!ready.empty()) {
    const PinId p = ready.front();
    ready.pop();
    topo_order_.push_back(p);
    const int next_level = level_[static_cast<std::size_t>(p)] + 1;
    auto relax = [&](PinId q) {
      level_[static_cast<std::size_t>(q)] =
          std::max(level_[static_cast<std::size_t>(q)], next_level);
      if (--indeg[static_cast<std::size_t>(q)] == 0) ready.push(q);
    };
    for (int a : out_net_arcs(p)) relax(net_arcs_[static_cast<std::size_t>(a)].to);
    for (int a : out_cell_arcs(p)) relax(cell_arcs_[static_cast<std::size_t>(a)].to);
  }
  TG_CHECK_MSG(static_cast<int>(topo_order_.size()) == n,
               "timing graph has a cycle");

  num_levels_ = 0;
  for (int l : level_) num_levels_ = std::max(num_levels_, l + 1);
  by_level_.assign(static_cast<std::size_t>(num_levels_), {});
  for (PinId p : topo_order_) {
    by_level_[static_cast<std::size_t>(level_[static_cast<std::size_t>(p)])].push_back(p);
  }

  // Flat level packing (same per-level order): the sweeps walk one
  // contiguous array via level_pins() instead of chasing ragged vectors.
  level_offsets_.assign(static_cast<std::size_t>(num_levels_) + 1, 0);
  level_pins_.clear();
  level_pins_.reserve(static_cast<std::size_t>(n));
  for (int l = 0; l < num_levels_; ++l) {
    for (PinId p : by_level_[static_cast<std::size_t>(l)]) {
      level_pins_.push_back(p);
    }
    level_offsets_[static_cast<std::size_t>(l) + 1] =
        static_cast<int>(level_pins_.size());
  }
}

}  // namespace tg
