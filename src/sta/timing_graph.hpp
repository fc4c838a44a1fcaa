#pragma once
/// \file timing_graph.hpp
/// The heterogeneous timing graph of the paper's Section 3.2: pins are
/// nodes; **net arcs** run driver→sink along (non-clock) nets and **cell
/// arcs** run input→output through library timing arcs. The graph is a DAG
/// (flip-flop D pins terminate paths; Q pins start them), levelized once
/// with Kahn's algorithm — the levels drive both the golden timer and the
/// GNN's level-by-level delay-propagation stage.

#include <span>
#include <vector>

#include "netlist/design.hpp"

namespace tg {

struct NetArc {
  PinId from = kInvalidId;  ///< net driver
  PinId to = kInvalidId;    ///< net sink
  NetId net = kInvalidId;
  int sink_index = 0;  ///< index of `to` within Net::sinks
};

struct CellArc {
  PinId from = kInvalidId;  ///< instance input pin
  PinId to = kInvalidId;    ///< instance output pin
  InstId inst = kInvalidId;
  int arc_index = 0;  ///< index into CellType::arcs
};

class TimingGraph {
 public:
  explicit TimingGraph(const Design& design);

  [[nodiscard]] const Design& design() const { return *design_; }
  [[nodiscard]] int num_nodes() const { return design_->num_pins(); }
  [[nodiscard]] const std::vector<NetArc>& net_arcs() const { return net_arcs_; }
  [[nodiscard]] const std::vector<CellArc>& cell_arcs() const { return cell_arcs_; }

  /// Incoming net arc of a pin (each sink has at most one), or -1.
  [[nodiscard]] int in_net_arc(PinId pin) const { return in_net_arc_[static_cast<std::size_t>(pin)]; }
  /// Incoming cell arcs of a pin (cell output pins).
  [[nodiscard]] std::span<const int> in_cell_arcs(PinId pin) const;
  /// Outgoing net arcs of a pin.
  [[nodiscard]] std::span<const int> out_net_arcs(PinId pin) const;
  /// Outgoing cell arcs of a pin.
  [[nodiscard]] std::span<const int> out_cell_arcs(PinId pin) const;

  /// Topological level of each pin (roots at level 0). Net and cell arcs
  /// both advance one level.
  [[nodiscard]] int level(PinId pin) const { return level_[static_cast<std::size_t>(pin)]; }
  [[nodiscard]] int num_levels() const { return num_levels_; }
  /// Pins in topological order (stable across runs).
  [[nodiscard]] const std::vector<PinId>& topo_order() const { return topo_order_; }
  /// Pins grouped per level, ascending.
  [[nodiscard]] const std::vector<std::vector<PinId>>& levels() const { return by_level_; }
  /// Pins of one level as a slice of the flat level-packed array — the
  /// sweep-facing view: one contiguous buffer for all levels instead of a
  /// ragged vector-of-vectors, so level iteration is pure pointer
  /// arithmetic with sequential memory traffic.
  [[nodiscard]] std::span<const PinId> level_pins(int level) const {
    const auto b = static_cast<std::size_t>(level_offsets_[static_cast<std::size_t>(level)]);
    const auto e = static_cast<std::size_t>(level_offsets_[static_cast<std::size_t>(level) + 1]);
    return {level_pins_.data() + b, e - b};
  }

  /// Timing arc characterization of a cell arc.
  [[nodiscard]] const TimingArc& lib_arc(const CellArc& arc) const;

 private:
  void build_arcs();
  void levelize();

  const Design* design_;
  std::vector<NetArc> net_arcs_;
  std::vector<CellArc> cell_arcs_;
  std::vector<int> in_net_arc_;

  // CSR adjacency.
  std::vector<int> in_cell_start_, in_cell_list_;
  std::vector<int> out_net_start_, out_net_list_;
  std::vector<int> out_cell_start_, out_cell_list_;

  std::vector<int> level_;
  int num_levels_ = 0;
  std::vector<PinId> topo_order_;
  std::vector<std::vector<PinId>> by_level_;
  // Flat level packing: level l owns level_pins_[level_offsets_[l],
  // level_offsets_[l+1]). Same order as by_level_.
  std::vector<int> level_offsets_;
  std::vector<PinId> level_pins_;
};

}  // namespace tg
