#pragma once
/// \file graph_pack.hpp
/// Disjoint-union packing of K extracted hetero-graphs into one
/// super-graph, so a *single* GNN forward covers every part. The serving
/// plane does not pack (DESIGN.md §12 says why); perfbench's predict_mix
/// probe and the fused-inference stress test in core_test do.
///
/// Packing is a pure concatenation: part k's nodes become the id range
/// [node_base[k], node_base[k+1]), its net/cell edges likewise, and each
/// node keeps its own topological level. Because every op in the forward
/// (row-local MLPs, gather, per-destination segment reductions) touches
/// only rows/segments of one part, and the packed LevelCsr keeps part
/// order inside each level block (part k's ids all precede part k+1's),
/// the packed forward is bit-identical to running the K forwards
/// sequentially — the packed graph is not an approximation, just a bigger
/// batch.
///
/// Level alignment: part k's level-l nodes land in the *packed* level l
/// (levels are not stacked end-to-end). The packed level count is the max
/// over parts, so shallow parts simply stop contributing past their own
/// depth; each level's kernel row count is the sum over parts active at
/// that level, which is where the kernel-launch fusion win comes from.

#include <vector>

#include "data/hetero_graph.hpp"
#include "util/diag.hpp"

namespace tg::data {

/// One packed super-graph plus the offset tables needed to scatter packed
/// results back to the original parts. Immutable after pack_graphs.
struct GraphPack {
  /// The disjoint union, shaped exactly like a normal extracted graph —
  /// every DatasetGraph consumer (validate, build_prop_plan, forward)
  /// works on it unchanged. Its topology is built by the Topology
  /// constructor from the offset edge lists.
  DatasetGraph g;
  int num_graphs = 0;

  // ---- scatter-back tables ([K+1] exclusive prefix sums) ----------------
  std::vector<int> node_base;      ///< part k's nodes = [base[k], base[k+1])
  std::vector<int> net_base;       ///< part k's net edges
  std::vector<int> cell_base;      ///< part k's cell edges
  std::vector<int> endpoint_base;  ///< part k's slice of g.endpoints

  /// [N] packed node id → part index (the per-node graph-id map).
  std::vector<int> graph_of_node;
};

/// Packs `parts` (borrowed; must outlive the call only) into one
/// super-graph. Deterministic: output depends only on the part order and
/// contents. Parts may repeat and may have wildly different sizes/depths;
/// K = 0 yields a well-formed empty pack. Feature/label tensors are
/// copied into fresh leaf tensors (no autograd tape); the cell edges'
/// LUT indices are concatenated as they are and the pack holds part 0's
/// immutable LutTable, so the pack shares only that table with its parts
/// and is safe to cache across requests. Throws CheckError naming the
/// first part whose table differs in content from part 0's.
[[nodiscard]] GraphPack pack_graphs(const std::vector<const DatasetGraph*>& parts);

/// Validates the pack's offset tables (monotone, totals match, graph_of_node
/// consistent, per-part level alignment) and then runs the standard
/// DatasetGraph validation on the packed graph. No-op at kOff.
void validate_graph_pack(const GraphPack& pack, DiagSink& sink,
                         ValidateLevel level = validate_level());

}  // namespace tg::data
