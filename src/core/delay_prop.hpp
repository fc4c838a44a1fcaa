#pragma once
/// \file delay_prop.hpp
/// The paper's delay propagation model (§3.3.2, Fig. 3): levelized,
/// asynchronous message passing over the DAG of net and cell arcs —
/// exactly one update per pin, applied level by level like an STA engine's
/// propagation. Net propagation layers move signals along wires; cell
/// propagation layers compute cell-arc messages through the LUT
/// interpolation module and reduce them with sum & max channels.
///
/// Because each level only reads states of strictly earlier levels, the
/// model's receptive field covers the full fan-in cone regardless of
/// depth — the paper's answer to the K-hop limit of K-layer GCNs (Fig. 1).

#include "core/lut_interp.hpp"

namespace tg::core {

/// Precomputed traversal schedule for one graph (build once, reuse every
/// epoch). Derived from the graph's level-packed CSR (data::LevelCsr);
/// all gather/scatter index arrays the forward pass needs are materialized
/// here as shared handles, so a training step performs zero index
/// marshalling — it just passes the handles to the shared-index ops.
struct PropPlan {
  int num_levels = 0;
  std::vector<std::vector<int>> level_nodes;  ///< node ids per level
  std::vector<int> node_level;                ///< level of each node
  std::vector<int> node_row;                  ///< row within its level tensor
  /// Per level: indices into g.net_src/net_dst of edges terminating here
  /// (sorted by destination id — CSR order).
  std::vector<std::vector<int>> level_net_edges;
  /// Per level: indices into g.cell_src/cell_dst of edges terminating here
  /// (CSR order).
  std::vector<std::vector<int>> level_cell_edges;
  /// Cell-edge indices in traversal order (for aligning predictions with
  /// labels).
  std::vector<int> cell_edge_order;

  // ---- shared per-step feeds (see forward) ----------------------------
  // `src_t` is remapped: it indexes into `dep_levels` (the distinct source
  // levels of this level's edges, ascending), not into the full level
  // list. The forward pass hands multi_gather only the dep levels' state
  // tensors, so the gather's autograd parents are exactly the levels that
  // feed it, not every earlier level.
  struct NetFeed {
    std::vector<int> dep_levels;  ///< distinct source levels, ascending
    nn::IndexVec src_t;      ///< index into dep_levels per edge
    nn::IndexVec src_r;      ///< source row within its level per edge
    nn::IndexVec dst_row;    ///< destination row within this level
    nn::IndexVec feat_rows;  ///< edge id per edge (feature gather)
    nn::IndexVec emb_v_rows; ///< destination node id per edge
    /// [level size + 1] CSR row pointers: the edges into row r are
    /// [dst_off[r], dst_off[r+1]) (dst_row is non-decreasing).
    std::vector<int> dst_off;
  };
  struct CellFeed {
    std::vector<int> dep_levels;  ///< distinct source levels, ascending
    nn::IndexVec src_t, src_r, dst_row, feat_rows;
    nn::IndexVec emb_u_rows;  ///< source node id per edge
    nn::IndexVec emb_v_rows;  ///< destination node id per edge
    std::vector<int> dst_off;  ///< as NetFeed::dst_off
  };
  std::vector<nn::IndexVec> level_rows;  ///< node ids per level (shared)
  std::vector<NetFeed> net_feed;         ///< [num_levels]
  std::vector<CellFeed> cell_feed;       ///< [num_levels]
  nn::IndexVec assemble_t;  ///< node → its level (final assembly)
  nn::IndexVec assemble_r;  ///< node → its level row (final assembly)
  nn::IndexVec cell_order;  ///< shared handle of cell_edge_order
};

[[nodiscard]] PropPlan build_prop_plan(const data::DatasetGraph& g);

/// Out-neighbours of every node over net and cell arcs (CSR): the rows a
/// dirty-row walk marks when a row's state changes.
struct Fanout {
  std::vector<int> off;  ///< [N + 1]
  std::vector<int> dst;  ///< destination node per arc, grouped by source
};

[[nodiscard]] Fanout build_fanout(const data::DatasetGraph& g);

struct DelayPropConfig {
  int hidden = 32;      ///< propagated state width
  int mlp_hidden = 32;
  int mlp_layers = 2;
  LutInterpConfig lut;
};

class DelayProp : public nn::Module {
 public:
  DelayProp(int embed_dim, const DelayPropConfig& config, Rng& rng);

  struct Output {
    nn::Tensor state;       ///< [N, hidden], node order
    nn::Tensor cell_delay;  ///< [Ec, 4] in plan.cell_edge_order
  };

  /// `embedding` is the net-embedding stage output [N, embed_dim].
  /// `want_aux = false` skips the cell-delay auxiliary head (its output
  /// feeds only the training loss); `state` is unchanged and `cell_delay`
  /// comes back empty.
  ///
  /// Two walks produce bit-identical `state`, both level by level with a
  /// cancellation checkpoint at every level boundary:
  ///  - Under an nn::NoGradGuard with `want_aux = false` (the serving
  ///    path, TimingGnn::forward_atslew) the fused inference step runs:
  ///    per level, the incoming edges stream through gather → MLP → LUT
  ///    interp → sum/max reduce on arena scratch, with no per-op tensors
  ///    (DESIGN.md §10).
  ///  - Otherwise the taped op-chain walk runs, one op sequence per
  ///    level; each op splits its rows across the pool, so values and
  ///    gradients do not depend on the thread count.
  [[nodiscard]] Output forward(const data::DatasetGraph& g,
                               const PropPlan& plan,
                               const nn::Tensor& embedding,
                               bool want_aux = true) const;

  /// The fused tape-free walk, in place on the node-ordered `state`
  /// [N, hidden]. With `dirty` null it computes every row (forward's
  /// inference path, from a zero `state`). Otherwise it computes only the
  /// rows whose node `dirty` marks, level by level, through the same
  /// per-row step; a recomputed row whose
  /// state bytes changed marks its `fanout` in `dirty`, so on return
  /// `dirty` marks exactly the rows this call recomputed. Each row's
  /// result is bit-identical to the full walk's as long as its inputs
  /// (the state rows it reads, the embedding and feature rows) are.
  /// Returns the number of rows recomputed. Polls the ambient cancel
  /// token at every level boundary.
  std::int64_t propagate(const data::DatasetGraph& g, const PropPlan& plan,
                         const nn::Tensor& embedding, nn::Tensor& state,
                         std::vector<unsigned char>* dirty = nullptr,
                         const Fanout* fanout = nullptr) const;

  [[nodiscard]] const DelayPropConfig& config() const { return config_; }

 private:
  DelayPropConfig config_;
  int embed_dim_ = 0;
  nn::Mlp entry_;      ///< roots: embedding → initial state
  nn::Mlp net_prop_;   ///< [state_u, e, emb_v] → net message
  nn::Mlp cell_prop_;  ///< [state_u, interp, emb_v] → cell message
  nn::Mlp combine_;    ///< [net_in, Σcell, max cell, emb_v] → state_v
  LutInterp lut_;      ///< query: [state_u, emb_u, emb_v]
  nn::Mlp cell_delay_head_;  ///< [interp, state_u] → 4 (softplus)
};

}  // namespace tg::core
