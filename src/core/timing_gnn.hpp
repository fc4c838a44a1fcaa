#pragma once
/// \file timing_gnn.hpp
/// The full timing-engine-inspired GNN (paper §3): net embedding stage +
/// levelized delay propagation stage, with prediction heads for
///  - arrival time & slew at pins (main task, Eq. 4),
///  - cell-arc delay (auxiliary, Eq. 5),
///  - net delay at fan-in (sink) pins (auxiliary, Eq. 6),
/// trained jointly (Eq. 7). Ablation switches reproduce the paper's
/// "w/ Cell" and "w/ Net" columns of Table 5.

#include <span>
#include <vector>

#include "core/delay_prop.hpp"
#include "core/net_embed.hpp"
#include "data/extract.hpp"

namespace tg::core {

struct TimingGnnConfig {
  NetEmbedConfig net;
  DelayPropConfig prop;
  bool use_net_aux = true;   ///< Eq. 6 term
  bool use_cell_aux = true;  ///< Eq. 5 term
  std::uint64_t seed = 1;
};

/// Slack reconstruction at an endpoint from a predicted arrival row:
/// setup = min over rise/fall of (RAT_late − AT_late),
/// hold  = min over rise/fall of (AT_early − RAT_early).
struct EndpointSlack {
  double setup = 0.0;
  double hold = 0.0;
};

/// Cached inference state of one graph whose feature rows are patched in
/// place between reads — a serving session's moved design (DESIGN.md
/// §12). Owned by the caller; TimingGnn::read keeps it current.
struct ReadCache {
  nn::Tensor embedding;  ///< [N, embed], net embedding of the current rows
  nn::Tensor state;      ///< [N, hidden], propagated from `embedding`
  std::vector<EndpointSlack> slack;  ///< aligned with the read's endpoints
};

class TimingGnn : public nn::Module {
 public:
  explicit TimingGnn(const TimingGnnConfig& config);

  struct Prediction {
    nn::Tensor atslew;      ///< [N, 8]: arrival (4) | slew (4)
    nn::Tensor net_delay;   ///< [N, 4]
    nn::Tensor cell_delay;  ///< [Ec, 4] in level-CSR order (csr().cell_perm)
  };

  [[nodiscard]] Prediction forward(const data::DatasetGraph& g,
                                   const PropPlan& plan) const;

  // ---- inference entry points ------------------------------------------
  // embed() and forward_atslew() are tape-free by contract: each installs
  // an nn::NoGradGuard, so their results are plain leaves (no parents,
  // requires_grad false) and the intermediates die with the call, as do
  // read()'s. The serving plane answers through embed() + read(); training
  // goes through forward() + loss(), which record the tape as usual.

  /// Net-embedding stage output [N, embed_dim], bit-identical to the taped
  /// forward's: NetEmbed::embed_nets over every net. Depends only on the
  /// graph (not on the query), so serving caches it per template and
  /// replays it through read().
  [[nodiscard]] nn::Tensor embed(const data::DatasetGraph& g) const;

  /// Inference fast path: arrival/slew [N, 8] from a precomputed
  /// `embedding` (see embed()), skipping the net-delay and cell-delay
  /// auxiliary heads whose outputs only feed the training loss.
  /// Propagation is DelayProp::propagate over every row from a zero state,
  /// as read(full) does; it runs the same per-row kernels as the op chain,
  /// so the result matches forward(g, plan).atslew bit for bit. The walk
  /// reads the topology's level CSR: `plan` is only checked against `g`.
  [[nodiscard]] nn::Tensor forward_atslew(const data::DatasetGraph& g,
                                          const PropPlan& plan,
                                          const nn::Tensor& embedding) const;

  /// Incremental inference path: brings `cache` up to date after the rows
  /// in `delta` were patched in place in `g` (data::patch_instances), and
  /// leaves the endpoint slacks a fresh embed + forward_atslew of `g` would
  /// give, bit for bit. `cache.embedding` must be the embedding of `g`
  /// before the patch. The nets holding a patched pin are re-embedded in
  /// place (NetEmbed::embed_nets; net-embedding layers never cross nets).
  /// With `full` every propagation row and endpoint is
  /// recomputed; otherwise only the rows downstream of a changed
  /// embedding row or patched cell arc, stopping where a recomputed row
  /// comes out bit-identical, and only the endpoints among them or with a
  /// patched RAT. A stop mid-walk (ambient cancel token) leaves `cache`
  /// inconsistent: the caller must re-embed `g` and read with `full`.
  /// Returns the number of propagation rows recomputed.
  /// `endpoints` (ascending node ids) are the rows whose slack
  /// `cache.slack` holds. `g` needs only its topology and value tensors
  /// (no labels): a moved session's graph.
  std::int64_t read(const data::DatasetGraph& g,
                    std::span<const int> endpoints,
                    const data::GraphDelta& delta, bool full,
                    ReadCache& cache) const;

  /// Combined loss of Eq. 7 (terms gated by the ablation config).
  [[nodiscard]] nn::Tensor loss(const data::DatasetGraph& g,
                                const PropPlan& plan,
                                const Prediction& pred) const;

  [[nodiscard]] const TimingGnnConfig& config() const { return config_; }
  [[nodiscard]] const NetEmbed& net_embed() const { return net_embed_; }

 private:
  TimingGnnConfig config_;
  Rng rng_;
  NetEmbed net_embed_;
  DelayProp prop_;
  nn::Mlp atslew_head_;
};

[[nodiscard]] EndpointSlack predicted_endpoint_slack(
    const data::DatasetGraph& g, const nn::Tensor& atslew, int endpoint_node);

}  // namespace tg::core
