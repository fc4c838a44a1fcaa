#pragma once
/// \file net_embed.hpp
/// The paper's net embedding model (§3.3.1, Fig. 2): three net-convolution
/// layers over the bidirectional net-edge graph. Each layer performs
///  - graph broadcast: driver + sink + edge features → MLP → sink update;
///  - graph reduction: sink messages → sum & max channels → driver update.
/// The final embedding predicts net delay standalone (Table 4) and feeds
/// the delay-propagation stage; free embedding dimensions carry load/slew
/// statistics for propagation, as in the paper.

#include <span>

#include "data/hetero_graph.hpp"
#include "nn/module.hpp"

namespace tg::core {

struct NetEmbedConfig {
  int hidden = 32;      ///< embedding width (paper uses 64)
  int mlp_hidden = 32;  ///< hidden width inside each MLP
  int mlp_layers = 2;   ///< hidden layers per MLP (paper uses 3)
  int num_layers = 3;   ///< net convolution layers (paper: 3)
};

class NetEmbed : public nn::Module {
 public:
  NetEmbed(const NetEmbedConfig& config, Rng& rng);

  /// Per-pin embedding [N, hidden]: the taped op chain training runs.
  [[nodiscard]] nn::Tensor forward(const data::DatasetGraph& g) const;

  /// The inference embedding of the listed nets (ids into
  /// g.topo->nets()): writes their nodes' rows of forward(g) into `out`
  /// [N, hidden], bit for bit, and leaves every other row as it was. No
  /// tensors and no tape. One parallel_for over the listed nets; each
  /// chunk runs blocks of whole nets through the input projection and
  /// every layer while the block's rows stay in cache, since no layer
  /// crosses a net. A template embed lists every net; an incremental read
  /// lists the nets of its moved pins.
  void embed_nets(const data::DatasetGraph& g, std::span<const int> nets,
                  nn::Tensor& out) const;

  /// Net-delay head (linear): per net edge, delay is predicted
  /// from the (driver, sink) embedding pair and scattered to the sink row;
  /// returns [N, 4] with zeros at non-sink rows.
  [[nodiscard]] nn::Tensor predict_net_delay(const data::DatasetGraph& g,
                                             const nn::Tensor& embedding) const;

  [[nodiscard]] const NetEmbedConfig& config() const { return config_; }

 private:
  struct Layer {
    nn::Mlp broadcast;   ///< [h_u, h_v, e] → sink update
    nn::Mlp reduce_msg;  ///< [h_v', e] → per-edge reduction message
    nn::Mlp merge;       ///< [h_u', Σ, max] → driver update
  };

  NetEmbedConfig config_;
  nn::Linear input_proj_;
  std::vector<Layer> layers_;
  nn::Mlp delay_head_;
};

}  // namespace tg::core
