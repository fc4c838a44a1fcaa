#include "core/net_embed.hpp"

#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::core {

using nn::Tensor;

NetEmbed::NetEmbed(const NetEmbedConfig& config, Rng& rng) : config_(config) {
  TG_CHECK(config.hidden > 0 && config.num_layers > 0);
  const int h = config.hidden;
  input_proj_ = nn::Linear(data::kNodeFeatureDim, h, rng, "net_embed.in");
  for (int l = 0; l < config.num_layers; ++l) {
    const std::string tag = "net_embed.l" + std::to_string(l);
    layers_.push_back(Layer{
        nn::Mlp(2 * h + data::kNetEdgeFeatureDim, h, config.mlp_hidden,
                config.mlp_layers, &rng, tag + ".broadcast"),
        nn::Mlp(h + data::kNetEdgeFeatureDim, h, config.mlp_hidden,
                config.mlp_layers, &rng, tag + ".reduce"),
        nn::Mlp(3 * h, h, config.mlp_hidden, config.mlp_layers, &rng,
                tag + ".merge"),
    });
  }
  delay_head_ = nn::Mlp(2 * h + data::kNetEdgeFeatureDim, kNumCorners,
                        config.mlp_hidden, config.mlp_layers, &rng,
                        "net_embed.delay_head");

  register_module("in", input_proj_);
  for (int l = 0; l < config.num_layers; ++l) {
    const std::string tag = "l" + std::to_string(l);
    register_module(tag + ".broadcast", layers_[static_cast<std::size_t>(l)].broadcast);
    register_module(tag + ".reduce", layers_[static_cast<std::size_t>(l)].reduce_msg);
    register_module(tag + ".merge", layers_[static_cast<std::size_t>(l)].merge);
  }
  register_module("delay_head", delay_head_);
}

Tensor NetEmbed::forward(const data::DatasetGraph& g) const {
  return forward(g.node_feat, g.net_edge_feat,
                 data::share(g.topo, g.topo->net_src()),
                 data::share(g.topo, g.topo->net_dst()));
}

Tensor NetEmbed::forward(const Tensor& node_feat, const Tensor& edge_feat,
                         const nn::IndexVec& net_src,
                         const nn::IndexVec& net_dst) const {
  TG_TRACE_SCOPE("core/net_embed_forward", obs::kSpanDetail);
  const std::int64_t n = node_feat.rows();
  Tensor h = input_proj_.forward_relu(node_feat);

  for (const Layer& layer : layers_) {
    // Graph broadcast: driver → sinks along net edges.
    Tensor hd = nn::gather_rows(h, net_src);
    Tensor hs = nn::gather_rows(h, net_dst);
    const Tensor bcast_in[] = {hd, hs, edge_feat};
    Tensor msg = layer.broadcast.forward(nn::concat_cols(bcast_in));
    // Each sink has exactly one incoming net edge, so segment_sum acts as
    // a scatter; drivers/roots keep their state through the residual.
    Tensor h_mid = nn::add_relu(h, nn::segment_sum(msg, net_dst, n));

    // Graph reduction: sinks → driver through reversed net edges, with sum
    // and max channels.
    Tensor hs2 = nn::gather_rows(h_mid, net_dst);
    const Tensor red_in[] = {hs2, edge_feat};
    Tensor rmsg = layer.reduce_msg.forward(nn::concat_cols(red_in));
    Tensor rsum = nn::segment_sum(rmsg, net_src, n);
    Tensor rmax = nn::segment_max(rmsg, net_src, n);
    const Tensor merge_in[] = {h_mid, rsum, rmax};
    h = layer.merge.forward_relu(nn::concat_cols(merge_in));
  }
  return h;
}

Tensor NetEmbed::predict_net_delay(const data::DatasetGraph& g,
                                   const Tensor& embedding) const {
  const nn::IndexVec net_src = data::share(g.topo, g.topo->net_src());
  const nn::IndexVec net_dst = data::share(g.topo, g.topo->net_dst());
  Tensor hd = nn::gather_rows(embedding, net_src);
  Tensor hs = nn::gather_rows(embedding, net_dst);
  const Tensor head_in[] = {hd, hs, g.net_edge_feat};
  // Plain linear head: a softplus output layer saturates (zero gradient)
  // when early training undershoots, collapsing the prediction to zero.
  Tensor per_edge = delay_head_.forward(nn::concat_cols(head_in));
  // Each sink has exactly one incoming net edge; scatter to node rows.
  return nn::segment_sum(per_edge, net_dst, g.num_nodes());
}

}  // namespace tg::core
