#include "core/gcnii.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::core {

using nn::Tensor;

GcniiAdjacency build_gcnii_adjacency(const data::DatasetGraph& g) {
  GcniiAdjacency adj;
  const int n = g.num_nodes();
  std::vector<int> degree(static_cast<std::size_t>(n), 1);  // self loop

  auto add_undirected = [&](const std::vector<int>& a,
                            const std::vector<int>& b) {
    for (std::size_t e = 0; e < a.size(); ++e) {
      adj.src.push_back(a[e]);
      adj.dst.push_back(b[e]);
      adj.src.push_back(b[e]);
      adj.dst.push_back(a[e]);
      ++degree[static_cast<std::size_t>(a[e])];
      ++degree[static_cast<std::size_t>(b[e])];
    }
  };
  add_undirected(g.topo->net_src(), g.topo->net_dst());
  add_undirected(g.topo->cell_src(), g.topo->cell_dst());
  for (int v = 0; v < n; ++v) {
    adj.src.push_back(v);
    adj.dst.push_back(v);
  }

  adj.w.resize(adj.src.size());
  for (std::size_t e = 0; e < adj.src.size(); ++e) {
    adj.w[e] = 1.0f / std::sqrt(
                          static_cast<float>(degree[static_cast<std::size_t>(adj.src[e])]) *
                          static_cast<float>(degree[static_cast<std::size_t>(adj.dst[e])]));
  }
  adj.csr = nn::build_spmm_csr(adj.src, adj.dst, adj.w, n, n);
  return adj;
}

Gcnii::Gcnii(const GcniiConfig& config)
    : config_(config),
      rng_(config.seed),
      input_proj_(data::kNodeFeatureDim, config.hidden, rng_, "gcnii.in"),
      head_(config.hidden, 2 * kNumCorners, rng_, "gcnii.head") {
  TG_CHECK(config.num_layers >= 1);
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(config.hidden, config.hidden, rng_,
                         "gcnii.w" + std::to_string(l));
  }
  register_module("in", input_proj_);
  for (int l = 0; l < config.num_layers; ++l) {
    register_module("w" + std::to_string(l), layers_[static_cast<std::size_t>(l)]);
  }
  if (config.use_layer_norm) {
    for (int l = 0; l < config.num_layers; ++l) {
      ln_gamma_.push_back(register_parameter(
          "ln" + std::to_string(l) + ".gamma",
          nn::Tensor::full(1, config.hidden, 1.0f, true)));
      ln_beta_.push_back(register_parameter(
          "ln" + std::to_string(l) + ".beta",
          nn::Tensor::zeros(1, config.hidden, true)));
    }
  }
  register_module("head", head_);
}

Tensor Gcnii::forward(const data::DatasetGraph& g,
                      const GcniiAdjacency& adj) const {
  TG_TRACE_SCOPE("core/gcnii_forward", obs::kSpanDetail);
  TG_CHECK(adj.csr.out_rows == g.num_nodes());
  Tensor h0 = input_proj_.forward_relu(g.node_feat);
  Tensor h = h0;
  for (const nn::Linear& w : layers_) {
    // Eq. 3: H' = σ( ((1−α)·P·H + α·H0) · ((1−β)·I + β·W) ).
    Tensor ph = nn::spmm_csr(adj.csr, h);
    Tensor m = nn::add(nn::scale(ph, 1.0f - config_.alpha),
                       nn::scale(h0, config_.alpha));
    h = nn::add_relu(nn::scale(m, 1.0f - config_.beta),
                     nn::scale(w.forward(m), config_.beta));
    if (config_.use_layer_norm) {
      const std::size_t l = static_cast<std::size_t>(&w - layers_.data());
      h = nn::layer_norm(h, ln_gamma_[l], ln_beta_[l]);
    }
  }
  return head_.forward(h);
}

Tensor Gcnii::loss(const data::DatasetGraph& g,
                   const Tensor& atslew_pred) const {
  const Tensor target_parts[] = {g.arrival, g.slew};
  return nn::mse_loss(atslew_pred, nn::concat_cols(target_parts));
}

}  // namespace tg::core
