#include "core/timing_gnn.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::core {

using nn::Tensor;

namespace {

/// Slack at an endpoint from its RAT row and its predicted atslew row.
EndpointSlack slack_from_rows(const float* rat, const float* atslew) {
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  const int lf = corner_index(Mode::kLate, Trans::kFall);
  const int er = corner_index(Mode::kEarly, Trans::kRise);
  const int ef = corner_index(Mode::kEarly, Trans::kFall);

  const double rat_lr = rat[lr];
  const double rat_lf = rat[lf];
  const double rat_er = rat[er];
  const double rat_ef = rat[ef];
  const double at_lr = atslew[lr];
  const double at_lf = atslew[lf];
  const double at_er = atslew[er];
  const double at_ef = atslew[ef];

  EndpointSlack out;
  out.setup = std::min(rat_lr - at_lr, rat_lf - at_lf);
  out.hold = std::min(at_er - rat_er, at_ef - rat_ef);
  return out;
}

}  // namespace

TimingGnn::TimingGnn(const TimingGnnConfig& config)
    : config_(config),
      rng_(config.seed),
      net_embed_(config.net, rng_),
      prop_(config.net.hidden, config.prop, rng_),
      atslew_head_(config.prop.hidden + config.net.hidden, 2 * kNumCorners,
                   config.prop.mlp_hidden, config.prop.mlp_layers, &rng_,
                   "atslew_head") {
  register_module("net_embed", net_embed_);
  register_module("prop", prop_);
  register_module("atslew_head", atslew_head_);
}

TimingGnn::Prediction TimingGnn::forward(const data::DatasetGraph& g,
                                         const PropPlan& plan) const {
  TG_TRACE_SCOPE("core/gnn_forward", obs::kSpanCoarse);
  Prediction pred;
  Tensor emb = net_embed_.forward(g);
  pred.net_delay = net_embed_.predict_net_delay(g, emb);

  DelayProp::Output prop_out = prop_.forward(g, plan, emb);
  pred.cell_delay = prop_out.cell_delay;

  const Tensor head_in[] = {prop_out.state, emb};
  pred.atslew = atslew_head_.forward(nn::concat_cols(head_in));
  return pred;
}

Tensor TimingGnn::embed(const data::DatasetGraph& g) const {
  const nn::NoGradGuard no_grad;
  std::vector<int> nets(static_cast<std::size_t>(g.topo->nets().size()));
  std::iota(nets.begin(), nets.end(), 0);
  Tensor out = Tensor::zeros(g.num_nodes(), config_.net.hidden);
  net_embed_.embed_nets(g, nets, out);
  return out;
}

Tensor TimingGnn::forward_atslew(const data::DatasetGraph& g,
                                 const PropPlan& plan,
                                 const Tensor& embedding) const {
  TG_TRACE_SCOPE("core/gnn_forward_atslew", obs::kSpanCoarse);
  TG_CHECK(plan.num_levels == g.num_levels());
  const nn::NoGradGuard no_grad;
  Tensor state = Tensor::zeros(g.num_nodes(), config_.prop.hidden);
  (void)prop_.propagate(g, embedding, state);
  const Tensor head_in[] = {state, embedding};
  return atslew_head_.forward(nn::concat_cols(head_in));
}

std::int64_t TimingGnn::read(const data::DatasetGraph& g,
                             std::span<const int> endpoints,
                             const data::GraphDelta& delta, bool full,
                             ReadCache& cache) const {
  TG_TRACE_SCOPE("core/gnn_read", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;
  const std::int64_t emb_w = config_.net.hidden;
  const std::int64_t hid = config_.prop.hidden;
  TG_CHECK(cache.embedding.rows() == g.num_nodes() &&
           cache.embedding.cols() == emb_w);
  const auto nodes_n = static_cast<std::size_t>(g.num_nodes());
  const data::NodeLists& fanout = g.topo->fanout();

  // Re-embed the nets holding a patched pin in place; keep the rows that
  // moved.
  std::vector<int> moved;
  if (!delta.pins.empty()) {
    const data::NetLists& all = g.topo->nets();
    std::vector<int> nets;
    for (const int p : delta.pins) {
      nets.push_back(all.net_of[static_cast<std::size_t>(p)]);
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    std::vector<int> nodes;
    for (const int net : nets) {
      const auto i = static_cast<std::size_t>(net);
      nodes.insert(nodes.end(), all.nodes.begin() + all.node_off[i],
                   all.nodes.begin() + all.node_off[i + 1]);
    }
    const auto row_bytes = static_cast<std::size_t>(emb_w) * sizeof(float);
    float* emb = cache.embedding.data().data();
    std::vector<float> before(nodes.size() * static_cast<std::size_t>(emb_w));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::memcpy(&before[i * static_cast<std::size_t>(emb_w)],
                  emb + nodes[i] * emb_w, row_bytes);
    }
    net_embed_.embed_nets(g, nets, cache.embedding);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (std::memcmp(emb + nodes[i] * emb_w,
                      &before[i * static_cast<std::size_t>(emb_w)],
                      row_bytes) != 0) {
        moved.push_back(nodes[i]);
      }
    }
  }

  // Propagate: every row, or the cone of the moved embedding rows (and
  // their fanout, whose cell-arc queries read the source embedding) and
  // of the patched cell arcs.
  std::vector<unsigned char> dirty;
  std::int64_t rows_run = 0;
  if (full) {
    if (!cache.state.defined()) {
      cache.state = Tensor::zeros(g.num_nodes(), hid);
    }
    rows_run = prop_.propagate(g, cache.embedding, cache.state);
  } else {
    dirty.assign(nodes_n, 0);
    for (const int v : moved) {
      dirty[static_cast<std::size_t>(v)] = 1;
      const auto vu = static_cast<std::size_t>(v);
      for (int k = fanout.off[vu]; k < fanout.off[vu + 1]; ++k) {
        dirty[static_cast<std::size_t>(
            fanout.ids[static_cast<std::size_t>(k)])] = 1;
      }
    }
    for (const int e : delta.cell_edges) {
      dirty[static_cast<std::size_t>(
          g.topo->cell_dst()[static_cast<std::size_t>(e)])] = 1;
    }
    rows_run = prop_.propagate(g, cache.embedding, cache.state, &dirty);
  }

  // Head + slack on the endpoints whose inputs moved.
  std::vector<int> heads;  // positions in endpoints
  const auto num_eps = endpoints.size();
  if (full) {
    cache.slack.assign(num_eps, EndpointSlack{});
    heads.resize(num_eps);
    for (std::size_t i = 0; i < num_eps; ++i) heads[i] = static_cast<int>(i);
  } else {
    TG_CHECK(cache.slack.size() == num_eps);
    for (std::size_t i = 0; i < num_eps; ++i) {
      if (dirty[static_cast<std::size_t>(endpoints[i])] != 0) {
        heads.push_back(static_cast<int>(i));
      }
    }
    for (const int ep : delta.endpoints) {
      const auto it = std::lower_bound(endpoints.begin(), endpoints.end(), ep);
      TG_CHECK(it != endpoints.end() && *it == ep);
      heads.push_back(static_cast<int>(it - endpoints.begin()));
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }
  constexpr std::int64_t kBlock = 32;
  const std::int64_t in_w = hid + emb_w;
  const std::int64_t out_w = atslew_head_.out_features();
  std::vector<float> x(static_cast<std::size_t>(kBlock * in_w));
  std::vector<float> out(static_cast<std::size_t>(kBlock * out_w));
  std::vector<float> scratch(atslew_head_.infer_scratch(kBlock));
  const float* st = cache.state.data().data();
  const float* emb = cache.embedding.data().data();
  const float* rat = g.rat.data().data();
  const auto num_heads = static_cast<std::int64_t>(heads.size());
  const auto endpoint = [&](std::int64_t h) {
    const auto i = static_cast<std::size_t>(heads[static_cast<std::size_t>(h)]);
    return std::pair{i, static_cast<std::int64_t>(endpoints[i])};
  };
  for (std::int64_t b0 = 0; b0 < num_heads; b0 += kBlock) {
    const std::int64_t nb = std::min(kBlock, num_heads - b0);
    for (std::int64_t k = 0; k < nb; ++k) {
      const std::int64_t v = endpoint(b0 + k).second;
      std::copy_n(st + v * hid, hid, x.data() + k * in_w);
      std::copy_n(emb + v * emb_w, emb_w, x.data() + k * in_w + hid);
    }
    atslew_head_.infer_rows(x.data(), nb, out.data(), scratch.data());
    for (std::int64_t k = 0; k < nb; ++k) {
      const auto [i, v] = endpoint(b0 + k);
      cache.slack[i] = slack_from_rows(rat + v * kNumCorners,
                                       out.data() + k * out_w);
    }
  }
  return rows_run;
}

Tensor TimingGnn::loss(const data::DatasetGraph& g, const PropPlan& plan,
                       const Prediction& pred) const {
  TG_CHECK(plan.num_levels == g.num_levels());
  // Eq. 4: arrival/slew over all pins.
  const Tensor atslew_target_parts[] = {g.arrival, g.slew};
  Tensor total =
      nn::mse_loss(pred.atslew, nn::concat_cols(atslew_target_parts));

  // Eq. 5: cell-arc delay (plan order).
  if (config_.use_cell_aux && pred.cell_delay.rows() > 0) {
    Tensor cell_target = nn::gather_rows(
        g.cell_delay, data::share(g.topo, g.topo->csr().cell_perm));
    total = nn::add(total, nn::mse_loss(pred.cell_delay, cell_target));
  }

  // Eq. 6: net delay at fan-in (net sink) pins.
  if (config_.use_net_aux && !g.topo->net_sinks().empty()) {
    const nn::IndexVec sinks = data::share(g.topo, g.topo->net_sinks());
    Tensor target = nn::gather_rows(g.net_delay, sinks);
    total = nn::add(total, nn::mse_loss_rows(pred.net_delay, sinks, target));
  }
  return total;
}

EndpointSlack predicted_endpoint_slack(const data::DatasetGraph& g,
                                       const Tensor& atslew,
                                       int endpoint_node) {
  TG_CHECK(atslew.cols() == 2 * kNumCorners);
  const auto node = static_cast<std::int64_t>(endpoint_node);
  TG_CHECK(node >= 0 && node < atslew.rows() && node < g.rat.rows());
  return slack_from_rows(g.rat.data().data() + node * kNumCorners,
                         atslew.data().data() + node * 2 * kNumCorners);
}

}  // namespace tg::core
