#include "core/timing_gnn.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::core {

using nn::Tensor;

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
  return net_embed_.forward(g);
}

Tensor TimingGnn::forward_atslew(const data::DatasetGraph& g,
                                 const PropPlan& plan,
                                 const Tensor& embedding) const {
  TG_TRACE_SCOPE("core/gnn_forward_atslew", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;
  const DelayProp::Output prop_out =
      prop_.forward(g, plan, embedding, /*want_aux=*/false);
  const Tensor head_in[] = {prop_out.state, embedding};
  return atslew_head_.forward(nn::concat_cols(head_in));
}

Tensor TimingGnn::loss(const data::DatasetGraph& g, const PropPlan& plan,
                       const Prediction& pred) const {
  // Eq. 4: arrival/slew over all pins.
  const Tensor atslew_target_parts[] = {g.arrival, g.slew};
  Tensor total =
      nn::mse_loss(pred.atslew, nn::concat_cols(atslew_target_parts));

  // Eq. 5: cell-arc delay (plan order).
  if (config_.use_cell_aux && pred.cell_delay.rows() > 0) {
    Tensor cell_target = nn::gather_rows(g.cell_delay, plan.cell_order);
    total = nn::add(total, nn::mse_loss(pred.cell_delay, cell_target));
  }

  // Eq. 6: net delay at fan-in (net sink) pins.
  if (config_.use_net_aux && !g.net_sinks.empty()) {
    const nn::IndexVec& sinks = data::shared_net_sinks(g);
    Tensor target = nn::gather_rows(g.net_delay, sinks);
    total = nn::add(total, nn::mse_loss_rows(pred.net_delay, sinks, target));
  }
  return total;
}

EndpointSlack predicted_endpoint_slack(const data::DatasetGraph& g,
                                       const Tensor& atslew,
                                       int endpoint_node) {
  EndpointSlack out;
  const auto node = static_cast<std::int64_t>(endpoint_node);
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  const int lf = corner_index(Mode::kLate, Trans::kFall);
  const int er = corner_index(Mode::kEarly, Trans::kRise);
  const int ef = corner_index(Mode::kEarly, Trans::kFall);

  const double rat_lr = g.rat.at(node, lr);
  const double rat_lf = g.rat.at(node, lf);
  const double rat_er = g.rat.at(node, er);
  const double rat_ef = g.rat.at(node, ef);
  const double at_lr = atslew.at(node, lr);
  const double at_lf = atslew.at(node, lf);
  const double at_er = atslew.at(node, er);
  const double at_ef = atslew.at(node, ef);

  out.setup = std::min(rat_lr - at_lr, rat_lf - at_lf);
  out.hold = std::min(at_er - rat_er, at_ef - rat_ef);
  return out;
}

std::vector<GraphSlackSummary> packed_endpoint_slacks(
    const data::GraphPack& pack, const Tensor& atslew) {
  TG_CHECK(atslew.rows() == pack.g.num_nodes);
  std::vector<GraphSlackSummary> out(
      static_cast<std::size_t>(pack.num_graphs));
  for (int k = 0; k < pack.num_graphs; ++k) {
    GraphSlackSummary& s = out[static_cast<std::size_t>(k)];
    const int lo = pack.endpoint_base[static_cast<std::size_t>(k)];
    const int hi = pack.endpoint_base[static_cast<std::size_t>(k) + 1];
    if (lo == hi) continue;  // endpoint-free part: all-zero digest
    s.wns_setup = std::numeric_limits<double>::infinity();
    s.wns_hold = std::numeric_limits<double>::infinity();
    s.endpoint_setup.reserve(static_cast<std::size_t>(hi - lo));
    for (int i = lo; i < hi; ++i) {
      const EndpointSlack es = predicted_endpoint_slack(
          pack.g, atslew, pack.g.endpoints[static_cast<std::size_t>(i)]);
      s.endpoint_setup.push_back(es.setup);
      s.wns_setup = std::min(s.wns_setup, es.setup);
      s.wns_hold = std::min(s.wns_hold, es.hold);
      if (es.setup < 0.0) s.tns_setup += es.setup;
    }
  }
  return out;
}

}  // namespace tg::core
