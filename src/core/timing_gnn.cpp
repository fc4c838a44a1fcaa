#include "core/timing_gnn.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

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

/// The nets (net-edge components) holding `pins`, as a standalone graph:
/// their nodes ascending, their edges in ascending original order, edge
/// endpoints remapped. `nodes` receives the original node ids.
data::DatasetGraph net_subgraph(const data::DatasetGraph& g,
                                const ReadTopology& topo,
                                const std::vector<int>& pins,
                                std::vector<int>& nodes) {
  std::vector<int> local(static_cast<std::size_t>(g.num_nodes), -1);
  std::vector<int> edges;
  nodes.clear();
  for (const int p : pins) {
    if (local[static_cast<std::size_t>(p)] >= 0) continue;
    local[static_cast<std::size_t>(p)] = 0;
    nodes.push_back(p);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto v = static_cast<std::size_t>(nodes[i]);
    for (int k = topo.net_off[v]; k < topo.net_off[v + 1]; ++k) {
      const int e = topo.net_edges[static_cast<std::size_t>(k)];
      const int src = g.net_src[static_cast<std::size_t>(e)];
      const int dst = g.net_dst[static_cast<std::size_t>(e)];
      if (src == nodes[i]) edges.push_back(e);  // each edge once, at its driver
      const int w = src == nodes[i] ? dst : src;
      if (local[static_cast<std::size_t>(w)] < 0) {
        local[static_cast<std::size_t>(w)] = 0;
        nodes.push_back(w);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    local[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
  }

  data::DatasetGraph sub;
  sub.num_nodes = static_cast<int>(nodes.size());
  std::vector<float> node_feat;
  node_feat.reserve(nodes.size() * data::kNodeFeatureDim);
  const float* nf = g.node_feat.data().data();
  for (const int v : nodes) {
    node_feat.insert(node_feat.end(), nf + v * data::kNodeFeatureDim,
                     nf + (v + 1) * data::kNodeFeatureDim);
  }
  std::vector<float> edge_feat;
  edge_feat.reserve(edges.size() * data::kNetEdgeFeatureDim);
  const float* ef = g.net_edge_feat.data().data();
  for (const int e : edges) {
    edge_feat.insert(edge_feat.end(), ef + e * data::kNetEdgeFeatureDim,
                     ef + (e + 1) * data::kNetEdgeFeatureDim);
    sub.net_src.push_back(local[static_cast<std::size_t>(
        g.net_src[static_cast<std::size_t>(e)])]);
    sub.net_dst.push_back(local[static_cast<std::size_t>(
        g.net_dst[static_cast<std::size_t>(e)])]);
  }
  sub.node_feat = Tensor::from_vector(std::move(node_feat), sub.num_nodes,
                                      data::kNodeFeatureDim);
  sub.net_edge_feat = Tensor::from_vector(
      std::move(edge_feat), static_cast<std::int64_t>(edges.size()),
      data::kNetEdgeFeatureDim);
  return sub;
}

}  // namespace

ReadTopology build_read_topology(const data::DatasetGraph& g) {
  ReadTopology topo;
  topo.fanout = build_fanout(g);
  const auto n = static_cast<std::size_t>(g.num_nodes);
  topo.net_off.assign(n + 1, 0);
  for (std::size_t e = 0; e < g.net_src.size(); ++e) {
    ++topo.net_off[static_cast<std::size_t>(g.net_src[e]) + 1];
    ++topo.net_off[static_cast<std::size_t>(g.net_dst[e]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) topo.net_off[v + 1] += topo.net_off[v];
  topo.net_edges.resize(static_cast<std::size_t>(topo.net_off.back()));
  std::vector<int> fill(topo.net_off.begin(), topo.net_off.end() - 1);
  for (std::size_t e = 0; e < g.net_src.size(); ++e) {
    for (const int v : {g.net_src[e], g.net_dst[e]}) {
      topo.net_edges[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(v)]++)] = static_cast<int>(e);
    }
  }
  return topo;
}

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

std::int64_t TimingGnn::read(const data::DatasetGraph& g,
                             const PropPlan& plan, const ReadTopology& topo,
                             const data::GraphDelta& delta, bool full,
                             ReadCache& cache) const {
  TG_TRACE_SCOPE("core/gnn_read", obs::kSpanCoarse);
  const nn::NoGradGuard no_grad;
  const std::int64_t emb_w = config_.net.hidden;
  const std::int64_t hid = config_.prop.hidden;
  TG_CHECK(cache.embedding.rows() == g.num_nodes &&
           cache.embedding.cols() == emb_w);
  TG_CHECK(topo.fanout.off.size() ==
           static_cast<std::size_t>(g.num_nodes) + 1);
  const auto nodes_n = static_cast<std::size_t>(g.num_nodes);

  // Re-embed the nets holding a patched pin; keep the rows that moved.
  std::vector<int> moved;
  if (!delta.pins.empty()) {
    std::vector<int> nodes;
    const data::DatasetGraph sub = net_subgraph(g, topo, delta.pins, nodes);
    const Tensor fresh = net_embed_.forward(sub);
    float* emb = cache.embedding.data().data();
    const float* rows = fresh.data().data();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      float* dst = emb + nodes[i] * emb_w;
      const float* src = rows + static_cast<std::int64_t>(i) * emb_w;
      if (std::memcmp(dst, src, static_cast<std::size_t>(emb_w) *
                                    sizeof(float)) == 0) {
        continue;
      }
      std::copy_n(src, emb_w, dst);
      moved.push_back(nodes[i]);
    }
  }

  // Propagate: every row, or the cone of the moved embedding rows (and
  // their fanout, whose cell-arc queries read the source embedding) and
  // of the patched cell arcs.
  std::vector<unsigned char> dirty;
  std::int64_t rows_run = 0;
  if (full) {
    if (!cache.state.defined()) cache.state = Tensor::zeros(g.num_nodes, hid);
    rows_run = prop_.propagate(g, plan, cache.embedding, cache.state);
  } else {
    dirty.assign(nodes_n, 0);
    for (const int v : moved) {
      dirty[static_cast<std::size_t>(v)] = 1;
      const auto vu = static_cast<std::size_t>(v);
      for (int k = topo.fanout.off[vu]; k < topo.fanout.off[vu + 1]; ++k) {
        dirty[static_cast<std::size_t>(
            topo.fanout.dst[static_cast<std::size_t>(k)])] = 1;
      }
    }
    for (const int e : delta.cell_edges) {
      dirty[static_cast<std::size_t>(g.cell_dst[static_cast<std::size_t>(e)])] =
          1;
    }
    rows_run = prop_.propagate(g, plan, cache.embedding, cache.state,
                               &dirty, &topo.fanout);
  }

  // Head + slack on the endpoints whose inputs moved.
  std::vector<int> heads;  // positions in g.endpoints
  const auto num_eps = g.endpoints.size();
  if (full) {
    cache.slack.assign(num_eps, EndpointSlack{});
    heads.resize(num_eps);
    for (std::size_t i = 0; i < num_eps; ++i) heads[i] = static_cast<int>(i);
  } else {
    TG_CHECK(cache.slack.size() == num_eps);
    for (std::size_t i = 0; i < num_eps; ++i) {
      if (dirty[static_cast<std::size_t>(g.endpoints[i])] != 0) {
        heads.push_back(static_cast<int>(i));
      }
    }
    for (const int ep : delta.endpoints) {
      const auto it =
          std::lower_bound(g.endpoints.begin(), g.endpoints.end(), ep);
      TG_CHECK(it != g.endpoints.end() && *it == ep);
      heads.push_back(static_cast<int>(it - g.endpoints.begin()));
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
    return std::pair{i, static_cast<std::int64_t>(g.endpoints[i])};
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
  TG_CHECK(atslew.cols() == 2 * kNumCorners);
  const auto node = static_cast<std::int64_t>(endpoint_node);
  TG_CHECK(node >= 0 && node < atslew.rows() && node < g.rat.rows());
  return slack_from_rows(g.rat.data().data() + node * kNumCorners,
                         atslew.data().data() + node * 2 * kNumCorners);
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
