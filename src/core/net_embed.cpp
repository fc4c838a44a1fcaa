#include "core/net_embed.hpp"

#include <algorithm>

#include "nn/alloc.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"

namespace tg::core {

using nn::Tensor;

namespace {

/// Rows a block of whole nets reaches before embed_nets runs it: enough
/// that each weight matrix is reused from cache across the block, few
/// enough that the block's rows stay in cache through every layer.
constexpr std::int64_t kBlockRows = 128;

}  // namespace

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
  TG_TRACE_SCOPE("core/net_embed_forward", obs::kSpanDetail);
  const nn::IndexVec net_src = data::share(g.topo, g.topo->net_src());
  const nn::IndexVec net_dst = data::share(g.topo, g.topo->net_dst());
  const Tensor& edge_feat = g.net_edge_feat;
  const std::int64_t n = g.num_nodes();
  Tensor h = input_proj_.forward_relu(g.node_feat);

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

void NetEmbed::embed_nets(const data::DatasetGraph& g,
                          std::span<const int> nets, Tensor& out) const {
  TG_TRACE_SCOPE("core/net_embed_nets", obs::kSpanDetail);
  const std::int64_t h = config_.hidden;
  TG_CHECK(out.rows() == g.num_nodes() && out.cols() == h);
  const data::NetLists& all = g.topo->nets();
  const std::vector<int>& net_src = g.topo->net_src();
  const std::vector<int>& net_dst = g.topo->net_dst();
  constexpr std::int64_t kNodeW = data::kNodeFeatureDim;
  constexpr std::int64_t kEdgeW = data::kNetEdgeFeatureDim;
  const std::int64_t bcast_w = 2 * h + kEdgeW;  // [h_u | h_v | e]
  const std::int64_t red_w = h + kEdgeW;        // [h_v' | e]
  const std::int64_t comb_w = 3 * h;            // [h_v' | Σ | max]
  const float* node_feat = g.node_feat.data().data();
  const float* edge_feat = g.net_edge_feat.data().data();
  float* emb = out.data().data();
  const auto n = [](std::int64_t k) { return static_cast<std::size_t>(k); };

  // Work of one listed net for util/parallel's cost model, from the mean
  // net: each row's input projection and merges, each edge's broadcast and
  // reduction messages, plus the rows and edge features read and written.
  std::int64_t rows_total = 0, edges_total = 0;
  for (const int net : nets) {
    rows_total += all.node_off[n(net) + 1] - all.node_off[n(net)];
    edges_total += all.edge_off[n(net) + 1] - all.edge_off[n(net)];
  }
  const auto flops = [](const nn::Module& m) {
    return 2 * m.num_parameters();
  };
  std::int64_t row_flops = flops(input_proj_), edge_flops = 0;
  for (const Layer& layer : layers_) {
    row_flops += flops(layer.merge);
    edge_flops += flops(layer.broadcast) + flops(layer.reduce_msg);
  }
  const auto num_nets = static_cast<std::int64_t>(nets.size());
  const std::int64_t per_net = std::max<std::int64_t>(num_nets, 1);
  const Work net_work{
      (rows_total * row_flops + edges_total * edge_flops) / per_net,
      (rows_total * (kNodeW + h) + edges_total * (kEdgeW + 2)) *
          static_cast<std::int64_t>(sizeof(float)) / per_net};

  parallel_for(0, num_nets, net_work, [&](std::int64_t lo, std::int64_t hi) {
    // Block scratch (laid out below), resized only when a block outgrows
    // it, and the block's nodes, edges and edge ends as block rows.
    nn::alloc::Buffer scratch;
    std::vector<int> nodes, edges, src_row, dst_row;
    std::vector<unsigned char> seen;
    for (std::int64_t b0 = lo; b0 < hi;) {
      // A block: whole nets until it holds kBlockRows rows.
      nodes.clear();
      edges.clear();
      src_row.clear();
      dst_row.clear();
      std::int64_t b1 = b0;
      while (b1 < hi && static_cast<std::int64_t>(nodes.size()) < kBlockRows) {
        const int net = nets[n(b1++)];
        const int base = static_cast<int>(nodes.size());
        nodes.insert(nodes.end(), all.nodes.begin() + all.node_off[n(net)],
                     all.nodes.begin() + all.node_off[n(net) + 1]);
        for (int k = all.edge_off[n(net)]; k < all.edge_off[n(net) + 1]; ++k) {
          const int e = all.edges[n(k)];
          edges.push_back(e);
          src_row.push_back(base + all.row[n(net_src[n(e)])]);
          dst_row.push_back(base + all.row[n(net_dst[n(e)])]);
        }
      }
      b0 = b1;
      const auto rows = static_cast<std::int64_t>(nodes.size());
      const auto ne = static_cast<std::int64_t>(edges.size());
      std::size_t mlp_w = 0;
      for (const Layer& layer : layers_) {
        mlp_w = std::max({mlp_w, layer.broadcast.infer_scratch(ne),
                          layer.reduce_msg.infer_scratch(ne),
                          layer.merge.infer_scratch(rows)});
      }
      scratch.resize_discard(n(rows * (kNodeW + 2 * h + comb_w) +
                               ne * (bcast_w + h)) +
                             mlp_w);
      float* x = scratch.data();         // [rows, 10] node features
      float* state = x + rows * kNodeW;  // [rows, h] layer input / output
      float* sum = state + rows * h;     // [rows, h] broadcast sums
      float* comb = sum + rows * h;      // [rows, 3h] merge input
      float* in = comb + rows * comb_w;  // [ne, ≤ bcast_w] edge MLP input
      float* msg = in + ne * bcast_w;    // [ne, h] edge messages
      float* mlp = msg + ne * h;

      for (std::int64_t r = 0; r < rows; ++r) {
        std::copy_n(node_feat + nodes[n(r)] * kNodeW, kNodeW, x + r * kNodeW);
      }
      input_proj_.infer_rows(x, rows, state, /*relu=*/true);

      for (const Layer& layer : layers_) {
        // Broadcast: each sink's messages summed into a zero row in
        // ascending edge id, as segment_sum does, then the residual.
        for (std::int64_t k = 0; k < ne; ++k) {
          float* row = in + k * bcast_w;
          std::copy_n(state + src_row[n(k)] * h, h, row);
          std::copy_n(state + dst_row[n(k)] * h, h, row + h);
          std::copy_n(edge_feat + edges[n(k)] * kEdgeW, kEdgeW, row + 2 * h);
        }
        layer.broadcast.infer_rows(in, ne, msg, mlp);
        std::fill_n(sum, rows * h, 0.0f);
        for (std::int64_t k = 0; k < ne; ++k) {
          nn::kern::add_acc(sum + dst_row[n(k)] * h, msg + k * h, n(h));
        }
        // The merge input starts at zero: its sum and max channels are
        // accumulated below.
        std::fill_n(comb, rows * comb_w, 0.0f);
        for (std::int64_t r = 0; r < rows; ++r) {
          nn::kern::add_relu(comb + r * comb_w, state + r * h, sum + r * h,
                             n(h));
        }

        // Reduction: each driver's messages into the sum and max channels
        // in ascending edge id, as segment_sum and segment_max do: a
        // driver's first edge wins the max outright, later edges only when
        // strictly greater, and an edge-free row keeps the zero fill.
        for (std::int64_t k = 0; k < ne; ++k) {
          float* row = in + k * red_w;
          std::copy_n(comb + dst_row[n(k)] * comb_w, h, row);
          std::copy_n(edge_feat + edges[n(k)] * kEdgeW, kEdgeW, row + h);
        }
        layer.reduce_msg.infer_rows(in, ne, msg, mlp);
        seen.assign(n(rows), 0);
        for (std::int64_t k = 0; k < ne; ++k) {
          const int r = src_row[n(k)];
          float* c = comb + r * comb_w;
          const float* m = msg + k * h;
          nn::kern::add_acc(c + h, m, n(h));
          float* mx = c + 2 * h;
          if (seen[n(r)] == 0) {
            seen[n(r)] = 1;
            std::copy_n(m, h, mx);
          } else {
            for (std::int64_t j = 0; j < h; ++j) {
              mx[j] = m[j] > mx[j] ? m[j] : mx[j];
            }
          }
        }
        layer.merge.infer_rows(comb, rows, state, mlp, /*relu=*/true);
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        std::copy_n(state + r * h, h, emb + nodes[n(r)] * h);
      }
    }
  });
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
