#include "core/delay_prop.hpp"

#include <algorithm>
#include <cstring>

#include "nn/kernels.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"

namespace tg::core {

using nn::Tensor;

namespace {

/// Replaces raw level ids in `src_t` with indices into the returned
/// sorted-distinct level list (see PropPlan feed docs).
std::vector<int> remap_to_dep_levels(std::vector<int>& src_t) {
  std::vector<int> dep(src_t);
  std::sort(dep.begin(), dep.end());
  dep.erase(std::unique(dep.begin(), dep.end()), dep.end());
  for (int& t : src_t) {
    t = static_cast<int>(std::lower_bound(dep.begin(), dep.end(), t) -
                         dep.begin());
  }
  return dep;
}

/// The dep levels' state tensors, in dep_levels order — the sources a
/// remapped feed's multi_gather reads.
std::vector<Tensor> dep_states(const std::vector<Tensor>& level_states,
                               const std::vector<int>& dep_levels) {
  std::vector<Tensor> s;
  s.reserve(dep_levels.size());
  for (int dl : dep_levels) {
    s.push_back(level_states[static_cast<std::size_t>(dl)]);
  }
  return s;
}

/// Rows the fused step pushes through one MLP pass. Large enough that each
/// weight matrix is reused from cache across the block, small enough that
/// the block's activations stay in cache.
constexpr std::int64_t kBlock = 32;

/// The level rows rb, rb + 1, ... of a full-walk chunk, indexed like the
/// cone walk's stored row list without being stored.
struct RowRange {
  std::int64_t rb;
  std::int64_t operator[](std::int64_t p) const { return rb + p; }
};

/// Approximate flops of one row through a module: one multiply-add per
/// parameter.
std::int64_t row_flops(const nn::Module& m) { return 2 * m.num_parameters(); }

/// The LutTable row of each cell edge in `edges`: the gather index of a
/// level's cell-edge features. Built per forward, because a moved
/// session's graph shares the plan but re-points its own indices.
nn::IndexVec lut_rows(const data::DatasetGraph& g,
                      const std::vector<int>& edges) {
  std::vector<int> rows(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    rows[i] = g.cell_arc_lut[static_cast<std::size_t>(edges[i])];
  }
  return std::make_shared<const std::vector<int>>(std::move(rows));
}

}  // namespace

PropPlan build_prop_plan(const data::DatasetGraph& g) {
  const data::Topology& topo = *g.topo;
  const data::LevelCsr& csr = topo.csr();
  const std::vector<int>& node_level = topo.node_level();
  PropPlan plan;
  plan.num_levels = topo.num_levels();

  const auto levels = static_cast<std::size_t>(plan.num_levels);
  plan.level_rows.resize(levels);
  plan.net_feed.resize(levels);
  plan.cell_feed.resize(levels);

  auto share = [](std::vector<int> v) {
    return std::make_shared<const std::vector<int>>(std::move(v));
  };

  for (std::size_t l = 0; l < levels; ++l) {
    const auto nb = static_cast<std::size_t>(csr.node_off[l]);
    const auto ne = static_cast<std::size_t>(csr.node_off[l + 1]);
    plan.level_rows[l] =
        share({csr.node_perm.begin() + static_cast<long>(nb),
               csr.node_perm.begin() + static_cast<long>(ne)});

    // Net edges of this level, in CSR (destination-sorted) order.
    {
      std::vector<int> src_t, src_r, dst_row, feat_rows, emb_v_rows;
      const auto eb = static_cast<std::size_t>(csr.net_off[l]);
      const auto ee = static_cast<std::size_t>(csr.net_off[l + 1]);
      src_t.reserve(ee - eb);
      for (std::size_t k = eb; k < ee; ++k) {
        const int e = csr.net_perm[k];
        const int u = topo.net_src()[static_cast<std::size_t>(e)];
        const int v = topo.net_dst()[static_cast<std::size_t>(e)];
        src_t.push_back(node_level[static_cast<std::size_t>(u)]);
        src_r.push_back(csr.node_row[static_cast<std::size_t>(u)]);
        dst_row.push_back(csr.node_row[static_cast<std::size_t>(v)]);
        feat_rows.push_back(e);
        emb_v_rows.push_back(v);
      }
      std::vector<int> dep = remap_to_dep_levels(src_t);
      plan.net_feed[l] = PropPlan::NetFeed{
          std::move(dep), share(std::move(src_t)), share(std::move(src_r)),
          share(std::move(dst_row)), share(std::move(feat_rows)),
          share(std::move(emb_v_rows))};
    }

    // Cell edges, same treatment plus the source-embedding gather.
    {
      std::vector<int> src_t, src_r, dst_row, feat_rows, emb_u_rows,
          emb_v_rows;
      const auto eb = static_cast<std::size_t>(csr.cell_off[l]);
      const auto ee = static_cast<std::size_t>(csr.cell_off[l + 1]);
      src_t.reserve(ee - eb);
      for (std::size_t k = eb; k < ee; ++k) {
        const int e = csr.cell_perm[k];
        const int u = topo.cell_src()[static_cast<std::size_t>(e)];
        const int v = topo.cell_dst()[static_cast<std::size_t>(e)];
        src_t.push_back(node_level[static_cast<std::size_t>(u)]);
        src_r.push_back(csr.node_row[static_cast<std::size_t>(u)]);
        dst_row.push_back(csr.node_row[static_cast<std::size_t>(v)]);
        feat_rows.push_back(e);
        emb_u_rows.push_back(u);
        emb_v_rows.push_back(v);
      }
      std::vector<int> dep = remap_to_dep_levels(src_t);
      plan.cell_feed[l] = PropPlan::CellFeed{
          std::move(dep), share(std::move(src_t)), share(std::move(src_r)),
          share(std::move(dst_row)), share(std::move(feat_rows)),
          share(std::move(emb_u_rows)), share(std::move(emb_v_rows))};
    }
  }
  return plan;
}

DelayProp::DelayProp(int embed_dim, const DelayPropConfig& config, Rng& rng)
    : config_(config),
      embed_dim_(embed_dim),
      entry_(embed_dim, config.hidden, config.mlp_hidden, config.mlp_layers,
             &rng, "prop.entry"),
      net_prop_(config.hidden + data::kNetEdgeFeatureDim + embed_dim,
                config.hidden, config.mlp_hidden, config.mlp_layers, &rng,
                "prop.net"),
      cell_prop_(config.hidden + data::kNumLutsPerArc + embed_dim,
                 config.hidden, config.mlp_hidden, config.mlp_layers, &rng,
                 "prop.cell"),
      combine_(3 * config.hidden + embed_dim, config.hidden, config.mlp_hidden,
               config.mlp_layers, &rng, "prop.combine"),
      lut_(config.hidden + 2 * embed_dim, config.lut, rng, "prop.lut"),
      cell_delay_head_(data::kNumLutsPerArc + config.hidden, kNumCorners,
                       config.mlp_hidden, config.mlp_layers, &rng,
                       "prop.cell_delay_head") {
  register_module("entry", entry_);
  register_module("net", net_prop_);
  register_module("cell", cell_prop_);
  register_module("combine", combine_);
  register_module("lut", lut_);
  register_module("cell_delay_head", cell_delay_head_);
}

DelayProp::Output DelayProp::forward(const data::DatasetGraph& g,
                                     const PropPlan& plan,
                                     const Tensor& embedding) const {
  TG_CHECK(embedding.rows() == g.num_nodes());
  TG_CHECK(embedding.cols() == embed_dim_);
  TG_CHECK(plan.num_levels == g.num_levels());

  std::vector<Tensor> level_states;
  level_states.reserve(static_cast<std::size_t>(plan.num_levels));
  std::vector<Tensor> cell_delay_parts;

  // Level 0: roots (primary inputs, FF clock pins).
  {
    Tensor emb0 = nn::gather_rows(embedding, plan.level_rows[0]);
    level_states.push_back(entry_.forward_relu(emb0));
  }

  // Every gather/scatter below runs off the plan's precomputed shared
  // index feeds — no per-step index vectors are built here.
  const CancelToken cancel = current_cancel_token();
  for (int l = 1; l < plan.num_levels; ++l) {
    cancel.throw_if_cancelled();  // level boundary = cancellation checkpoint
    const auto lu = static_cast<std::size_t>(l);
    const std::int64_t n_l =
        static_cast<std::int64_t>(plan.level_rows[lu]->size());

    Tensor emb_level = nn::gather_rows(embedding, plan.level_rows[lu]);

    // ---- net propagation: one incoming wire per net-sink node ----------
    const PropPlan::NetFeed& nf = plan.net_feed[lu];
    Tensor net_in;
    if (nf.src_t->empty()) {
      net_in = Tensor::zeros(n_l, config_.hidden);
    } else {
      Tensor state_u = nn::multi_gather(dep_states(level_states, nf.dep_levels),
                                        nf.src_t, nf.src_r);
      Tensor e_feat = nn::gather_rows(g.net_edge_feat, nf.feat_rows);
      Tensor emb_v = nn::gather_rows(embedding, nf.emb_v_rows);
      const Tensor np_in[] = {state_u, e_feat, emb_v};
      Tensor msg = net_prop_.forward(nn::concat_cols(np_in));
      net_in = nn::segment_sum(msg, nf.dst_row, n_l);
    }

    // ---- cell propagation: LUT-interpolated arc messages ---------------
    const PropPlan::CellFeed& cf = plan.cell_feed[lu];
    Tensor cell_sum, cell_max;
    if (cf.src_t->empty()) {
      cell_sum = Tensor::zeros(n_l, config_.hidden);
      cell_max = Tensor::zeros(n_l, config_.hidden);
    } else {
      Tensor state_u = nn::multi_gather(dep_states(level_states, cf.dep_levels),
                                        cf.src_t, cf.src_r);
      Tensor emb_u = nn::gather_rows(embedding, cf.emb_u_rows);
      Tensor emb_v = nn::gather_rows(embedding, cf.emb_v_rows);
      Tensor cell_feat =
          nn::gather_rows(g.lut_table->rows, lut_rows(g, *cf.feat_rows));

      const Tensor q_in[] = {state_u, emb_u, emb_v};
      Tensor interp = lut_.forward(nn::concat_cols(q_in), cell_feat);

      const Tensor cp_in[] = {state_u, interp, emb_v};
      Tensor msg = cell_prop_.forward(nn::concat_cols(cp_in));
      cell_sum = nn::segment_sum(msg, cf.dst_row, n_l);
      cell_max = nn::segment_max(msg, cf.dst_row, n_l);

      // Cell-delay auxiliary prediction for these arcs (plan order).
      const Tensor cd_in[] = {interp, state_u};
      cell_delay_parts.push_back(
          cell_delay_head_.forward(nn::concat_cols(cd_in)));
    }

    const Tensor comb_in[] = {net_in, cell_sum, cell_max, emb_level};
    level_states.push_back(combine_.forward_relu(nn::concat_cols(comb_in)));
  }

  // Assemble node-ordered state: node v is row node_row[v] of level
  // node_level[v].
  Output out;
  out.state = nn::multi_gather(
      level_states, data::share(g.topo, g.topo->node_level()),
      data::share(g.topo, g.topo->csr().node_row));
  if (cell_delay_parts.empty()) {
    out.cell_delay = Tensor::zeros(0, kNumCorners);
  } else {
    out.cell_delay = nn::concat_rows(cell_delay_parts);
  }
  return out;
}

std::int64_t DelayProp::propagate(const data::DatasetGraph& g,
                                 const Tensor& embedding, Tensor& state,
                                 std::vector<unsigned char>* dirty) const {
  TG_TRACE_SCOPE("gnn/delay_prop/fused", obs::kSpanDetail);
  TG_CHECK(state.rows() == g.num_nodes() && state.cols() == config_.hidden);
  TG_CHECK(dirty == nullptr ||
           dirty->size() == static_cast<std::size_t>(g.num_nodes()));
  const data::Topology& topo = *g.topo;
  const data::LevelCsr& csr = topo.csr();
  const std::vector<int>& node_row = csr.node_row;
  const std::vector<int>& net_src = topo.net_src();
  const std::vector<int>& net_dst = topo.net_dst();
  const std::vector<int>& cell_src = topo.cell_src();
  const std::vector<int>& cell_dst = topo.cell_dst();
  const data::NodeLists& fanout = topo.fanout();
  const std::int64_t hid = config_.hidden;
  const std::int64_t emb_w = embed_dim_;
  constexpr std::int64_t kNetW = data::kNetEdgeFeatureDim;
  constexpr std::int64_t kLuts = data::kNumLutsPerArc;
  const std::int64_t net_w = net_prop_.in_features();   // [state_u|e|emb_v]
  const std::int64_t query_w = hid + 2 * emb_w;         // [state_u|emb_u|emb_v]
  const std::int64_t cell_w = cell_prop_.in_features(); // [state_u|interp|emb_v]
  const std::int64_t comb_w = combine_.in_features();   // [Σnet|Σcell|max|emb_v]
  const auto n = [](std::int64_t k) { return static_cast<std::size_t>(k); };

  // Node-ordered output: each node's row is written once, by its level,
  // and read (as state_u) only by later levels, after the parallel_for
  // join that ends its level.
  float* st = state.data().data();
  // Cone walk only: per node, whether its recomputed row changed. Written
  // by the row's owner chunk, read after the level's join.
  std::vector<unsigned char> changed;
  if (dirty != nullptr) changed.assign(n(g.num_nodes()), 0);
  unsigned char* chg = dirty != nullptr ? changed.data() : nullptr;
  const float* emb = embedding.data().data();
  const float* net_feat = g.net_edge_feat.data().data();
  const float* table_rows = g.lut_table->rows.data().data();
  const int* cell_lut = g.cell_arc_lut.data();

  // Per-block scratch: edge MLP input rows, LUT interpolations, MLP
  // outputs and the MLPs' own scratch, sized for kBlock rows.
  const std::int64_t in_w = std::max({net_w, query_w, cell_w});
  const std::size_t mlp_w = std::max(
      {entry_.infer_scratch(kBlock), net_prop_.infer_scratch(kBlock),
       cell_prop_.infer_scratch(kBlock), combine_.infer_scratch(kBlock),
       lut_.infer_scratch(kBlock)});
  const std::size_t block_w = n(kBlock * (in_w + kLuts + hid)) + mlp_w;

  // Work of one row of level l for util/parallel's cost model, from the
  // level's mean fan-in: the row's MLP flops plus the floats it gathers and
  // writes. A net arc reads its input row; a cell arc its query row, its
  // cell MLP row and its arc's LUT table row.
  const std::int64_t net_flops = row_flops(net_prop_);
  const std::int64_t cell_flops = row_flops(lut_) + row_flops(cell_prop_);
  const std::int64_t net_floats = net_w + hid;
  const std::int64_t cell_floats =
      query_w + cell_w + data::kCellEdgeFeatureDim + hid;
  const auto level_row_work = [&](int l, std::int64_t n_l) {
    constexpr std::int64_t kF = sizeof(float);
    if (l == 0) return Work{row_flops(entry_), (emb_w + hid) * kF};
    const auto lu = static_cast<std::size_t>(l);
    const std::int64_t net_edges = csr.net_off[lu + 1] - csr.net_off[lu];
    const std::int64_t cell_edges = csr.cell_off[lu + 1] - csr.cell_off[lu];
    const std::int64_t rows = std::max<std::int64_t>(n_l, 1);
    return Work{row_flops(combine_) +
                    (net_edges * net_flops + cell_edges * cell_flops) / rows,
                (comb_w + hid +
                 (net_edges * net_floats + cell_edges * cell_floats) / rows) *
                    kF};
  };

  // Runs `rows` listed rows of level l (level-row indices, ascending).
  // Each maximal run of consecutive rows streams its in-edges, contiguous
  // in the CSR's perm order, through each MLP in blocks of up to kBlock;
  // every message is reduced into its destination's accumulators in that
  // order — the ascending-edge order of segment_sum / segment_max — so
  // every row matches the op chain bit for bit, whichever rows share its
  // list.
  // `row_at` is a RowRange in the full walk, so each chunk is one run.
  const auto run_rows = [&](int l, const auto row_at, std::int64_t rows) {
    // Level row r is packed node k0 + r: node nodes[r], whose in-edges are
    // the row_off slices at k0 + r.
    const int k0 = csr.node_off[static_cast<std::size_t>(l)];
    const int* nodes = csr.node_perm.data() + k0;
    const auto node_of = [&](std::int64_t p) { return nodes[row_at[p]]; };
    nn::alloc::Buffer scratch;
    scratch.resize_discard(n(rows * comb_w) + block_w);
    // node_in row p is listed row p's MLP input: the embedding at the
    // roots, else the combine input, whose first three blocks are the
    // reduction accumulators.
    float* node_in = scratch.data();
    float* in = node_in + rows * comb_w;
    float* lut = in + kBlock * in_w;
    float* msg = lut + kBlock * kLuts;
    float* mlp = msg + kBlock * hid;

    // Runs `net` (relu) over the node input rows in blocks and writes each
    // result to its node's state row.
    const auto node_pass = [&](const nn::Mlp& net, std::int64_t x_w) {
      for (std::int64_t b0 = 0; b0 < rows; b0 += kBlock) {
        const std::int64_t nb = std::min(kBlock, rows - b0);
        net.infer_rows(node_in + b0 * x_w, nb, msg, mlp, /*relu=*/true);
        for (std::int64_t k = 0; k < nb; ++k) {
          const int v = node_of(b0 + k);
          float* row = st + v * hid;
          if (chg != nullptr) {
            chg[v] = std::memcmp(row, msg + k * hid,
                                 n(hid) * sizeof(float)) != 0;
          }
          std::copy_n(msg + k * hid, hid, row);
        }
      }
    };

    if (l == 0) {  // roots: entry MLP on the embedding
      for (std::int64_t p = 0; p < rows; ++p) {
        std::copy_n(emb + node_of(p) * emb_w, emb_w, node_in + p * emb_w);
      }
      node_pass(entry_, emb_w);
      return;
    }

    float* comb = node_in;
    for (std::int64_t p = 0; p < rows; ++p) {
      float* c = comb + p * comb_w;
      std::fill_n(c, 3 * hid, 0.0f);
      std::copy_n(emb + node_of(p) * emb_w, emb_w, c + 3 * hid);
    }

    // Calls flush(i0, nb, base) for each block of up to kBlock edges of a
    // run of consecutive listed rows: perm entries [i0, i0 + nb), whose
    // destination level row r sits at list position r + base.
    const auto for_edge_blocks = [&](const std::vector<int>& row_off,
                                     const auto& flush) {
      const int* off = row_off.data() + k0;
      for (std::int64_t p0 = 0; p0 < rows;) {
        std::int64_t p1 = p0 + 1;
        while (p1 < rows && row_at[p1] == row_at[p1 - 1] + 1) ++p1;
        const int end = off[row_at[p1 - 1] + 1];
        const std::int64_t base = p0 - row_at[p0];
        for (int i0 = off[row_at[p0]]; i0 < end; i0 += kBlock) {
          flush(i0, std::min<std::int64_t>(kBlock, end - i0), base);
        }
        p0 = p1;
      }
    };

    const int* net_perm = csr.net_perm.data();
    for_edge_blocks(csr.net_row_off, [&](int i0, std::int64_t nb,
                                         std::int64_t base) {
      const auto dst = [&](std::int64_t k) {
        return net_dst[n(net_perm[i0 + k])];
      };
      for (std::int64_t k = 0; k < nb; ++k) {
        const int e = net_perm[i0 + k];
        float* x = in + k * net_w;
        std::copy_n(st + net_src[n(e)] * hid, hid, x);
        std::copy_n(net_feat + e * kNetW, kNetW, x + hid);
        std::copy_n(emb + dst(k) * emb_w, emb_w, x + hid + kNetW);
      }
      net_prop_.infer_rows(in, nb, msg, mlp);
      for (std::int64_t k = 0; k < nb; ++k) {
        nn::kern::add_acc(comb + (node_row[n(dst(k))] + base) * comb_w,
                          msg + k * hid, n(hid));
      }
    });

    const int* cell_perm = csr.cell_perm.data();
    const int* cell_first = csr.cell_row_off.data() + k0;
    for_edge_blocks(csr.cell_row_off, [&](int i0, std::int64_t nb,
                                          std::int64_t base) {
      const auto src = [&](std::int64_t k) {
        return cell_src[n(cell_perm[i0 + k])];
      };
      const auto dst = [&](std::int64_t k) {
        return cell_dst[n(cell_perm[i0 + k])];
      };
      const auto emb_v = [&](std::int64_t k) { return emb + dst(k) * emb_w; };
      for (std::int64_t k = 0; k < nb; ++k) {
        float* x = in + k * query_w;
        std::copy_n(st + src(k) * hid, hid, x);
        std::copy_n(emb + src(k) * emb_w, emb_w, x + hid);
        std::copy_n(emb_v(k), emb_w, x + hid + emb_w);
      }
      lut_.infer_rows(in, nb, table_rows, cell_lut, cell_perm + i0, lut, mlp);
      for (std::int64_t k = 0; k < nb; ++k) {
        float* x = in + k * cell_w;
        std::copy_n(st + src(k) * hid, hid, x);
        std::copy_n(lut + k * kLuts, kLuts, x + hid);
        std::copy_n(emb_v(k), emb_w, x + hid + kLuts);
      }
      cell_prop_.infer_rows(in, nb, msg, mlp);
      for (std::int64_t k = 0; k < nb; ++k) {
        const int r = node_row[n(dst(k))];
        float* c = comb + (r + base) * comb_w;
        const float* m = msg + k * hid;
        nn::kern::add_acc(c + hid, m, n(hid));
        // segment_max: a row's first edge wins outright, later edges only
        // when strictly greater; edge-free rows keep the zero fill.
        float* mx = c + 2 * hid;
        if (i0 + k == cell_first[r]) {
          std::copy_n(m, hid, mx);
        } else {
          for (std::int64_t j = 0; j < hid; ++j) {
            mx[j] = m[j] > mx[j] ? m[j] : mx[j];
          }
        }
      }
    });

    node_pass(combine_, comb_w);
  };

  const CancelToken cancel = current_cancel_token();
  std::int64_t rows_run = 0;
  std::vector<int> dirty_rows;  // the cone walk's rows of one level
  for (int l = 0; l < g.num_levels(); ++l) {
    // Level boundary = cancellation checkpoint, as in the taped walk.
    if (l > 0) cancel.throw_if_cancelled();
    const auto lu = static_cast<std::size_t>(l);
    const int* nodes = csr.node_perm.data() + csr.node_off[lu];
    const std::int64_t n_l = csr.node_off[lu + 1] - csr.node_off[lu];
    std::int64_t count = n_l;
    if (dirty != nullptr) {
      dirty_rows.clear();
      for (std::int64_t r = 0; r < n_l; ++r) {
        if ((*dirty)[n(nodes[n(r)])] != 0) {
          dirty_rows.push_back(static_cast<int>(r));
        }
      }
      count = static_cast<std::int64_t>(dirty_rows.size());
      if (count == 0) continue;
    }
    const Work row_work = level_row_work(l, n_l);
    parallel_for(0, count, row_work, [&](std::int64_t b, std::int64_t e) {
      if (dirty == nullptr) {
        run_rows(l, RowRange{b}, e - b);
      } else {
        run_rows(l, dirty_rows.data() + b, e - b);
      }
    });
    rows_run += count;
    if (dirty == nullptr) continue;
    // A row whose state did not move leaves its fanout clean.
    for (std::int64_t p = 0; p < count; ++p) {
      const int v = nodes[n(dirty_rows[p])];
      if (chg[v] == 0) continue;
      for (int k = fanout.off[n(v)]; k < fanout.off[n(v) + 1]; ++k) {
        (*dirty)[n(fanout.ids[n(k)])] = 1;
      }
    }
  }
  return rows_run;
}

}  // namespace tg::core
