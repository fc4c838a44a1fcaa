#include "data/extract.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/check.hpp"
#include "util/obs/trace.hpp"

namespace tg::data {

namespace {

nn::Tensor per_corner_tensor(const std::vector<PerCorner>& values,
                             float scale) {
  std::vector<float> flat;
  flat.reserve(values.size() * kNumCorners);
  for (const PerCorner& v : values) {
    for (int c = 0; c < kNumCorners; ++c) {
      flat.push_back(static_cast<float>(v[c]) * scale);
    }
  }
  return nn::Tensor::from_vector(std::move(flat),
                                 static_cast<std::int64_t>(values.size()),
                                 kNumCorners);
}

/// Rewrites `width` floats at `row` through `write` and reports whether
/// any byte changed.
template <typename Write>
bool rewrite_row(float* row, std::size_t width, Write&& write) {
  float fresh[kNodeFeatureDim];
  TG_DCHECK(width <= static_cast<std::size_t>(kNodeFeatureDim));
  write(fresh);
  if (std::memcmp(fresh, row, width * sizeof(float)) == 0) return false;
  std::memcpy(row, fresh, width * sizeof(float));
  return true;
}

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

void write_node_features(const Design& design, PinId p, float* row) {
  const Pin& pin = design.pin(p);
  const BBox& die = design.die();
  row[0] = pin.is_port ? 1.0f : 0.0f;
  row[1] = pin.drives_net ? 1.0f : 0.0f;
  row[2] = static_cast<float>(pin.pos.x - die.xmin) * kDistScale;
  row[3] = static_cast<float>(die.xmax - pin.pos.x) * kDistScale;
  row[4] = static_cast<float>(pin.pos.y - die.ymin) * kDistScale;
  row[5] = static_cast<float>(die.ymax - pin.pos.y) * kDistScale;
  for (int c = 0; c < kNumCorners; ++c) {
    row[6 + c] = static_cast<float>(design.pin_cap(p, c)) * kCapScale;
  }
}

void write_cell_edge_features(const TimingArc& arc, float* row) {
  // LUT order: delay[c0..c3], out_slew[c0..c3].
  const NldmLut* luts[kNumLutsPerArc];
  for (int c = 0; c < kNumCorners; ++c) {
    luts[c] = &arc.delay[c];
    luts[kNumCorners + c] = &arc.out_slew[c];
  }
  float* out = row;
  for (int l = 0; l < kNumLutsPerArc; ++l) *out++ = 1.0f;  // valid
  for (int l = 0; l < kNumLutsPerArc; ++l) {
    for (double v : luts[l]->slew_axis()) {
      *out++ = static_cast<float>(v) * kSlewAxisScale;
    }
    for (double v : luts[l]->load_axis()) {
      *out++ = static_cast<float>(v) * kLoadAxisScale;
    }
  }
  for (int l = 0; l < kNumLutsPerArc; ++l) {
    for (double v : luts[l]->values()) *out++ = static_cast<float>(v);
  }
  TG_DCHECK(out == row + kCellEdgeFeatureDim);
}

void write_rat(const PerCorner& rat, float* row) {
  for (int c = 0; c < kNumCorners; ++c) {
    row[c] = static_cast<float>(rat[c]) * kArrivalScale;
  }
}

std::shared_ptr<const LutTable> build_lut_table(const Library& lib) {
  auto table = std::make_shared<LutTable>();
  table->cell_base.assign(1, 0);
  for (const CellType& cell : lib.cells()) {
    table->cell_base.push_back(table->cell_base.back() +
                               static_cast<int>(cell.arcs.size()));
  }
  // Every arc's row, then each distinct row once in first-appearance
  // order; the byte-order key makes "equal" mean bitwise equal.
  constexpr auto kW = static_cast<std::size_t>(kCellEdgeFeatureDim);
  std::vector<float> all(static_cast<std::size_t>(table->cell_base.back()) *
                         kW);
  std::size_t id = 0;
  for (const CellType& cell : lib.cells()) {
    for (const TimingArc& arc : cell.arcs) {
      write_cell_edge_features(arc, all.data() + id++ * kW);
    }
  }
  const auto bytes_less = [](const float* a, const float* b) {
    return std::memcmp(a, b, kW * sizeof(float)) < 0;
  };
  std::map<const float*, int, decltype(bytes_less)> row_of(bytes_less);
  std::vector<float> rows;
  table->arc_row.reserve(id);
  for (std::size_t a = 0; a < id; ++a) {
    const float* row = all.data() + a * kW;
    const auto [it, fresh] =
        row_of.emplace(row, static_cast<int>(row_of.size()));
    if (fresh) rows.insert(rows.end(), row, row + kW);
    table->arc_row.push_back(it->second);
  }
  table->rows = nn::Tensor::from_vector(
      std::move(rows), static_cast<std::int64_t>(row_of.size()),
      kCellEdgeFeatureDim);
  return table;
}

void write_clock_rows(DatasetGraph& g, const StaResult& sta, double period) {
  g.clock_period = period;
  // RAT is ±inf away from constrained pins; store raw values at
  // endpoints and 0 elsewhere (the models only read endpoint rows).
  // Same unit as arrival so predicted slack = RAT − AT works directly.
  std::vector<float> rat(static_cast<std::size_t>(g.num_nodes()) *
                             kNumCorners,
                         0.0f);
  for (int p : g.endpoints) {
    write_rat(sta.rat[static_cast<std::size_t>(p)],
              rat.data() + static_cast<std::size_t>(p) * kNumCorners);
  }
  g.rat = nn::Tensor::from_vector(std::move(rat), g.num_nodes(), kNumCorners);
  g.endpoint_setup_slack.clear();
  g.endpoint_hold_slack.clear();
  for (int p : g.endpoints) {
    g.endpoint_setup_slack.push_back(endpoint_setup_slack(sta, p));
    g.endpoint_hold_slack.push_back(endpoint_hold_slack(sta, p));
  }
}

DatasetGraph extract_graph(const Design& design, const TimingGraph& graph,
                           const DesignRouting& truth, const StaResult& sta) {
  TG_TRACE_SCOPE("data/extract", obs::kSpanCoarse);
  DatasetGraph g;
  g.name = design.name();
  Topology::Arrays topo;
  topo.num_nodes = design.num_pins();
  topo.num_levels = graph.num_levels();
  g.stats = design.stats();

  // ---- node features (Table 2) ----------------------------------------
  {
    std::vector<float> feat(static_cast<std::size_t>(topo.num_nodes) *
                            kNodeFeatureDim);
    for (PinId p = 0; p < design.num_pins(); ++p) {
      write_node_features(design, p,
                          feat.data() + static_cast<std::size_t>(p) *
                                            kNodeFeatureDim);
    }
    g.node_feat = nn::Tensor::from_vector(std::move(feat), topo.num_nodes,
                                          kNodeFeatureDim);
  }

  // ---- net edges -------------------------------------------------------
  {
    const auto& arcs = graph.net_arcs();
    std::vector<float> feat;
    feat.reserve(arcs.size() * kNetEdgeFeatureDim);
    topo.net_src.reserve(arcs.size());
    topo.net_dst.reserve(arcs.size());
    for (const NetArc& a : arcs) {
      topo.net_src.push_back(a.from);
      topo.net_dst.push_back(a.to);
      const Point& dp = design.pin(a.from).pos;
      const Point& sp = design.pin(a.to).pos;
      feat.push_back(static_cast<float>(std::abs(sp.x - dp.x)) * kDistScale);
      feat.push_back(static_cast<float>(std::abs(sp.y - dp.y)) * kDistScale);
    }
    g.net_edge_feat = nn::Tensor::from_vector(
        std::move(feat), static_cast<std::int64_t>(arcs.size()),
        kNetEdgeFeatureDim);
  }

  // ---- cell edges (Table 3 rows, by index into the library's table) ----
  {
    const auto& arcs = graph.cell_arcs();
    g.lut_table = build_lut_table(design.library());
    topo.cell_src.reserve(arcs.size());
    topo.cell_dst.reserve(arcs.size());
    g.cell_arc_lut.reserve(arcs.size());
    for (const CellArc& arc : arcs) {
      topo.cell_src.push_back(arc.from);
      topo.cell_dst.push_back(arc.to);
      g.cell_arc_lut.push_back(g.lut_table->row_of(
          design.instance(arc.inst).cell_id, arc.arc_index));
    }
  }

  // ---- levels and endpoints --------------------------------------------
  topo.node_level.resize(static_cast<std::size_t>(topo.num_nodes));
  for (PinId p = 0; p < design.num_pins(); ++p) {
    topo.node_level[static_cast<std::size_t>(p)] = graph.level(p);
    if (design.is_endpoint(p)) g.endpoints.push_back(p);
  }
  g.topo = std::make_shared<const Topology>(std::move(topo), g.name);

  // ---- labels ------------------------------------------------------------
  g.net_delay = per_corner_tensor(sta.net_delay, kNetDelayScale);
  g.arrival = per_corner_tensor(sta.arrival, kArrivalScale);
  g.slew = per_corner_tensor(sta.slew, kSlewLabelScale);
  g.cell_delay = per_corner_tensor(sta.cell_arc_delay, kCellDelayScale);
  write_clock_rows(g, sta, design.clock_period());
  g.route_seconds = truth.route_seconds;
  g.sta_seconds = sta.sta_seconds;
  return g;
}

GraphDelta patch_instances(DatasetGraph& g, const TimingGraph& graph,
                           std::span<const InstId> insts) {
  TG_TRACE_SCOPE("data/patch", obs::kSpanDetail);
  const Design& design = graph.design();
  TG_CHECK(g.num_nodes() == design.num_pins());
  TG_CHECK(g.cell_arc_lut.size() == graph.cell_arcs().size());
  const LutTable& table = *g.lut_table;
  TG_CHECK(table.cell_base.size() ==
           static_cast<std::size_t>(design.library().num_cells()) + 1);
  float* node_feat = g.node_feat.data().data();
  float* rat = g.rat.data().data();
  const StaOptions sta_defaults;

  GraphDelta delta;
  for (const InstId inst : insts) {
    for (const PinId p : design.instance(inst).pins) {
      const auto pu = static_cast<std::size_t>(p);
      if (rewrite_row(node_feat + pu * kNodeFeatureDim, kNodeFeatureDim,
                      [&](float* row) {
                        write_node_features(design, p, row);
                      })) {
        delta.pins.push_back(p);
      }
      if (design.is_endpoint(p) &&
          rewrite_row(rat + pu * kNumCorners, kNumCorners, [&](float* row) {
            write_rat(endpoint_required(design, p, sta_defaults,
                                        design.clock_period()),
                      row);
          })) {
        delta.endpoints.push_back(p);
      }
      // Every cell arc of the instance leaves one of its input pins. Equal
      // rows share one index, so a changed index is a changed row.
      for (const int a : graph.out_cell_arcs(p)) {
        const CellArc& arc = graph.cell_arcs()[static_cast<std::size_t>(a)];
        const int row = table.row_of(design.instance(inst).cell_id,
                                     arc.arc_index);
        int& lut = g.cell_arc_lut[static_cast<std::size_t>(a)];
        if (lut != row) {
          lut = row;
          delta.cell_edges.push_back(a);
        }
      }
    }
  }
  sort_unique(delta.pins);
  sort_unique(delta.cell_edges);
  sort_unique(delta.endpoints);
  return delta;
}

}  // namespace tg::data
