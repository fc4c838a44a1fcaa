#pragma once
/// \file pipeline.hpp
/// The path from a raw design to served slack through the repository's
/// public calls, run outside the server: the stages of the serving plane's
/// template build (serve/session.cpp), in its order, each timed. The oracle
/// builds its reference answers with it, and the traced run reads its
/// stage times.

#include <memory>
#include <string>
#include <vector>

#include "core/timing_gnn.hpp"
#include "data/extract.hpp"
#include "liberty/library.hpp"
#include "sta/incremental.hpp"
#include "streams.hpp"
#include "util/timer.hpp"

namespace perfbench {

/// Scale of the predict_mix, eco_stream and train designs.
inline constexpr double kSmallScale = 1.0 / 32;
/// Scale of the cold_design ladder.
inline constexpr double kLadderScale = 1.0 / 16;

/// Wall time of one call of `fn`, in ms.
template <typename Fn>
double time_ms(Fn&& fn) {
  const tg::WallTimer timer;
  fn();
  return timer.millis();
}

/// The synthetic cell library, built once with the serving plane's config.
[[nodiscard]] const tg::Library& library();

/// The serving plane's model config: hidden width 8, seed 1 (as
/// model_config in serve/server.cpp builds it).
[[nodiscard]] tg::core::TimingGnnConfig serve_model_config();

/// Wall time of each pipeline stage, in ms.
struct StageMs {
  double generate = 0.0;
  double place = 0.0;
  double steiner = 0.0;
  double graph_build = 0.0;
  double sta = 0.0;  ///< one full STA under the calibrated clock
  double extract = 0.0;
  double plan = 0.0;
};

/// One design taken through the pipeline. The heap members keep their
/// addresses: the timing graph points at the design, and an incremental
/// timer at the routing.
struct BuiltDesign {
  std::unique_ptr<tg::Design> design;
  std::unique_ptr<tg::DesignRouting> routing;
  std::unique_ptr<tg::TimingGraph> graph;
  tg::StaResult sta;
  tg::data::DatasetGraph g;
  tg::core::PropPlan plan;
  StageMs ms;
};

/// Generates, places, Steiner-routes, times and extracts `name` at `scale`
/// with the clock calibrated to `clock_factor` (0 = the suite's default):
/// the template a server builds for the same triple.
[[nodiscard]] BuiltDesign build_design(const std::string& name, double scale,
                                       double clock_factor);

/// Endpoint setup slacks, in g.endpoints order, from the training forward
/// TimingGnn::forward: the reference a served GNN answer must match.
[[nodiscard]] std::vector<double> reference_slacks(
    const tg::core::TimingGnn& model, const tg::data::DatasetGraph& g,
    const tg::core::PropPlan& plan);

/// Every combinational instance of `design` whose function comes in at
/// least two drive strengths.
[[nodiscard]] std::vector<ResizeChoice> resize_choices(
    const tg::Design& design);

/// Applies one resize the way Session::apply_moves does: swaps the cell,
/// re-extracts the parasitics of the nets it loads, and invalidates every
/// touched net on `timer`. Does not re-time.
void apply_resize(tg::Design& design, tg::DesignRouting& routing,
                  tg::IncrementalTimer& timer, int inst, int new_cell);

}  // namespace perfbench
