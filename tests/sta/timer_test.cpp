#include "sta/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "testing/builders.hpp"
#include "testing/sta_bits.hpp"

namespace tg {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  Library lib_ = build_library();

  static DesignRouting steiner_route(const Design& d) {
    RoutingOptions opts;
    opts.mode = RouteMode::kSteiner;
    return route_design(d, opts);
  }
};

TEST_F(TimerTest, RootsStartAtZero) {
  Design d("t", &lib_);
  const auto s = testing::build_seq_chain(d, lib_);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  for (int c = 0; c < kNumCorners; ++c) {
    EXPECT_DOUBLE_EQ(sta.arrival[static_cast<std::size_t>(s.comb.in0)][c], 0.0);
    EXPECT_DOUBLE_EQ(sta.arrival[static_cast<std::size_t>(s.ff_ck)][c], 0.0);
  }
}

TEST_F(TimerTest, ArrivalMatchesHandComputedChain) {
  Design d("t", &lib_);
  const auto c = testing::build_comb_chain(d, lib_);
  const DesignRouting routing = steiner_route(d);
  const TimingGraph g(d);
  StaOptions opts;
  const StaResult sta = run_sta(g, routing, opts);

  const Instance& nand = d.instance(c.nand_inst);
  const Instance& inv = d.instance(c.inv_inst);
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  const int lf = corner_index(Mode::kLate, Trans::kFall);

  // Stage 1: net arc in0 -> nand/A.
  const NetParasitics& p_in0 = routing.nets[static_cast<std::size_t>(c.n_in0)];
  const double at_a = p_in0.sink_delay[0][lr];
  EXPECT_NEAR(sta.arrival[static_cast<std::size_t>(nand.pins[0])][lr], at_a, 1e-12);
  const double slew_a = std::sqrt(opts.input_slew_ns * opts.input_slew_ns +
                                  p_in0.sink_slew_impulse[0][lr] *
                                      p_in0.sink_slew_impulse[0][lr]);
  EXPECT_NEAR(sta.slew[static_cast<std::size_t>(nand.pins[0])][lr], slew_a, 1e-12);

  // Stage 2: NAND output (negative unate): rise output comes from fall
  // inputs. Both inputs are symmetric here; verify against a direct LUT
  // evaluation of both arcs, taking the max.
  const NetParasitics& p_mid = routing.nets[static_cast<std::size_t>(c.n_mid)];
  const CellType& nand_cell = lib_.cell(nand.cell_id);
  double expect_at = -1e9;
  for (int arc_i = 0; arc_i < 2; ++arc_i) {
    const TimingArc& arc = nand_cell.arcs[static_cast<std::size_t>(arc_i)];
    const PinId in_pin = nand.pins[static_cast<std::size_t>(arc.from_pin)];
    const double in_slew = sta.slew[static_cast<std::size_t>(in_pin)][lf];
    const double in_at = sta.arrival[static_cast<std::size_t>(in_pin)][lf];
    const double delay = arc.delay[lr].lookup(in_slew, p_mid.load[lr]);
    expect_at = std::max(expect_at, in_at + delay);
  }
  EXPECT_NEAR(sta.arrival[static_cast<std::size_t>(nand.pins[2])][lr], expect_at,
              1e-12);

  // Output arrives strictly later at each downstream stage.
  EXPECT_GT(sta.arrival[static_cast<std::size_t>(inv.pins[1])][lr],
            sta.arrival[static_cast<std::size_t>(nand.pins[2])][lr]);
  EXPECT_GT(sta.arrival[static_cast<std::size_t>(c.out)][lr],
            sta.arrival[static_cast<std::size_t>(inv.pins[1])][lr]);
}

TEST_F(TimerTest, EarlyNeverExceedsLate) {
  Design d = generate_design(suite_entry("spm", 1.0 / 32).spec, lib_);
  place_design(d);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  for (PinId p = 0; p < d.num_pins(); ++p) {
    for (int t = 0; t < kNumTrans; ++t) {
      const int e = corner_index(Mode::kEarly, static_cast<Trans>(t));
      const int l = corner_index(Mode::kLate, static_cast<Trans>(t));
      EXPECT_LE(sta.arrival[static_cast<std::size_t>(p)][e],
                sta.arrival[static_cast<std::size_t>(p)][l] + 1e-9)
          << d.pin_name(p);
    }
  }
}

TEST_F(TimerTest, ArrivalsFiniteAndNonNegative) {
  Design d = generate_design(suite_entry("usb", 1.0 / 32).spec, lib_);
  place_design(d);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  for (PinId p = 0; p < d.num_pins(); ++p) {
    for (int c = 0; c < kNumCorners; ++c) {
      EXPECT_TRUE(std::isfinite(sta.arrival[static_cast<std::size_t>(p)][c]));
      EXPECT_GE(sta.arrival[static_cast<std::size_t>(p)][c], 0.0);
      EXPECT_GT(sta.slew[static_cast<std::size_t>(p)][c], 0.0);
    }
  }
}

TEST_F(TimerTest, SetupSlackMatchesDefinition) {
  Design d("t", &lib_);
  const auto s = testing::build_seq_chain(d, lib_);
  d.set_period(5.0);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  const CellType& dff = lib_.cell(d.instance(s.ff).cell_id);
  for (int t = 0; t < kNumTrans; ++t) {
    const int c = corner_index(Mode::kLate, static_cast<Trans>(t));
    const double expected_rat = 5.0 - dff.setup[c];
    EXPECT_NEAR(sta.rat[static_cast<std::size_t>(s.ff_d)][c], expected_rat, 1e-12);
    EXPECT_NEAR(sta.slack[static_cast<std::size_t>(s.ff_d)][c],
                expected_rat - sta.arrival[static_cast<std::size_t>(s.ff_d)][c],
                1e-12);
  }
}

TEST_F(TimerTest, HoldSlackMatchesDefinition) {
  Design d("t", &lib_);
  const auto s = testing::build_seq_chain(d, lib_);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  const CellType& dff = lib_.cell(d.instance(s.ff).cell_id);
  for (int t = 0; t < kNumTrans; ++t) {
    const int c = corner_index(Mode::kEarly, static_cast<Trans>(t));
    EXPECT_NEAR(sta.rat[static_cast<std::size_t>(s.ff_d)][c], dff.hold[c], 1e-12);
    EXPECT_NEAR(sta.slack[static_cast<std::size_t>(s.ff_d)][c],
                sta.arrival[static_cast<std::size_t>(s.ff_d)][c] - dff.hold[c],
                1e-12);
  }
}

TEST_F(TimerTest, LongerPeriodMoreSetupSlack) {
  Design d("t", &lib_);
  testing::build_seq_chain(d, lib_);
  const DesignRouting routing = steiner_route(d);
  const TimingGraph g(d);
  d.set_period(2.0);
  const StaResult fast = run_sta(g, routing);
  d.set_period(4.0);
  const StaResult slow = run_sta(g, routing);
  EXPECT_NEAR(slow.wns_setup - fast.wns_setup, 2.0, 1e-9);
  // Hold slack is period-independent.
  EXPECT_NEAR(slow.wns_hold, fast.wns_hold, 1e-12);
}

TEST_F(TimerTest, WnsTnsConsistent) {
  Design d = generate_design(suite_entry("zipdiv", 1.0 / 32).spec, lib_);
  place_design(d);
  const DesignRouting routing = steiner_route(d);
  const TimingGraph g(d);
  StaResult sta = run_sta(g, routing);
  d.set_period(calibrated_period(d, sta.arrival, 1.05));
  sta = run_sta(g, routing);
  // Calibration (factor > 1) should leave setup WNS positive.
  EXPECT_GT(sta.wns_setup, 0.0);
  EXPECT_DOUBLE_EQ(sta.tns_setup, 0.0);
  // Shrink the period below critical: WNS goes negative, TNS accumulates.
  d.set_period(calibrated_period(d, sta.arrival, 0.8));
  sta = run_sta(g, routing);
  EXPECT_LT(sta.wns_setup, 0.0);
  EXPECT_LT(sta.tns_setup, sta.wns_setup - 1e-12);  // TNS ≤ WNS < 0
}

TEST_F(TimerTest, NetDelayLabelsMatchParasitics) {
  Design d("t", &lib_);
  const auto c = testing::build_comb_chain(d, lib_);
  const DesignRouting routing = steiner_route(d);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, routing);
  const Net& mid = d.net(c.n_mid);
  const NetParasitics& para = routing.nets[static_cast<std::size_t>(c.n_mid)];
  for (int corner = 0; corner < kNumCorners; ++corner) {
    EXPECT_NEAR(sta.net_delay[static_cast<std::size_t>(mid.sinks[0])][corner],
                para.sink_delay[0][corner], 1e-12);
  }
}

TEST_F(TimerTest, CellArcDelaysPositive) {
  Design d = generate_design(suite_entry("spm", 1.0 / 32).spec, lib_);
  place_design(d);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  for (const PerCorner& delay : sta.cell_arc_delay) {
    for (int c = 0; c < kNumCorners; ++c) {
      EXPECT_GT(delay[c], 0.0);
    }
  }
}

TEST_F(TimerTest, RatDecreasesBackwardAlongSetupPath) {
  Design d("t", &lib_);
  const auto c = testing::build_comb_chain(d, lib_);
  d.set_period(3.0);
  const TimingGraph g(d);
  const StaResult sta = run_sta(g, steiner_route(d));
  const Instance& nand = d.instance(c.nand_inst);
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  // RAT at the driver must be no later than RAT at the sink minus delay,
  // i.e. strictly smaller along the chain.
  EXPECT_LT(sta.rat[static_cast<std::size_t>(nand.pins[2])][lr],
            sta.rat[static_cast<std::size_t>(c.out)][lr]);
}

TEST_F(TimerTest, MazeAndSteinerGiveDifferentButCorrelatedTiming) {
  Design d = generate_design(suite_entry("usb", 1.0 / 32).spec, lib_);
  place_design(d);
  RoutingOptions maze_opts;
  maze_opts.mode = RouteMode::kMaze;
  const DesignRouting maze = route_design(d, maze_opts);
  const DesignRouting steiner = steiner_route(d);
  const TimingGraph g(d);
  const StaResult sta_m = run_sta(g, maze);
  const StaResult sta_s = run_sta(g, steiner);
  const int lr = corner_index(Mode::kLate, Trans::kRise);
  double diff = 0.0, total_m = 0.0;
  for (PinId p = 0; p < d.num_pins(); ++p) {
    diff += std::abs(sta_m.arrival[static_cast<std::size_t>(p)][lr] -
                     sta_s.arrival[static_cast<std::size_t>(p)][lr]);
    total_m += sta_m.arrival[static_cast<std::size_t>(p)][lr];
  }
  EXPECT_GT(diff, 0.0);              // routing matters
  EXPECT_LT(diff, 0.5 * total_m);    // but not unrecognizably
}

/// The clock period reaches only the endpoints' required times, so a
/// template build times once: run_sta, calibrate the period from its
/// arrivals, then re-run only the backward sweep. That must leave every
/// field a second full run_sta under the new period gives, bit for bit.
TEST_F(TimerTest, RequiredSweepUnderNewPeriodMatchesFreshRun) {
  for (const char* name : {"spm", "picorv32a", "aes256"}) {
    SCOPED_TRACE(name);
    const SuiteEntry entry = suite_entry(name, 1.0 / 16);
    Design d = generate_design(entry.spec, lib_);
    place_design(d);
    const DesignRouting routing = steiner_route(d);
    const TimingGraph g(d);
    StaResult swept = run_sta(g, routing);
    const double before = d.clock_period();
    d.set_period(calibrated_period(d, swept.arrival, 0.9));
    ASSERT_NE(d.clock_period(), before);
    sta_detail::compute_required(g, StaOptions{}, swept);
    EXPECT_EQ(testing::sta_bit_mismatch(swept, run_sta(g, routing)), "");
  }
}

}  // namespace
}  // namespace tg
