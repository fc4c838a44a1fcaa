#include "sta/incremental.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/suite.hpp"
#include "liberty/library_builder.hpp"
#include "place/placer.hpp"
#include "testing/builders.hpp"
#include "util/check.hpp"

namespace tg {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  Library lib_ = build_library();

  struct Prepared {
    std::unique_ptr<Design> design;
    std::unique_ptr<TimingGraph> graph;
    DesignRouting routing;
  };

  Prepared prepare(const char* name, double scale = 1.0 / 32) {
    Prepared p;
    p.design = std::make_unique<Design>(
        generate_design(suite_entry(name, scale).spec, lib_));
    place_design(*p.design);
    RoutingOptions opts;
    opts.mode = RouteMode::kSteiner;
    p.routing = route_design(*p.design, opts);
    p.graph = std::make_unique<TimingGraph>(*p.design);
    return p;
  }

  /// Scales one net's delays/load (simulating a re-route or ECO).
  static void perturb_net(DesignRouting& routing, NetId net, double factor) {
    NetParasitics& para = routing.nets[static_cast<std::size_t>(net)];
    for (auto& d : para.sink_delay) {
      for (double& v : d) v *= factor;
    }
    for (auto& d : para.sink_slew_impulse) {
      for (double& v : d) v *= factor;
    }
    for (double& v : para.load) v *= factor;
  }

  /// First data net with at least one sink that has fanout beyond it.
  static NetId pick_net(const Design& d) {
    for (NetId n = 0; n < d.num_nets(); ++n) {
      if (!d.net(n).is_clock && d.net(n).sinks.size() >= 1) return n;
    }
    return 0;
  }

  static void expect_results_equal(const StaResult& a, const StaResult& b,
                                   double tol = 1e-9) {
    ASSERT_EQ(a.arrival.size(), b.arrival.size());
    for (std::size_t p = 0; p < a.arrival.size(); ++p) {
      for (int c = 0; c < kNumCorners; ++c) {
        EXPECT_NEAR(a.arrival[p][c], b.arrival[p][c], tol) << "pin " << p;
        EXPECT_NEAR(a.slew[p][c], b.slew[p][c], tol) << "pin " << p;
        // Unconstrained pins carry infinite slack in both results.
        if (std::isinf(a.slack[p][c]) || std::isinf(b.slack[p][c])) {
          EXPECT_EQ(a.slack[p][c], b.slack[p][c]) << "pin " << p;
        } else {
          EXPECT_NEAR(a.slack[p][c], b.slack[p][c], tol) << "pin " << p;
        }
      }
    }
    EXPECT_NEAR(a.wns_setup, b.wns_setup, tol);
    EXPECT_NEAR(a.tns_setup, b.tns_setup, tol);
  }
};

TEST_F(IncrementalTest, NoChangeNoWork) {
  auto p = prepare("spm");
  IncrementalTimer inc(*p.graph, &p.routing);
  EXPECT_EQ(inc.update(), 0);
  EXPECT_EQ(inc.last_update_cone(), 0);
}

TEST_F(IncrementalTest, MatchesFullRecomputeAfterOneNetChange) {
  auto p = prepare("spm");
  IncrementalTimer inc(*p.graph, &p.routing);
  const NetId net = pick_net(*p.design);

  perturb_net(p.routing, net, 3.0);
  inc.invalidate_net(net);
  const int changed = inc.update();
  EXPECT_GT(changed, 0);

  const StaResult full = run_sta(*p.graph, p.routing);
  expect_results_equal(full, inc.result());
}

TEST_F(IncrementalTest, MatchesFullAfterManyChanges) {
  auto p = prepare("usb");
  IncrementalTimer inc(*p.graph, &p.routing);
  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    for (int k = 0; k < 4; ++k) {
      NetId net = static_cast<NetId>(
          rng.uniform_int(0, p.design->num_nets() - 1));
      if (p.design->net(net).is_clock) continue;
      perturb_net(p.routing, net, rng.uniform(0.5, 2.0));
      inc.invalidate_net(net);
    }
    inc.update();
    const StaResult full = run_sta(*p.graph, p.routing);
    expect_results_equal(full, inc.result());
  }
}

TEST_F(IncrementalTest, TouchesOnlyAffectedCone) {
  auto p = prepare("picorv32a", 1.0 / 16);
  IncrementalTimer inc(*p.graph, &p.routing);
  // Perturb one shallow net: the visited count must stay well below the
  // design size (the point of incrementality).
  const NetId net = pick_net(*p.design);
  perturb_net(p.routing, net, 1.5);
  inc.invalidate_net(net);
  inc.update();
  EXPECT_GT(inc.last_update_cone(), 0);
  EXPECT_LT(inc.last_update_cone(), p.design->num_pins() / 2);
}

TEST_F(IncrementalTest, TinyChangeStopsEarly) {
  auto p = prepare("usb");
  IncrementalTimer inc(*p.graph, &p.routing);
  const NetId net = pick_net(*p.design);
  // A no-op "change" (factor 1.0) must converge immediately at the seeds.
  perturb_net(p.routing, net, 1.0);
  inc.invalidate_net(net);
  EXPECT_EQ(inc.update(), 0);
  const Net& n = p.design->net(net);
  EXPECT_LE(inc.last_update_cone(),
            static_cast<long long>(1 + n.sinks.size()));
}

TEST_F(IncrementalTest, SlowerNetDegradesWns) {
  auto p = prepare("spm");
  IncrementalTimer inc(*p.graph, &p.routing);
  const double wns_before = inc.result().wns_setup;
  // Make every data net 3x slower: WNS must degrade.
  for (NetId n = 0; n < p.design->num_nets(); ++n) {
    if (p.design->net(n).is_clock) continue;
    perturb_net(p.routing, n, 3.0);
    inc.invalidate_net(n);
  }
  inc.update();
  EXPECT_LT(inc.result().wns_setup, wns_before);
}

TEST_F(IncrementalTest, ClockNetInvalidationRejected) {
  auto p = prepare("spm");
  IncrementalTimer inc(*p.graph, &p.routing);
  EXPECT_THROW(inc.invalidate_net(p.design->clock_net()), CheckError);
}

TEST_F(IncrementalTest, RunFullResets) {
  auto p = prepare("spm");
  IncrementalTimer inc(*p.graph, &p.routing);
  const NetId net = pick_net(*p.design);
  perturb_net(p.routing, net, 2.0);
  inc.invalidate_net(net);
  inc.run_full();  // absorbs the change wholesale
  EXPECT_EQ(inc.update(), 0);  // dirty set was cleared
  const StaResult full = run_sta(*p.graph, p.routing);
  expect_results_equal(full, inc.result());
}

}  // namespace
}  // namespace tg
