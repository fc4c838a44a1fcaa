/// \file serve_test.cpp
/// Functional contract of the slack-prediction serving plane
/// (DESIGN.md §12): session lifecycle and template sharing, the
/// ok|degraded|shed response taxonomy, the degradation ladder's tier
/// choices, resize-move validation, queued predictions, admission-queue
/// shedding, deadline handling and shutdown draining.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "sta/timer.hpp"
#include "testing/sta_bits.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace tg::serve {
namespace {

constexpr const char* kDesign = "spm";
constexpr double kScale = 0.03125;

ServeOptions small_options() {
  ServeOptions o;
  o.workers = 2;
  o.queue_capacity = 16;
  return o;
}

/// A same-function alternative cell for instance `inst`, or -1.
int alternative_cell(const SessionView& v, int inst) {
  const Library& lib = v.design.library();
  const int current = v.design.instance(inst).cell_id;
  for (int c : lib.cells_of_function(lib.cell(current).function)) {
    if (c != current) return c;
  }
  return -1;
}

TEST(ServeTest, PristinePredictServedOkAtFullTier) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  Request req;
  req.session = id;
  const Response r = server.call(std::move(req));
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_EQ(r.tier, ServeTier::kFull);
  EXPECT_FALSE(r.endpoint_setup.empty());
  EXPECT_TRUE(std::isfinite(r.wns_setup));
  EXPECT_GT(r.latency.count(), 0);
}

TEST(ServeTest, StaModeMatchesGoldenBaseline) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  Request req;
  req.session = id;
  req.mode = RequestMode::kSta;
  const Response r = server.call(std::move(req));
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  double expect_wns = 0.0;
  std::size_t endpoints = 0;
  server.inspect(id, [&](const SessionView& v) {
    expect_wns = v.sta.wns_setup;
    endpoints = v.endpoints.size();
  });
  EXPECT_DOUBLE_EQ(r.wns_setup, expect_wns);
  EXPECT_EQ(r.endpoint_setup.size(), endpoints);
}

TEST(ServeTest, MoveRequestsServeTheConeFastPathAsOk) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  ResizeMove move{-1, -1};
  server.inspect(id, [&](const SessionView& v) {
    move = {0, alternative_cell(v, 0)};
  });
  ASSERT_GE(move.new_cell, 0) << "library has no alternative drive";

  Request req;
  req.session = id;
  req.mode = RequestMode::kSta;
  req.moves.push_back(move);
  const Response r = server.call(std::move(req));
  // The cone fast path IS the contract answer for moves: ok, not degraded.
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_EQ(r.tier, ServeTier::kCone);

  // And it must equal a force_full re-time of the same session.
  Request full;
  full.session = id;
  full.mode = RequestMode::kSta;
  full.force_full = true;
  const Response f = server.call(std::move(full));
  EXPECT_EQ(f.tier, ServeTier::kFull);
  ASSERT_EQ(f.endpoint_setup.size(), r.endpoint_setup.size());
  for (std::size_t i = 0; i < f.endpoint_setup.size(); ++i) {
    EXPECT_NEAR(f.endpoint_setup[i], r.endpoint_setup[i], 1e-9);
  }
}

TEST(ServeTest, SessionsAreIsolatedAndTemplateShared) {
  const ServeOptions o = small_options();
  SlackServer server(o);
  const SessionId a = server.open_session(kDesign, kScale);
  const SessionId b = server.open_session(kDesign, kScale);
  auto gnn_read = [](SlackServer& srv, SessionId id) {
    Request req;
    req.session = id;
    req.mode = RequestMode::kGnn;
    const Response r = srv.call(std::move(req));
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.error;
    return r;
  };
  const Response b_before = gnn_read(server, b);

  ResizeMove move{-1, -1};
  server.inspect(a, [&](const SessionView& v) {
    move = {0, alternative_cell(v, 0)};
  });
  ASSERT_GE(move.new_cell, 0);
  Request req;
  req.session = a;
  req.moves.push_back(move);
  (void)server.call(std::move(req));

  bool a_pristine = true, b_pristine = true;
  int a_cell = -1, b_cell = -1;
  server.inspect(a, [&](const SessionView& v) {
    a_pristine = v.pristine;
    a_cell = v.design.instance(0).cell_id;
  });
  server.inspect(b, [&](const SessionView& v) {
    b_pristine = v.pristine;
    b_cell = v.design.instance(0).cell_id;
  });
  EXPECT_FALSE(a_pristine);  // materialized by the move
  EXPECT_TRUE(b_pristine);   // still template-backed
  EXPECT_EQ(a_cell, move.new_cell);
  EXPECT_NE(b_cell, move.new_cell);

  // More moves, each followed by an incremental GNN read, on a: they patch
  // rows of a's own graph copy. A write through shared Tensor storage
  // would reach the template and everything later built from it.
  std::vector<ResizeMove> more;
  server.inspect(a, [&](const SessionView& v) {
    for (int i = 1; i < v.design.num_instances() && more.size() < 6; ++i) {
      const int cell = alternative_cell(v, i);
      if (cell >= 0) more.push_back({i, cell});
    }
  });
  for (const ResizeMove& m : more) {
    Request r;
    r.session = a;
    r.mode = RequestMode::kGnn;
    r.moves.push_back(m);
    EXPECT_EQ(server.call(std::move(r)).status, ResponseStatus::kOk);
    (void)gnn_read(server, a);
  }
  EXPECT_NE(gnn_read(server, a).endpoint_setup, b_before.endpoint_setup);

  // The pristine sibling and a session opened now both answer as on a
  // server whose sessions never moved.
  EXPECT_EQ(gnn_read(server, b).endpoint_setup, b_before.endpoint_setup);
  const SessionId late = server.open_session(kDesign, kScale);
  EXPECT_EQ(gnn_read(server, late).endpoint_setup, b_before.endpoint_setup);

  SlackServer clean(o);
  const SessionId cb = clean.open_session(kDesign, kScale);
  EXPECT_EQ(gnn_read(clean, cb).endpoint_setup, b_before.endpoint_setup);
}

TEST(ServeTest, UnknownSessionIsShed) {
  SlackServer server(small_options());
  Request req;
  req.session = 999;
  const Response r = server.call(std::move(req));
  EXPECT_EQ(r.status, ResponseStatus::kShed);
  EXPECT_EQ(r.tier, ServeTier::kNone);
  EXPECT_FALSE(r.error.empty());
}

TEST(ServeTest, PreCancelledGnnRequestIsShedWithCancelledReason) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  CancelSource source;
  source.cancel();
  Request req;
  req.session = id;
  req.mode = RequestMode::kGnn;
  req.cancel = source.token();
  const Response r = server.call(std::move(req));
  EXPECT_EQ(r.status, ResponseStatus::kShed);
  EXPECT_EQ(r.stop_reason, CancelReason::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ServeTest, TightDeadlineDegradesOrShedsButAnswers) {
  ServeOptions o = small_options();
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);
  // Warm request populates the stale cache and the latency EMA.
  Request warm;
  warm.session = id;
  ASSERT_EQ(server.call(std::move(warm)).status, ResponseStatus::kOk);

  // A 1 us budget cannot fit full-tier compute once the EMA knows the
  // cost: the ladder answers from a lower tier (degraded) or sheds —
  // never blocks, never claims full fidelity.
  Request tight;
  tight.session = id;
  tight.budget = std::chrono::microseconds(1);
  const Response r = server.call(std::move(tight));
  EXPECT_NE(r.status, ResponseStatus::kOk);
  if (r.status == ResponseStatus::kDegraded) {
    EXPECT_NE(r.tier, ServeTier::kFull);
  }
}

TEST(ServeTest, OverloadShedsAtTheDoorWithRetryAfter) {
  ServeOptions o = small_options();
  o.workers = 1;
  o.queue_capacity = 2;
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);

  // Stall the single worker so the queue can actually fill.
  fault::arm_serve_fault("slow", 1);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 24; ++i) {
    Request req;
    req.session = id;
    futs.push_back(server.submit(std::move(req)));
  }
  int shed_at_door = 0;
  for (auto& fut : futs) {
    const Response r = fut.get();
    if (r.status == ResponseStatus::kShed) {
      ++shed_at_door;
      EXPECT_GT(r.retry_after.count(), 0) << "shed without a retry hint";
    }
  }
  fault::clear_serve_fault();
  EXPECT_GT(shed_at_door, 0) << "queue of 2 absorbed 24 requests?";
  EXPECT_EQ(server.stats().completed, 24u);
}

/// The entry tier follows the admission queue's fill as each request
/// leaves it: a prediction is served stale at 7/8, from the cone tier from
/// 6/8 down to 4/8, and at full fidelity below half.
TEST(ServeTest, EntryTierFollowsQueueFill) {
  ServeOptions o = small_options();
  o.workers = 1;
  o.queue_capacity = 8;
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);

  // The first prediction stalls the worker and then leaves its answer in
  // the stale cache. Once it has left the queue, eight more fill it.
  fault::arm_serve_fault("slow", 1);
  Request first;
  first.session = id;
  std::future<Response> stalled = server.submit(std::move(first));
  while (fault::matched_serve_ops() < 1) std::this_thread::yield();
  constexpr int kQueued = 8;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < kQueued; ++i) {
    Request req;
    req.session = id;
    futs.push_back(server.submit(std::move(req)));
  }
  EXPECT_EQ(stalled.get().status, ResponseStatus::kOk);
  fault::clear_serve_fault();

  for (int i = 0; i < kQueued; ++i) {
    const Response r = futs[static_cast<std::size_t>(i)].get();
    const int fill = kQueued - 1 - i;  // eighths still queued behind it
    SCOPED_TRACE("handled at fill " + std::to_string(fill) + "/8");
    if (fill == 7) {
      EXPECT_EQ(r.status, ResponseStatus::kDegraded);
      EXPECT_EQ(r.tier, ServeTier::kStale);
    } else if (fill >= 4) {
      EXPECT_EQ(r.status, ResponseStatus::kDegraded);
      EXPECT_EQ(r.tier, ServeTier::kCone);
    } else {
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      EXPECT_EQ(r.tier, ServeTier::kFull);
    }
  }
}

/// Every move of a request is checked before any is applied: a request
/// holding a bad move is shed whole, with an error naming that move, and
/// the session times exactly as it did before the request.
TEST(ServeTest, BadResizeMoveShedsTheRequestAndChangesNothing) {
  SlackServer server(small_options());
  // An instance with a drive variant (a good move) and a cell of another
  // function with the same pin count (a bad move that indexes cleanly).
  int inst = -1;
  int original = -1;
  int variant = -1;
  int foreign = -1;
  int num_cells = 0;
  int num_instances = 0;
  const SessionId probe = server.open_session(kDesign, kScale);
  server.inspect(probe, [&](const SessionView& v) {
    const Library& lib = v.design.library();
    num_cells = lib.num_cells();
    num_instances = v.design.num_instances();
    for (int i = 0; i < num_instances && foreign < 0; ++i) {
      const CellType& cell = lib.cell(v.design.instance(i).cell_id);
      const int alt = alternative_cell(v, i);
      if (cell.is_sequential || alt < 0) continue;
      for (int c = 0; c < num_cells; ++c) {
        const CellType& other = lib.cell(c);
        if (!other.is_sequential && other.function != cell.function &&
            other.pins.size() == cell.pins.size()) {
          inst = i;
          original = v.design.instance(i).cell_id;
          variant = alt;
          foreign = c;
          break;
        }
      }
    }
  });
  server.close_session(probe);
  ASSERT_GE(foreign, 0) << "no instance has a same-pin-count foreign cell";

  auto full_sta = [&](SessionId id) {
    Request req;
    req.session = id;
    req.mode = RequestMode::kSta;
    req.force_full = true;
    const Response r = server.call(std::move(req));
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.error;
    return r;
  };
  struct BadRequest {
    const char* name;
    std::vector<ResizeMove> moves;
    int bad_move;
  };
  const BadRequest bad_requests[] = {
      {"cell out of range", {{inst, num_cells}}, 0},
      {"cell of another function", {{inst, foreign}}, 0},
      {"bad move after a good one",
       {{inst, original}, {num_instances, variant}},
       1},
  };
  for (const BadRequest& bad : bad_requests) {
    SCOPED_TRACE(bad.name);
    const SessionId id = server.open_session(kDesign, kScale);
    Request good;
    good.session = id;
    good.mode = RequestMode::kSta;
    good.moves.push_back({inst, variant});
    ASSERT_EQ(server.call(std::move(good)).status, ResponseStatus::kOk);
    const Response before = full_sta(id);

    Request req;
    req.session = id;
    req.mode = RequestMode::kSta;
    req.moves = bad.moves;
    const Response r = server.call(std::move(req));
    EXPECT_EQ(r.status, ResponseStatus::kShed);
    EXPECT_NE(r.error.find("resize move " + std::to_string(bad.bad_move)),
              std::string::npos)
        << r.error;

    const Response after = full_sta(id);
    EXPECT_EQ(after.endpoint_setup, before.endpoint_setup);
    EXPECT_EQ(after.wns_setup, before.wns_setup);
    EXPECT_EQ(after.wns_hold, before.wns_hold);
    server.close_session(id);
  }
}

TEST(ServeTest, QueuedPredictionsEqualTheirForceFullAnswer) {
  ServeOptions o = small_options();
  o.workers = 1;  // deterministic: one worker, the mix forms behind it
  o.queue_capacity = 32;
  SlackServer server(o);
  const SessionId sa = server.open_session("spm", kScale);
  const SessionId sb = server.open_session("zipdiv", kScale);

  // Reference answers: the full-tier GNN per session, forced so they
  // never degrade.
  auto reference = [&](SessionId id) {
    Request req;
    req.session = id;
    req.mode = RequestMode::kGnn;
    req.force_full = true;
    return server.call(std::move(req));
  };
  const Response ra = reference(sa);
  const Response rb = reference(sb);
  ASSERT_EQ(ra.status, ResponseStatus::kOk);
  ASSERT_EQ(rb.status, ResponseStatus::kOk);

  // Stall the worker on the first prediction; interleaved pristine
  // predictions on both designs pile up behind it. Each one, served from
  // the queue, must equal its own session's reference bit for bit.
  constexpr int kPerDesign = 3;
  fault::arm_serve_fault("slow", 1);
  std::vector<std::future<Response>> futs;
  std::vector<SessionId> owner;
  for (int i = 0; i < 2 * kPerDesign; ++i) {
    Request req;
    req.session = (i % 2 == 0) ? sa : sb;
    owner.push_back(req.session);
    futs.push_back(server.submit(std::move(req)));
  }
  std::vector<Response> rs;
  for (auto& fut : futs) rs.push_back(fut.get());
  fault::clear_serve_fault();

  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Response& r = rs[i];
    const Response& ref = owner[i] == sa ? ra : rb;
    ASSERT_NE(r.status, ResponseStatus::kShed);
    EXPECT_EQ(r.endpoint_setup, ref.endpoint_setup) << "request " << i;
    EXPECT_EQ(r.wns_setup, ref.wns_setup);
    EXPECT_EQ(r.tns_setup, ref.tns_setup);
  }
}

/// All templates of one server come from one library, so their graphs
/// share one LutTable.
TEST(ServeTest, TemplatesOfOneServerShareOneLutTable) {
  SlackServer server(small_options());
  const data::LutTable* tables[2] = {nullptr, nullptr};
  const SessionId ids[2] = {server.open_session("spm", kScale),
                            server.open_session("zipdiv", kScale, 0.92)};
  for (int i = 0; i < 2; ++i) {
    server.inspect(ids[i], [&](const SessionView& v) {
      tables[i] = v.tpl.g.lut_table.get();
    });
  }
  ASSERT_NE(tables[0], nullptr);
  EXPECT_GT(tables[0]->num_rows(), 0);
  EXPECT_EQ(tables[0], tables[1]);
}

/// A moved session's GNN graph shares the template graph's topology and
/// LUT table (one pointer each) and net-edge features, and owns storage
/// only for what a resize rewrites: node_feat, rat and the cell edges'
/// table indices (cell_arc_lut, not their 512-float rows). It carries no
/// labels and no topology index array of its own.
TEST(ServeTest, MovedSessionGraphOwnsOnlyItsValues) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  ResizeMove move{-1, -1};
  server.inspect(id, [&](const SessionView& v) {
    EXPECT_EQ(v.gnn_graph, nullptr);
    move = {0, alternative_cell(v, 0)};
  });
  ASSERT_GE(move.new_cell, 0) << "library has no alternative drive";
  Request req;
  req.session = id;
  req.mode = RequestMode::kGnn;
  req.moves.push_back(move);
  ASSERT_EQ(server.call(std::move(req)).status, ResponseStatus::kOk);

  server.inspect(id, [&](const SessionView& v) {
    ASSERT_NE(v.gnn_graph, nullptr);
    const data::DatasetGraph& s = *v.gnn_graph;
    const data::DatasetGraph& t = v.tpl.g;
    EXPECT_EQ(s.topo.get(), t.topo.get());
    EXPECT_EQ(s.lut_table.get(), t.lut_table.get());
    const auto storage = [](const nn::Tensor& x) {
      return x.defined() ? x.data().data() : nullptr;
    };
    EXPECT_NE(storage(s.node_feat), storage(t.node_feat));
    ASSERT_EQ(s.cell_arc_lut.size(), t.cell_arc_lut.size());
    ASSERT_FALSE(s.cell_arc_lut.empty());
    EXPECT_NE(s.cell_arc_lut.data(), t.cell_arc_lut.data());
    EXPECT_NE(storage(s.rat), storage(t.rat));
    EXPECT_EQ(storage(s.net_edge_feat), storage(t.net_edge_feat));
    for (const nn::Tensor* label :
         {&s.net_delay, &s.arrival, &s.slew, &s.cell_delay}) {
      EXPECT_FALSE(label->defined());
    }
    EXPECT_TRUE(s.endpoints.empty());
    EXPECT_TRUE(s.endpoint_setup_slack.empty());
    EXPECT_TRUE(s.endpoint_hold_slack.empty());
  });
}

/// A physical template's embedding outlives every request, so it must be
/// a tape-free leaf: a recorded tape would pin the whole net-embedding
/// graph for as long as the template lives.
TEST(ServeTest, CachedEmbeddingsAreTapeFreeLeaves) {
  SlackServer server(small_options());
  const SessionId id = server.open_session(kDesign, kScale);
  ASSERT_TRUE(server.inspect(id, [](const SessionView& v) {
    const nn::Tensor& emb = v.tpl.phys->embedding;
    ASSERT_TRUE(emb.defined());
    EXPECT_EQ(emb.rows(), v.tpl.g.num_nodes());
    EXPECT_FALSE(emb.requires_grad());
    EXPECT_TRUE(emb.impl()->parents.empty());
    EXPECT_FALSE(emb.impl()->backward_fn);
  }));
}

/// A template times its design once, and a session's timer starts from a
/// copy of that result instead of re-timing: both must hold what a fresh
/// full STA of the session's own graph gives, bit for bit. The second
/// corner of a design re-sweeps a copy of the first's result under its own
/// period, so it is checked the same way.
TEST(ServeTest, SessionTimerSeededFromTemplateEqualsFullRun) {
  const core::TimingGnn model{core::TimingGnnConfig{}};
  TemplateCache templates(model);
  for (const char* design : {"spm", "picorv32a"}) {
    for (const double factor : {0.92, 1.08}) {
      SCOPED_TRACE(std::string(design) + " @" + std::to_string(factor));
      Session session;
      session.tpl = templates.get_or_build(design, kScale, factor);
      const std::lock_guard<std::mutex> lock(session.mu);
      session.materialize();
      const StaResult seeded = session.timer->result();
      session.timer->run_full();
      EXPECT_EQ(testing::sta_bit_mismatch(seeded, session.timer->result()),
                "");
    }
  }
  EXPECT_EQ(templates.physical_builds(), 2u);
}

/// Clock corners of one design share one physical template: the clock
/// reaches only the endpoints' required times, so a later corner re-sweeps
/// a copy of a sibling's STA instead of generating, placing, routing,
/// timing and extracting the design again. Every answer a corner gives
/// must be the one a server that opened only that corner gives.
TEST(ServeTest, ClockCornersShareOnePhysicalTemplate) {
  const char* designs[] = {"spm", "xtea"};
  const double factors[] = {0.0, 0.92, 1.08};
  SlackServer server(small_options());
  std::vector<SessionId> pristine;
  for (const char* design : designs) {
    for (const double factor : factors) {
      pristine.push_back(server.open_session(design, kScale, factor));
    }
  }
  EXPECT_EQ(server.stats().physical_templates, 2u);

  // A corner's graph shares the physical graph's tensors and topology and
  // owns its rat; every corner reads the physical template's one
  // embedding.
  const auto storage = [](const nn::Tensor& x) { return x.data().data(); };
  for (std::size_t d = 0; d < 2; ++d) {
    const data::DatasetGraph* graphs[3] = {};
    const float* embeddings[3] = {};
    for (std::size_t c = 0; c < 3; ++c) {
      server.inspect(pristine[3 * d + c], [&](const SessionView& v) {
        graphs[c] = &v.tpl.g;
        embeddings[c] = storage(v.tpl.phys->embedding);
      });
    }
    ASSERT_NE(embeddings[0], nullptr);
    for (std::size_t c = 1; c < 3; ++c) {
      EXPECT_EQ(embeddings[c], embeddings[0]);
      EXPECT_EQ(graphs[c]->topo.get(), graphs[0]->topo.get());
      EXPECT_EQ(storage(graphs[c]->node_feat), storage(graphs[0]->node_feat));
      EXPECT_EQ(storage(graphs[c]->arrival), storage(graphs[0]->arrival));
      EXPECT_NE(storage(graphs[c]->rat), storage(graphs[0]->rat));
      const auto values = [](const nn::Tensor& x) {
        return std::vector<float>(x.data().begin(), x.data().end());
      };
      EXPECT_NE(values(graphs[c]->rat), values(graphs[0]->rat));
    }
  }

  const auto ask = [](SlackServer& srv, SessionId id, RequestMode mode,
                      std::vector<ResizeMove> moves = {},
                      bool force_full = false) {
    Request req;
    req.session = id;
    req.mode = mode;
    req.moves = std::move(moves);
    req.force_full = force_full;
    Response r = srv.call(std::move(req));
    EXPECT_NE(r.status, ResponseStatus::kShed) << r.error;
    return r;
  };
  const auto expect_same = [](const Response& a, const Response& b) {
    EXPECT_EQ(a.endpoint_setup, b.endpoint_setup);
    EXPECT_EQ(a.wns_setup, b.wns_setup);
    EXPECT_EQ(a.tns_setup, b.tns_setup);
    EXPECT_EQ(a.wns_hold, b.wns_hold);
  };

  std::size_t i = 0;
  std::vector<double> periods;
  for (const char* design : designs) {
    for (const double factor : factors) {
      SCOPED_TRACE(std::string(design) + " @" + std::to_string(factor));
      const SessionId id = pristine[i++];
      SlackServer solo(small_options());
      const SessionId solo_id = solo.open_session(design, kScale, factor);
      expect_same(ask(server, id, RequestMode::kGnn),
                  ask(solo, solo_id, RequestMode::kGnn));
      expect_same(ask(server, id, RequestMode::kSta),
                  ask(solo, solo_id, RequestMode::kSta));

      double period = 0.0;
      ASSERT_TRUE(solo.inspect(solo_id, [&](const SessionView& v) {
        period = v.clock_period;
        EXPECT_EQ(v.tpl.g.clock_period, period);
      }));
      periods.push_back(period);

      // A moved session of the shared corner: its cone answer is its own
      // full re-time, under the corner's period.
      const SessionId moved = server.open_session(design, kScale, factor);
      ResizeMove move{-1, -1};
      server.inspect(moved, [&](const SessionView& v) {
        EXPECT_EQ(v.clock_period, period);
        move = {0, alternative_cell(v, 0)};
      });
      ASSERT_GE(move.new_cell, 0);
      const Response cone = ask(server, moved, RequestMode::kSta, {move});
      EXPECT_EQ(cone.tier, ServeTier::kCone);
      expect_same(cone, ask(server, moved, RequestMode::kSta, {}, true));
      server.inspect(moved, [&](const SessionView& v) {
        EXPECT_FALSE(v.pristine);
        EXPECT_EQ(v.design.clock_period(), period);
        EXPECT_EQ(v.clock_period, period);
      });
    }
  }
  // Three distinct periods per design: the corners did not collapse.
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_NE(periods[3 * d], periods[3 * d + 1]);
    EXPECT_NE(periods[3 * d + 1], periods[3 * d + 2]);
    EXPECT_NE(periods[3 * d], periods[3 * d + 2]);
  }
  EXPECT_EQ(server.stats().physical_templates, 2u);
}

TEST(ServeTest, ShutdownShedsQueuedWorkAndRejectsNewWork) {
  ServeOptions o = small_options();
  o.workers = 1;
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);
  fault::arm_serve_fault("slow", 1);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) {
    Request req;
    req.session = id;
    req.mode = RequestMode::kSta;
    req.force_full = true;  // a full re-time each: the queue backs up
    futs.push_back(server.submit(std::move(req)));
  }
  server.shutdown();
  fault::clear_serve_fault();
  for (auto& fut : futs) {
    // Every future resolves: answered before the stop or shed by it.
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    (void)fut.get();
  }
  Request late;
  late.session = id;
  const Response r = server.call(std::move(late));
  EXPECT_EQ(r.status, ResponseStatus::kShed);
  EXPECT_EQ(server.stats().completed, server.stats().submitted);
}

TEST(ServeTest, SessionTableLruEvictsIdleAndReopensCleanly) {
  ServeOptions o = small_options();
  o.max_sessions = 2;
  SlackServer server(o);
  const SessionId a = server.open_session(kDesign, kScale);
  const SessionId b = server.open_session(kDesign, kScale);
  // Touch b so a is the least-recently-used candidate at the next open.
  Request warm;
  warm.session = b;
  ASSERT_EQ(server.call(std::move(warm)).status, ResponseStatus::kOk);
  const SessionId c = server.open_session(kDesign, kScale);
  ASSERT_NE(c, a);
  EXPECT_EQ(server.stats().evicted, 1u);

  // The evicted session is gone: its requests shed as unknown and
  // inspect declines instead of running the callback.
  Request gone;
  gone.session = a;
  const Response ra = server.call(std::move(gone));
  EXPECT_EQ(ra.status, ResponseStatus::kShed);
  EXPECT_FALSE(ra.error.empty());
  EXPECT_FALSE(server.inspect(a, [](const SessionView&) { FAIL(); }));

  // Survivors still answer.
  Request rb;
  rb.session = b;
  EXPECT_EQ(server.call(std::move(rb)).status, ResponseStatus::kOk);

  // Re-opening the evicted design is cheap (template cache) and the
  // fresh session re-materializes correctly: a move stream runs the cone
  // fast path and matches a force_full re-time bit for bit.
  const SessionId fresh = server.open_session(kDesign, kScale);
  EXPECT_GE(server.stats().evicted, 2u);
  ResizeMove move{-1, -1};
  ASSERT_TRUE(server.inspect(fresh, [&](const SessionView& v) {
    move = {0, alternative_cell(v, 0)};
  }));
  ASSERT_GE(move.new_cell, 0);
  Request mv;
  mv.session = fresh;
  mv.mode = RequestMode::kSta;
  mv.moves.push_back(move);
  const Response rc = server.call(std::move(mv));
  EXPECT_EQ(rc.status, ResponseStatus::kOk);
  EXPECT_EQ(rc.tier, ServeTier::kCone);
  Request full;
  full.session = fresh;
  full.mode = RequestMode::kSta;
  full.force_full = true;
  const Response rf = server.call(std::move(full));
  ASSERT_EQ(rf.endpoint_setup.size(), rc.endpoint_setup.size());
  for (std::size_t i = 0; i < rf.endpoint_setup.size(); ++i) {
    EXPECT_NEAR(rf.endpoint_setup[i], rc.endpoint_setup[i], 1e-9);
  }
}

TEST(ServeTest, NamesAreStable) {
  EXPECT_STREQ(response_status_name(ResponseStatus::kOk), "ok");
  EXPECT_STREQ(response_status_name(ResponseStatus::kDegraded), "degraded");
  EXPECT_STREQ(response_status_name(ResponseStatus::kShed), "shed");
  EXPECT_STREQ(serve_tier_name(ServeTier::kFull), "full");
  EXPECT_STREQ(serve_tier_name(ServeTier::kCone), "cone");
  EXPECT_STREQ(serve_tier_name(ServeTier::kStale), "stale");
  EXPECT_STREQ(serve_tier_name(ServeTier::kNone), "none");
}

}  // namespace
}  // namespace tg::serve
