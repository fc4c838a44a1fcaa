/// \file serve_test.cpp
/// Functional contract of the slack-prediction serving plane
/// (DESIGN.md §12): session lifecycle and template sharing, the
/// ok|degraded|shed response taxonomy, the degradation ladder's tier
/// choices, micro-batching, admission-queue shedding, deadline handling
/// and shutdown draining.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
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

TEST(ServeTest, CompatiblePredictionsCoalesceIntoOneBatch) {
  ServeOptions o = small_options();
  o.workers = 1;  // deterministic: one worker, batch forms behind it
  o.queue_capacity = 32;
  o.max_batch = 8;
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);

  // First request stalls the worker; the next four queue up batchable.
  fault::arm_serve_fault("slow", 1);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    Request req;
    req.session = id;
    futs.push_back(server.submit(std::move(req)));
  }
  std::vector<Response> rs;
  for (auto& fut : futs) rs.push_back(fut.get());
  fault::clear_serve_fault();

  EXPECT_GE(server.stats().batched, 2u) << "no coalescing happened";
  int max_batch = 0;
  for (const Response& r : rs) {
    EXPECT_NE(r.status, ResponseStatus::kShed);
    max_batch = std::max(max_batch, r.batch_size);
  }
  EXPECT_GE(max_batch, 2);
  // All batch members got the same template answer.
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_DOUBLE_EQ(rs[i].wns_setup, rs[0].wns_setup);
  }
}

TEST(ServeTest, InterleavedTemplatesBatchOnlyWithinATemplate) {
  ServeOptions o = small_options();
  o.workers = 1;  // deterministic: one worker, the mix forms behind it
  o.queue_capacity = 32;
  o.max_batch = 8;
  SlackServer server(o);
  const SessionId sa = server.open_session("spm", kScale);
  const SessionId sb = server.open_session("zipdiv", kScale);

  // Reference answers: the full-tier GNN per session, forced so they are
  // never batched (force_full is batching-incompatible).
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

  // Stall the worker on the first prediction; interleaved batchable
  // predictions on both designs pile up behind it. Each design's tickets
  // may coalesce with each other, never with the other design's.
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

  EXPECT_GE(server.stats().batched, 2u) << "no coalescing happened";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Response& r = rs[i];
    const Response& ref = owner[i] == sa ? ra : rb;
    ASSERT_NE(r.status, ResponseStatus::kShed);
    EXPECT_LE(r.batch_size, kPerDesign)
        << "request " << i << " shared a forward with the other design";
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
      tables[i] = v.template_graph.lut_table.get();
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
    const data::DatasetGraph& t = v.template_graph;
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

/// Cached embeddings outlive every request, so they must be tape-free
/// leaves: a recorded tape would pin the whole net-embedding graph for as
/// long as the cache entry lives.
TEST(ServeTest, CachedEmbeddingsAreTapeFreeLeaves) {
  SlackServer server(small_options());
  Request req;
  req.session = server.open_session(kDesign, kScale);
  ASSERT_EQ(server.call(std::move(req)).status, ResponseStatus::kOk);
  TemplateCache templates;  // same key as the server's template
  const nn::Tensor tpl_emb =
      server.template_embedding(*templates.get_or_build(kDesign, kScale, 0.0));
  EXPECT_FALSE(tpl_emb.requires_grad());
  EXPECT_TRUE(tpl_emb.impl()->parents.empty());
  EXPECT_FALSE(tpl_emb.impl()->backward_fn);
}

/// A template times its design once, and a session's timer starts from a
/// copy of that result instead of re-timing: both must hold what a fresh
/// full STA of the session's own graph gives, bit for bit.
TEST(ServeTest, SessionTimerSeededFromTemplateEqualsFullRun) {
  TemplateCache templates;
  for (const char* design : {"spm", "picorv32a"}) {
    SCOPED_TRACE(design);
    Session session;
    session.tpl = templates.get_or_build(design, kScale, 0.92);
    const std::lock_guard<std::mutex> lock(session.mu);
    session.materialize();
    const StaResult seeded = session.timer->result();
    session.timer->run_full();
    EXPECT_EQ(testing::sta_bit_mismatch(seeded, session.timer->result()), "");
  }
}

/// The micro-batcher's drain takes batchable tickets of the lead's
/// template only, oldest first, at most `max_extra` of them; everything
/// else stays queued in its original order.
TEST(ServeTest, DrainCompatibleTakesOnlyTheSameTemplateInFifoOrder) {
  AdmissionQueue queue(16);
  struct Spec {
    SessionId id;
    std::uint64_t tpl_key;
    bool batchable;
  };
  const Spec specs[] = {{1, 7, true},  {2, 9, true},  {3, 7, false},
                        {4, 7, true},  {5, 9, true},  {6, 7, true},
                        {7, 7, true}};
  for (const Spec& spec : specs) {
    Ticket t;
    t.req.session = spec.id;
    t.tpl_key = spec.tpl_key;
    t.batchable = spec.batchable;
    ASSERT_TRUE(queue.push(std::move(t)));
  }
  const auto ids = [](const std::vector<Ticket>& ts) {
    std::vector<SessionId> out;
    for (const Ticket& t : ts) out.push_back(t.req.session);
    return out;
  };

  EXPECT_TRUE(queue.drain_compatible(7, 0).empty());
  EXPECT_EQ(ids(queue.drain_compatible(7, 2)),
            (std::vector<SessionId>{1, 4}));
  EXPECT_EQ(ids(queue.drain_compatible(7, 8)),
            (std::vector<SessionId>{6, 7}));
  EXPECT_TRUE(queue.drain_compatible(7, 8).empty());
  EXPECT_EQ(ids(queue.drain_compatible(42, 8)), std::vector<SessionId>{});

  std::vector<SessionId> left;
  while (queue.size() > 0) left.push_back(queue.pop()->req.session);
  EXPECT_EQ(left, (std::vector<SessionId>{2, 3, 5}));
}

TEST(ServeTest, MaxBatchResolvesFromOptionsAndValidates) {
  ServeOptions o = small_options();
  o.max_batch = 3;
  SlackServer server(o);
  EXPECT_EQ(server.options().max_batch, 3);
  // Default-constructed options resolve the env default (8 unless the
  // ambient TG_SERVE_MAX_BATCH overrides it) — never the raw 0.
  SlackServer dflt{ServeOptions{}};
  EXPECT_GE(dflt.options().max_batch, 1);
  ServeOptions bad = small_options();
  bad.max_batch = -2;
  EXPECT_THROW(SlackServer{bad}, CheckError);
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
    req.force_full = true;  // not batchable: stays queued
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
