/// \file gnn_read_test.cpp
/// Incremental GNN reads on moved sessions (DESIGN.md §12): every read
/// must equal, bit for bit, a fresh extract + plan + embed + forward_atslew
/// of the session's current design — after seeded resize streams, at one
/// thread and at the machine's thread count, after a read that stopped
/// part way, and without leaking into pristine sibling sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "data/extract.hpp"
#include "serve/server.hpp"
#include "sta/timer.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tg::serve {
namespace {

constexpr double kScale = 0.03125;

ServeOptions read_options() {
  ServeOptions o;
  o.workers = 2;
  o.queue_capacity = 16;
  return o;
}

/// Endpoint setup slacks and digest of a from-scratch GNN read of the
/// session's current design: the answer an incremental read must equal.
struct Reference {
  std::vector<double> endpoint_setup;
  double wns_setup = 0.0, tns_setup = 0.0, wns_hold = 0.0;
  int num_nodes = 0;
};

Reference fresh_reference(SlackServer& server, SessionId id) {
  std::unique_ptr<Design> design;
  DesignRouting routing;
  server.inspect(id, [&](const SessionView& v) {
    design = std::make_unique<Design>(v.design);
    routing = v.routing;
  });
  const TimingGraph graph(*design);
  const StaResult sta = run_sta(graph, routing);
  const data::DatasetGraph g =
      data::extract_graph(*design, graph, routing, sta);
  const core::PropPlan plan = core::build_prop_plan(g);
  const core::TimingGnn& model = server.model();
  const nn::Tensor atslew = model.forward_atslew(g, plan, model.embed(g));
  Reference ref;
  ref.num_nodes = g.num_nodes();
  ref.wns_setup = std::numeric_limits<double>::infinity();
  ref.wns_hold = std::numeric_limits<double>::infinity();
  for (const int ep : g.endpoints) {
    const core::EndpointSlack es =
        core::predicted_endpoint_slack(g, atslew, ep);
    ref.endpoint_setup.push_back(es.setup);
    ref.wns_setup = std::min(ref.wns_setup, es.setup);
    ref.wns_hold = std::min(ref.wns_hold, es.hold);
    if (es.setup < 0.0) ref.tns_setup += es.setup;
  }
  return ref;
}

void expect_equals_reference(const Response& r, const Reference& ref) {
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
  ASSERT_EQ(r.tier, ServeTier::kFull);
  EXPECT_EQ(r.endpoint_setup, ref.endpoint_setup);
  EXPECT_EQ(r.wns_setup, ref.wns_setup);
  EXPECT_EQ(r.tns_setup, ref.tns_setup);
  EXPECT_EQ(r.wns_hold, ref.wns_hold);
}

Response gnn_read(SlackServer& server, SessionId id,
                  std::vector<ResizeMove> moves = {}) {
  Request req;
  req.session = id;
  req.mode = RequestMode::kGnn;
  req.moves = std::move(moves);
  return server.call(std::move(req));
}

Response sta_move(SlackServer& server, SessionId id, ResizeMove move) {
  Request req;
  req.session = id;
  req.mode = RequestMode::kSta;
  req.moves.push_back(move);
  return server.call(std::move(req));
}

/// Instances with another cell of their function, and those cells.
struct Choice {
  int inst = 0;
  std::vector<int> cells;
  bool flop = false;
};

std::vector<Choice> resize_choices(SlackServer& server, SessionId id) {
  std::vector<Choice> out;
  server.inspect(id, [&](const SessionView& v) {
    const Library& lib = v.design.library();
    for (int i = 0; i < v.design.num_instances(); ++i) {
      const CellType& cell = lib.cell(v.design.instance(i).cell_id);
      std::vector<int> cells = lib.cells_of_function(cell.function);
      if (cells.size() < 2) continue;
      out.push_back(Choice{i, std::move(cells), cell.is_sequential});
    }
  });
  return out;
}

/// Seeded resize stream with a GNN read every `read_every` moves, each
/// read checked against the fresh reference. Moves go in kSta requests
/// (the cone tier), except that every other read carries its last move.
void run_stream(const char* design, std::uint64_t seed, int moves,
                int read_every) {
  SlackServer server(read_options());
  const SessionId id = server.open_session(design, kScale);
  const std::vector<Choice> choices = resize_choices(server, id);
  ASSERT_FALSE(choices.empty());
  std::vector<int> flops;
  for (std::size_t c = 0; c < choices.size(); ++c) {
    if (choices[c].flop) flops.push_back(static_cast<int>(c));
  }
  // The synthetic library has DFF_X1/X2/X4: a flop resize rewrites the
  // D pin's RAT row (setup/hold) and the CK->Q arc.
  ASSERT_FALSE(flops.empty()) << design << " has no resizable flop";

  Rng rng(seed);
  int reads = 0;
  for (int m = 1; m <= moves; ++m) {
    // Every stream's first move is a flop resize.
    const Choice& c =
        m == 1 ? choices[static_cast<std::size_t>(flops[static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<std::int64_t>(flops.size()) - 1))])]
               : choices[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(choices.size()) - 1))];
    const ResizeMove move{
        c.inst, c.cells[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(c.cells.size()) - 1))]};
    const bool read = m % read_every == 0;
    if (read && reads % 2 == 1) {
      const Response r = gnn_read(server, id, {move});
      SCOPED_TRACE(testing::Message() << design << " seed " << seed
                                      << " move " << m << " (read+move)");
      expect_equals_reference(r, fresh_reference(server, id));
    } else {
      const Response r = sta_move(server, id, move);
      ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
      if (read) {
        SCOPED_TRACE(testing::Message()
                     << design << " seed " << seed << " move " << m);
        expect_equals_reference(gnn_read(server, id),
                                fresh_reference(server, id));
      }
    }
    reads += read ? 1 : 0;
  }
  EXPECT_GE(reads, 2);
}

/// Runs `body` at one thread and at the machine's thread count.
template <typename Body>
void at_thread_counts(Body&& body) {
  const int before = num_threads();
  const int wide = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int t : {1, wide}) {
    set_num_threads(t);
    SCOPED_TRACE(testing::Message() << "threads " << t);
    body();
  }
  set_num_threads(before);
}

TEST(GnnReadTest, IncrementalReadsBitEqualFreshReadAcrossResizeStreams) {
  at_thread_counts([] {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      run_stream("spm", seed, 24, 3);
    }
    run_stream("zipdiv", 4, 16, 4);
  });
}

TEST(GnnReadTest, ReadWithoutMovesRepropagatesNothing) {
  at_thread_counts([] {
    SlackServer server(read_options());
    const SessionId id = server.open_session("spm", kScale);
    const std::vector<Choice> choices = resize_choices(server, id);
    ASSERT_GE(choices.size(), 2u);
    const Choice& c = choices[1];
    ASSERT_EQ(sta_move(server, id, {c.inst, c.cells.back()}).status,
              ResponseStatus::kOk);
    const Response first = gnn_read(server, id);
    const Reference ref = fresh_reference(server, id);
    expect_equals_reference(first, ref);
    EXPECT_EQ(first.gnn_rows, ref.num_nodes) << "first read is a full walk";

    const Response c1 = gnn_read(server, id, {{c.inst, c.cells.front()}});
    expect_equals_reference(c1, fresh_reference(server, id));
    EXPECT_GT(c1.gnn_rows, 0);
    EXPECT_LT(c1.gnn_rows, ref.num_nodes);

    const Response again = gnn_read(server, id);
    expect_equals_reference(again, fresh_reference(server, id));
    EXPECT_EQ(again.endpoint_setup, c1.endpoint_setup);
    EXPECT_EQ(again.gnn_rows, 0);
  });
}

TEST(GnnReadTest, MovesCarriedByGnnReadsAreTimedByTheNextEngineAnswer) {
  // A GNN read applies its moves but leaves the engine alone; the next
  // kSta request must time them, as a from-scratch re-time would.
  SlackServer server(read_options());
  const SessionId id = server.open_session("spm", kScale);
  const std::vector<Choice> choices = resize_choices(server, id);
  ASSERT_GE(choices.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const Response r =
        gnn_read(server, id, {{choices[i].inst, choices[i].cells.back()}});
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
  }
  Request cone;
  cone.session = id;
  cone.mode = RequestMode::kSta;
  const Response timed = server.call(std::move(cone));
  Request full;
  full.session = id;
  full.mode = RequestMode::kSta;
  full.force_full = true;
  const Response reference = server.call(std::move(full));
  ASSERT_EQ(timed.status, ResponseStatus::kOk) << timed.error;
  ASSERT_EQ(reference.status, ResponseStatus::kOk) << reference.error;
  EXPECT_EQ(timed.endpoint_setup, reference.endpoint_setup);
  EXPECT_EQ(timed.wns_setup, reference.wns_setup);
  EXPECT_EQ(timed.tns_setup, reference.tns_setup);
}

TEST(GnnReadTest, StoppedReadLeavesGnnDirtyAndNextReadRecovers) {
  SlackServer server(read_options());
  const SessionId id = server.open_session("spm", kScale);
  const std::vector<Choice> choices = resize_choices(server, id);
  ASSERT_GE(choices.size(), 3u);
  int num_nodes = 0;
  server.inspect(id, [&](const SessionView& v) {
    num_nodes = v.design.num_pins();
  });
  // A first read, so the stopped one below is a cone read.
  ASSERT_EQ(sta_move(server, id, {choices[0].inst, choices[0].cells.back()})
                .status,
            ResponseStatus::kOk);
  expect_equals_reference(gnn_read(server, id), fresh_reference(server, id));

  // The 1 us read stops at the propagation's first level boundary, after
  // its patch and re-embed. force_full keeps the ladder from degrading it
  // to the engine answer before it starts.
  ASSERT_EQ(sta_move(server, id, {choices[1].inst, choices[1].cells.back()})
                .status,
            ResponseStatus::kOk);
  Request tight;
  tight.session = id;
  tight.mode = RequestMode::kGnn;
  tight.force_full = true;
  tight.budget = std::chrono::microseconds(1);
  const Response stopped = server.call(std::move(tight));
  EXPECT_NE(stopped.status, ResponseStatus::kOk);
  EXPECT_EQ(stopped.stop_reason, CancelReason::kDeadline);

  const Response healed = gnn_read(server, id);
  expect_equals_reference(healed, fresh_reference(server, id));
  EXPECT_EQ(healed.gnn_rows, num_nodes) << "gnn_dirty must force a full walk";

  // An injected fault after the patch, before the re-embed: the retry
  // recovers with a full re-embed and walk.
  ASSERT_EQ(sta_move(server, id, {choices[2].inst, choices[2].cells.back()})
                .status,
            ResponseStatus::kOk);
  fault::arm_serve_fault("gnn", 1);
  const Response retried = gnn_read(server, id);
  fault::clear_serve_fault();
  EXPECT_EQ(retried.retries, 1);
  expect_equals_reference(retried, fresh_reference(server, id));
  EXPECT_EQ(retried.gnn_rows, num_nodes);

  const Response next = gnn_read(server, id);
  expect_equals_reference(next, fresh_reference(server, id));
  EXPECT_EQ(next.gnn_rows, 0);
}

}  // namespace
}  // namespace tg::serve
