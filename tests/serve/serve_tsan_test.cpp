/// \file serve_tsan_test.cpp
/// Concurrency soak for the serving plane, built to run under
/// ThreadSanitizer (`ctest -L tsan`): many client threads hammer a
/// multi-worker `SlackServer` with a mix of predictions, ECO moves,
/// client-side cancellations, tight deadlines and injected faults across
/// several sessions, while another thread inspects session views. The
/// invariants are the zero-hang contract — every future resolves, every
/// response is tagged ok|degraded|shed — and clean shutdown with work in
/// flight.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "serve/server.hpp"
#include "util/fault.hpp"

namespace tg::serve {
namespace {

constexpr const char* kDesign = "spm";
constexpr double kScale = 0.03125;

int alternative_cell(const SessionView& v, int inst) {
  const Library& lib = v.design.library();
  const int current = v.design.instance(inst).cell_id;
  for (int c : lib.cells_of_function(lib.cell(current).function)) {
    if (c != current) return c;
  }
  return -1;
}

TEST(ServeTsanTest, ConcurrentMixedLoadNeverHangsAndTagsEveryResponse) {
  ServeOptions o;
  o.workers = 4;
  o.queue_capacity = 32;
  o.max_retries = 1;
  o.backoff_base = std::chrono::milliseconds(1);
  o.quarantine_period = std::chrono::milliseconds(50);
  SlackServer server(o);

  constexpr int kClients = 6;
  constexpr int kPerClient = 24;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kClients; ++i) {
    sessions.push_back(server.open_session(kDesign, kScale));
  }

  // A periodic worker blip keeps the retry/stale paths hot under TSan.
  fault::arm_serve_fault("worker", 5, 3);

  std::atomic<int> tagged{0};
  std::atomic<int> untagged{0};
  std::atomic<int> hangs{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SessionId id = sessions[static_cast<std::size_t>(c)];
      ResizeMove move{-1, -1};
      server.inspect(id, [&](const SessionView& v) {
        move = {c % v.design.num_instances(), -1};
        move.new_cell = alternative_cell(v, move.inst);
      });
      for (int i = 0; i < kPerClient; ++i) {
        Request req;
        req.session = id;
        CancelSource cancel;
        switch (i % 6) {
          case 0:  // plain prediction on a pristine session
            break;
          case 1:  // engine view
            req.mode = RequestMode::kSta;
            break;
          case 2:  // ECO move through the cone fast path
            if (move.new_cell >= 0) req.moves.push_back(move);
            break;
          case 3:  // tight deadline: must degrade or shed, never block
            req.budget = std::chrono::microseconds(50);
            break;
          case 4:  // client cancels mid-flight from this thread
            req.cancel = cancel.token();
            break;
          case 5:  // reference answer
            req.mode = RequestMode::kSta;
            req.force_full = true;
            break;
        }
        std::future<Response> fut = server.submit(std::move(req));
        if (i % 6 == 4) cancel.cancel();
        if (fut.wait_for(std::chrono::seconds(120)) !=
            std::future_status::ready) {
          hangs.fetch_add(1);
          continue;
        }
        const Response r = fut.get();
        const bool ok_tag = r.status == ResponseStatus::kOk ||
                            r.status == ResponseStatus::kDegraded ||
                            r.status == ResponseStatus::kShed;
        (ok_tag ? tagged : untagged).fetch_add(1);
        if (r.status == ResponseStatus::kShed && r.retry_after.count() > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }

  // Concurrent read-only inspection while the load runs (view racing
  // against moves is exactly what TSan is here to check).
  std::atomic<bool> stop_inspect{false};
  std::thread inspector([&] {
    while (!stop_inspect.load()) {
      for (const SessionId id : sessions) {
        server.inspect(id, [](const SessionView& v) {
          volatile double sink = v.sta.wns_setup;
          (void)sink;
          (void)v.pristine;
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : clients) t.join();
  stop_inspect.store(true);
  inspector.join();
  fault::clear_serve_fault();

  EXPECT_EQ(hangs.load(), 0);
  EXPECT_EQ(untagged.load(), 0);
  EXPECT_EQ(tagged.load(), kClients * kPerClient);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.ok + s.degraded + s.shed, s.completed);
}

TEST(ServeTsanTest, MixedDesignConcurrentSubmitsServeCleanly) {
  // Several templates under concurrency: clients on three different
  // designs hammer pristine predictions, so workers run different and
  // same templates' forwards side by side, with occasional moves and
  // tight deadlines thrown in to race the pristine read path against
  // materialization and degradation. Invariants: zero hangs, every
  // response tagged, and per-session totals conserved.
  ServeOptions o;
  o.workers = 4;
  o.queue_capacity = 32;
  SlackServer server(o);

  const char* designs[] = {"spm", "zipdiv", "xtea"};
  constexpr int kClients = 6;
  constexpr int kPerClient = 16;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kClients; ++i) {
    sessions.push_back(server.open_session(designs[i % 3], kScale));
  }

  std::atomic<int> tagged{0};
  std::atomic<int> untagged{0};
  std::atomic<int> hangs{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SessionId id = sessions[static_cast<std::size_t>(c)];
      ResizeMove move{-1, -1};
      server.inspect(id, [&](const SessionView& v) {
        move = {c % v.design.num_instances(), -1};
        move.new_cell = alternative_cell(v, move.inst);
      });
      for (int i = 0; i < kPerClient; ++i) {
        Request req;
        req.session = id;
        switch (i % 8) {
          case 6:  // one client materializes mid-run: its later tickets
                   // take the moved session's read, not the template's
            if (c == 0 && move.new_cell >= 0) req.moves.push_back(move);
            break;
          case 7:  // tight deadline on a prediction: degraded tag
            req.budget = std::chrono::microseconds(50);
            break;
          default:  // plain pristine prediction
            break;
        }
        std::future<Response> fut = server.submit(std::move(req));
        if (fut.wait_for(std::chrono::seconds(120)) !=
            std::future_status::ready) {
          hangs.fetch_add(1);
          continue;
        }
        const Response r = fut.get();
        const bool ok_tag = r.status == ResponseStatus::kOk ||
                            r.status == ResponseStatus::kDegraded ||
                            r.status == ResponseStatus::kShed;
        (ok_tag ? tagged : untagged).fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(hangs.load(), 0);
  EXPECT_EQ(untagged.load(), 0);
  EXPECT_EQ(tagged.load(), kClients * kPerClient);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.ok + s.degraded + s.shed, s.completed);
}

TEST(ServeTsanTest, FirstGnnReadsOfMovedSessionsRaceOnAFreshTemplate) {
  // Moved sessions start their GNN graph from a copy of the template's,
  // while a sibling's first read may be embedding that same template.
  // Several sessions of one fresh template (no read has touched it yet)
  // make their first GNN reads at once, on as many workers: the copies
  // must not race the template's lazy caches, and every read, all on
  // the same move, must give one answer. Each round is a fresh server,
  // so a fresh template; rounds raise the odds that TSan sees a racing
  // interleaving with no incidental lock ordering it.
  constexpr int kRounds = 6;
  constexpr int kSessions = 4;
  for (int round = 0; round < kRounds; ++round) {
    ServeOptions o;
    o.workers = kSessions;
    o.queue_capacity = 16;
    o.max_retries = 0;
    SlackServer server(o);
    std::vector<SessionId> sessions;
    for (int i = 0; i < kSessions; ++i) {
      sessions.push_back(server.open_session(kDesign, kScale));
    }
    ResizeMove move{-1, -1};
    server.inspect(sessions[0], [&](const SessionView& v) {
      for (int inst = 0; inst < v.design.num_instances(); ++inst) {
        move = {inst, alternative_cell(v, inst)};
        if (move.new_cell >= 0) break;
      }
    });
    ASSERT_GE(move.new_cell, 0);
    for (const SessionId id : sessions) {
      Request req;
      req.session = id;
      req.mode = RequestMode::kSta;
      req.moves.push_back(move);
      ASSERT_EQ(server.call(std::move(req)).status, ResponseStatus::kOk);
    }

    std::vector<std::future<Response>> futs;
    for (const SessionId id : sessions) {
      Request req;
      req.session = id;
      req.mode = RequestMode::kGnn;
      futs.push_back(server.submit(std::move(req)));
    }
    std::vector<Response> reads;
    for (auto& fut : futs) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(120)),
                std::future_status::ready);
      reads.push_back(fut.get());
    }
    for (const Response& r : reads) {
      ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
      EXPECT_EQ(r.endpoint_setup, reads[0].endpoint_setup);
    }
  }
}

TEST(ServeTsanTest, ClockCornersOpenConcurrentlyWhileGnnReadsRun) {
  // Three clock corners of one design, opened from four threads at once
  // while GNN reads on the corners already open run on the workers: a
  // later corner's build copies a sibling's STA and the physical graph,
  // which those reads walk without a lock. The corners must share one
  // physical template, and every read of a corner must give one answer.
  // Each round is a fresh server, so the corners race a fresh build.
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    ServeOptions o;
    o.workers = 4;
    o.queue_capacity = 64;  // 24 reads stay below the degrade fill
    o.max_retries = 0;
    SlackServer server(o);
    constexpr int kThreads = 4;
    constexpr double kFactors[] = {0.0, 0.92, 1.08};
    constexpr int kCorners = 3;
    std::vector<std::vector<Response>> answers(kThreads * kCorners);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::pair<int, SessionId>> open;
        std::vector<std::pair<int, std::future<Response>>> futs;
        for (int k = 0; k < kCorners; ++k) {
          const int corner = (t + k) % kCorners;
          open.emplace_back(corner, server.open_session(kDesign, kScale,
                                                        kFactors[corner]));
          // A read on every corner this thread has open, so reads of the
          // physical template overlap the next corner's build.
          for (const auto& [c, id] : open) {
            Request req;
            req.session = id;
            req.mode = RequestMode::kGnn;
            futs.emplace_back(c, server.submit(std::move(req)));
          }
        }
        for (auto& [c, fut] : futs) {
          answers[static_cast<std::size_t>(t * kCorners + c)].push_back(
              fut.get());
        }
      });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(server.stats().physical_templates, 1u);
    for (int c = 0; c < kCorners; ++c) {
      const std::vector<double>* first = nullptr;
      for (int t = 0; t < kThreads; ++t) {
        for (const Response& r :
             answers[static_cast<std::size_t>(t * kCorners + c)]) {
          ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
          if (first == nullptr) first = &r.endpoint_setup;
          EXPECT_EQ(r.endpoint_setup, *first) << "corner " << c;
        }
      }
      ASSERT_NE(first, nullptr);
    }
  }
}

TEST(ServeTsanTest, ShutdownRacesInFlightWorkCleanly) {
  ServeOptions o;
  o.workers = 2;
  o.queue_capacity = 16;
  SlackServer server(o);
  const SessionId id = server.open_session(kDesign, kScale);

  std::vector<std::future<Response>> futs;
  std::thread submitter([&] {
    for (int i = 0; i < 64; ++i) {
      Request req;
      req.session = id;
      if (i % 2 == 0) req.mode = RequestMode::kSta;
      futs.push_back(server.submit(std::move(req)));
      // Submissions continue right through the racing shutdown below:
      // late ones must be shed at the door, never lost.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  server.shutdown();
  submitter.join();

  for (auto& fut : futs) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(120)),
              std::future_status::ready)
        << "a future was dropped by shutdown";
    (void)fut.get();
  }
  EXPECT_EQ(server.stats().completed, server.stats().submitted);
}

}  // namespace
}  // namespace tg::serve
