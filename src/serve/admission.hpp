#pragma once
/// \file admission.hpp
/// Bounded admission queue of the serving plane (DESIGN.md §12). Requests
/// that don't fit are *shed at the door* — the submitter gets an immediate
/// kShed response with a retry-after hint instead of unbounded queueing —
/// which is what keeps p99 bounded under an overload spike. Workers pop
/// tickets FIFO; the micro-batcher additionally drains queued tickets that
/// are *compatible* with the one just popped (same template, pristine
/// session, pure full-graph prediction), so one GNN forward answers all of
/// them.

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/types.hpp"

namespace tg::serve {

/// One queued request plus its fulfillment slot and admission metadata.
struct Ticket {
  Request req;
  std::promise<Response> promise;
  std::chrono::steady_clock::time_point enqueued{};
  /// Absolute deadline (from the submit-time budget), or time_point::max().
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
  /// Template key of the target session (micro-batch compatibility).
  std::uint64_t tpl_key = 0;
  /// True when this is a pure full-graph prediction on a pristine session.
  bool batchable = false;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(int capacity);

  /// Enqueues; returns false (without touching the promise) when the queue
  /// is full or stopped — the caller sheds.
  bool push(Ticket&& ticket);

  /// Blocks until a ticket or stop. nullopt = stopped and drained.
  std::optional<Ticket> pop();

  /// Removes up to `max_extra` queued batchable tickets of template
  /// `tpl_key`, in FIFO order; every other ticket stays queued in place.
  std::vector<Ticket> drain_compatible(std::uint64_t tpl_key, int max_extra);

  /// Stops the queue and returns every still-queued ticket so the caller
  /// can shed them (no ticket is ever silently dropped).
  std::vector<Ticket> stop();

  [[nodiscard]] int size() const;
  [[nodiscard]] int capacity() const { return capacity_; }
  /// size() / capacity() at this instant — the degradation ladder's load
  /// signal.
  [[nodiscard]] double fill() const;

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket> queue_;
  bool stopped_ = false;
};

}  // namespace tg::serve
