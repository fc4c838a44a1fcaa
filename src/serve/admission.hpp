#pragma once
/// \file admission.hpp
/// Bounded admission queue of the serving plane (DESIGN.md §12). Requests
/// that don't fit are *shed at the door* — the submitter gets an immediate
/// kShed response with a retry-after hint instead of unbounded queueing —
/// which is what keeps p99 bounded under an overload spike. Workers pop
/// tickets FIFO, and each ticket takes the server's ladder on its own.

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
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(int capacity);

  /// Enqueues; returns false (without touching the promise) when the queue
  /// is full or stopped — the caller sheds.
  bool push(Ticket&& ticket);

  /// Blocks until a ticket or stop. nullopt = stopped and drained.
  std::optional<Ticket> pop();

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
