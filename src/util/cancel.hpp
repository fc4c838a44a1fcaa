#pragma once
/// \file cancel.hpp
/// Cooperative cancellation for long-running compute (DESIGN.md §12).
///
/// A `CancelSource` owns a cancellation state (an explicit cancel() flag
/// plus an optional absolute deadline); `CancelToken` is the cheap copyable
/// handle compute code polls. Polling a default-constructed (null) token
/// compiles down to one pointer test, so hot loops can stay instrumented
/// unconditionally — only callers that actually carry a budget pay for the
/// clock reads.
///
/// Cancellation is *cooperative*: nothing is interrupted preemptively.
/// Checkpoints live at natural task boundaries — the levelized STA sweeps
/// check between levels, the incremental timer every 128 pins of its cone
/// walk, the GNN delay-propagation stage between level steps — so a
/// cancelled request stops within one level, never mid-tensor. A tripped
/// checkpoint throws `CancelError`, which unwinds like any other failure
/// and names whether the stop was an explicit cancel or an expired
/// deadline.
///
/// Tokens chain: `CancelSource` can be created with a parent token, and the
/// child reports cancelled when either its own state or any ancestor trips.
/// The serving plane uses this to merge a client's cancel handle with the
/// server-side per-request deadline.
///
/// `ScopedCancel` installs a token as the calling thread's *ambient* token
/// (`current_cancel_token()`), which is how cancellation threads through
/// deep call stacks — run_sta, IncrementalTimer::update and
/// DelayProp::forward all poll the ambient token without signature changes.

#include <chrono>
#include <memory>
#include <stdexcept>

namespace tg {

enum class CancelReason {
  kNone = 0,
  kCancelled = 1,  ///< explicit CancelSource::cancel()
  kDeadline = 2,   ///< the source's deadline passed
};

[[nodiscard]] const char* cancel_reason_name(CancelReason reason);

/// Thrown by a cancellation checkpoint. Derives from std::runtime_error so
/// generic handlers still work; the serving plane catches it specifically
/// to walk the degradation ladder instead of reporting a fault.
class CancelError : public std::runtime_error {
 public:
  explicit CancelError(CancelReason reason);
  [[nodiscard]] CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

namespace cancel_detail {
struct CancelState;
}  // namespace cancel_detail

/// Copyable polling handle. A default-constructed token is "null": never
/// cancelled, and polling it is a single pointer test.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// True once the source was cancelled, its deadline passed, or any
  /// ancestor token reports cancelled. Latches: once true, stays true.
  [[nodiscard]] bool cancelled() const;

  /// Why the token is cancelled (kNone while it is not).
  [[nodiscard]] CancelReason reason() const;

  /// Throws CancelError when cancelled; the checkpoint the compute
  /// sweeps call at level boundaries.
  void throw_if_cancelled() const;

  /// Remaining time before the nearest deadline in the chain, or
  /// duration::max() when no deadline applies. Already-cancelled tokens
  /// report zero.
  [[nodiscard]] std::chrono::nanoseconds remaining() const;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<cancel_detail::CancelState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<cancel_detail::CancelState> state_;
};

/// Owner of one cancellation state. Copyable (shared ownership); all copies
/// observe one another's cancel().
class CancelSource {
 public:
  /// No deadline; cancels only via cancel().
  CancelSource();
  /// Trips automatically at `deadline` (steady clock).
  static CancelSource with_deadline(
      std::chrono::steady_clock::time_point deadline,
      CancelToken parent = {});
  /// Trips automatically `budget` from now.
  static CancelSource with_budget(std::chrono::nanoseconds budget,
                                  CancelToken parent = {});
  /// No own deadline, but inherits cancellation from `parent`.
  static CancelSource with_parent(CancelToken parent);

  void cancel();
  [[nodiscard]] bool cancelled() const { return token().cancelled(); }
  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<cancel_detail::CancelState> state_;
};

/// The calling thread's ambient token (null unless a ScopedCancel is
/// active on this thread).
[[nodiscard]] CancelToken current_cancel_token();

/// RAII ambient-token installer. Nests: the previous token is restored on
/// destruction.
class ScopedCancel {
 public:
  explicit ScopedCancel(CancelToken token);
  ~ScopedCancel();
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  CancelToken prev_;
};

}  // namespace tg
