#pragma once
/// \file fault.hpp
/// Deterministic fault injection, one domain per subsystem.
///
/// A *domain* is an independent (env var, op vocabulary) pair; each keeps
/// its own armed op, trigger window and match counter, so e.g. a serving
/// fault drill never perturbs I/O fault tests running in the same process.
///
/// ## io domain — persistence layer
/// The binary reader/writer (util/io) asks `should_fail_io(op)` before each
/// operation; when a fault is armed for that op, the Nth matching call
/// reports failure and the caller throws the same CheckError it would raise
/// on a real short read / full disk / failed rename. That makes every error
/// path in save/load/checkpoint code exercisable from ctest instead of only
/// in theory.
///
/// Two ways to arm a fault:
///   - environment: TG_FAULT_IO=<op>:<nth>  (e.g. TG_FAULT_IO=write:3),
///     parsed once on first use;
///   - programmatic: arm_io_fault("rename", 1) / clear_io_fault() from tests.
///
/// Recognised ops: open_read, read, open_write, write, fsync, rename.
///
/// ## serve domain — slack-prediction serving plane
/// `SlackServer` workers (src/serve) ask `should_fail_serve(op)` at the
/// matching points of request execution. Armed via
/// `TG_FAULT_SERVE=<op>:<nth>[:<count>]` or arm_serve_fault(). Recognised
/// ops:
///   worker — throw from a worker mid-request (exercises retry + capped
///            exponential backoff, and past the retry budget, per-session
///            quarantine)
///   slow   — inject a stall into one request (exercises deadline expiry
///            and the degradation ladder)
///   cache  — corrupt a session's stale-answer cache entry as it is
///            written (exercises the checksum check on the read side)
///   gnn    — throw from a moved session's GNN read after its feature
///            patch, before its re-embed (exercises the gnn_dirty
///            recovery: the next read re-embeds and re-propagates all)
///
/// Serve faults carry a *count*: the fault trips on the Nth matching call
/// and on the `count - 1` matching calls after it (default 1 — a single
/// blip a retry recovers from; a large count models a persistently broken
/// dependency, which is what drives backoff into quarantine).

#include <string>

namespace tg::fault {

// ---- io domain -----------------------------------------------------------

/// Arms a fault: the `nth` (1-based) subsequent I/O operation named `op`
/// fails. Resets the match counter. Overrides any TG_FAULT_IO setting.
void arm_io_fault(const std::string& op, long long nth);

/// Disarms any io fault (env- or API-armed) and resets the match counter.
void clear_io_fault();

/// Re-reads TG_FAULT_IO now (normally parsed once, lazily). Lets tests
/// exercise the environment path after the process has already done I/O.
void reparse_io_fault_env();

/// Called by the I/O layer before each operation. Returns true exactly when
/// this call is the Nth matching `op` since arming; the caller must then
/// fail the operation. Thread-safe; counts only matching ops.
[[nodiscard]] bool should_fail_io(const char* op);

/// Number of operations that matched the armed op so far (test diagnostics).
[[nodiscard]] long long matched_io_ops();

// ---- serve domain --------------------------------------------------------

/// Arms a serving fault: matching serve operations number `nth` through
/// `nth + count - 1` (1-based) trip. Resets the match counter; overrides
/// TG_FAULT_SERVE.
void arm_serve_fault(const std::string& op, long long nth,
                     long long count = 1);

/// Disarms any serve fault (env- or API-armed), resets the match counter.
void clear_serve_fault();

/// Re-reads TG_FAULT_SERVE now (normally parsed once, lazily).
void reparse_serve_fault_env();

/// Called by the serving plane at each fault point. True when this call's
/// match ordinal falls inside the armed [nth, nth + count) window.
[[nodiscard]] bool should_fail_serve(const char* op);

/// Serve operations that matched the armed op so far (test diagnostics).
[[nodiscard]] long long matched_serve_ops();

}  // namespace tg::fault
