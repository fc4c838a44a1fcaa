#include "util/fault.hpp"

#include <cstdlib>
#include <mutex>

namespace tg::fault {

namespace {

/// One fault domain: an env var + its armed (op, nth, count) window and
/// match counter. Domains are independent — arming a serve fault never
/// perturbs io state.
struct FaultState {
  explicit FaultState(const char* var) : env_var(var) {}

  const char* env_var;
  std::mutex mutex;
  bool env_parsed = false;
  std::string op;       // empty = disarmed
  long long nth = 0;    // 1-based first failing match
  long long count = 1;  // consecutive failing matches from nth on
  long long matched = 0;

  /// Parses <op>:<nth>[:<count>] from this domain's env var. Malformed
  /// values disarm (and are ignored): fault injection is a test facility,
  /// not a user-facing contract.
  void parse_env_locked() {
    env_parsed = true;
    const char* env = std::getenv(env_var);
    if (env == nullptr) return;
    const std::string spec(env);
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0) return;
    char* end = nullptr;
    const long long n = std::strtoll(spec.c_str() + colon + 1, &end, 10);
    if (n <= 0) return;
    long long c = 1;
    if (end != nullptr && *end == ':') {
      c = std::strtoll(end + 1, nullptr, 10);
      if (c <= 0) return;
    }
    op = spec.substr(0, colon);
    nth = n;
    count = c;
  }

  void arm(const std::string& armed_op, long long armed_nth,
           long long armed_count) {
    const std::lock_guard<std::mutex> lock(mutex);
    env_parsed = true;  // explicit arming overrides the env var
    op = armed_op;
    nth = armed_nth;
    count = armed_count;
    matched = 0;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex);
    env_parsed = true;
    op.clear();
    nth = 0;
    count = 1;
    matched = 0;
  }

  void reparse() {
    const std::lock_guard<std::mutex> lock(mutex);
    op.clear();
    nth = 0;
    count = 1;
    matched = 0;
    parse_env_locked();
  }

  bool should_fail(const char* probe_op) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!env_parsed) parse_env_locked();
    if (op.empty() || op != probe_op) return false;
    ++matched;
    return matched >= nth && matched < nth + count;
  }

  long long matched_ops() {
    const std::lock_guard<std::mutex> lock(mutex);
    return matched;
  }
};

FaultState& io_state() {
  static FaultState s("TG_FAULT_IO");
  return s;
}

FaultState& serve_state() {
  static FaultState s("TG_FAULT_SERVE");
  return s;
}

}  // namespace

void arm_io_fault(const std::string& op, long long nth) {
  io_state().arm(op, nth, 1);
}

void clear_io_fault() { io_state().clear(); }

void reparse_io_fault_env() { io_state().reparse(); }

bool should_fail_io(const char* op) { return io_state().should_fail(op); }

long long matched_io_ops() { return io_state().matched_ops(); }

void arm_serve_fault(const std::string& op, long long nth, long long count) {
  serve_state().arm(op, nth, count);
}

void clear_serve_fault() { serve_state().clear(); }

void reparse_serve_fault_env() { serve_state().reparse(); }

bool should_fail_serve(const char* op) {
  return serve_state().should_fail(op);
}

long long matched_serve_ops() { return serve_state().matched_ops(); }

}  // namespace tg::fault
