#include "util/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/log.hpp"
#include "util/obs/metrics.hpp"

namespace tg::obs {

namespace detail {

std::atomic<int> g_span_gate{-1};

namespace {

std::atomic<int> g_trace_level{-1};
std::mutex g_trace_path_mu;
std::string& trace_path_storage() {
  static std::string* s = new std::string;
  return *s;
}

std::uint64_t default_buffer_capacity() {
  if (const char* cap = std::getenv("TG_TRACE_CAP")) {
    const long v = std::strtol(cap, nullptr, 10);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return std::uint64_t{1} << 16;
}

struct Event {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::int32_t depth;
};

/// Per-thread bounded span buffer. The owner thread appends and publishes
/// `count` with a release store; readers acquire `count` and read only the
/// published prefix, so dumps are race-free while the owner keeps writing.
struct ThreadBuffer {
  std::vector<Event> events;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  int tid = 0;
  std::string name;

  explicit ThreadBuffer(std::uint64_t capacity) { events.resize(capacity); }

  void push(const char* name_, std::uint64_t start_ns, std::uint64_t dur_ns,
            int depth) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    if (n >= events.size()) {
      if (dropped.fetch_add(1, std::memory_order_relaxed) == 0) {
        TG_WARN_ONCE("trace: per-thread span buffer full ("
                     << events.size()
                     << " events); dropping further spans. Raise TG_TRACE_CAP"
                        " or lower TG_TRACE_LEVEL.");
      }
      return;
    }
    events[n] = Event{name_, start_ns, dur_ns, depth};
    count.store(n + 1, std::memory_order_release);
  }
};

/// Leaked registry of all thread buffers; buffers are never removed so a
/// dump can read spans from threads that have already exited.
struct BufferRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};
BufferRegistry& buffer_registry() {
  static BufferRegistry* r = new BufferRegistry;
  return *r;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int t_depth = 0;
thread_local std::uint64_t t_start_stack[64];
// Name requested via set_thread_name before the buffer existed.
thread_local std::string t_pending_name;

ThreadBuffer& this_thread_buffer() {
  if (t_buffer) return *t_buffer;
  static const std::uint64_t capacity = default_buffer_capacity();
  auto buf = std::make_unique<ThreadBuffer>(capacity);
  BufferRegistry& reg = buffer_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  buf->tid = static_cast<int>(reg.buffers.size());
  buf->name = std::move(t_pending_name);
  t_buffer = buf.get();
  reg.buffers.push_back(std::move(buf));
  return *t_buffer;
}

}  // namespace

void refresh_span_gate() {
  const int lvl = g_trace_level.load(std::memory_order_relaxed);
  // With metrics on, every span level feeds its histogram even if the
  // trace level would filter it out of the trace file.
  g_span_gate.store(metrics_enabled() ? kSpanVerbose : lvl,
                    std::memory_order_relaxed);
}

void span_begin(SpanSite&) {
  if (t_depth < 64) t_start_stack[t_depth] = now_ns();
  ++t_depth;
}

void span_end(SpanSite& site) {
  --t_depth;
  if (t_depth >= 64) return;  // deeper than the stack tracks: skip
  const std::uint64_t start = t_start_stack[t_depth];
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end >= start ? end - start : 0;
  if (site.level <= g_trace_level.load(std::memory_order_relaxed)) {
    this_thread_buffer().push(site.name, start, dur, t_depth);
  }
  if (metrics_enabled()) {
    Histogram* h = static_cast<Histogram*>(
        site.hist.load(std::memory_order_acquire));
    if (!h) {
      h = &histogram(std::string("span/") + site.name);
      site.hist.store(h, std::memory_order_release);
    }
    h->record(dur);
  }
}

}  // namespace detail

int trace_level() {
  return detail::g_trace_level.load(std::memory_order_relaxed);
}

void set_trace_level(int level) {
  detail::g_trace_level.store(level, std::memory_order_relaxed);
  detail::refresh_span_gate();
}

std::string trace_path() {
  std::lock_guard<std::mutex> lock(detail::g_trace_path_mu);
  return detail::trace_path_storage();
}

void set_trace_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(detail::g_trace_path_mu);
  detail::trace_path_storage() = path;
}

void set_thread_name(const std::string& name) {
  if (detail::t_buffer) {
    detail::BufferRegistry& reg = detail::buffer_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    detail::t_buffer->name = name;
    return;
  }
  detail::t_pending_name = name;
}

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

std::vector<CollectedEvent> collected_trace_events() {
  std::vector<CollectedEvent> out;
  detail::BufferRegistry& reg = detail::buffer_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& buf : reg.buffers) {
    const std::uint64_t n = buf->count.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      const detail::Event& e = buf->events[i];
      out.push_back({e.name, e.start_ns, e.dur_ns, e.depth, buf->tid});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  return out;
}

void clear_trace() {
  detail::BufferRegistry& reg = detail::buffer_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& buf : reg.buffers) {
    buf->count.store(0, std::memory_order_release);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
}

TraceStats trace_stats() {
  TraceStats out;
  detail::BufferRegistry& reg = detail::buffer_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  out.threads = static_cast<int>(reg.buffers.size());
  for (const auto& buf : reg.buffers) {
    out.recorded += buf->count.load(std::memory_order_acquire);
    out.dropped += buf->dropped.load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

void json_escape(std::FILE* f, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f);
    }
  }
}

/// Category = span-name prefix up to the first '/', so Perfetto can filter
/// by layer ("sta", "route", "data", "nn", "core").
std::string span_category(const char* name) {
  const char* slash = std::strchr(name, '/');
  return slash ? std::string(name, slash) : std::string(name);
}

}  // namespace

bool write_trace_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    TG_WARN("trace: cannot open " << path << " for writing");
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;

  // thread_name metadata events first.
  {
    detail::BufferRegistry& reg = detail::buffer_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& buf : reg.buffers) {
      std::fprintf(f,
                   "%s\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                   "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                   first ? "" : ",", buf->tid);
      json_escape(f, buf->name.empty()
                         ? ("thread-" + std::to_string(buf->tid)).c_str()
                         : buf->name.c_str());
      std::fprintf(f, "\"}}");
      first = false;
    }
  }

  for (const CollectedEvent& e : collected_trace_events()) {
    std::fprintf(f,
                 "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"name\":\"",
                 first ? "" : ",", e.tid,
                 static_cast<double>(e.start_ns) / 1000.0,
                 static_cast<double>(e.dur_ns) / 1000.0);
    json_escape(f, e.name);
    std::fprintf(f, "\",\"cat\":\"");
    json_escape(f, span_category(e.name).c_str());
    std::fprintf(f, "\",\"args\":{\"depth\":%d}}", e.depth);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  if (!ok) TG_WARN("trace: error while writing " << path);
  const TraceStats stats = trace_stats();
  if (stats.dropped > 0) {
    TG_WARN("trace: " << stats.dropped
                      << " spans were dropped (buffers full); trace is "
                         "incomplete");
  }
  return ok;
}

namespace {

struct TraceEnvInit {
  TraceEnvInit() {
    const char* path = std::getenv("TG_TRACE");
    if (!path || !*path) {
      // TG_TRACE_LEVEL alone enables in-memory tracing (tests/tools).
      if (const char* lvl = std::getenv("TG_TRACE_LEVEL")) {
        set_trace_level(static_cast<int>(std::strtol(lvl, nullptr, 10)));
      }
      return;
    }
    set_trace_path(path);
    int level = kSpanDetail;
    if (const char* lvl = std::getenv("TG_TRACE_LEVEL")) {
      level = static_cast<int>(std::strtol(lvl, nullptr, 10));
    }
    set_trace_level(level);
    set_thread_name("main");
    std::atexit([] {
      const std::string p = trace_path();
      if (!p.empty()) write_trace_json(p);
    });
  }
};
const TraceEnvInit g_trace_env_init;

}  // namespace

}  // namespace tg::obs
