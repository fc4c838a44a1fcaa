/// \file top_main.cpp
/// tg_top: terminal profile viewer for the observability layer
/// (DESIGN.md §9). Reads either artifact the obs layer writes and prints a
/// sorted profile:
///
///   tg_top --trace=trace.json            # Perfetto trace -> span tree
///   tg_top --metrics=metrics.json        # metrics snapshot -> tables
///   tg_top --trace=trace.json --sort=total --top=10
///
/// Trace mode reconstructs the span nesting per thread from the "X" events
/// (using ts/dur containment), aggregates identical name-paths, and prints
/// a hierarchical table (total/self wall time, call count) followed by a
/// flat self-time ranking — self time is total minus time spent in child
/// spans, so the flat table points at the code actually burning CPU.
/// Metrics mode prints counters, gauges and histograms; `span/...`
/// histograms are shown in milliseconds.
///
/// Exits non-zero when the input cannot be parsed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace tg {
namespace {

// ---- trace mode ----------------------------------------------------------

struct XEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

/// Aggregated span-tree node, keyed by the span's name-path from the root.
struct TreeNode {
  std::string name;
  double total_us = 0.0;
  double child_us = 0.0;
  long long count = 0;
  std::map<std::string, std::unique_ptr<TreeNode>> children;

  [[nodiscard]] double self_us() const { return total_us - child_us; }
};

struct FlatRow {
  std::string name;
  double total_us = 0.0;
  double self_us = 0.0;
  long long count = 0;
};

void collect_events(const json::Value& root, std::vector<XEvent>* out) {
  const json::Value& events = root.at("traceEvents");
  for (const json::Value& ev : events.as_array()) {
    if (!ev.is_object() || !ev.contains("ph")) continue;
    if (ev.at("ph").as_string() != "X") continue;
    XEvent x;
    x.name = ev.at("name").as_string();
    x.ts_us = ev.at("ts").as_number();
    x.dur_us = ev.at("dur").as_number();
    x.tid = static_cast<int>(ev.at("tid").as_number());
    out->push_back(std::move(x));
  }
}

/// Builds the aggregated tree for one thread's events, which must be sorted
/// by (ts, deeper-first at equal ts). A running stack of (end_ts, node)
/// pairs tracks the open spans; an event nests under the innermost open
/// span that contains it.
void build_thread_tree(const std::vector<const XEvent*>& events,
                       TreeNode* root) {
  std::vector<std::pair<double, TreeNode*>> stack;  // (end ts, node)
  for (const XEvent* ev : events) {
    while (!stack.empty() && ev->ts_us >= stack.back().first - 1e-9) {
      stack.pop_back();
    }
    TreeNode* parent = stack.empty() ? root : stack.back().second;
    std::unique_ptr<TreeNode>& slot = parent->children[ev->name];
    if (!slot) {
      slot = std::make_unique<TreeNode>();
      slot->name = ev->name;
    }
    slot->total_us += ev->dur_us;
    slot->count += 1;
    if (parent != root) parent->child_us += ev->dur_us;
    stack.emplace_back(ev->ts_us + ev->dur_us, slot.get());
  }
}

void sorted_children(const TreeNode& node, bool by_total,
                     std::vector<const TreeNode*>* out) {
  out->clear();
  for (const auto& [name, child] : node.children) out->push_back(child.get());
  std::sort(out->begin(), out->end(),
            [by_total](const TreeNode* a, const TreeNode* b) {
              const double ka = by_total ? a->total_us : a->self_us();
              const double kb = by_total ? b->total_us : b->self_us();
              return ka > kb;
            });
}

void print_tree(const TreeNode& node, int depth, bool by_total, int max_rows,
                int* rows_left) {
  std::vector<const TreeNode*> kids;
  sorted_children(node, by_total, &kids);
  for (const TreeNode* child : kids) {
    if (*rows_left <= 0) {
      std::printf("%*s... (--top=%d reached)\n", 2 * depth + 2, "", max_rows);
      return;
    }
    --*rows_left;
    std::printf("%10.3f %10.3f %8lld  %*s%s\n", child->total_us / 1e3,
                child->self_us() / 1e3, child->count, 2 * depth, "",
                child->name.c_str());
    print_tree(*child, depth + 1, by_total, max_rows, rows_left);
  }
}

void flatten(const TreeNode& node, std::map<std::string, FlatRow>* flat) {
  for (const auto& [name, child] : node.children) {
    FlatRow& row = (*flat)[name];
    row.name = name;
    row.total_us += child->total_us;
    row.self_us += child->self_us();
    row.count += child->count;
    flatten(*child, flat);
  }
}

int run_trace_mode(const std::string& path, bool by_total, int top) {
  const json::Value root = json::parse_file(path);
  std::vector<XEvent> events;
  collect_events(root, &events);
  if (events.empty()) {
    std::printf("no spans in %s (was TG_TRACE set when the program ran?)\n",
                path.c_str());
    return 0;
  }

  // Per-thread, sorted so parents precede children (longer span first when
  // start times tie).
  std::map<int, std::vector<const XEvent*>> by_tid;
  for (const XEvent& ev : events) by_tid[ev.tid].push_back(&ev);
  TreeNode root_node;
  root_node.name = "(root)";
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const XEvent* a, const XEvent* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    build_thread_tree(list, &root_node);
  }

  std::printf("# %zu spans, %zu threads from %s\n", events.size(),
              by_tid.size(), path.c_str());
  std::printf("\n%10s %10s %8s  span tree (sorted by %s time)\n", "total ms",
              "self ms", "count", by_total ? "total" : "self");
  int rows_left = top;
  print_tree(root_node, 0, by_total, top, &rows_left);

  std::map<std::string, FlatRow> flat_map;
  flatten(root_node, &flat_map);
  std::vector<FlatRow> flat;
  for (auto& [name, row] : flat_map) flat.push_back(row);
  std::sort(flat.begin(), flat.end(), [](const FlatRow& a, const FlatRow& b) {
    return a.self_us > b.self_us;
  });
  std::printf("\n%10s %10s %8s  top self time\n", "self ms", "total ms",
              "count");
  const int limit = std::min<int>(top, static_cast<int>(flat.size()));
  for (int i = 0; i < limit; ++i) {
    std::printf("%10.3f %10.3f %8lld  %s\n", flat[static_cast<std::size_t>(i)].self_us / 1e3,
                flat[static_cast<std::size_t>(i)].total_us / 1e3,
                flat[static_cast<std::size_t>(i)].count,
                flat[static_cast<std::size_t>(i)].name.c_str());
  }
  return 0;
}

// ---- metrics mode --------------------------------------------------------

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Memory-plane digest (DESIGN.md §10): condenses the alloc/* counters and
/// gauges into the two numbers that matter — steady-state hit rate (misses
/// should be ~0 after warm-up) and peak live bytes.
void print_alloc_summary(const json::Value& root) {
  auto num = [&root](const char* section, const char* name) -> double {
    if (!root.contains(section)) return 0.0;
    const json::Object& obj = root.at(section).as_object();
    const auto it = obj.find(name);
    return it == obj.end() ? 0.0 : it->second.as_number();
  };
  const double hits = num("counters", "alloc/hit");
  const double misses = num("counters", "alloc/miss");
  const double total = hits + misses;
  if (total <= 0.0) return;  // run predates the arena or never allocated
  constexpr double kMiB = 1024.0 * 1024.0;
  std::printf("memory plane (TG_ALLOC arena)\n");
  std::printf("  %12.0f acquires   %10.0f hits   %8.0f misses  (hit rate %.4f)\n",
              total, hits, misses, hits / total);
  std::printf("  %12.0f releases   %10.1f MiB acquired lifetime\n",
              num("counters", "alloc/release"),
              num("counters", "alloc/bytes_acquired") / kMiB);
  std::printf("  %12.1f MiB high water   %7.1f MiB cached now\n",
              num("gauges", "alloc/bytes_high_water") / kMiB,
              num("gauges", "alloc/bytes_cached") / kMiB);
}

/// Serving-plane digest (DESIGN.md §12): the health-check numbers for a
/// SlackServer run — admission outcome mix, ladder tier mix, request
/// latency percentiles and the fault/retry/quarantine tallies.
void print_serve_summary(const json::Value& root) {
  auto num = [&root](const char* section, const char* name) -> double {
    if (!root.contains(section)) return 0.0;
    const json::Object& obj = root.at(section).as_object();
    const auto it = obj.find(name);
    return it == obj.end() ? 0.0 : it->second.as_number();
  };
  const double completed = num("counters", "serve/completed");
  if (completed <= 0.0) return;  // no serving plane in this run
  const double pct = 100.0 / completed;
  std::printf("serving plane (SlackServer)\n");
  std::printf("  %12.0f completed   %8.0f ok (%.1f%%)   %6.0f degraded "
              "(%.1f%%)   %6.0f shed (%.1f%%)\n",
              completed, num("counters", "serve/ok"),
              num("counters", "serve/ok") * pct,
              num("counters", "serve/degraded"),
              num("counters", "serve/degraded") * pct,
              num("counters", "serve/shed"),
              num("counters", "serve/shed") * pct);
  std::printf("  %12.0f full tier   %8.0f cone tier   %8.0f stale tier\n",
              num("counters", "serve/tier_full"),
              num("counters", "serve/tier_cone"),
              num("counters", "serve/tier_stale"));
  // Moved sessions' incremental GNN reads: rows re-propagated per read
  // over graph rows read (1.0 = every read walked the whole graph).
  const double read_nodes = num("counters", "serve/gnn_read_nodes");
  if (read_nodes > 0.0 && root.contains("histograms")) {
    const json::Object& hists = root.at("histograms").as_object();
    const auto it = hists.find("serve/gnn_read_rows");
    if (it != hists.end()) {
      const json::Value& h = it->second;
      std::printf("  %12.0f gnn reads   %8.0f full reads   %.3f mean cone-row "
                  "fraction   %.0f rows/read mean\n",
                  h.at("count").as_number(),
                  num("counters", "serve/gnn_read_full"),
                  h.at("sum").as_number() / read_nodes,
                  h.at("mean").as_number());
    }
  }
  std::printf("  %12.0f faults   %8.0f retries   %6.0f quarantines   "
              "%6.0f cancelled   %6.0f deadline-expired\n",
              num("counters", "serve/faults"),
              num("counters", "serve/retries"),
              num("counters", "serve/quarantines"),
              num("counters", "serve/cancelled"),
              num("counters", "serve/deadline_expired"));
  if (root.contains("histograms")) {
    const json::Object& hists = root.at("histograms").as_object();
    const auto it = hists.find("serve/latency_ns");
    if (it != hists.end()) {
      const json::Value& h = it->second;
      std::printf("  %12.3f ms latency p50   %.3f ms p90   %.3f ms p99\n",
                  h.at("p50").as_number() / 1e6,
                  h.at("p90").as_number() / 1e6,
                  h.at("p99").as_number() / 1e6);
    }
  }
}

int run_metrics_mode(const std::string& path, int top) {
  const json::Value root = json::parse_file(path);

  print_alloc_summary(root);
  print_serve_summary(root);
  if (root.contains("counters")) {
    const json::Object& counters = root.at("counters").as_object();
    if (!counters.empty()) {
      std::printf("\n%14s  counters\n", "value");
      for (const auto& [name, v] : counters) {
        std::printf("%14.0f  %s\n", v.as_number(), name.c_str());
      }
    }
  }
  if (root.contains("gauges")) {
    const json::Object& gauges = root.at("gauges").as_object();
    if (!gauges.empty()) {
      std::printf("\n%14s  gauges\n", "value");
      for (const auto& [name, v] : gauges) {
        std::printf("%14.3f  %s\n", v.as_number(), name.c_str());
      }
    }
  }
  if (root.contains("histograms")) {
    const json::Object& hists = root.at("histograms").as_object();
    // Span histograms double as the profile: rank them by total time.
    struct Row {
      std::string name;
      double count, sum, mean, p50, p90, p99;
      bool is_span;
    };
    std::vector<Row> rows;
    for (const auto& [name, h] : hists) {
      Row r;
      r.name = name;
      r.count = h.at("count").as_number();
      r.sum = h.at("sum").as_number();
      r.mean = h.at("mean").as_number();
      r.p50 = h.at("p50").as_number();
      r.p90 = h.at("p90").as_number();
      r.p99 = h.at("p99").as_number();
      // span/* and bwd/* (backward-tape attribution) both record ns.
      r.is_span = starts_with(name, "span/") || starts_with(name, "bwd/");
      rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.sum > b.sum; });
    if (!rows.empty()) {
      std::printf("\n%10s %8s %10s %10s %10s %10s  histograms (span/*, bwd/* in ms)\n",
                  "total", "count", "mean", "p50", "p90", "p99");
      int printed = 0;
      for (const Row& r : rows) {
        if (printed++ >= top) {
          std::printf("... (--top=%d reached)\n", top);
          break;
        }
        // Span histograms record nanoseconds; print milliseconds.
        const double unit = r.is_span ? 1e6 : 1.0;
        std::printf("%10.3f %8.0f %10.3f %10.3f %10.3f %10.3f  %s\n",
                    r.sum / unit, r.count, r.mean / unit, r.p50 / unit,
                    r.p90 / unit, r.p99 / unit, r.name.c_str());
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  try {
    opts.require_known({"trace", "metrics", "top", "sort"});
    const int top = static_cast<int>(opts.get_int("top", 30));
    const std::string sort = opts.get("sort", "self");
    TG_CHECK_MSG(sort == "self" || sort == "total",
                 "--sort must be self or total, got " << sort);
    const bool has_trace = opts.has("trace");
    const bool has_metrics = opts.has("metrics");
    TG_CHECK_MSG(has_trace || has_metrics,
                 "usage: tg_top --trace=trace.json | --metrics=metrics.json "
                 "[--top=N] [--sort=self|total]");
    int rc = 0;
    if (has_trace) {
      rc |= run_trace_mode(opts.get("trace", ""), sort == "total", top);
    }
    if (has_metrics) {
      if (has_trace) std::printf("\n");
      rc |= run_metrics_mode(opts.get("metrics", ""), top);
    }
    return rc;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "tg_top: %s\n", e.what());
    return 1;
  }
}
