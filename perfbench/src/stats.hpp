#pragma once
/// \file stats.hpp
/// Sample arithmetic and failure accounting shared by every perfbench
/// workload: percentiles, the tail-percentile rule, and the ledger that
/// turns shed, degraded and wrong answers into the `failed` count.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile, p in [0, 100]: the value at rank
/// h = (n - 1) * p / 100 between the two closest order statistics (numpy's
/// "linear" rule, so p50 of an even count is the mean of the middle two).
/// Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Number of samples strictly beyond the `pct`-th percentile of n samples:
/// floor(n * (100 - pct) / 100).
[[nodiscard]] std::int64_t samples_beyond(std::int64_t n, int pct);

/// The tail percentile reported for n samples: the highest of p99 and p90
/// that has at least `min_beyond` samples beyond it, else p50.
[[nodiscard]] int tail_percentile(std::int64_t n, std::int64_t min_beyond = 10);

/// A timing series as reported: its median, its tail percentile (see
/// tail_percentile) and the sample count both rest on.
struct Summary {
  std::int64_t count = 0;
  double p50 = 0.0;
  int tail_pct = 50;
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// The failure named in the report.
struct Offender {
  std::string workload;
  std::string design;
  std::string endpoint;  ///< endpoint index, or what was compared
  double got = 0.0;
  double expected = 0.0;
  std::string what;  ///< "wrong", "shed: <error>" or "degraded"
};

/// Per-answer failure accounting. Every attempted answer takes one slot.
/// An answer fails when it was shed, degraded, or failed the correctness
/// check, and it counts once however many of those hold. The offender kept
/// for the report is the failure in the lowest slot, so a check that runs
/// after the timed phase still names the earliest bad answer.
class Ledger {
 public:
  explicit Ledger(std::string workload) : workload_(std::move(workload)) {}

  /// Records one answer and returns its slot for a later mark_wrong.
  std::int64_t record(const std::string& design, bool shed, bool degraded,
                      const std::string& error = {});
  /// Marks the answer in `slot` as failing the correctness check. Throws
  /// std::out_of_range for a slot never recorded.
  void mark_wrong(std::int64_t slot, const std::string& design,
                  const std::string& endpoint, double got, double expected);

  [[nodiscard]] std::int64_t attempted() const {
    return static_cast<std::int64_t>(flags_.size());
  }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] double failed_frac() const;
  [[nodiscard]] std::int64_t shed() const { return shed_; }
  [[nodiscard]] std::int64_t degraded() const { return degraded_; }
  [[nodiscard]] std::int64_t wrong() const { return wrong_; }
  [[nodiscard]] const std::optional<Offender>& first_offender() const {
    return first_;
  }

 private:
  void note(std::int64_t slot, Offender offender);

  std::string workload_;
  /// Per-slot failure bits: 1 shed, 2 degraded, 4 wrong.
  std::vector<std::uint8_t> flags_;
  std::int64_t failed_ = 0, shed_ = 0, degraded_ = 0, wrong_ = 0;
  std::optional<Offender> first_;
  std::int64_t first_slot_ = -1;
};

/// First endpoint where `got` and `expected` differ by more than `tol`, or
/// where either is not finite (a size mismatch reports endpoint -1 with the
/// two sizes); nullopt when they agree everywhere.
struct Mismatch {
  int endpoint = -1;
  double got = 0.0;
  double expected = 0.0;
};
[[nodiscard]] std::optional<Mismatch> first_mismatch(
    const std::vector<double>& got, const std::vector<double>& expected,
    double tol);

}  // namespace perfbench
