#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = static_cast<double>(samples.size() - 1) *
                      std::clamp(p, 0.0, 100.0) / 100.0;
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::int64_t samples_beyond(std::int64_t n, int pct) {
  if (n <= 0 || pct >= 100) return 0;
  return n * (100 - pct) / 100;
}

int tail_percentile(std::int64_t n, std::int64_t min_beyond) {
  for (const int pct : {99, 90}) {
    if (samples_beyond(n, pct) >= min_beyond) return pct;
  }
  return 50;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = static_cast<std::int64_t>(samples.size());
  s.p50 = percentile(samples, 50.0);
  s.tail_pct = tail_percentile(s.count);
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

std::int64_t Ledger::record(const std::string& design, bool shed,
                            bool degraded, const std::string& error) {
  const std::int64_t slot = attempted();
  flags_.push_back(
      static_cast<std::uint8_t>((shed ? 1 : 0) | (degraded ? 2 : 0)));
  if (shed) ++shed_;
  if (degraded) ++degraded_;
  if (shed || degraded) {
    ++failed_;
    note(slot, Offender{workload_, design, "-", 0.0, 0.0,
                        shed ? "shed: " + error : std::string("degraded")});
  }
  return slot;
}

void Ledger::mark_wrong(std::int64_t slot, const std::string& design,
                        const std::string& endpoint, double got,
                        double expected) {
  if (slot < 0 || slot >= attempted()) {
    throw std::out_of_range("Ledger::mark_wrong: no answer in slot " +
                            std::to_string(slot));
  }
  std::uint8_t& flags = flags_[static_cast<std::size_t>(slot)];
  if ((flags & 4) != 0) return;
  if (flags == 0) ++failed_;
  flags = static_cast<std::uint8_t>(flags | 4);
  ++wrong_;
  note(slot, Offender{workload_, design, endpoint, got, expected, "wrong"});
}

double Ledger::failed_frac() const {
  return flags_.empty() ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(flags_.size());
}

void Ledger::note(std::int64_t slot, Offender offender) {
  if (first_ && first_slot_ <= slot) return;
  first_ = std::move(offender);
  first_slot_ = slot;
}

std::optional<Mismatch> first_mismatch(const std::vector<double>& got,
                                       const std::vector<double>& expected,
                                       double tol) {
  if (got.size() != expected.size()) {
    return Mismatch{-1, static_cast<double>(got.size()),
                    static_cast<double>(expected.size())};
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Negated so that a NaN on either side counts as a mismatch.
    if (!(std::abs(got[i] - expected[i]) <= tol)) {
      return Mismatch{static_cast<int>(i), got[i], expected[i]};
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
