#include "streams.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

/// An independent generator per (seed, use); `salt` names the use.
tg::Rng stream_rng(std::uint64_t seed, std::uint64_t salt) {
  return tg::Rng(seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
                 1);
}

}  // namespace

std::vector<int> seeded_permutation(std::uint64_t seed, std::uint64_t salt,
                                    int n) {
  std::vector<int> order(static_cast<std::size_t>(std::max(n, 0)));
  std::iota(order.begin(), order.end(), 0);
  tg::Rng rng = stream_rng(seed, salt);
  rng.shuffle(order);
  return order;
}

EcoStream::EcoStream(std::uint64_t seed, int session,
                     std::vector<ResizeChoice> choices, int read_every)
    : rng_(stream_rng(seed, 1000 + static_cast<std::uint64_t>(session))),
      choices_(std::move(choices)),
      read_every_(read_every) {
  if (choices_.empty()) {
    throw std::invalid_argument("EcoStream: no resizable instance");
  }
  for (const ResizeChoice& c : choices_) {
    if (c.cells.size() < 2 ||
        std::find(c.cells.begin(), c.cells.end(), c.cell) == c.cells.end()) {
      throw std::invalid_argument("EcoStream: instance " +
                                  std::to_string(c.inst) +
                                  " has no other cell of its function");
    }
  }
}

EcoStep EcoStream::next() {
  ++issued_;
  if (read_every_ > 0 && issued_ % read_every_ == 0) return EcoStep{true};
  ResizeChoice& c = choices_[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(choices_.size()) - 1))];
  // Uniform over the cells other than the current one: draw one of the
  // first n-1 slots and let the current cell's slot stand for the last.
  const auto n = static_cast<std::int64_t>(c.cells.size());
  auto j = static_cast<std::size_t>(rng_.uniform_int(0, n - 2));
  if (c.cells[j] == c.cell) j = static_cast<std::size_t>(n - 1);
  c.cell = c.cells[j];
  return EcoStep{false, c.inst, c.cell};
}

ClockSchedule::ClockSchedule(std::uint64_t seed, int pool)
    : rng_(stream_rng(seed, 7)) {
  if (pool < 1) throw std::invalid_argument("ClockSchedule: empty pool");
  for (int i = 0; i < pool; ++i) {
    // Rounded to 1e-4 so that a factor prints exactly in reports.
    pool_.push_back(std::round(rng_.uniform(0.90, 1.10) * 1e4) / 1e4);
  }
}

double ClockSchedule::next() {
  return pool_[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1))];
}

}  // namespace perfbench
