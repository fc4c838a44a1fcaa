#pragma once
/// \file streams.hpp
/// Seeded inputs. Every request stream and every move the benchmark sends
/// comes from here, as a function of the run's `--seed` and a per-use salt
/// alone, never of timing or of the answers: the same seed gives the same
/// stream, so two runs differ only in how fast the program answers.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Seeded permutation of [0, n).
[[nodiscard]] std::vector<int> seeded_permutation(std::uint64_t seed,
                                                  std::uint64_t salt, int n);

/// An instance the ECO stream may resize: its current cell and every
/// library cell of the same function (the current one included).
struct ResizeChoice {
  int inst = -1;
  int cell = -1;
  std::vector<int> cells;
};

/// One request of a session's ECO stream: a GNN read or a resize move.
struct EcoStep {
  bool read = false;
  int inst = -1;
  int new_cell = -1;

  bool operator==(const EcoStep&) const = default;
};

/// Per-session ECO request stream. Every `read_every`-th request (0 =
/// never) is a GNN read of the mutated session; every other one resizes a
/// seeded instance to a seeded different cell of its function. The stream
/// tracks each instance's current cell itself. Throws
/// std::invalid_argument when a choice has no other cell.
class EcoStream {
 public:
  EcoStream(std::uint64_t seed, int session, std::vector<ResizeChoice> choices,
            int read_every);
  EcoStep next();

 private:
  tg::Rng rng_;
  std::vector<ResizeChoice> choices_;
  int read_every_;
  std::int64_t issued_ = 0;
};

/// cold_design's clock factors: a seeded pool of `pool` factors in
/// [0.90, 1.10], from which each repetition draws one.
class ClockSchedule {
 public:
  ClockSchedule(std::uint64_t seed, int pool);
  double next();
  [[nodiscard]] const std::vector<double>& pool() const { return pool_; }

 private:
  tg::Rng rng_;
  std::vector<double> pool_;
};

}  // namespace perfbench
