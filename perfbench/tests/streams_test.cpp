/// Tests that perfbench's inputs are a function of the seed alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "streams.hpp"

namespace perfbench {
namespace {

std::vector<ResizeChoice> choices() {
  return {{3, 10, {10, 11, 12}}, {5, 21, {20, 21}}, {8, 33, {30, 31, 32, 33}}};
}

std::vector<EcoStep> take(EcoStream stream, int n) {
  std::vector<EcoStep> steps;
  for (int i = 0; i < n; ++i) steps.push_back(stream.next());
  return steps;
}

TEST(EcoStream, SameSeedGivesTheSameStream) {
  EXPECT_EQ(take(EcoStream(7, 0, choices(), 8), 200),
            take(EcoStream(7, 0, choices(), 8), 200));
}

TEST(EcoStream, SeedAndSessionEachChangeTheStream) {
  const std::vector<EcoStep> base = take(EcoStream(7, 0, choices(), 8), 200);
  EXPECT_NE(base, take(EcoStream(8, 0, choices(), 8), 200));
  EXPECT_NE(base, take(EcoStream(7, 1, choices(), 8), 200));
}

TEST(EcoStream, EveryEighthRequestIsARead) {
  const std::vector<EcoStep> steps = take(EcoStream(3, 0, choices(), 8), 64);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].read, (i + 1) % 8 == 0) << "request " << i;
  }
  for (const EcoStep& s : take(EcoStream(3, 0, choices(), 0), 64)) {
    EXPECT_FALSE(s.read);
  }
}

TEST(EcoStream, MovesSwapToAnotherCellOfTheSameFunction) {
  std::map<int, ResizeChoice> by_inst;
  for (const ResizeChoice& c : choices()) by_inst[c.inst] = c;
  for (const EcoStep& s : take(EcoStream(11, 2, choices(), 0), 500)) {
    ASSERT_EQ(by_inst.count(s.inst), 1u);
    ResizeChoice& c = by_inst[s.inst];
    EXPECT_NE(s.new_cell, c.cell);
    EXPECT_NE(std::find(c.cells.begin(), c.cells.end(), s.new_cell),
              c.cells.end());
    c.cell = s.new_cell;
  }
}

TEST(EcoStream, RejectsAnInstanceWithNoOtherCell) {
  EXPECT_THROW(EcoStream(1, 0, {{1, 5, {5}}}, 8), std::invalid_argument);
  EXPECT_THROW(EcoStream(1, 0, {{1, 5, {6, 7}}}, 8), std::invalid_argument);
  EXPECT_THROW(EcoStream(1, 0, {}, 8), std::invalid_argument);
}

TEST(SeededPermutation, IsADeterministicPermutation) {
  const std::vector<int> a = seeded_permutation(5, 1, 12);
  EXPECT_EQ(a, seeded_permutation(5, 1, 12));
  EXPECT_NE(a, seeded_permutation(6, 1, 12));
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> ids(12);
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(sorted, ids);
}

TEST(ClockSchedule, SameSeedGivesTheSameFactors) {
  ClockSchedule a(5, 4);
  ClockSchedule b(5, 4);
  EXPECT_EQ(a.pool(), b.pool());
  for (int i = 0; i < 50; ++i) {
    const double f = a.next();
    EXPECT_EQ(f, b.next());
    EXPECT_GE(f, 0.90);
    EXPECT_LE(f, 1.10);
  }
  EXPECT_NE(ClockSchedule(6, 4).pool(), a.pool());
}

}  // namespace
}  // namespace perfbench
