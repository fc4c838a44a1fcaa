/// Tests of perfbench's sample arithmetic and failure accounting.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 90), 19.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 99), 10);
  EXPECT_EQ(samples_beyond(999, 99), 9);
  EXPECT_EQ(samples_beyond(100, 90), 10);
  EXPECT_EQ(samples_beyond(0, 50), 0);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(999), 90);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(99), 50);
  EXPECT_EQ(tail_percentile(0), 50);
}

TEST(Summarize, ReportsCountMedianAndTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);

  const Summary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.count, 3);
  EXPECT_EQ(few.tail_pct, 50);
  EXPECT_DOUBLE_EQ(few.tail, few.p50);
}

TEST(Ledger, CountsEachFailedAnswerOnce) {
  Ledger ledger("predict_mix");
  const std::int64_t ok = ledger.record("spm", false, false);
  ledger.record("spm", true, false, "admission queue full");
  const std::int64_t degraded = ledger.record("xtea", false, true);
  ledger.record("xtea", false, false);
  // Degraded and wrong is still one failed answer; so is wrong twice.
  ledger.mark_wrong(degraded, "xtea", "endpoint 3", 1.0, 2.0);
  ledger.mark_wrong(ok, "spm", "endpoint 0", 0.5, 0.25);
  ledger.mark_wrong(ok, "spm", "endpoint 1", 0.5, 0.25);
  EXPECT_EQ(ledger.attempted(), 4);
  EXPECT_EQ(ledger.failed(), 3);
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.75);
  EXPECT_EQ(ledger.shed(), 1);
  EXPECT_EQ(ledger.degraded(), 1);
  EXPECT_EQ(ledger.wrong(), 2);
}

TEST(Ledger, NamesTheEarliestFailureEvenWhenFoundLater) {
  Ledger ledger("eco_stream");
  const std::int64_t first = ledger.record("xtea", false, false);
  ledger.record("zipdiv", true, false, "admission queue full");
  ASSERT_TRUE(ledger.first_offender().has_value());
  EXPECT_EQ(ledger.first_offender()->what, "shed: admission queue full");
  // The oracle runs after the timed phase and finds slot 0 wrong.
  ledger.mark_wrong(first, "xtea", "endpoint 7", 1.5, 1.25);
  const Offender& o = *ledger.first_offender();
  EXPECT_EQ(o.workload, "eco_stream");
  EXPECT_EQ(o.design, "xtea");
  EXPECT_EQ(o.endpoint, "endpoint 7");
  EXPECT_DOUBLE_EQ(o.got, 1.5);
  EXPECT_DOUBLE_EQ(o.expected, 1.25);
  EXPECT_EQ(o.what, "wrong");
}

TEST(Ledger, CleanRunHasNoOffender) {
  Ledger ledger("train");
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.0);
  for (int i = 0; i < 5; ++i) ledger.record("usb", false, false);
  EXPECT_EQ(ledger.failed(), 0);
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.0);
  EXPECT_FALSE(ledger.first_offender().has_value());
  EXPECT_THROW(ledger.mark_wrong(5, "usb", "loss", 0.0, 0.0),
               std::out_of_range);
}

TEST(FirstMismatch, FindsTheFirstEndpointBeyondTolerance) {
  EXPECT_FALSE(
      first_mismatch({1.0, 2.0}, {1.0 + 5e-7, 2.0}, 1e-6).has_value());
  const auto m = first_mismatch({1.0, 2.0, 3.0}, {1.0, 2.1, 3.5}, 1e-6);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->endpoint, 1);
  EXPECT_DOUBLE_EQ(m->got, 2.0);
  EXPECT_DOUBLE_EQ(m->expected, 2.1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(first_mismatch({nan}, {nan}, 1e-6).has_value());
  const auto sizes = first_mismatch({1.0}, {1.0, 2.0}, 1e-6);
  ASSERT_TRUE(sizes.has_value());
  EXPECT_EQ(sizes->endpoint, -1);
  EXPECT_DOUBLE_EQ(sizes->got, 1.0);
  EXPECT_DOUBLE_EQ(sizes->expected, 2.0);
}

}  // namespace
}  // namespace perfbench
