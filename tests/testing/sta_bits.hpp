#pragma once
/// \file sta_bits.hpp
/// Bitwise comparison of two STA results, for the tests that pin a
/// shortcut (a backward sweep under a new period, a timer seeded from a
/// copy) to a fresh run_sta.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sta/timer.hpp"

namespace tg::testing {

namespace sta_bits_detail {

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

inline bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace sta_bits_detail

/// Empty when every field of `a` but sta_seconds holds the same bits as in
/// `b`; else the names of the fields that differ.
inline std::string sta_bit_mismatch(const StaResult& a, const StaResult& b) {
  using sta_bits_detail::same_bytes;
  std::ostringstream os;
  const auto check = [&](bool same, const char* field) {
    if (!same) os << field << ' ';
  };
  check(same_bytes(a.arrival, b.arrival), "arrival");
  check(same_bytes(a.slew, b.slew), "slew");
  check(same_bytes(a.rat, b.rat), "rat");
  check(same_bytes(a.slack, b.slack), "slack");
  check(same_bytes(a.net_delay, b.net_delay), "net_delay");
  check(same_bytes(a.cell_arc_delay, b.cell_arc_delay), "cell_arc_delay");
  check(same_bytes(a.pred_pin, b.pred_pin), "pred_pin");
  check(same_bytes(a.pred_corner, b.pred_corner), "pred_corner");
  check(same_bytes(a.wns_setup, b.wns_setup), "wns_setup");
  check(same_bytes(a.tns_setup, b.tns_setup), "tns_setup");
  check(same_bytes(a.wns_hold, b.wns_hold), "wns_hold");
  check(same_bytes(a.tns_hold, b.tns_hold), "tns_hold");
  return os.str();
}

}  // namespace tg::testing
