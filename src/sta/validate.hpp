#pragma once
/// \file validate.hpp
/// TimingGraph invariant checker plus STA numerical tripwires
/// (DESIGN.md §8). Fast level covers arc-endpoint bounds, levelization
/// consistency (every arc strictly increases the level) and the level
/// packing (it holds every node once, under its own level, which with the
/// former rules out cycles); full adds the CSR/adjacency
/// cross-checks. check_sta_finite sweeps an StaResult for NaN/Inf and
/// reports the first-offender pin by name, level and corner.

#include "sta/timer.hpp"
#include "sta/timing_graph.hpp"
#include "util/diag.hpp"

namespace tg {

/// Checks the levelized timing graph. No-op at ValidateLevel::kOff.
void validate_timing_graph(const TimingGraph& graph, DiagSink& sink,
                           ValidateLevel level = validate_level());

/// Numerical tripwire: reports every pin whose arrival/slew holds a NaN or
/// Inf after propagation (and, at full level, NaN net delays, slacks and
/// cell-arc delays — RAT legitimately holds ±Inf at unconstrained pins).
void check_sta_finite(const TimingGraph& graph, const StaResult& result,
                      DiagSink& sink,
                      ValidateLevel level = validate_level());

}  // namespace tg
