#pragma once
/// \file validate.hpp
/// Topology and DatasetGraph (extracted hetero-graph) invariant checkers
/// (DESIGN.md §8). The topology check covers array lengths, index bounds
/// and level monotonicity along every edge; the Topology constructor runs
/// it on every build, whatever the validate level. The graph check's fast
/// level covers shape consistency (feature matrix dimensions vs. the
/// paper's 10/2/512 layout against its topology), endpoint bounds and the
/// clock period; full adds the finiteness sweep over every feature/label
/// tensor with first-offender row/column reporting.

#include "data/hetero_graph.hpp"
#include "util/diag.hpp"

namespace tg::data {

/// Checks a topology's arrays; each diagnostic names the field and its
/// first offending entry. `object` labels the diagnostics.
void validate_topology(const Topology::Arrays& topo, DiagSink& sink,
                       const std::string& object);

/// Checks one extracted graph. No-op at ValidateLevel::kOff. `sink`
/// diagnostics carry object = graph name.
void validate_dataset_graph(const DatasetGraph& graph, DiagSink& sink,
                            ValidateLevel level = validate_level());

}  // namespace tg::data
