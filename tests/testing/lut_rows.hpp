#pragma once
/// \file lut_rows.hpp
/// Per-edge view of a graph's cell-edge features for tests that check the
/// paper's Table-3 layout row by row.

#include "data/hetero_graph.hpp"

namespace tg::testing {

/// The [Ec, 512] Table-3 rows of `g`'s cell edges: row e is
/// g.lut_table->rows[g.cell_arc_lut[e]].
inline nn::Tensor cell_edge_rows(const data::DatasetGraph& g) {
  return nn::gather_rows(g.lut_table->rows, g.cell_arc_lut);
}

}  // namespace tg::testing
