#pragma once
/// \file graph_io.hpp
/// Binary (de)serialization of extracted DatasetGraphs, mirroring the
/// paper's "all data open-sourced" release: a dataset generated once can
/// be shipped and re-trained on without the generator, placer, router or
/// timer. Format ("TGD2" v4): magic/version header, then length-prefixed
/// tensors and the topology's source index arrays, then a CRC-32 trailer.
/// Derived indexes (level CSR, fanout) are rebuilt on load, not stored.
/// Slim graphs only (the Design/DesignRouting handles are not serialized).

#include <string>

#include "data/hetero_graph.hpp"

namespace tg::data {

/// Writes one graph. Throws CheckError on I/O failure.
void save_graph(const DatasetGraph& graph, const std::string& path);

/// Reads a graph previously written by save_graph. The result is slim
/// (design/truth_routing are null). Throws CheckError on a truncated or
/// corrupt file, and on one whose checksum holds but whose indices or
/// shapes do not fit the graph (the error names the field and its first
/// offending entry).
[[nodiscard]] DatasetGraph load_graph(const std::string& path);

}  // namespace tg::data
