#pragma once
/// Shared tiny dataset for core-model tests: built once per test binary.

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "liberty/library_builder.hpp"

namespace tg::core::testing {

/// The cell library the tiny dataset is built from.
inline const Library& tiny_library() {
  static const Library* lib = new Library(build_library());
  return *lib;
}

/// Lazily-built singleton dataset (spm test design + zipdiv train design at
/// 1/32 scale) shared across all core test suites in the binary.
inline const data::SuiteDataset& tiny_dataset() {
  static const data::SuiteDataset* ds = [] {
    data::DatasetOptions options;
    options.scale = 1.0 / 32;
    return new data::SuiteDataset(
        data::build_suite_dataset(tiny_library(), options, {"zipdiv", "spm"}));
  }();
  return *ds;
}

inline const data::DatasetGraph& train_graph() {
  const auto& ds = tiny_dataset();
  return ds.graphs[static_cast<std::size_t>(ds.train_ids.at(0))];
}

inline const data::DatasetGraph& test_graph() {
  const auto& ds = tiny_dataset();
  return ds.graphs[static_cast<std::size_t>(ds.test_ids.at(0))];
}

}  // namespace tg::core::testing
