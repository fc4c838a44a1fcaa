#pragma once
/// \file serialize.hpp
/// Name-keyed binary (de)serialization of module parameters, so trained
/// models survive process restarts (used by examples/train_timing_gnn).
///
/// Format v1 ("TGN1"): magic, version, then the parameter block
/// {count, per-parameter {name, rows, cols, float data}}, CRC-32 trailer,
/// written atomically via io::BinaryWriter. Loads raise CheckError on any
/// truncation or corruption.

#include <string>

#include "nn/module.hpp"
#include "util/io.hpp"

namespace tg::nn {

/// Writes all parameters of `module` to `path` (atomic, checksummed).
void save_parameters(const Module& module, const std::string& path);

/// Loads parameters by name into `module`. Every registered parameter must
/// be present with matching shape; unknown names in the file are an error.
void load_parameters(Module& module, const std::string& path);

/// Embeddable variants: write/read just the parameter block into an open
/// writer/reader — used by the trainer checkpoints so model weights inside
/// a checkpoint share this exact format.
void write_parameter_block(const Module& module, io::BinaryWriter& out);
void read_parameter_block(Module& module, io::BinaryReader& in);

}  // namespace tg::nn
