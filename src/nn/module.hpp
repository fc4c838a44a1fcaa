#pragma once
/// \file module.hpp
/// Parameterized layers. All MLPs in the paper are "3 hidden layers, 64
/// neurons each" (§4); Mlp defaults follow that, with a width knob for the
/// single-core sandbox.

#include <string>
#include <vector>

#include "nn/ops.hpp"

namespace tg::nn {

/// Base for anything holding trainable tensors. Parameters are registered
/// with stable names so serialization is order-independent.
class Module {
 public:
  virtual ~Module() = default;

  [[nodiscard]] const std::vector<Tensor>& parameters() const { return params_; }
  [[nodiscard]] const std::vector<std::string>& parameter_names() const {
    return names_;
  }
  /// Total trainable scalar count.
  [[nodiscard]] std::int64_t num_parameters() const;

  void zero_grad();

 protected:
  /// Registers and returns a trainable tensor.
  Tensor register_parameter(const std::string& name, Tensor t);
  /// Adopts all parameters of a child module under `prefix/`.
  void register_module(const std::string& prefix, const Module& child);

 private:
  std::vector<Tensor> params_;
  std::vector<std::string> names_;
};

/// Fully connected layer: y = xW + b, W:[in,out].
class Linear : public Module {
 public:
  Linear() = default;
  Linear(std::int64_t in, std::int64_t out, Rng& rng,
         const std::string& name = "linear");

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// Fused relu(xW + b): bias add and activation in one tape node.
  [[nodiscard]] Tensor forward_relu(const Tensor& x) const;
  /// forward / forward_relu over `rows` contiguous rows with no tensors
  /// and no tape: out[rows, out] from x[rows, in]. Runs the kernels the
  /// matmul and add / add_relu ops run (the bias is added in place on
  /// out), so each row is bit-identical to that row of the op result. out
  /// must not alias x.
  void infer_rows(const float* x, std::int64_t rows, float* out,
                  bool relu) const;
  [[nodiscard]] std::int64_t in_features() const { return w_.rows(); }
  [[nodiscard]] std::int64_t out_features() const { return w_.cols(); }

 private:
  Tensor w_, b_;
};

/// Multi-layer perceptron with ReLU hidden activations and a linear output
/// layer. `hidden_layers` hidden layers of `hidden` units each.
class Mlp : public Module {
 public:
  Mlp() = default;
  Mlp(std::int64_t in, std::int64_t out, std::int64_t hidden = 64,
      int hidden_layers = 3, Rng* rng = nullptr,
      const std::string& name = "mlp");

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  /// relu(forward(x)) with the output activation fused into the final
  /// layer's bias add (hidden layers are always fused).
  [[nodiscard]] Tensor forward_relu(const Tensor& x) const;
  /// forward (relu: forward_relu) over `rows` contiguous rows with no
  /// tensors and no tape: out[rows, out_features) from x[rows,
  /// in_features), each row bit-identical to that row of the op result.
  /// Layer-major, so each weight matrix stays in cache across the rows.
  /// `scratch` holds infer_scratch(rows) floats; out must not alias x or
  /// scratch. The fused DelayProp inference step runs its MLPs through
  /// this.
  void infer_rows(const float* x, std::int64_t rows, float* out,
                  float* scratch, bool relu = false) const;
  /// Scratch floats infer_rows needs for `rows` rows.
  [[nodiscard]] std::size_t infer_scratch(std::int64_t rows) const;
  [[nodiscard]] std::int64_t in_features() const;
  [[nodiscard]] std::int64_t out_features() const;

 private:
  std::vector<Linear> layers_;
};

}  // namespace tg::nn
