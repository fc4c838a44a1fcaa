#include "nn/module.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace tg::nn {

std::int64_t Module::num_parameters() const {
  std::int64_t n = 0;
  for (const Tensor& t : params_) n += t.numel();
  return n;
}

void Module::zero_grad() {
  for (Tensor& t : params_) t.zero_grad();
}

Tensor Module::register_parameter(const std::string& name, Tensor t) {
  TG_CHECK(t.defined() && t.requires_grad());
  params_.push_back(t);
  names_.push_back(name);
  return t;
}

void Module::register_module(const std::string& prefix, const Module& child) {
  for (std::size_t i = 0; i < child.parameters().size(); ++i) {
    params_.push_back(child.parameters()[i]);
    names_.push_back(prefix + "/" + child.parameter_names()[i]);
  }
}

Linear::Linear(std::int64_t in, std::int64_t out, Rng& rng,
               const std::string& name) {
  TG_CHECK(in > 0 && out > 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  w_ = register_parameter(name + ".w",
                          Tensor::rand_uniform(in, out, bound, rng, true));
  b_ = register_parameter(name + ".b", Tensor::zeros(1, out, true));
}

Tensor Linear::forward(const Tensor& x) const {
  return add(matmul(x, w_), b_);
}

Tensor Linear::forward_relu(const Tensor& x) const {
  return add_relu(matmul(x, w_), b_);
}

void Linear::infer_rows(const float* x, std::int64_t rows, float* out,
                        bool relu) const {
  const auto k = static_cast<std::size_t>(w_.rows());
  const auto m = static_cast<std::size_t>(w_.cols());
  kern::matmul_rows(out, x, w_.data().data(), static_cast<std::size_t>(rows),
                    k, m);
  const float* bias = b_.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* y = out + static_cast<std::size_t>(r) * m;
    if (relu) {
      kern::add_relu(y, y, bias, m);
    } else {
      kern::add(y, y, bias, m);
    }
  }
}

Mlp::Mlp(std::int64_t in, std::int64_t out, std::int64_t hidden,
         int hidden_layers, Rng* rng, const std::string& name) {
  TG_CHECK(rng != nullptr);
  TG_CHECK(hidden_layers >= 0);
  std::int64_t cur = in;
  for (int l = 0; l < hidden_layers; ++l) {
    layers_.emplace_back(cur, hidden, *rng, name + ".h" + std::to_string(l));
    cur = hidden;
  }
  layers_.emplace_back(cur, out, *rng, name + ".out");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    register_module(name + ".l" + std::to_string(l), layers_[l]);
  }
}

Tensor Mlp::forward(const Tensor& x) const {
  TG_CHECK(!layers_.empty());
  Tensor h = x;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    h = layers_[l].forward_relu(h);
  }
  return layers_.back().forward(h);
}

Tensor Mlp::forward_relu(const Tensor& x) const {
  TG_CHECK(!layers_.empty());
  Tensor h = x;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    h = layers_[l].forward_relu(h);
  }
  return layers_.back().forward_relu(h);
}

void Mlp::infer_rows(const float* x, std::int64_t rows, float* out,
                     float* scratch, bool relu) const {
  TG_CHECK(!layers_.empty());
  // scratch = [h0 | h1]: the hidden layers' outputs alternate between them.
  float* h[2] = {scratch, scratch + infer_scratch(rows) / 2};
  const float* cur = x;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    layers_[l].infer_rows(cur, rows, h[l % 2], /*relu=*/true);
    cur = h[l % 2];
  }
  layers_.back().infer_rows(cur, rows, out, relu);
}

std::size_t Mlp::infer_scratch(std::int64_t rows) const {
  std::int64_t width = 0;
  for (const Linear& l : layers_) width = std::max(width, l.out_features());
  return static_cast<std::size_t>(2 * rows * width);
}

std::int64_t Mlp::in_features() const { return layers_.front().in_features(); }
std::int64_t Mlp::out_features() const { return layers_.back().out_features(); }

}  // namespace tg::nn
