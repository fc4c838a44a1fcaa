#pragma once
/// \file tensor.hpp
/// A small reverse-mode autodiff tensor — the repository's stand-in for
/// PyTorch (DESIGN.md §1). Tensors are dense float matrices (rank 1 or 2)
/// with a dynamically recorded computation graph; Tensor values are cheap
/// shared handles. Gradients are accumulated by Tensor::backward() in
/// reverse topological order.
///
/// The op set (see ops.hpp) is exactly what the paper's models need:
/// dense linear algebra, ReLU, row gather/scatter and segment reductions
/// for message passing, the grouped softmax of the LUT interpolation, and a
/// CSR sparse matmul for the GCNII baseline.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/alloc.hpp"
#include "util/rng.hpp"

namespace tg::nn {

struct TensorImpl;
using TensorImplPtr = std::shared_ptr<TensorImpl>;

struct TensorImpl {
  // Shape: rows × cols; rank-1 tensors use cols == 1.
  std::int64_t rows = 0;
  std::int64_t cols = 1;
  // Arena-backed storage (alloc.hpp): freed tensors park their blocks on
  // bucketed free lists, so steady-state training steps re-acquire the
  // same storage instead of calling the heap.
  alloc::Buffer data;
  alloc::Buffer grad;  ///< allocated lazily, same size as data
  bool requires_grad = false;

  // Autograd tape.
  std::vector<TensorImplPtr> parents;
  std::function<void(TensorImpl&)> backward_fn;  ///< pushes grad to parents
  /// Static-storage op label ("matmul", "gather_rows", ...) set by the op
  /// that produced this node; backward() uses it to attribute tape time to
  /// per-op metrics histograms (`bwd/<op>`) when metrics are enabled.
  const char* op = nullptr;

  [[nodiscard]] std::int64_t numel() const { return rows * cols; }
  /// Allocates the zero-filled grad buffer on first use. Inline so the
  /// per-backward-closure calls reduce to one size compare once
  /// Tensor::backward() has hoisted the actual allocation before the tape
  /// replay (closures then only ever see the already-allocated case).
  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorImplPtr impl) : impl_(std::move(impl)) {}

  // ---- constructors ---------------------------------------------------
  static Tensor zeros(std::int64_t rows, std::int64_t cols = 1,
                      bool requires_grad = false);
  static Tensor full(std::int64_t rows, std::int64_t cols, float value,
                     bool requires_grad = false);
  static Tensor from_vector(std::vector<float> values, std::int64_t rows,
                            std::int64_t cols = 1, bool requires_grad = false);
  /// Uniform(-bound, bound) initialization (Kaiming-style bound chosen by
  /// the modules).
  static Tensor rand_uniform(std::int64_t rows, std::int64_t cols,
                             float bound, Rng& rng,
                             bool requires_grad = false);

  // ---- inspection -----------------------------------------------------
  [[nodiscard]] bool defined() const { return impl_ != nullptr; }
  [[nodiscard]] std::int64_t rows() const { return impl_->rows; }
  [[nodiscard]] std::int64_t cols() const { return impl_->cols; }
  [[nodiscard]] std::int64_t numel() const { return impl_->numel(); }
  [[nodiscard]] bool requires_grad() const { return impl_->requires_grad; }
  [[nodiscard]] std::span<float> data() { return impl_->data; }
  [[nodiscard]] std::span<const float> data() const { return impl_->data; }
  [[nodiscard]] std::span<float> grad();
  [[nodiscard]] std::span<const float> grad() const;
  [[nodiscard]] float item() const;
  [[nodiscard]] float at(std::int64_t r, std::int64_t c = 0) const;

  [[nodiscard]] TensorImpl* impl() const { return impl_.get(); }
  [[nodiscard]] const TensorImplPtr& ptr() const { return impl_; }

  /// Zeroes accumulated gradients (no-op when none allocated).
  void zero_grad();

  /// Reverse-mode backprop from this (scalar) tensor; seeds d(this)=1.
  void backward();

 private:
  TensorImplPtr impl_;
};

/// Creates a detached leaf tensor sharing nothing with `t` (copies data).
[[nodiscard]] Tensor detach(const Tensor& t);

// ---- inference mode ---------------------------------------------------

namespace detail {
inline thread_local bool t_grad_enabled = true;
}  // namespace detail

/// Whether ops on this thread record the autograd tape (default true).
[[nodiscard]] inline bool grad_enabled() { return detail::t_grad_enabled; }

/// Scoped inference mode for the current thread. While one is alive,
/// every op in ops.hpp builds a plain result — requires_grad false, no
/// parents, no backward closure, no op label, and none of the tape-only
/// side buffers (segment_max's argmax, layer_norm's normalized rows) —
/// with data bit-identical to the taped op. Leaf constructors
/// (Tensor::zeros(..., true), parameters) are unaffected. Guards nest:
/// each restores the mode it found. The flag is thread-local, so code that
/// fans ops out to pool workers must re-install it there.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(detail::t_grad_enabled) {
    detail::t_grad_enabled = false;
  }
  ~NoGradGuard() { detail::t_grad_enabled = prev_; }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace tg::nn
