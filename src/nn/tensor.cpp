#include "nn/tensor.hpp"

#include <algorithm>
#include <unordered_set>

#include <chrono>

#include "util/check.hpp"
#include "util/obs/metrics.hpp"
#include "util/obs/trace.hpp"

namespace tg::nn {

Tensor Tensor::zeros(std::int64_t rows, std::int64_t cols,
                     bool requires_grad) {
  return full(rows, cols, 0.0f, requires_grad);
}

Tensor Tensor::full(std::int64_t rows, std::int64_t cols, float value,
                    bool requires_grad) {
  TG_CHECK(rows >= 0 && cols >= 1);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<std::size_t>(rows * cols), value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(std::vector<float> values, std::int64_t rows,
                           std::int64_t cols, bool requires_grad) {
  TG_CHECK_MSG(static_cast<std::int64_t>(values.size()) == rows * cols,
               "from_vector: " << values.size() << " values for " << rows
                               << "x" << cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign_copy(values.data(), values.size());
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::rand_uniform(std::int64_t rows, std::int64_t cols, float bound,
                            Rng& rng, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.resize_discard(static_cast<std::size_t>(rows * cols));
  for (float& v : impl->data) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

std::span<float> Tensor::grad() {
  impl_->ensure_grad();
  return impl_->grad;
}

std::span<const float> Tensor::grad() const {
  TG_CHECK_MSG(impl_->grad.size() == impl_->data.size(),
               "grad not allocated; call backward() first");
  return impl_->grad;
}

float Tensor::item() const {
  TG_CHECK_MSG(numel() == 1, "item() on tensor with " << numel() << " values");
  return impl_->data[0];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  TG_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  return impl_->data[static_cast<std::size_t>(r * cols() + c)];
}

void Tensor::zero_grad() {
  if (!impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

void Tensor::backward() {
  TG_TRACE_SCOPE("nn/backward", obs::kSpanDetail);
  TG_CHECK_MSG(numel() == 1, "backward() requires a scalar loss");
  TG_CHECK_MSG(grad_enabled(),
               "backward() called under an active NoGradGuard: the forward "
               "recorded no tape, so every parameter gradient would stay 0");
  // Topological order by iterative DFS.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorImpl* child = node->parents[next_child].get();
      ++next_child;
      if (visited.insert(child).second) stack.emplace_back(child, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Hoisted grad allocation: every tensor that participates in this
  // backward gets its buffer up front, so the ensure_grad() calls inside
  // the closures are no-op size checks instead of per-consumer
  // allocation probes (and repeated consumers keep accumulating into the
  // same buffer).
  for (TensorImpl* node : order) {
    if (node->requires_grad) node->ensure_grad();
  }
  impl_->ensure_grad();  // the seed needs a buffer even without grad
  impl_->grad[0] = 1.0f;
  // The tape itself replays serially — closures may parallelize their own
  // interior loops, but closure-vs-closure ordering stays deterministic.
  if (!obs::metrics_enabled()) {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      TensorImpl* node = *it;
      if (node->backward_fn && !node->grad.empty()) {
        node->backward_fn(*node);
      }
    }
    return;
  }
  // Metrics path: attribute each closure's wall time to a `bwd/<op>`
  // histogram. Op labels are static-storage literals, so a tiny
  // pointer-keyed cache avoids a registry lookup per node.
  std::vector<std::pair<const char*, obs::Histogram*>> hists;
  auto hist_of = [&hists](const char* op) -> obs::Histogram& {
    for (auto& [k, h] : hists) {
      if (k == op) return *h;
    }
    obs::Histogram& h =
        obs::histogram(std::string("bwd/") + (op != nullptr ? op : "other"));
    hists.emplace_back(op, &h);
    return h;
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      node->backward_fn(*node);
      const auto t1 = std::chrono::steady_clock::now();
      hist_of(node->op).record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  }
}

Tensor detach(const Tensor& t) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = t.rows();
  impl->cols = t.cols();
  impl->data.assign_copy(t.data().data(), t.data().size());
  return Tensor(std::move(impl));
}

}  // namespace tg::nn
