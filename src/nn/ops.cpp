#include "nn/ops.hpp"

#include <cmath>
#include <cstring>

#include "nn/kernels.hpp"
#include "util/check.hpp"
#include "util/obs/trace.hpp"
#include "util/parallel.hpp"

namespace tg::nn {

namespace {

/// Grain sizes for the parallel kernels. Chunks always own disjoint output
/// rows/columns/elements and keep the serial per-element accumulation
/// order, so thread count never changes results; the grains only keep
/// small tensors on the serial fallback (`parallel_for` runs inline when
/// the range is within one grain).
constexpr std::int64_t kPointwiseGrain = 1 << 15;  ///< elements per chunk
constexpr std::int64_t kRowFlops = 1 << 14;  ///< target flops per row chunk

/// Rows per chunk so one chunk carries ~kRowFlops work.
constexpr std::int64_t row_grain(std::int64_t flops_per_row) {
  return flops_per_row <= 0 ? kRowFlops
                            : (kRowFlops + flops_per_row - 1) / flops_per_row;
}

/// Output tensor with *undefined* contents — for ops that overwrite every
/// element (pointwise, matmul, gather, concat). The arena-backed Buffer
/// skips the zero fill entirely, which is most of what made per-op
/// allocation expensive.
TensorImplPtr make_result(std::int64_t rows, std::int64_t cols,
                          std::initializer_list<const Tensor*> inputs) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.resize_discard(static_cast<std::size_t>(rows * cols));
  if (!grad_enabled()) return impl;  // inference mode: plain result
  for (const Tensor* t : inputs) {
    if (t->requires_grad()) impl->requires_grad = true;
  }
  if (impl->requires_grad) {
    for (const Tensor* t : inputs) impl->parents.push_back(t->ptr());
  }
  return impl;
}

/// make_result for the span-input ops (concat_*, multi_gather). A taped
/// result keeps every part as a parent, in order, so their backward
/// closures index `self.parents` positionally.
TensorImplPtr make_result_parts(std::int64_t rows, std::int64_t cols,
                                std::span<const Tensor> parts) {
  auto impl = make_result(rows, cols, {});
  if (!grad_enabled()) return impl;
  for (const Tensor& t : parts) {
    if (t.requires_grad()) impl->requires_grad = true;
  }
  if (impl->requires_grad) {
    impl->parents.reserve(parts.size());
    for (const Tensor& t : parts) impl->parents.push_back(t.ptr());
  }
  return impl;
}

/// Zero-filled output — for scatter-accumulate ops (segment_sum, spmm,
/// segment_max's empty segments) whose loops add into the buffer.
TensorImplPtr make_result_zero(std::int64_t rows, std::int64_t cols,
                               std::initializer_list<const Tensor*> inputs) {
  auto impl = make_result(rows, cols, inputs);
  std::memset(impl->data.data(), 0, impl->data.size() * sizeof(float));
  return impl;
}

/// Adds src into dst (same length), allocating dst's grad buffer first.
void accumulate(TensorImpl& parent, std::span<const float> grad_piece,
                std::size_t offset = 0) {
  parent.ensure_grad();
  kern::add_acc(parent.grad.data() + offset, grad_piece.data(),
                grad_piece.size());
}

IndexVec share_index(std::vector<int> idx) {
  return std::make_shared<const std::vector<int>>(std::move(idx));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  const bool broadcast = (b.rows() == 1 && a.cols() == b.cols() && a.rows() != 1);
  TG_CHECK_MSG(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()),
               "add: shape mismatch " << a.rows() << "x" << a.cols() << " vs "
                                      << b.rows() << "x" << b.cols());
  auto impl = make_result(a.rows(), a.cols(), {&a, &b});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* out = impl->data.data();
  const std::int64_t cols = a.cols();
  if (broadcast) {
    // Row blocks: each output row adds the same [1, D] bias vector.
    parallel_for(0, a.rows(), row_grain(cols),
                 [&](std::int64_t rb, std::int64_t re) {
                   for (std::int64_t r = rb; r < re; ++r) {
                     kern::add(out + r * cols, ad + r * cols, bd,
                               static_cast<std::size_t>(cols));
                   }
                 });
  } else {
    parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
                 kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                   kern::add(out + lo, ad + lo, bd + lo,
                             static_cast<std::size_t>(hi - lo));
                 });
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    impl->op = "add";
    impl->backward_fn = [pa, pb, broadcast, cols](TensorImpl& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       kern::add_acc(pa->grad.data() + lo,
                                     self.grad.data() + lo,
                                     static_cast<std::size_t>(hi - lo));
                     });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        if (broadcast) {
          // Column-sliced so concurrent chunks own disjoint grad slots and
          // each slot keeps the serial (row-ascending) accumulation order.
          const std::int64_t rows =
              static_cast<std::int64_t>(self.grad.size()) / cols;
          parallel_for(0, cols, row_grain(2 * rows),
                       [&](std::int64_t cb, std::int64_t ce) {
                         for (std::int64_t r = 0; r < rows; ++r) {
                           kern::add_acc(pb->grad.data() + cb,
                                         self.grad.data() + r * cols + cb,
                                         static_cast<std::size_t>(ce - cb));
                         }
                       });
        } else {
          parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                       kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                         kern::add_acc(pb->grad.data() + lo,
                                       self.grad.data() + lo,
                                       static_cast<std::size_t>(hi - lo));
                       });
        }
      }
    };
  }
  return Tensor(impl);
}

Tensor sub(const Tensor& a, const Tensor& b) { return add(a, scale(b, -1.0f)); }

Tensor mul(const Tensor& a, const Tensor& b) {
  TG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto impl = make_result(a.rows(), a.cols(), {&a, &b});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* out = impl->data.data();
  parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
               kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                 kern::mul(out + lo, ad + lo, bd + lo,
                           static_cast<std::size_t>(hi - lo));
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    impl->op = "mul";
    impl->backward_fn = [pa, pb](TensorImpl& self) {
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       kern::mul_acc(pa->grad.data() + lo,
                                     self.grad.data() + lo,
                                     pb->data.data() + lo,
                                     static_cast<std::size_t>(hi - lo));
                     });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       kern::mul_acc(pb->grad.data() + lo,
                                     self.grad.data() + lo,
                                     pa->data.data() + lo,
                                     static_cast<std::size_t>(hi - lo));
                     });
      }
    };
  }
  return Tensor(impl);
}

Tensor scale(const Tensor& a, float s) {
  auto impl = make_result(a.rows(), a.cols(), {&a});
  const float* ad = a.data().data();
  float* out = impl->data.data();
  parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
               kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                 kern::scale(out + lo, ad + lo, s,
                             static_cast<std::size_t>(hi - lo));
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "scale";
    impl->backward_fn = [pa, s](TensorImpl& self) {
      pa->ensure_grad();
      parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                   kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                     kern::axpy(pa->grad.data() + lo, s,
                                self.grad.data() + lo,
                                static_cast<std::size_t>(hi - lo));
                   });
    };
  }
  return Tensor(impl);
}

namespace {

template <typename Fwd, typename Bwd>
Tensor pointwise(const Tensor& a, Fwd fwd, Bwd dydx_from_xy) {
  auto impl = make_result(a.rows(), a.cols(), {&a});
  const float* ad = a.data().data();
  parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
               kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                 for (auto i = static_cast<std::size_t>(lo);
                      i < static_cast<std::size_t>(hi); ++i) {
                   impl->data[i] = fwd(ad[i]);
                 }
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "pointwise";
    impl->backward_fn = [pa, dydx_from_xy](TensorImpl& self) {
      pa->ensure_grad();
      parallel_for(
          0, static_cast<std::int64_t>(self.grad.size()), kPointwiseGrain,
          [&](std::int64_t lo, std::int64_t hi) {
            for (auto i = static_cast<std::size_t>(lo);
                 i < static_cast<std::size_t>(hi); ++i) {
              pa->grad[i] +=
                  self.grad[i] * dydx_from_xy(pa->data[i], self.data[i]);
            }
          });
    };
  }
  return Tensor(impl);
}

}  // namespace

Tensor relu(const Tensor& a) {
  auto impl = make_result(a.rows(), a.cols(), {&a});
  const float* ad = a.data().data();
  float* out = impl->data.data();
  parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
               kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                 kern::relu(out + lo, ad + lo,
                            static_cast<std::size_t>(hi - lo));
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "relu";
    impl->backward_fn = [pa](TensorImpl& self) {
      pa->ensure_grad();
      // y > 0 ⟺ x > 0 for relu, so the forward output doubles as the mask.
      parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                   kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                     kern::relu_mask_acc(pa->grad.data() + lo,
                                         self.data.data() + lo,
                                         self.grad.data() + lo,
                                         static_cast<std::size_t>(hi - lo));
                   });
    };
  }
  return Tensor(impl);
}

Tensor add_relu(const Tensor& a, const Tensor& b) {
  const bool broadcast = (b.rows() == 1 && a.cols() == b.cols() && a.rows() != 1);
  TG_CHECK_MSG(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()),
               "add_relu: shape mismatch " << a.rows() << "x" << a.cols()
                                           << " vs " << b.rows() << "x"
                                           << b.cols());
  auto impl = make_result(a.rows(), a.cols(), {&a, &b});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* out = impl->data.data();
  const std::int64_t cols = a.cols();
  if (broadcast) {
    parallel_for(0, a.rows(), row_grain(2 * cols),
                 [&](std::int64_t rb, std::int64_t re) {
                   for (std::int64_t r = rb; r < re; ++r) {
                     kern::add_relu(out + r * cols, ad + r * cols, bd,
                                    static_cast<std::size_t>(cols));
                   }
                 });
  } else {
    parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
                 kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                   kern::add_relu(out + lo, ad + lo, bd + lo,
                                  static_cast<std::size_t>(hi - lo));
                 });
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    impl->op = "add_relu";
    impl->backward_fn = [pa, pb, broadcast, cols](TensorImpl& self) {
      const float* y = self.data.data();
      const float* g = self.grad.data();
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       kern::relu_mask_acc(pa->grad.data() + lo, y + lo,
                                           g + lo,
                                           static_cast<std::size_t>(hi - lo));
                     });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        if (broadcast) {
          const std::int64_t rows =
              static_cast<std::int64_t>(self.grad.size()) / cols;
          parallel_for(0, cols, row_grain(2 * rows),
                       [&](std::int64_t cb, std::int64_t ce) {
                         for (std::int64_t r = 0; r < rows; ++r) {
                           kern::relu_mask_acc(pb->grad.data() + cb,
                                               y + r * cols + cb,
                                               g + r * cols + cb,
                                               static_cast<std::size_t>(ce - cb));
                         }
                       });
        } else {
          parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                       kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                         kern::relu_mask_acc(
                             pb->grad.data() + lo, y + lo, g + lo,
                             static_cast<std::size_t>(hi - lo));
                       });
        }
      }
    };
  }
  return Tensor(impl);
}

Tensor mul_sigmoid(const Tensor& a, const Tensor& b) {
  TG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto impl = make_result(a.rows(), a.cols(), {&a, &b});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* out = impl->data.data();
  // σ(b) is needed again in backward for both inputs; a taped result
  // caches it rather than re-running exp (or dividing y by a, which loses
  // precision near a = 0).
  std::shared_ptr<std::vector<float>> sig;
  if (impl->requires_grad) {
    sig = std::make_shared<std::vector<float>>(impl->data.size());
  }
  float* sp = sig ? sig->data() : nullptr;
  parallel_for(0, static_cast<std::int64_t>(impl->data.size()),
               kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                 for (auto i = static_cast<std::size_t>(lo);
                      i < static_cast<std::size_t>(hi); ++i) {
                   const float s = 1.0f / (1.0f + std::exp(-bd[i]));
                   if (sp != nullptr) sp[i] = s;
                   out[i] = ad[i] * s;
                 }
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    impl->op = "mul_sigmoid";
    impl->backward_fn = [pa, pb, sig](TensorImpl& self) {
      const float* g = self.grad.data();
      if (pa->requires_grad) {
        pa->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       kern::mul_acc(pa->grad.data() + lo, g + lo,
                                     sig->data() + lo,
                                     static_cast<std::size_t>(hi - lo));
                     });
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        parallel_for(0, static_cast<std::int64_t>(self.grad.size()),
                     kPointwiseGrain, [&](std::int64_t lo, std::int64_t hi) {
                       for (auto i = static_cast<std::size_t>(lo);
                            i < static_cast<std::size_t>(hi); ++i) {
                         const float s = (*sig)[i];
                         pb->grad[i] += g[i] * pa->data[i] * s * (1.0f - s);
                       }
                     });
      }
    };
  }
  return Tensor(impl);
}

Tensor leaky_relu(const Tensor& a, float slope) {
  return pointwise(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Tensor sigmoid(const Tensor& a) {
  return pointwise(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return pointwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor softplus(const Tensor& a) {
  return pointwise(
      a,
      [](float x) {
        return x > 20.0f ? x : std::log1p(std::exp(std::min(x, 20.0f)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  TG_TRACE_SCOPE("nn/matmul", obs::kSpanDetail);
  TG_CHECK_MSG(a.cols() == b.rows(), "matmul: " << a.rows() << "x" << a.cols()
                                                << " times " << b.rows() << "x"
                                                << b.cols());
  const std::int64_t n = a.rows(), k = a.cols(), m = b.cols();
  auto impl = make_result(n, m, {&a, &b});
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* out = impl->data.data();
  // Row blocks run in parallel, each through the register-tiled
  // multi-row kernel; every output element accumulates its k terms in
  // ascending-kk order in every backend, so results match the serial
  // portable run bit for bit.
  parallel_for(0, n, row_grain(2 * k * m),
               [&](std::int64_t ib, std::int64_t ie) {
                 kern::matmul_rows(out + ib * m, ad + ib * k, bd,
                                   static_cast<std::size_t>(ie - ib),
                                   static_cast<std::size_t>(k),
                                   static_cast<std::size_t>(m));
               });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    impl->op = "matmul";
    impl->backward_fn = [pa, pb, n, k, m](TensorImpl& self) {
      TG_TRACE_SCOPE("nn/matmul_bwd", obs::kSpanDetail);
      const float* g = self.grad.data();
      if (pa->requires_grad) {
        TG_TRACE_SCOPE("nn/matmul_bwd_da", obs::kSpanDetail);
        pa->ensure_grad();
        // dA = dY · Bᵀ — row blocks of dA are independent; each entry is
        // one blocked-reduction dot (kernels.hpp contract), computed a
        // whole row at a time so B's rows stream through four shared
        // accumulator chains.
        parallel_for(0, n, row_grain(2 * k * m),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (std::int64_t i = ib; i < ie; ++i) {
                         kern::matmul_nt_row(pa->grad.data() + i * k,
                                             g + i * m, pb->data.data(),
                                             static_cast<std::size_t>(k),
                                             static_cast<std::size_t>(m));
                       }
                     });
      }
      if (pb->requires_grad) {
        TG_TRACE_SCOPE("nn/matmul_bwd_db", obs::kSpanDetail);
        pb->ensure_grad();
        // dB = Aᵀ · dY — row slices of dB (its kk rows) are independent.
        // Each chunk reads A's column sub-panel [kb, ke) and accumulates
        // full-width dB rows, every element in ascending-i (serial) order
        // inside its one owning chunk. Slicing rows rather than columns
        // keeps the kernel's SIMD width at m however small the chunks get.
        parallel_for(0, k, row_grain(2 * n * m), [&](std::int64_t kb,
                                                     std::int64_t ke) {
          kern::atb_acc(pb->grad.data() + kb * m, pa->data.data() + kb, g,
                        static_cast<std::size_t>(n),
                        static_cast<std::size_t>(ke - kb),
                        static_cast<std::size_t>(k),
                        static_cast<std::size_t>(m),
                        static_cast<std::size_t>(m));
        });
      }
    };
  }
  return Tensor(impl);
}

Tensor concat_cols(std::span<const Tensor> parts) {
  TG_CHECK(!parts.empty());
  const std::int64_t rows = parts[0].rows();
  std::int64_t cols = 0;
  for (const Tensor& t : parts) {
    TG_CHECK_MSG(t.rows() == rows, "concat_cols: row mismatch");
    cols += t.cols();
  }
  auto impl = make_result_parts(rows, cols, parts);
  std::int64_t off = 0;
  for (const Tensor& t : parts) {
    const std::int64_t tc = t.cols();
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy_n(t.data().data() + r * tc, tc,
                  impl->data.data() + r * cols + off);
    }
    off += tc;
  }
  if (impl->requires_grad) {
    impl->op = "concat_cols";
    impl->backward_fn = [rows, cols](TensorImpl& self) {
      std::int64_t o = 0;
      for (const auto& s : self.parents) {
        const std::int64_t tc = s->cols;
        if (s->requires_grad) {
          s->ensure_grad();
          for (std::int64_t r = 0; r < rows; ++r) {
            kern::add_acc(s->grad.data() + r * tc,
                          self.grad.data() + r * cols + o,
                          static_cast<std::size_t>(tc));
          }
        }
        o += tc;
      }
    };
  }
  return Tensor(impl);
}

Tensor slice_cols(const Tensor& a, std::int64_t begin, std::int64_t end) {
  TG_CHECK(0 <= begin && begin < end && end <= a.cols());
  const std::int64_t rows = a.rows(), cols = end - begin, ac = a.cols();
  auto impl = make_result(rows, cols, {&a});
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy_n(a.data().data() + r * ac + begin, cols,
                impl->data.data() + r * cols);
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "slice_cols";
    impl->backward_fn = [pa, rows, cols, ac, begin](TensorImpl& self) {
      pa->ensure_grad();
      for (std::int64_t r = 0; r < rows; ++r) {
        kern::add_acc(pa->grad.data() + r * ac + begin,
                      self.grad.data() + r * cols,
                      static_cast<std::size_t>(cols));
      }
    };
  }
  return Tensor(impl);
}

Tensor concat_rows(std::span<const Tensor> parts) {
  TG_CHECK(!parts.empty());
  const std::int64_t cols = parts[0].cols();
  std::int64_t rows = 0;
  for (const Tensor& t : parts) {
    TG_CHECK_MSG(t.cols() == cols, "concat_rows: column mismatch");
    rows += t.rows();
  }
  auto impl = make_result_parts(rows, cols, parts);
  std::size_t off = 0;
  for (const Tensor& t : parts) {
    std::copy_n(t.data().data(), t.numel(), impl->data.data() + off);
    off += static_cast<std::size_t>(t.numel());
  }
  if (impl->requires_grad) {
    impl->op = "concat_rows";
    impl->backward_fn = [](TensorImpl& self) {
      std::size_t o = 0;
      for (const auto& s : self.parents) {
        if (s->requires_grad) {
          accumulate(*s, std::span<const float>(
                             self.grad.data() + o,
                             static_cast<std::size_t>(s->numel())));
        }
        o += static_cast<std::size_t>(s->numel());
      }
    };
  }
  return Tensor(impl);
}

Tensor gather_rows(const Tensor& a, SharedIndex idx_handle) {
  const IndexVec& idx = idx_handle.get();
  TG_CHECK(idx != nullptr);
  const std::int64_t cols = a.cols();
  auto impl = make_result(static_cast<std::int64_t>(idx->size()), cols, {&a});
  const int* ix = idx->data();
  const float* ad = a.data().data();
  parallel_for(
      0, static_cast<std::int64_t>(idx->size()), row_grain(cols),
      [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) {
          TG_DCHECK(ix[i] >= 0 && ix[i] < a.rows());
          std::memcpy(impl->data.data() + i * cols,
                      ad + static_cast<std::int64_t>(ix[i]) * cols,
                      static_cast<std::size_t>(cols) * sizeof(float));
        }
      });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "gather_rows";
    impl->backward_fn = [pa, idx, cols](TensorImpl& self) {
      pa->ensure_grad();
      // Scatter: duplicate indices collide on rows, so slice by output
      // column instead — each grad slot has one owner chunk and keeps the
      // ascending-i accumulation order of the serial loop.
      const auto n = static_cast<std::int64_t>(idx->size());
      const int* gix = idx->data();
      parallel_for(0, cols, row_grain(2 * n), [&](std::int64_t cb,
                                                  std::int64_t ce) {
        for (std::int64_t i = 0; i < n; ++i) {
          kern::add_acc(pa->grad.data() +
                            static_cast<std::int64_t>(gix[i]) * cols + cb,
                        self.grad.data() + i * cols + cb,
                        static_cast<std::size_t>(ce - cb));
        }
      });
    };
  }
  return Tensor(impl);
}

Tensor gather_rows(const Tensor& a, std::vector<int> idx) {
  return gather_rows(a, share_index(std::move(idx)));
}

Tensor multi_gather(std::span<const Tensor> sources, SharedIndex src_tensor_handle,
                    SharedIndex src_row_handle) {
  const IndexVec& src_tensor = src_tensor_handle.get();
  const IndexVec& src_row = src_row_handle.get();
  TG_CHECK(!sources.empty());
  TG_CHECK(src_tensor != nullptr && src_row != nullptr);
  TG_CHECK(src_tensor->size() == src_row->size());
  const std::int64_t cols = sources[0].cols();
  for (const Tensor& t : sources) TG_CHECK(t.cols() == cols);
  auto impl = make_result_parts(static_cast<std::int64_t>(src_tensor->size()),
                                cols, sources);

  const int* st = src_tensor->data();
  const int* sr = src_row->data();
  for (std::size_t i = 0; i < src_tensor->size(); ++i) {
    const Tensor& s = sources[static_cast<std::size_t>(st[i])];
    TG_DCHECK(sr[i] >= 0 && sr[i] < s.rows());
    std::memcpy(impl->data.data() + static_cast<std::int64_t>(i) * cols,
                s.data().data() + static_cast<std::int64_t>(sr[i]) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  if (impl->requires_grad) {
    impl->op = "multi_gather";
    impl->backward_fn = [src_tensor, src_row, cols](TensorImpl& self) {
      const int* bst = src_tensor->data();
      const int* bsr = src_row->data();
      for (std::size_t i = 0; i < src_tensor->size(); ++i) {
        const auto& s = self.parents[static_cast<std::size_t>(bst[i])];
        if (!s->requires_grad) continue;
        s->ensure_grad();
        kern::add_acc(s->grad.data() + static_cast<std::int64_t>(bsr[i]) * cols,
                      self.grad.data() + static_cast<std::int64_t>(i) * cols,
                      static_cast<std::size_t>(cols));
      }
    };
  }
  return Tensor(impl);
}

Tensor multi_gather(std::span<const Tensor> sources,
                    std::vector<int> src_tensor, std::vector<int> src_row) {
  return multi_gather(sources, share_index(std::move(src_tensor)),
                      share_index(std::move(src_row)));
}

Tensor segment_sum(const Tensor& a, SharedIndex seg_handle, std::int64_t num_segments) {
  const IndexVec& seg = seg_handle.get();
  TG_TRACE_SCOPE("nn/segment_sum", obs::kSpanDetail);
  TG_CHECK(seg != nullptr);
  TG_CHECK(static_cast<std::int64_t>(seg->size()) == a.rows());
  const std::int64_t cols = a.cols();
  auto impl = make_result_zero(num_segments, cols, {&a});
  const auto n = static_cast<std::int64_t>(seg->size());
  const int* sg = seg->data();
  const float* ad = a.data().data();
  // Scatter by segment: rows collide, columns never do — slice columns.
  parallel_for(0, cols, row_grain(2 * n), [&](std::int64_t cb,
                                              std::int64_t ce) {
    for (std::int64_t i = 0; i < n; ++i) {
      TG_DCHECK(sg[i] >= 0 && sg[i] < num_segments);
      kern::add_acc(impl->data.data() +
                        static_cast<std::int64_t>(sg[i]) * cols + cb,
                    ad + i * cols + cb, static_cast<std::size_t>(ce - cb));
    }
  });
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "segment_sum";
    impl->backward_fn = [pa, seg, cols](TensorImpl& self) {
      pa->ensure_grad();
      const int* sgp = seg->data();
      // Gather: each input row is written by exactly one chunk.
      parallel_for(
          0, static_cast<std::int64_t>(seg->size()), row_grain(cols),
          [&](std::int64_t ib, std::int64_t ie) {
            for (std::int64_t i = ib; i < ie; ++i) {
              kern::add_acc(pa->grad.data() + i * cols,
                            self.grad.data() +
                                static_cast<std::int64_t>(sgp[i]) * cols,
                            static_cast<std::size_t>(cols));
            }
          });
    };
  }
  return Tensor(impl);
}

Tensor segment_sum(const Tensor& a, std::vector<int> seg,
                   std::int64_t num_segments) {
  return segment_sum(a, share_index(std::move(seg)), num_segments);
}

Tensor segment_max(const Tensor& a, SharedIndex seg_handle, std::int64_t num_segments) {
  const IndexVec& seg = seg_handle.get();
  TG_CHECK(seg != nullptr);
  TG_CHECK(static_cast<std::int64_t>(seg->size()) == a.rows());
  const std::int64_t cols = a.cols();
  auto impl = make_result_zero(num_segments, cols, {&a});
  // Tape-only: argmax[s*cols + c] = input row that won; -1 = empty.
  std::shared_ptr<std::vector<int>> argmax;
  if (impl->requires_grad) {
    argmax = std::make_shared<std::vector<int>>(
        static_cast<std::size_t>(num_segments * cols), -1);
  }
  {
    const auto n = static_cast<std::int64_t>(seg->size());
    const int* sg = seg->data();
    const float* ad = a.data().data();
    float* out = impl->data.data();
    int* am = argmax ? argmax->data() : nullptr;
    // Column-sliced like segment_sum: every (segment, column) max/argmax
    // slot is owned by one chunk and scanned in ascending-i order. A
    // segment's first row always wins (empty segments keep the zero
    // fill); later rows win only when strictly greater, so ties keep the
    // first row.
    parallel_for(0, cols, row_grain(2 * n), [&](std::int64_t cb,
                                                std::int64_t ce) {
      std::vector<unsigned char> seen(static_cast<std::size_t>(num_segments),
                                      0);
      for (std::int64_t i = 0; i < n; ++i) {
        TG_DCHECK(sg[i] >= 0 && sg[i] < num_segments);
        const float* src = ad + i * cols;
        const std::int64_t base = static_cast<std::int64_t>(sg[i]) * cols;
        unsigned char& seen_seg = seen[static_cast<std::size_t>(sg[i])];
        const bool first = seen_seg == 0;
        seen_seg = 1;
        for (std::int64_t c = cb; c < ce; ++c) {
          if (first || src[c] > out[base + c]) {
            out[base + c] = src[c];
            if (am != nullptr) am[base + c] = static_cast<int>(i);
          }
        }
      }
    });
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "segment_max";
    impl->backward_fn = [pa, argmax, cols](TensorImpl& self) {
      pa->ensure_grad();
      for (std::size_t j = 0; j < self.grad.size(); ++j) {
        const int row = (*argmax)[j];
        if (row < 0) continue;
        pa->grad[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols) +
                 j % static_cast<std::size_t>(cols)] += self.grad[j];
      }
    };
  }
  return Tensor(impl);
}

Tensor segment_max(const Tensor& a, std::vector<int> seg,
                   std::int64_t num_segments) {
  return segment_max(a, share_index(std::move(seg)), num_segments);
}

Tensor spmm(std::vector<int> src, std::vector<int> dst, std::vector<float> w,
            const Tensor& x, std::int64_t out_rows) {
  TG_TRACE_SCOPE("nn/spmm", obs::kSpanDetail);
  TG_CHECK(src.size() == dst.size() && src.size() == w.size());
  const std::int64_t cols = x.cols();
  auto impl = make_result_zero(out_rows, cols, {&x});
  {
    const auto ne = static_cast<std::int64_t>(src.size());
    const int* sp = src.data();
    const int* dp = dst.data();
    const float* wp = w.data();
    const float* xd = x.data().data();
    // Edge scatter: both endpoints repeat across edges, so slice columns.
    parallel_for(0, cols, row_grain(2 * ne), [&](std::int64_t cb,
                                                 std::int64_t ce) {
      for (std::int64_t k = 0; k < ne; ++k) {
        TG_DCHECK(sp[k] >= 0 && sp[k] < x.rows());
        TG_DCHECK(dp[k] >= 0 && dp[k] < out_rows);
        kern::axpy(impl->data.data() +
                       static_cast<std::int64_t>(dp[k]) * cols + cb,
                   wp[k], xd + static_cast<std::int64_t>(sp[k]) * cols + cb,
                   static_cast<std::size_t>(ce - cb));
      }
    });
  }
  if (impl->requires_grad) {
    auto px = x.ptr();
    auto ps = std::make_shared<std::vector<int>>(std::move(src));
    auto pd = std::make_shared<std::vector<int>>(std::move(dst));
    auto pw = std::make_shared<std::vector<float>>(std::move(w));
    impl->op = "spmm";
    impl->backward_fn = [px, ps, pd, pw, cols](TensorImpl& self) {
      px->ensure_grad();
      const auto ne = static_cast<std::int64_t>(ps->size());
      parallel_for(0, cols, row_grain(2 * ne), [&](std::int64_t cb,
                                                   std::int64_t ce) {
        for (std::int64_t k = 0; k < ne; ++k) {
          const auto ku = static_cast<std::size_t>(k);
          kern::axpy(px->grad.data() +
                         static_cast<std::int64_t>((*ps)[ku]) * cols + cb,
                     (*pw)[ku],
                     self.grad.data() +
                         static_cast<std::int64_t>((*pd)[ku]) * cols + cb,
                     static_cast<std::size_t>(ce - cb));
        }
      });
    };
  }
  return Tensor(impl);
}

SpmmCsr build_spmm_csr(const std::vector<int>& src, const std::vector<int>& dst,
                       const std::vector<float>& w, std::int64_t out_rows,
                       std::int64_t in_rows) {
  TG_CHECK(src.size() == dst.size() && src.size() == w.size());
  const std::size_t ne = src.size();
  SpmmCsr plan;
  plan.out_rows = out_rows;
  plan.in_rows = in_rows;
  // Forward CSR: edges bucketed by destination row (counting sort keeps
  // the original edge order within a row, so the per-row accumulation
  // order is deterministic and independent of how the COO list arrived).
  auto fwd_off = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(out_rows) + 1, 0);
  auto fwd_col = std::make_shared<std::vector<int>>(ne);
  auto fwd_w = std::make_shared<std::vector<float>>(ne);
  for (std::size_t k = 0; k < ne; ++k) {
    TG_CHECK(dst[k] >= 0 && static_cast<std::int64_t>(dst[k]) < out_rows);
    TG_CHECK(src[k] >= 0 && static_cast<std::int64_t>(src[k]) < in_rows);
    ++(*fwd_off)[static_cast<std::size_t>(dst[k]) + 1];
  }
  for (std::size_t r = 1; r < fwd_off->size(); ++r) {
    (*fwd_off)[r] += (*fwd_off)[r - 1];
  }
  {
    std::vector<int> cursor(fwd_off->begin(), fwd_off->end() - 1);
    for (std::size_t k = 0; k < ne; ++k) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(dst[k])]++);
      (*fwd_col)[slot] = src[k];
      (*fwd_w)[slot] = w[k];
    }
  }
  // Transpose CSR (bucketed by source row) drives backward: dx is then a
  // row-parallel gather instead of a column-sliced scatter.
  auto t_off = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(in_rows) + 1, 0);
  auto t_col = std::make_shared<std::vector<int>>(ne);
  auto t_w = std::make_shared<std::vector<float>>(ne);
  for (std::size_t k = 0; k < ne; ++k) {
    ++(*t_off)[static_cast<std::size_t>(src[k]) + 1];
  }
  for (std::size_t r = 1; r < t_off->size(); ++r) {
    (*t_off)[r] += (*t_off)[r - 1];
  }
  {
    std::vector<int> cursor(t_off->begin(), t_off->end() - 1);
    for (std::size_t k = 0; k < ne; ++k) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(src[k])]++);
      (*t_col)[slot] = dst[k];
      (*t_w)[slot] = w[k];
    }
  }
  plan.row_off = std::move(fwd_off);
  plan.col = std::move(fwd_col);
  plan.w = std::move(fwd_w);
  plan.t_row_off = std::move(t_off);
  plan.t_col = std::move(t_col);
  plan.t_w = std::move(t_w);
  return plan;
}

Tensor spmm_csr(const SpmmCsr& plan, const Tensor& x) {
  TG_TRACE_SCOPE("nn/spmm_csr", obs::kSpanDetail);
  TG_CHECK(plan.row_off != nullptr && x.rows() == plan.in_rows);
  const std::int64_t cols = x.cols();
  auto impl = make_result(plan.out_rows, cols, {&x});
  const int* off = plan.row_off->data();
  const int* col = plan.col->data();
  const float* w = plan.w->data();
  const float* xd = x.data().data();
  // Row-parallel gather: each output row owns its edge range, accumulated
  // in CSR order — deterministic for any thread count, and sequential
  // reads of the packed col/w arrays.
  const std::int64_t avg_deg =
      plan.out_rows > 0
          ? static_cast<std::int64_t>(plan.col->size()) / plan.out_rows + 1
          : 1;
  parallel_for(0, plan.out_rows, row_grain(2 * avg_deg * cols),
               [&](std::int64_t rb, std::int64_t re) {
                 for (std::int64_t r = rb; r < re; ++r) {
                   float* orow = impl->data.data() + r * cols;
                   const int b = off[r], e = off[r + 1];
                   std::memset(orow, 0,
                               static_cast<std::size_t>(cols) * sizeof(float));
                   for (int k = b; k < e; ++k) {
                     kern::axpy(orow, w[k],
                                xd + static_cast<std::int64_t>(col[k]) * cols,
                                static_cast<std::size_t>(cols));
                   }
                 }
               });
  if (impl->requires_grad) {
    auto px = x.ptr();
    // Copy the shared handles (not the arrays) into the closure.
    auto t_off = plan.t_row_off;
    auto t_col = plan.t_col;
    auto t_w = plan.t_w;
    const std::int64_t in_rows = plan.in_rows;
    impl->op = "spmm_csr";
    impl->backward_fn = [px, t_off, t_col, t_w, in_rows,
                         cols](TensorImpl& self) {
      px->ensure_grad();
      const int* toff = t_off->data();
      const int* tcol = t_col->data();
      const float* tw = t_w->data();
      const std::int64_t t_avg_deg =
          in_rows > 0
              ? static_cast<std::int64_t>(t_col->size()) / in_rows + 1
              : 1;
      parallel_for(0, in_rows, row_grain(2 * t_avg_deg * cols),
                   [&](std::int64_t rb, std::int64_t re) {
                     for (std::int64_t r = rb; r < re; ++r) {
                       float* drow = px->grad.data() + r * cols;
                       for (int k = toff[r]; k < toff[r + 1]; ++k) {
                         kern::axpy(
                             drow, tw[k],
                             self.grad.data() +
                                 static_cast<std::int64_t>(tcol[k]) * cols,
                             static_cast<std::size_t>(cols));
                       }
                     }
                   });
    };
  }
  return Tensor(impl);
}

Tensor sum_all(const Tensor& a) {
  auto impl = make_result(1, 1, {&a});
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  impl->data[0] = acc;
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "sum_all";
    impl->backward_fn = [pa](TensorImpl& self) {
      pa->ensure_grad();
      for (float& g : pa->grad) g += self.grad[0];
    };
  }
  return Tensor(impl);
}

Tensor mean_all(const Tensor& a) {
  TG_CHECK(a.numel() > 0);
  return scale(sum_all(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  TG_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  const Tensor diff = sub(pred, target);
  return mean_all(mul(diff, diff));
}

Tensor mse_loss_rows(const Tensor& pred, SharedIndex rows,
                     const Tensor& target) {
  const IndexVec& rv = rows.get();
  TG_CHECK(rv != nullptr);
  TG_CHECK(static_cast<std::int64_t>(rv->size()) == target.rows());
  if (rv->empty()) return Tensor::zeros(1, 1);
  return mse_loss(gather_rows(pred, std::move(rows)), target);
}

Tensor mse_loss_rows(const Tensor& pred, std::vector<int> rows,
                     const Tensor& target) {
  return mse_loss_rows(pred, share_index(std::move(rows)), target);
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  const std::int64_t rows = x.rows(), cols = x.cols();
  TG_CHECK(gamma.rows() == 1 && gamma.cols() == cols);
  TG_CHECK(beta.rows() == 1 && beta.cols() == cols);
  auto impl = make_result(rows, cols, {&x, &gamma, &beta});

  // A taped result caches per-row statistics and the normalized values
  // for backward.
  std::shared_ptr<std::vector<float>> xhat, inv_std;
  if (impl->requires_grad) {
    xhat = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows * cols));
    inv_std = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows));
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x.data().data() + r * cols;
    float mean = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) mean += xr[c];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float istd = 1.0f / std::sqrt(var + eps);
    if (inv_std) (*inv_std)[static_cast<std::size_t>(r)] = istd;
    float* out = impl->data.data() + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float h = (xr[c] - mean) * istd;
      if (xhat) (*xhat)[static_cast<std::size_t>(r * cols + c)] = h;
      out[c] = h * gamma.data()[static_cast<std::size_t>(c)] +
               beta.data()[static_cast<std::size_t>(c)];
    }
  }
  if (impl->requires_grad) {
    auto px = x.ptr();
    auto pg = gamma.ptr();
    auto pb = beta.ptr();
    impl->op = "layer_norm";
    impl->backward_fn = [px, pg, pb, xhat, inv_std, rows,
                         cols](TensorImpl& self) {
      if (pg->requires_grad) pg->ensure_grad();
      if (pb->requires_grad) pb->ensure_grad();
      if (px->requires_grad) px->ensure_grad();
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* g = self.grad.data() + r * cols;
        const float* h = xhat->data() + r * cols;
        // dgamma, dbeta.
        if (pg->requires_grad) {
          kern::mul_acc(pg->grad.data(), g, h,
                        static_cast<std::size_t>(cols));
        }
        if (pb->requires_grad) {
          kern::add_acc(pb->grad.data(), g, static_cast<std::size_t>(cols));
        }
        if (px->requires_grad) {
          // dx = (istd/D) · (D·gy − Σgy − h·Σ(gy·h)), gy = g·gamma.
          float sum_gy = 0.0f, sum_gyh = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) {
            const float gy = g[c] * pg->data[static_cast<std::size_t>(c)];
            sum_gy += gy;
            sum_gyh += gy * h[c];
          }
          const float istd = (*inv_std)[static_cast<std::size_t>(r)];
          float* dx = px->grad.data() + r * cols;
          const float inv_d = 1.0f / static_cast<float>(cols);
          for (std::int64_t c = 0; c < cols; ++c) {
            const float gy = g[c] * pg->data[static_cast<std::size_t>(c)];
            dx[c] += istd * (gy - inv_d * sum_gy - h[c] * inv_d * sum_gyh);
          }
        }
      }
    };
  }
  return Tensor(impl);
}

Tensor softmax_groups(const Tensor& a, std::int64_t group) {
  TG_CHECK(group >= 1 && a.cols() % group == 0);
  auto impl = make_result(a.rows(), a.cols(), {&a});
  const std::int64_t cols = a.cols();
  // The fused inference step calls the same row kernel (one definition).
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    kern::softmax_groups_row(impl->data.data() + r * cols,
                             a.data().data() + r * cols,
                             static_cast<std::size_t>(cols),
                             static_cast<std::size_t>(group));
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    impl->op = "softmax_groups";
    impl->backward_fn = [pa, group](TensorImpl& self) {
      pa->ensure_grad();
      const std::int64_t scols = self.cols;
      for (std::int64_t r = 0; r < self.rows; ++r) {
        for (std::int64_t g0 = 0; g0 < scols; g0 += group) {
          const float* y = self.data.data() + r * scols + g0;
          const float* gy = self.grad.data() + r * scols + g0;
          float dot = 0.0f;
          for (std::int64_t i = 0; i < group; ++i) dot += y[i] * gy[i];
          float* gx = pa->grad.data() + r * scols + g0;
          for (std::int64_t i = 0; i < group; ++i) {
            gx[i] += y[i] * (gy[i] - dot);
          }
        }
      }
    };
  }
  return Tensor(impl);
}

Tensor lut_kron_dot(const Tensor& a, const Tensor& b, const Tensor& lut,
                    std::int64_t lut_dim) {
  TG_TRACE_SCOPE("nn/lut_kron_dot", obs::kSpanDetail);
  const std::int64_t rows = a.rows();
  TG_CHECK(b.rows() == rows && lut.rows() == rows);
  TG_CHECK(a.cols() == b.cols() && a.cols() % lut_dim == 0);
  const std::int64_t groups = a.cols() / lut_dim;
  TG_CHECK(lut.cols() == groups * lut_dim * lut_dim);

  auto impl = make_result(rows, groups, {&a, &b, &lut});
  const std::int64_t d = lut_dim;
  // The fused inference step calls the same row kernel (one definition).
  for (std::int64_t r = 0; r < rows; ++r) {
    kern::kron_dot_row(impl->data.data() + r * groups,
                       a.data().data() + r * a.cols(),
                       b.data().data() + r * b.cols(),
                       lut.data().data() + r * lut.cols(),
                       static_cast<std::size_t>(groups),
                       static_cast<std::size_t>(d));
  }
  if (impl->requires_grad) {
    auto pa = a.ptr();
    auto pb = b.ptr();
    auto pl = lut.ptr();
    impl->op = "lut_kron_dot";
    impl->backward_fn = [pa, pb, pl, d, groups](TensorImpl& self) {
      const std::int64_t rows2 = self.rows;
      const std::int64_t acols = pa->cols;
      const std::int64_t lcols = pl->cols;
      if (pa->requires_grad) pa->ensure_grad();
      if (pb->requires_grad) pb->ensure_grad();
      if (pl->requires_grad) pl->ensure_grad();
      for (std::int64_t r = 0; r < rows2; ++r) {
        for (std::int64_t g = 0; g < groups; ++g) {
          const float go = self.grad[static_cast<std::size_t>(r * groups + g)];
          if (go == 0.0f) continue;
          const float* av = pa->data.data() + r * acols + g * d;
          const float* bv = pb->data.data() + r * acols + g * d;
          const float* lv = pl->data.data() + r * lcols + g * d * d;
          for (std::int64_t i = 0; i < d; ++i) {
            const float* lrow = lv + i * d;
            if (pa->requires_grad) {
              float inner = 0.0f;
              for (std::int64_t j = 0; j < d; ++j) inner += bv[j] * lrow[j];
              pa->grad[static_cast<std::size_t>(r * acols + g * d + i)] +=
                  go * inner;
            }
            if (pb->requires_grad) {
              const float ai = av[i];
              for (std::int64_t j = 0; j < d; ++j) {
                pb->grad[static_cast<std::size_t>(r * acols + g * d + j)] +=
                    go * ai * lrow[j];
              }
            }
            if (pl->requires_grad) {
              const float ai = av[i];
              for (std::int64_t j = 0; j < d; ++j) {
                pl->grad[static_cast<std::size_t>(r * lcols + g * d * d + i * d +
                                                  j)] += go * ai * bv[j];
              }
            }
          }
        }
      }
    };
  }
  return Tensor(impl);
}

}  // namespace tg::nn
