#include "linalg/kernels.hpp"

#include <utility>

#include "common/check.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels_fast.hpp"

namespace mcs {

namespace {

void check_shape(const Matrix& m, std::size_t rows, std::size_t cols,
                 const char* op) {
    MCS_CHECK_MSG(m.rows() == rows && m.cols() == cols,
                  std::string(op) + ": dst must be " + std::to_string(rows) +
                      "x" + std::to_string(cols) + ", got " +
                      m.shape_string());
}

// Matrices own their storage, so dst aliases an input exactly when they
// share a buffer. Empty matrices share the null buffer harmlessly.
void check_not_aliased(const Matrix& dst, const Matrix& in, const char* op) {
    MCS_CHECK_MSG(dst.empty() || dst.data().data() != in.data().data(),
                  std::string(op) + ": dst must not alias an input");
}

// Attribute 2·m·n·k FLOPs to the aggregate counter and the kernel's own
// split (`slot`) so --stats-json can apportion arithmetic volume.
void add_gemm_flops(PipelineCounters* counters,
                    std::uint64_t PipelineCounters::* slot, std::size_t m,
                    std::size_t n, std::size_t k) {
    if (counters != nullptr) {
        const std::uint64_t flops =
            2ull * static_cast<std::uint64_t>(m) *
            static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
        counters->gemm_flops += flops;
        counters->*slot += flops;
    }
}

RowExecutor* g_row_executor = nullptr;

// Run `body` over [0, rows): through the installed executor when the
// destination is tall enough to amortise dispatch, serially otherwise.
// Counters are never touched inside `body` — callers bump them once on
// their own thread after the loop.
void for_rows_maybe_parallel(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& body) {
    RowExecutor* executor = g_row_executor;
    if (executor == nullptr || rows < kKernelRowBlockThreshold) {
        body(0, rows);
        return;
    }
    executor->for_rows(rows, body);
}

// Tier of the calling thread, read once at kernel entry — the row-block
// bodies below capture the already-made choice, so RowExecutor pool
// threads (whose own thread-local tier is untouched) still run the tier
// the caller selected.
bool use_fast_tier() { return active_kernel_tier() == KernelTier::kFast; }

}  // namespace

void set_kernel_row_executor(RowExecutor* executor) {
    g_row_executor = executor;
}

RowExecutor* kernel_row_executor() { return g_row_executor; }

void axpy(Matrix& y, double alpha, const Matrix& x) {
    check_shape(y, x.rows(), x.cols(), "axpy");
    const auto dx = x.data();
    auto dy = y.data();
    if (use_fast_tier()) {
        fastk::fast_kernels().axpy(dy.data(), alpha, dx.data(), dy.size());
        return;
    }
    for (std::size_t k = 0; k < dx.size(); ++k) {
        dy[k] += alpha * dx[k];
    }
}

void multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                   PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols() == b.rows(),
                  "multiply_into: inner dimensions differ: " +
                      a.shape_string() + " * " + b.shape_string());
    check_shape(dst, a.rows(), b.cols(), "multiply_into");
    check_not_aliased(dst, a, "multiply_into");
    check_not_aliased(dst, b, "multiply_into");
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.cols();
        double* out = dst.data().data();
        const double* pa = a.data().data();
        const double* pb = b.data().data();
        for_rows_maybe_parallel(
            a.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->multiply_rows(out, pa, pb, lo, hi, kdim, n);
            });
        add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                       b.cols(), a.cols());
        return;
    }
    // Same i-k-j order as ops.cpp multiply() so results match bit-for-bit;
    // each dst row is produced by exactly one block, so the row-parallel
    // path is bit-identical too.
    for_rows_maybe_parallel(a.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            auto out = dst.row(i);
            for (double& v : out) {
                v = 0.0;
            }
            for (std::size_t k = 0; k < a.cols(); ++k) {
                const double aik = a(i, k);
                if (aik == 0.0) {
                    continue;
                }
                for (std::size_t j = 0; j < b.cols(); ++j) {
                    out[j] += aik * b(k, j);
                }
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                   b.cols(), a.cols());
}

void multiply_transposed_into(Matrix& dst, const Matrix& a, const Matrix& b,
                              PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols() == b.cols(),
                  "multiply_transposed_into: inner dimensions differ: " +
                      a.shape_string() + " * " + b.shape_string() + "ᵀ");
    check_shape(dst, a.rows(), b.rows(), "multiply_transposed_into");
    check_not_aliased(dst, a, "multiply_transposed_into");
    check_not_aliased(dst, b, "multiply_transposed_into");
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.rows();
        double* out = dst.data().data();
        const double* pa = a.data().data();
        const double* pb = b.data().data();
        for_rows_maybe_parallel(
            a.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->multiply_transposed_rows(out, pa, pb, lo, hi, n, kdim);
            });
        add_gemm_flops(counters,
                       &PipelineCounters::flops_multiply_transposed, a.rows(),
                       b.rows(), a.cols());
        return;
    }
    for_rows_maybe_parallel(a.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto ra = a.row(i);
            for (std::size_t j = 0; j < b.rows(); ++j) {
                const auto rb = b.row(j);
                double acc = 0.0;
                for (std::size_t k = 0; k < ra.size(); ++k) {
                    acc += ra[k] * rb[k];
                }
                dst(i, j) = acc;
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_multiply_transposed,
                   a.rows(), b.rows(), a.cols());
}

void transpose_multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                             PipelineCounters* counters) {
    MCS_CHECK_MSG(a.rows() == b.rows(),
                  "transpose_multiply_into: inner dimensions differ: " +
                      a.shape_string() + "ᵀ * " + b.shape_string());
    check_shape(dst, a.cols(), b.cols(), "transpose_multiply_into");
    check_not_aliased(dst, a, "transpose_multiply_into");
    check_not_aliased(dst, b, "transpose_multiply_into");
    if (use_fast_tier()) {
        fastk::fast_kernels().transpose_multiply(
            dst.data().data(), a.data().data(), b.data().data(), a.rows(),
            a.cols(), b.cols());
        add_gemm_flops(counters,
                       &PipelineCounters::flops_transpose_multiply, a.cols(),
                       b.cols(), a.rows());
        return;
    }
    dst.fill(0.0);
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const auto ra = a.row(k);
        const auto rb = b.row(k);
        for (std::size_t i = 0; i < ra.size(); ++i) {
            const double aki = ra[i];
            if (aki == 0.0) {
                continue;
            }
            for (std::size_t j = 0; j < rb.size(); ++j) {
                dst(i, j) += aki * rb[j];
            }
        }
    }
    add_gemm_flops(counters, &PipelineCounters::flops_transpose_multiply,
                   a.cols(), b.cols(), a.rows());
}

void transpose_into(Matrix& dst, const Matrix& a) {
    check_shape(dst, a.cols(), a.rows(), "transpose_into");
    check_not_aliased(dst, a, "transpose_into");
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            dst(j, i) = a(i, j);
        }
    }
}

void masked_residual_into(Matrix& dst, const Matrix& l, const Matrix& r,
                          const Matrix& mask, const Matrix& s,
                          PipelineCounters* counters) {
    MCS_CHECK_MSG(l.cols() == r.cols(),
                  "masked_residual_into: factor ranks differ: " +
                      l.shape_string() + " vs " + r.shape_string());
    MCS_CHECK_MSG(mask.rows() == l.rows() && mask.cols() == r.rows(),
                  "masked_residual_into: mask shape mismatch");
    MCS_CHECK_MSG(mask.rows() == s.rows() && mask.cols() == s.cols(),
                  "masked_residual_into: mask/S shape mismatch");
    check_shape(dst, mask.rows(), mask.cols(), "masked_residual_into");
    check_not_aliased(dst, l, "masked_residual_into");
    check_not_aliased(dst, r, "masked_residual_into");
    check_not_aliased(dst, mask, "masked_residual_into");
    check_not_aliased(dst, s, "masked_residual_into");
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t n = mask.cols();
        const std::size_t rank = l.cols();
        double* out = dst.data().data();
        const double* pl = l.data().data();
        const double* pr = r.data().data();
        const double* pm = mask.data().data();
        const double* ps = s.data().data();
        for_rows_maybe_parallel(
            mask.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->masked_residual_rows(out, pl, pr, pm, ps, lo, hi, n,
                                         rank);
            });
        add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                       mask.rows(), mask.cols(), l.cols());
        return;
    }
    for_rows_maybe_parallel(mask.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto li = l.row(i);
            for (std::size_t j = 0; j < mask.cols(); ++j) {
                if (mask(i, j) != 0.0) {
                    const auto rj = r.row(j);
                    double acc = 0.0;
                    for (std::size_t k = 0; k < li.size(); ++k) {
                        acc += li[k] * rj[k];
                    }
                    dst(i, j) = acc * mask(i, j) - s(i, j);
                } else {
                    dst(i, j) = -s(i, j);
                }
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                   mask.rows(), mask.cols(), l.cols());
}

void gram_with_ridge_into(Matrix& dst, const Matrix& a, double ridge,
                          PipelineCounters* counters) {
    MCS_CHECK_MSG(ridge >= 0.0, "gram_with_ridge_into: negative ridge");
    transpose_multiply_into(dst, a, a, counters);
    for (std::size_t i = 0; i < dst.rows(); ++i) {
        dst(i, i) += ridge;
    }
}

void temporal_diff_adjoint_into(Matrix& dst, const Matrix& e) {
    check_shape(dst, e.rows(), e.cols(), "temporal_diff_adjoint_into");
    check_not_aliased(dst, e, "temporal_diff_adjoint_into");
    const std::size_t t = e.cols();
    for (std::size_t i = 0; i < e.rows(); ++i) {
        for (std::size_t j = 0; j < t; ++j) {
            double value = (j >= 1) ? e(i, j) : 0.0;
            if (j + 1 < t) {
                value -= e(i, j + 1);
            }
            dst(i, j) = value;
        }
    }
}

namespace {

void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
    MCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                  std::string(op) + ": shape mismatch " + a.shape_string() +
                      " vs " + b.shape_string());
}

}  // namespace

void split_residuals_into(Matrix& m, Matrix& e, const Matrix& x,
                          const Matrix& mask, const Matrix& s,
                          const Matrix& c) {
    check_same_shape(x, mask, "split_residuals_into");
    check_same_shape(x, s, "split_residuals_into");
    check_shape(m, x.rows(), x.cols(), "split_residuals_into");
    check_not_aliased(m, x, "split_residuals_into");
    const bool temporal = !e.empty();
    if (temporal) {
        check_same_shape(x, c, "split_residuals_into");
        check_shape(e, x.rows(), x.cols(), "split_residuals_into");
        check_not_aliased(e, x, "split_residuals_into");
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t j = 0; j < x.cols(); ++j) {
            m(i, j) = x(i, j) * mask(i, j) - s(i, j);
            if (temporal) {
                const double dx = j >= 1 ? x(i, j) - x(i, j - 1) : 0.0;
                e(i, j) = dx - c(i, j);
            }
        }
    }
}

void folded_residual_into(Matrix& w, const Matrix& x, const Matrix& mask,
                          const Matrix& s, const Matrix& c, double lambda) {
    check_same_shape(x, mask, "folded_residual_into");
    check_same_shape(x, s, "folded_residual_into");
    check_same_shape(x, c, "folded_residual_into");
    check_shape(w, x.rows(), x.cols(), "folded_residual_into");
    check_not_aliased(w, x, "folded_residual_into");
    fastk::fast_kernels().folded_residual(
        w.data().data(), x.data().data(), mask.data().data(),
        s.data().data(), c.data().data(), lambda, x.rows(), x.cols());
}

LineSearchSums line_search_sums(const Matrix& p, const Matrix& mask,
                                const Matrix& m, const Matrix& e) {
    check_same_shape(p, mask, "line_search_sums");
    check_same_shape(p, m, "line_search_sums");
    const bool temporal = !e.empty();
    if (temporal) {
        check_same_shape(p, e, "line_search_sums");
    }
    LineSearchSums sums;
    for (std::size_t i = 0; i < p.rows(); ++i) {
        for (std::size_t j = 0; j < p.cols(); ++j) {
            const double pm = p(i, j) * mask(i, j);
            sums.masked_sq += pm * pm;
            sums.residual_dot += m(i, j) * pm;
            if (temporal) {
                const double dp = j >= 1 ? p(i, j) - p(i, j - 1) : 0.0;
                sums.diff_sq += dp * dp;
                sums.diff_dot += e(i, j) * dp;
            }
        }
    }
    return sums;
}

LineSearchSums folded_line_search_sums(const Matrix& p, const Matrix& mask,
                                       const Matrix& w) {
    check_same_shape(p, mask, "folded_line_search_sums");
    check_same_shape(p, w, "folded_line_search_sums");
    double out[3];
    fastk::fast_kernels().folded_line_search_sums(
        p.data().data(), mask.data().data(), w.data().data(), p.rows(),
        p.cols(), out);
    LineSearchSums sums;
    sums.masked_sq = out[0];
    sums.diff_sq = out[1];
    sums.residual_dot = out[2];
    return sums;
}

Matrix Workspace::acquire(std::size_t rows, std::size_t cols) {
    if (counters_ != nullptr) {
        counters_->workspace_checkouts += 1;
    }
    for (std::size_t k = pool_.size(); k > 0; --k) {
        Matrix& candidate = pool_[k - 1];
        if (candidate.rows() == rows && candidate.cols() == cols) {
            Matrix out = std::move(candidate);
            pool_.erase(pool_.begin() +
                        static_cast<std::ptrdiff_t>(k - 1));
            return out;
        }
    }
    if (counters_ != nullptr) {
        counters_->workspace_allocations += 1;
    }
    ++created_;
    return Matrix(rows, cols);
}

void Workspace::release(Matrix&& m) {
    if (m.empty()) {
        return;  // nothing worth pooling (e.g. a moved-from buffer)
    }
    pool_.push_back(std::move(m));
}

void Workspace::clear() { pool_.clear(); }

}  // namespace mcs
