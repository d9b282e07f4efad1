#include "cs/objective.hpp"

#include "common/check.hpp"
#include "detect/detection.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "linalg/temporal.hpp"

namespace mcs {

CsObjective::CsObjective(const Matrix& s, const Matrix& gbim,
                         const Matrix& avg_velocity, double tau_s,
                         double lambda1, double lambda2, TemporalMode mode)
    : gbim_(gbim), lambda1_(lambda1), lambda2_(lambda2), mode_(mode) {
    MCS_CHECK_MSG(s.rows() == gbim.rows() && s.cols() == gbim.cols(),
                  "CsObjective: S/ℬ shape mismatch");
    MCS_CHECK_MSG(lambda1 >= 0.0 && lambda2 >= 0.0,
                  "CsObjective: negative regularisation weight");
    MCS_CHECK_MSG(tau_s > 0.0, "CsObjective: tau must be positive");
    require_binary(gbim_, "CsObjective: ℬ");

    // Zero out untrusted entries so that masked_residual() may treat S and
    // (LRᵀ)∘ℬ uniformly (missing cells contribute nothing to f₁).
    s_ = hadamard(s, gbim_);

    if (mode_ == TemporalMode::kVelocity) {
        MCS_CHECK_MSG(avg_velocity.rows() == s.rows() &&
                          avg_velocity.cols() == s.cols(),
                      "CsObjective: V̄ shape mismatch");
        target_ = scale(avg_velocity, tau_s);
        // The first slot has no preceding displacement; do not constrain it
        // (matches the zeroed first column of the 𝕋 operator).
        for (std::size_t i = 0; i < target_.rows(); ++i) {
            target_(i, 0) = 0.0;
        }
    } else {
        target_ = Matrix(s.rows(), s.cols());
    }
}

// ---- Workspace-backed core (single implementation of the arithmetic) ----

namespace {

void shape_to(Matrix& m, std::size_t rows, std::size_t cols) {
    if (m.rows() != rows || m.cols() != cols) {
        m = Matrix(rows, cols);
    }
}

}  // namespace

void CsObjective::residuals_into(Residuals& res, const Matrix& l,
                                 const Matrix& r, Workspace& ws) const {
    if (!temporal_active()) {
        res.w = Matrix();
        res.e3 = Matrix();
        shape_to(res.m, rows(), cols());
        masked_residual_into(res.m, l, r, gbim_, s_, ws.counters());
        return;
    }
    // One L·Rᵀ product feeds both residuals.
    Scratch x(ws, rows(), cols());
    multiply_transposed_into(*x, l, r, ws.counters());
    split_residuals_from(res, *x);
}

void CsObjective::split_residuals_from(Residuals& res,
                                       const Matrix& x) const {
    res.w = Matrix();
    shape_to(res.m, rows(), cols());
    if (temporal_active()) {
        shape_to(res.e3, rows(), cols());
    } else {
        res.e3 = Matrix();
    }
    split_residuals_into(res.m, res.e3, x, gbim_, s_, target_);
}

void CsObjective::residuals_from_product(Residuals& res,
                                         const Matrix& x) const {
    if (active_kernel_tier() == KernelTier::kExact) {
        split_residuals_from(res, x);
        return;
    }
    res.m = Matrix();
    res.e3 = Matrix();
    shape_to(res.w, rows(), cols());
    folded_residual_into(res.w, x, gbim_, s_, target_,
                         temporal_active() ? lambda2_ : 0.0);
}

double CsObjective::value_from_product(const Matrix& x, const Matrix& l,
                                       const Matrix& r, Workspace& ws) const {
    Residuals res;
    res.m = ws.acquire(rows(), cols());
    if (temporal_active()) {
        res.e3 = ws.acquire(rows(), cols());
    }
    split_residuals_into(res.m, res.e3, x, gbim_, s_, target_);
    const double f = value_from(res, l, r);
    ws.release(std::move(res.m));
    ws.release(std::move(res.e3));
    return f;
}

void CsObjective::gradient_l_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    shape_to(grad, l.rows(), l.cols());
    const bool folded = !res.w.empty();
    multiply_into(grad, folded ? res.w : res.m, r, ws.counters());  // M·R
    grad *= 2.0;
    if (lambda1_ != 0.0) {
        axpy(grad, 2.0 * lambda1_, l);
    }
    if (!folded && temporal_active() && lambda2_ != 0.0) {
        Scratch adj(ws, rows(), cols());
        Scratch tg(ws, l.rows(), l.cols());
        temporal_diff_adjoint_into(*adj, res.e3);
        multiply_into(*tg, *adj, r, ws.counters());  // Δᵀ(E₃)·R
        axpy(grad, 2.0 * lambda2_, *tg);
    }
}

void CsObjective::gradient_r_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    shape_to(grad, r.rows(), r.cols());
    const bool folded = !res.w.empty();
    transpose_multiply_into(grad, folded ? res.w : res.m, l,
                            ws.counters());  // Mᵀ·L
    grad *= 2.0;
    if (lambda1_ != 0.0) {
        axpy(grad, 2.0 * lambda1_, r);
    }
    if (!folded && temporal_active() && lambda2_ != 0.0) {
        Scratch adj(ws, rows(), cols());
        Scratch tg(ws, r.rows(), r.cols());
        temporal_diff_adjoint_into(*adj, res.e3);
        transpose_multiply_into(*tg, *adj, l, ws.counters());
        axpy(grad, 2.0 * lambda2_, *tg);
    }
}

// g(α) = f(…, F − α·D, …) = aα² + bα + c along the line through factor F;
// α* = −b/2a, decrease b²/4a. P is the product the step changes X by.
CsObjective::LineSearch CsObjective::line_search_from(const Residuals& res,
                                                      const Matrix& factor,
                                                      const Matrix& dir,
                                                      const Matrix& p) const {
    const LineSearchSums sums =
        res.w.empty() ? line_search_sums(p, gbim_, res.m, res.e3)
                      : folded_line_search_sums(p, gbim_, res.w);
    double a = sums.masked_sq + lambda1_ * frobenius_norm_squared(dir);
    double b = -2.0 * (sums.residual_dot +
                       lambda1_ * frobenius_dot(factor, dir));
    if (temporal_active() && lambda2_ != 0.0) {
        a += lambda2_ * sums.diff_sq;
        b += -2.0 * lambda2_ * sums.diff_dot;
    }
    if (a <= 0.0) {
        return {};
    }
    return {-b / (2.0 * a), b * b / (4.0 * a)};
}

CsObjective::LineSearch CsObjective::line_search_l(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    multiply_transposed_into(p, dir, r, ws.counters());  // D·Rᵀ
    return line_search_from(res, l, dir, p);
}

CsObjective::LineSearch CsObjective::line_search_r(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    multiply_transposed_into(p, l, dir, ws.counters());  // L·Dᵀ
    return line_search_from(res, r, dir, p);
}

// ---- Value-returning convenience API (wraps the kernels above) ----------

CsObjective::Residuals CsObjective::residuals(const Matrix& l,
                                              const Matrix& r) const {
    Workspace ws;
    Residuals res;
    residuals_into(res, l, r, ws);
    return res;
}

double CsObjective::value_from(const Residuals& res, const Matrix& l,
                               const Matrix& r) const {
    MCS_CHECK_MSG(res.w.empty(), "CsObjective: value needs split residuals");
    double f = frobenius_norm_squared(res.m) +
               lambda1_ * (frobenius_norm_squared(l) +
                           frobenius_norm_squared(r));
    if (temporal_active()) {
        f += lambda2_ * frobenius_norm_squared(res.e3);
    }
    return f;
}

double CsObjective::value(const Matrix& l, const Matrix& r) const {
    return value_from(residuals(l, r), l, r);
}

Matrix CsObjective::gradient_l_from(const Residuals& res, const Matrix& l,
                                    const Matrix& r) const {
    Workspace ws;
    Matrix grad;
    gradient_l_into(grad, res, l, r, ws);
    return grad;
}

Matrix CsObjective::gradient_r_from(const Residuals& res, const Matrix& l,
                                    const Matrix& r) const {
    Workspace ws;
    Matrix grad;
    gradient_r_into(grad, res, l, r, ws);
    return grad;
}

Matrix CsObjective::gradient_l(const Matrix& l, const Matrix& r) const {
    return gradient_l_from(residuals(l, r), l, r);
}

Matrix CsObjective::gradient_r(const Matrix& l, const Matrix& r) const {
    return gradient_r_from(residuals(l, r), l, r);
}

CsObjective::LineSearch CsObjective::line_search_l(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir) const {
    Workspace ws;
    Matrix p(rows(), cols());
    return line_search_l(res, l, r, dir, p, ws);
}

CsObjective::LineSearch CsObjective::line_search_r(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir) const {
    Workspace ws;
    Matrix p(rows(), cols());
    return line_search_r(res, l, r, dir, p, ws);
}

double CsObjective::exact_step_l(const Matrix& l, const Matrix& r,
                                 const Matrix& g) const {
    return line_search_l(residuals(l, r), l, r, g).alpha;
}

double CsObjective::exact_step_r(const Matrix& l, const Matrix& r,
                                 const Matrix& g) const {
    return line_search_r(residuals(l, r), l, r, g).alpha;
}

}  // namespace mcs
