// The modified-CS objective f(L, R) of Eq. (23)/(25) and its gradients.
//
//   f(L,R) = ‖(LRᵀ)∘ℬ − S‖²_F                      (f₁, fitting)
//          + λ₁(‖L‖²_F + ‖R‖²_F)                    (f₂, rank surrogate)
//          + λ₂‖(LRᵀ)𝕋 − τ·V̄‖²_F                   (f₃, temporal+velocity)
//
// Three modes cover the paper's ablations: kVelocity is the full objective;
// kTemporalOnly replaces the velocity target τ·V̄ with 0 (the "without V"
// variant — pure temporal stability, Eq. 20 + Σ|Δx|); kNone drops f₃
// entirely (the "without VT" variant, Eq. 20).
//
// f is a quadratic in L for fixed R (and vice versa), so the ASD steepest-
// descent step has a closed-form exact line search; this class exposes the
// pieces the solver needs (value, per-factor gradient, per-direction step).
#pragma once

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// Which temporal term f₃ to use (paper's variant ablation).
enum class TemporalMode {
    kNone,          ///< λ₂ ignored — "I(TS,CS) without VT"
    kTemporalOnly,  ///< f₃ target is 0 — "I(TS,CS) without V"
    kVelocity,      ///< f₃ target is τ·V̄ — full I(TS,CS)
};

/// The CS objective bound to one axis's data.
class CsObjective {
public:
    /// `s` is the sensory matrix, `gbim` the 0/1 trust mask ℬ; entries of
    /// `s` where ℬ = 0 are zeroed internally (Eq. 6 stores missing as 0, and
    /// detected-faulty cells must not leak into the fit). `avg_velocity` is
    /// V̄ of Eq. (11) for this axis (only read in kVelocity mode).
    CsObjective(const Matrix& s, const Matrix& gbim,
                const Matrix& avg_velocity, double tau_s, double lambda1,
                double lambda2, TemporalMode mode);

    /// f(L, R).
    double value(const Matrix& l, const Matrix& r) const;

    /// ∇_L f = 2·M·R + 2λ₁·L + 2λ₂·𝕋-adjoint(E₃)·R, with
    /// M = (LRᵀ)∘ℬ − S and E₃ = Δ(LRᵀ) − C.
    Matrix gradient_l(const Matrix& l, const Matrix& r) const;

    /// ∇_R f, symmetric to gradient_l.
    Matrix gradient_r(const Matrix& l, const Matrix& r) const;

    /// Exact minimiser of α ↦ f(L − α·G, R) (quadratic in α).
    double exact_step_l(const Matrix& l, const Matrix& r,
                        const Matrix& g) const;

    /// Exact minimiser of α ↦ f(L, R − α·G).
    double exact_step_r(const Matrix& l, const Matrix& r,
                        const Matrix& g) const;

    // ---- Low-level primitives used by the ASD inner loop ----------------
    // These let the solver build the shared residuals once per half-step
    // instead of once per gradient/step call, and track the objective
    // analytically (each exact line search knows its own decrease), so f is
    // evaluated in full only once per solve.

    /// Shared residuals of one half-step. The split form keeps the two data
    /// terms apart: M = (LRᵀ)∘ℬ − S and E₃ = Δ(LRᵀ) − C (E₃ is an empty
    /// matrix when the temporal term is inactive). The folded form, built
    /// by the fast tier's ASD loop, keeps only W = M + λ₂·Δᵀ(E₃) in `w`
    /// and leaves `m` and `e3` empty: W is all that the gradients
    /// (2·W·R, 2·Wᵀ·L) and the line search need, because M = M∘ℬ (ℬ is
    /// 0/1) gives ⟨M, P∘ℬ⟩ + λ₂⟨E₃, ΔP⟩ = ⟨W, P⟩.
    struct Residuals {
        Matrix m;
        Matrix e3;
        Matrix w;
    };
    /// Split residuals of (L, R).
    Residuals residuals(const Matrix& l, const Matrix& r) const;

    /// Objective value from split residuals.
    double value_from(const Residuals& res, const Matrix& l,
                      const Matrix& r) const;

    /// Gradients from precomputed residuals (split or folded).
    Matrix gradient_l_from(const Residuals& res, const Matrix& l,
                           const Matrix& r) const;
    Matrix gradient_r_from(const Residuals& res, const Matrix& l,
                           const Matrix& r) const;

    /// Exact line search along direction `dir`, from precomputed residuals.
    /// Returns the optimal α and the resulting objective decrease
    /// (b²/4a ≥ 0, exact because f is quadratic along the line).
    struct LineSearch {
        double alpha = 0.0;
        double decrease = 0.0;
    };
    LineSearch line_search_l(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir) const;
    LineSearch line_search_r(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir) const;

    // ---- Workspace-backed variants (the zero-allocation kernel API) -----
    // Same arithmetic as the methods above, but all temporaries come from
    // the caller's Workspace and results land in caller-owned buffers, so a
    // warm ASD loop never touches the heap. `res` members and `grad` are
    // (re)shaped on first use and reused verbatim afterwards.

    /// residuals() into caller-owned `res` (allocates inside `res` only on
    /// shape change — i.e. the first call).
    void residuals_into(Residuals& res, const Matrix& l, const Matrix& r,
                        Workspace& ws) const;

    /// The ASD loop's residuals from its carried product X = L·Rᵀ, in one
    /// fused pass: split on the exact tier (bit-identical to
    /// residuals_into), folded on the fast tier.
    void residuals_from_product(Residuals& res, const Matrix& x) const;

    /// f(L, R) given X = L·Rᵀ (split residuals in `ws` scratch).
    double value_from_product(const Matrix& x, const Matrix& l,
                              const Matrix& r, Workspace& ws) const;

    /// gradient_l_from / gradient_r_from into caller-owned `grad`: one GEMM
    /// on folded residuals, M·R plus Δᵀ(E₃)·R on split ones.
    void gradient_l_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;
    void gradient_r_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;

    /// line_search_l / line_search_r with the product along the line —
    /// P = D·Rᵀ for L, L·Dᵀ for R — written into caller-owned `p`, so the
    /// ASD loop can carry X forward as X − α·P.
    LineSearch line_search_l(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir, Matrix& p,
                             Workspace& ws) const;
    LineSearch line_search_r(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir, Matrix& p,
                             Workspace& ws) const;

    std::size_t rows() const { return s_.rows(); }
    std::size_t cols() const { return s_.cols(); }
    TemporalMode mode() const { return mode_; }
    double lambda1() const { return lambda1_; }
    double lambda2() const { return lambda2_; }
    const Matrix& masked_sensory() const { return s_; }
    const Matrix& mask() const { return gbim_; }

private:
    bool temporal_active() const { return mode_ != TemporalMode::kNone; }
    /// Split residuals from X = L·Rᵀ into `res`.
    void split_residuals_from(Residuals& res, const Matrix& x) const;
    /// The line search's closed form from the fused sums over P.
    LineSearch line_search_from(const Residuals& res, const Matrix& factor,
                                const Matrix& dir, const Matrix& p) const;

    Matrix s_;      // S∘ℬ
    Matrix gbim_;   // ℬ
    Matrix target_; // C: τ·V̄ (first column zeroed) or all-zero
    double lambda1_;
    double lambda2_;
    TemporalMode mode_;
};

}  // namespace mcs
