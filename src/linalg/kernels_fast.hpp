// Fast-tier micro-kernels: register-blocked, SIMD-vectorised row-range
// primitives behind a function-pointer table resolved once per process
// from the CPU (AVX2+FMA on x86-64, NEON on AArch64, a blocked-scalar
// fallback elsewhere).
//
// These operate on raw row-major buffers — the Matrix-level contracts
// (shape checks, alias checks, FLOP counters, RowExecutor fan-out, tier
// selection) all live in linalg/kernels.cpp, which is the only caller.
// A slot exists only for a kernel a solve spends its time in.
// Row-range kernels compute destination rows [lo, hi); crucially, the
// arithmetic performed for any single destination element depends only on
// the operand shapes, never on the [lo, hi) grouping — that is the fast
// tier's determinism contract (identical bits run-to-run and across
// RowExecutor splits / --threads). Within one element the reduction uses
// a fixed tree: 4 SIMD accumulators filled in ascending k, combined as
// ((acc0+acc1)+(acc2+acc3)), horizontal-summed in fixed lane order, then
// the scalar tail folded in ascending order. FMA contraction makes the
// results differ from the exact tier's plain multiply-add loops by
// rounding only (≤1e-12 relative; asserted in linalg_kernels_test).
#pragma once

#include <cstddef>

namespace mcs::fastk {

/// Resolved fast-tier kernel table. All pointers are non-null.
struct FastKernels {
    /// Dispatcher-chosen code path: "avx2+fma", "neon", "scalar-blocked".
    const char* path;

    /// Rows [lo, hi) of dst(m x n) = a(m x kdim) · b(kdim x n).
    void (*multiply_rows)(double* dst, const double* a, const double* b,
                          std::size_t lo, std::size_t hi, std::size_t kdim,
                          std::size_t n);

    /// Rows [lo, hi) of dst(m x n) = a(m x kdim) · b(n x kdim)ᵀ.
    void (*multiply_transposed_rows)(double* dst, const double* a,
                                     const double* b, std::size_t lo,
                                     std::size_t hi, std::size_t n,
                                     std::size_t kdim);

    /// Full dst(acols x bcols) = a(m x acols)ᵀ · b(m x bcols).
    void (*transpose_multiply)(double* dst, const double* a, const double* b,
                               std::size_t m, std::size_t acols,
                               std::size_t bcols);

    /// Rows [lo, hi) of dst(m x n) = (l·rᵀ) ∘ mask − s, with
    /// l(m x rank), r(n x rank), mask/s(m x n).
    void (*masked_residual_rows)(double* dst, const double* l,
                                 const double* r, const double* mask,
                                 const double* s, std::size_t lo,
                                 std::size_t hi, std::size_t n,
                                 std::size_t rank);

    /// y[i] += alpha * x[i] for i in [0, n).
    void (*axpy)(double* y, double alpha, const double* x, std::size_t n);

    /// Full dst(rows x cols) = (x∘mask − s) + lambda·Δᵀ(Δx − c), where
    /// Δ is the temporal difference with its first column zeroed
    /// (linalg/temporal.hpp) and Δᵀ its adjoint. All operands rows x cols.
    void (*folded_residual)(double* dst, const double* x, const double* mask,
                            const double* s, const double* c, double lambda,
                            std::size_t rows, std::size_t cols);

    /// out = {Σ(p∘mask)², Σ(Δp)², Σ w·p} over rows x cols operands.
    void (*folded_line_search_sums)(const double* p, const double* mask,
                                    const double* w, std::size_t rows,
                                    std::size_t cols, double* out);
};

/// The table for this CPU, resolved on first call and fixed thereafter.
const FastKernels& fast_kernels();

}  // namespace mcs::fastk
