#include "linalg/kernels_fast.hpp"

#include <cmath>

#include "linalg/kernel_tier.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MCS_HAVE_X86_DISPATCH 1
// Per-function code generation: the translation unit itself is compiled for
// the baseline ISA, so the binary still runs on CPUs without AVX2 — the
// dispatcher just never points at these functions there.
#define MCS_TARGET_AVX2 __attribute__((target("avx2,fma")))
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MCS_HAVE_NEON 1
#endif

namespace mcs::fastk {

namespace {

// ---- Portable blocked-scalar fallback ----------------------------------
//
// Mirrors the SIMD paths' fixed reduction shape (4 independent
// accumulators over ascending k, combined as ((a0+a1)+(a2+a3)), tail in
// ascending order) so the fallback is deterministic under the same
// contract, just without vector registers.
namespace blocked {

double dot(const double* x, const double* y, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        a0 += x[k] * y[k];
        a1 += x[k + 1] * y[k + 1];
        a2 += x[k + 2] * y[k + 2];
        a3 += x[k + 3] * y[k + 3];
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; k < n; ++k) {
        acc += x[k] * y[k];
    }
    return acc;
}

void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    for (std::size_t i = lo; i < hi; ++i) {
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = 0.0;
        }
        const double* ai = a + i * kdim;
        for (std::size_t k = 0; k < kdim; ++k) {
            const double aik = ai[k];
            if (aik == 0.0) {
                continue;
            }
            const double* bk = b + k * n;
            std::size_t j = 0;
            for (; j + 4 <= n; j += 4) {
                out[j] += aik * bk[j];
                out[j + 1] += aik * bk[j + 1];
                out[j + 2] += aik * bk[j + 2];
                out[j + 3] += aik * bk[j + 3];
            }
            for (; j < n; ++j) {
                out[j] += aik * bk[j];
            }
        }
    }
}

void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols) {
    for (std::size_t p = 0; p < acols * bcols; ++p) {
        dst[p] = 0.0;
    }
    for (std::size_t k = 0; k < m; ++k) {
        const double* ak = a + k * acols;
        const double* bk = b + k * bcols;
        for (std::size_t i = 0; i < acols; ++i) {
            const double aki = ak[i];
            if (aki == 0.0) {
                continue;
            }
            double* out = dst + i * bcols;
            for (std::size_t j = 0; j < bcols; ++j) {
                out[j] += aki * bk[j];
            }
        }
    }
}

void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        y[k] += alpha * x[k];
    }
}

// (Δx − c)(j) of one row for 1 ≤ j < cols, and 0 at j = 0 and j = cols:
// the adjoint Δᵀ never reads column 0 of its argument, and column `cols`
// does not exist, so both edges drop out of the folded residual.
inline double temporal_residual(const double* x, const double* c,
                                std::size_t j, std::size_t cols) {
    return j >= 1 && j < cols ? x[j] - x[j - 1] - c[j] : 0.0;
}

// Element j of one row of the folded residual — the scalar edges of the
// SIMD paths use it too.
inline double folded_at(const double* x, const double* mask, const double* s,
                        const double* c, double lambda, std::size_t j,
                        std::size_t cols) {
    return x[j] * mask[j] - s[j] +
           lambda * (temporal_residual(x, c, j, cols) -
                     temporal_residual(x, c, j + 1, cols));
}

void folded_residual(double* dst, const double* x, const double* mask,
                     const double* s, const double* c, double lambda,
                     std::size_t rows, std::size_t cols) {
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t o = i * cols;
        for (std::size_t j = 0; j < cols; ++j) {
            dst[o + j] = folded_at(x + o, mask + o, s + o, c + o, lambda, j,
                                   cols);
        }
    }
}

void folded_line_search_sums(const double* p, const double* mask,
                             const double* w, std::size_t rows,
                             std::size_t cols, double* out) {
    double masked = 0.0;
    double diff = 0.0;
    double dot = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t o = i * cols;
        for (std::size_t j = 0; j < cols; ++j) {
            const double pm = p[o + j] * mask[o + j];
            masked += pm * pm;
            if (j >= 1) {
                const double d = p[o + j] - p[o + j - 1];
                diff += d * d;
            }
            dot += w[o + j] * p[o + j];
        }
    }
    out[0] = masked;
    out[1] = diff;
    out[2] = dot;
}

}  // namespace blocked

// ---- AVX2 + FMA --------------------------------------------------------
#if defined(MCS_HAVE_X86_DISPATCH)
namespace avx2 {

// Fixed-order horizontal sum: (v0 + v2) + (v1 + v3). The lane pairing is
// part of the determinism contract — never reorder it.
MCS_TARGET_AVX2 inline double hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swap = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

// dot over ascending k: 4 accumulator registers (16 doubles/iteration),
// combined ((acc0+acc1)+(acc2+acc3)), remaining 4-wide chunks into acc
// order fixed by n alone, scalar tail folded last in ascending order.
MCS_TARGET_AVX2 double dot(const double* x, const double* y, std::size_t n) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 4),
                               _mm256_loadu_pd(y + k + 4), acc1);
        acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 8),
                               _mm256_loadu_pd(y + k + 8), acc2);
        acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 12),
                               _mm256_loadu_pd(y + k + 12), acc3);
    }
    for (; k + 4 <= n; k += 4) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k), acc0);
    }
    double acc = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; k < n; ++k) {
        acc = std::fma(x[k], y[k], acc);
    }
    return acc;
}

// Four dot products sharing one left vector over the multiple-of-4 prefix
// [0, k4): returns [x·y0, x·y1, x·y2, x·y3]. One accumulator register per
// column; each lane then reduces as (l0+l1)+(l2+l3) via the fixed
// hadd/permute combine below. Amortises the horizontal reduction over four
// outputs — the dot() route pays a full hsum per element, which dominates
// at the pipeline's small inner dimensions (rank ≈ 16).
MCS_TARGET_AVX2 inline __m256d dot4(const double* x, const double* y0,
                                    const double* y1, const double* y2,
                                    const double* y3, std::size_t k4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < k4; k += 4) {
        const __m256d xv = _mm256_loadu_pd(x + k);
        acc0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y0 + k), acc0);
        acc1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y1 + k), acc1);
        acc2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y2 + k), acc2);
        acc3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y3 + k), acc3);
    }
    // hadd pairs lanes (0+1 | 2+3); the permute/blend swap lines the two
    // half-sums of each column up in one register. Per-lane tree:
    // (l0+l1)+(l2+l3), fixed by the shape alone.
    const __m256d h01 = _mm256_hadd_pd(acc0, acc1);
    const __m256d h23 = _mm256_hadd_pd(acc2, acc3);
    const __m256d swap = _mm256_permute2f128_pd(h01, h23, 0x21);
    const __m256d blend = _mm256_blend_pd(h01, h23, 0b1100);
    return _mm256_add_pd(swap, blend);
}

// Register-resident GEMM row block: dst rows [lo, hi) of an (hi−lo)×n
// product whose k-term for dst row i is a[i·ri + k·rk] — covers both a·b
// (ri = kdim, rk = 1) and aᵀ·b (ri = 1, rk = acols); b is row-major k×n in
// both. Accumulators live in registers across the whole k loop (the
// memory-accumulating formulation was store-bound), and rows are processed
// in pairs so eight independent FMA chains hide the FMA latency that a
// single row's four chains cannot. Every dst element accumulates its
// k-terms as one ascending chain, so neither the pairing nor the
// j-blocking can change the bits.
MCS_TARGET_AVX2
void gemm_rows(double* dst, const double* a, std::size_t ri, std::size_t rk,
               const double* b, std::size_t lo, std::size_t hi,
               std::size_t kdim, std::size_t n) {
    std::size_t i = lo;
    for (; i + 2 <= hi; i += 2) {
        const double* a0 = a + i * ri;
        const double* a1 = a0 + ri;
        double* out0 = dst + i * n;
        double* out1 = out0 + n;
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256d c00 = _mm256_setzero_pd();
            __m256d c01 = _mm256_setzero_pd();
            __m256d c02 = _mm256_setzero_pd();
            __m256d c03 = _mm256_setzero_pd();
            __m256d c10 = _mm256_setzero_pd();
            __m256d c11 = _mm256_setzero_pd();
            __m256d c12 = _mm256_setzero_pd();
            __m256d c13 = _mm256_setzero_pd();
            const double* pa0 = a0;
            const double* pa1 = a1;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim;
                 ++k, pa0 += rk, pa1 += rk, bk += n) {
                const __m256d va0 = _mm256_set1_pd(*pa0);
                const __m256d va1 = _mm256_set1_pd(*pa1);
                const __m256d b0 = _mm256_loadu_pd(bk);
                const __m256d b1 = _mm256_loadu_pd(bk + 4);
                const __m256d b2 = _mm256_loadu_pd(bk + 8);
                const __m256d b3 = _mm256_loadu_pd(bk + 12);
                c00 = _mm256_fmadd_pd(va0, b0, c00);
                c01 = _mm256_fmadd_pd(va0, b1, c01);
                c02 = _mm256_fmadd_pd(va0, b2, c02);
                c03 = _mm256_fmadd_pd(va0, b3, c03);
                c10 = _mm256_fmadd_pd(va1, b0, c10);
                c11 = _mm256_fmadd_pd(va1, b1, c11);
                c12 = _mm256_fmadd_pd(va1, b2, c12);
                c13 = _mm256_fmadd_pd(va1, b3, c13);
            }
            _mm256_storeu_pd(out0 + j, c00);
            _mm256_storeu_pd(out0 + j + 4, c01);
            _mm256_storeu_pd(out0 + j + 8, c02);
            _mm256_storeu_pd(out0 + j + 12, c03);
            _mm256_storeu_pd(out1 + j, c10);
            _mm256_storeu_pd(out1 + j + 4, c11);
            _mm256_storeu_pd(out1 + j + 8, c12);
            _mm256_storeu_pd(out1 + j + 12, c13);
        }
        for (; j + 4 <= n; j += 4) {
            __m256d c0 = _mm256_setzero_pd();
            __m256d c1 = _mm256_setzero_pd();
            const double* pa0 = a0;
            const double* pa1 = a1;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim;
                 ++k, pa0 += rk, pa1 += rk, bk += n) {
                const __m256d bv = _mm256_loadu_pd(bk);
                c0 = _mm256_fmadd_pd(_mm256_set1_pd(*pa0), bv, c0);
                c1 = _mm256_fmadd_pd(_mm256_set1_pd(*pa1), bv, c1);
            }
            _mm256_storeu_pd(out0 + j, c0);
            _mm256_storeu_pd(out1 + j, c1);
        }
        for (; j < n; ++j) {
            double s0 = 0.0;
            double s1 = 0.0;
            const double* pa0 = a0;
            const double* pa1 = a1;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim;
                 ++k, pa0 += rk, pa1 += rk, bk += n) {
                s0 = std::fma(*pa0, *bk, s0);
                s1 = std::fma(*pa1, *bk, s1);
            }
            out0[j] = s0;
            out1[j] = s1;
        }
    }
    for (; i < hi; ++i) {
        const double* a0 = a + i * ri;
        double* out0 = dst + i * n;
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256d c00 = _mm256_setzero_pd();
            __m256d c01 = _mm256_setzero_pd();
            __m256d c02 = _mm256_setzero_pd();
            __m256d c03 = _mm256_setzero_pd();
            const double* pa0 = a0;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim; ++k, pa0 += rk, bk += n) {
                const __m256d va0 = _mm256_set1_pd(*pa0);
                c00 = _mm256_fmadd_pd(va0, _mm256_loadu_pd(bk), c00);
                c01 = _mm256_fmadd_pd(va0, _mm256_loadu_pd(bk + 4), c01);
                c02 = _mm256_fmadd_pd(va0, _mm256_loadu_pd(bk + 8), c02);
                c03 = _mm256_fmadd_pd(va0, _mm256_loadu_pd(bk + 12), c03);
            }
            _mm256_storeu_pd(out0 + j, c00);
            _mm256_storeu_pd(out0 + j + 4, c01);
            _mm256_storeu_pd(out0 + j + 8, c02);
            _mm256_storeu_pd(out0 + j + 12, c03);
        }
        for (; j + 4 <= n; j += 4) {
            __m256d c0 = _mm256_setzero_pd();
            const double* pa0 = a0;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim; ++k, pa0 += rk, bk += n) {
                c0 = _mm256_fmadd_pd(_mm256_set1_pd(*pa0),
                                     _mm256_loadu_pd(bk), c0);
            }
            _mm256_storeu_pd(out0 + j, c0);
        }
        for (; j < n; ++j) {
            double s0 = 0.0;
            const double* pa0 = a0;
            const double* bk = b + j;
            for (std::size_t k = 0; k < kdim; ++k, pa0 += rk, bk += n) {
                s0 = std::fma(*pa0, *bk, s0);
            }
            out0[j] = s0;
        }
    }
}

MCS_TARGET_AVX2
void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    gemm_rows(dst, a, kdim, 1, b, lo, hi, kdim, n);
}

MCS_TARGET_AVX2
void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    const std::size_t k4 = kdim - kdim % 4;
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double* r0 = b + j * kdim;
            const __m256d sums =
                dot4(ai, r0, r0 + kdim, r0 + 2 * kdim, r0 + 3 * kdim, k4);
            if (k4 == kdim) {
                _mm256_storeu_pd(out + j, sums);
            } else {
                alignas(32) double tmp[4];
                _mm256_store_pd(tmp, sums);
                for (std::size_t t = 0; t < 4; ++t) {
                    double v = tmp[t];
                    const double* rj = r0 + t * kdim;
                    for (std::size_t k = k4; k < kdim; ++k) {
                        v = std::fma(ai[k], rj[k], v);
                    }
                    out[j + t] = v;
                }
            }
        }
        for (; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

MCS_TARGET_AVX2
void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols) {
    gemm_rows(dst, a, 1, acols, b, 0, acols, m, bcols);
}

MCS_TARGET_AVX2
void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    const std::size_t k4 = rank - rank % 4;
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double* r0 = r + j * rank;
            __m256d sums =
                dot4(li, r0, r0 + rank, r0 + 2 * rank, r0 + 3 * rank, k4);
            if (k4 != rank) {
                alignas(32) double tmp[4];
                _mm256_store_pd(tmp, sums);
                for (std::size_t t = 0; t < 4; ++t) {
                    const double* rj = r0 + t * rank;
                    for (std::size_t k = k4; k < rank; ++k) {
                        tmp[t] = std::fma(li[k], rj[k], tmp[t]);
                    }
                }
                sums = _mm256_load_pd(tmp);
            }
            // dot·m − s in one vector op; a zero mask lane yields exactly
            // −s for finite dots, matching the scalar skip branch.
            const __m256d res = _mm256_sub_pd(
                _mm256_mul_pd(sums, _mm256_loadu_pd(mi + j)),
                _mm256_loadu_pd(si + j));
            _mm256_storeu_pd(out + j, res);
        }
        for (; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

MCS_TARGET_AVX2
void axpy(double* y, double alpha, const double* x, std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256d c = _mm256_loadu_pd(y + k);
        c = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + k), c);
        _mm256_storeu_pd(y + k, c);
    }
    for (; k < n; ++k) {
        y[k] = std::fma(alpha, x[k], y[k]);
    }
}

// The vector body covers 1 ≤ j and j + 4 < cols, where every lane has both
// temporal neighbours in the row; column 0 and the last few columns take
// the scalar edge.
MCS_TARGET_AVX2
void folded_residual(double* dst, const double* x, const double* mask,
                     const double* s, const double* c, double lambda,
                     std::size_t rows, std::size_t cols) {
    const __m256d vl = _mm256_set1_pd(lambda);
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t o = i * cols;
        const double* xi = x + o;
        const double* mi = mask + o;
        const double* si = s + o;
        const double* ci = c + o;
        double* wi = dst + o;
        std::size_t j = 0;
        if (cols > 0) {
            wi[0] = blocked::folded_at(xi, mi, si, ci, lambda, 0, cols);
            j = 1;
        }
        for (; j + 4 < cols; j += 4) {
            const __m256d xm = _mm256_loadu_pd(xi + j - 1);
            const __m256d x0 = _mm256_loadu_pd(xi + j);
            const __m256d xp = _mm256_loadu_pd(xi + j + 1);
            const __m256d e0 =
                _mm256_sub_pd(_mm256_sub_pd(x0, xm), _mm256_loadu_pd(ci + j));
            const __m256d e1 = _mm256_sub_pd(_mm256_sub_pd(xp, x0),
                                             _mm256_loadu_pd(ci + j + 1));
            const __m256d fit = _mm256_fmsub_pd(x0, _mm256_loadu_pd(mi + j),
                                                _mm256_loadu_pd(si + j));
            _mm256_storeu_pd(
                wi + j, _mm256_fmadd_pd(vl, _mm256_sub_pd(e0, e1), fit));
        }
        for (; j < cols; ++j) {
            wi[j] = blocked::folded_at(xi, mi, si, ci, lambda, j, cols);
        }
    }
}

// Three vector accumulators carried across rows, plus scalar ones for
// column 0 and the row tails; the reduction tree depends on the shape only.
MCS_TARGET_AVX2
void folded_line_search_sums(const double* p, const double* mask,
                             const double* w, std::size_t rows,
                             std::size_t cols, double* out) {
    __m256d vmasked = _mm256_setzero_pd();
    __m256d vdiff = _mm256_setzero_pd();
    __m256d vdot = _mm256_setzero_pd();
    double masked = 0.0;
    double diff = 0.0;
    double dot = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t o = i * cols;
        const double* pi = p + o;
        const double* mi = mask + o;
        const double* wi = w + o;
        std::size_t j = 0;
        if (cols > 0) {
            const double pm = pi[0] * mi[0];
            masked = std::fma(pm, pm, masked);
            dot = std::fma(wi[0], pi[0], dot);
            j = 1;
        }
        for (; j + 4 <= cols; j += 4) {
            const __m256d pv = _mm256_loadu_pd(pi + j);
            const __m256d pm = _mm256_mul_pd(pv, _mm256_loadu_pd(mi + j));
            vmasked = _mm256_fmadd_pd(pm, pm, vmasked);
            const __m256d d = _mm256_sub_pd(pv, _mm256_loadu_pd(pi + j - 1));
            vdiff = _mm256_fmadd_pd(d, d, vdiff);
            vdot = _mm256_fmadd_pd(_mm256_loadu_pd(wi + j), pv, vdot);
        }
        for (; j < cols; ++j) {
            const double pm = pi[j] * mi[j];
            masked = std::fma(pm, pm, masked);
            const double d = pi[j] - pi[j - 1];
            diff = std::fma(d, d, diff);
            dot = std::fma(wi[j], pi[j], dot);
        }
    }
    out[0] = hsum(vmasked) + masked;
    out[1] = hsum(vdiff) + diff;
    out[2] = hsum(vdot) + dot;
}

}  // namespace avx2
#endif  // MCS_HAVE_X86_DISPATCH

// ---- NEON (AArch64) ----------------------------------------------------
#if defined(MCS_HAVE_NEON)
namespace neon {

// 4 × 2-lane accumulators (8 doubles/iteration), combined
// ((acc0+acc1)+(acc2+acc3)), lanes summed low-then-high — the same fixed
// reduction shape as the AVX2 path, narrower registers.
double dot(const double* x, const double* y, std::size_t n) {
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    float64x2_t acc2 = vdupq_n_f64(0.0);
    float64x2_t acc3 = vdupq_n_f64(0.0);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(x + k), vld1q_f64(y + k));
        acc1 = vfmaq_f64(acc1, vld1q_f64(x + k + 2), vld1q_f64(y + k + 2));
        acc2 = vfmaq_f64(acc2, vld1q_f64(x + k + 4), vld1q_f64(y + k + 4));
        acc3 = vfmaq_f64(acc3, vld1q_f64(x + k + 6), vld1q_f64(y + k + 6));
    }
    for (; k + 2 <= n; k += 2) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(x + k), vld1q_f64(y + k));
    }
    const float64x2_t sum =
        vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
    double acc = vgetq_lane_f64(sum, 0) + vgetq_lane_f64(sum, 1);
    for (; k < n; ++k) {
        acc = std::fma(x[k], y[k], acc);
    }
    return acc;
}

void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    for (std::size_t i = lo; i < hi; ++i) {
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = 0.0;
        }
        const double* ai = a + i * kdim;
        for (std::size_t k = 0; k < kdim; ++k) {
            const double aik = ai[k];
            if (aik == 0.0) {
                continue;
            }
            const float64x2_t va = vdupq_n_f64(aik);
            const double* bk = b + k * n;
            std::size_t j = 0;
            for (; j + 8 <= n; j += 8) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
                vst1q_f64(out + j + 2, vfmaq_f64(vld1q_f64(out + j + 2), va,
                                                 vld1q_f64(bk + j + 2)));
                vst1q_f64(out + j + 4, vfmaq_f64(vld1q_f64(out + j + 4), va,
                                                 vld1q_f64(bk + j + 4)));
                vst1q_f64(out + j + 6, vfmaq_f64(vld1q_f64(out + j + 6), va,
                                                 vld1q_f64(bk + j + 6)));
            }
            for (; j + 2 <= n; j += 2) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
            }
            for (; j < n; ++j) {
                out[j] = std::fma(aik, bk[j], out[j]);
            }
        }
    }
}

void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols) {
    for (std::size_t p = 0; p < acols * bcols; ++p) {
        dst[p] = 0.0;
    }
    for (std::size_t k = 0; k < m; ++k) {
        const double* ak = a + k * acols;
        const double* bk = b + k * bcols;
        for (std::size_t i = 0; i < acols; ++i) {
            const double aki = ak[i];
            if (aki == 0.0) {
                continue;
            }
            const float64x2_t va = vdupq_n_f64(aki);
            double* out = dst + i * bcols;
            std::size_t j = 0;
            for (; j + 2 <= bcols; j += 2) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
            }
            for (; j < bcols; ++j) {
                out[j] = std::fma(aki, bk[j], out[j]);
            }
        }
    }
}

void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
    const float64x2_t va = vdupq_n_f64(alpha);
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
        vst1q_f64(y + k, vfmaq_f64(vld1q_f64(y + k), va, vld1q_f64(x + k)));
    }
    for (; k < n; ++k) {
        y[k] = std::fma(alpha, x[k], y[k]);
    }
}

}  // namespace neon
#endif  // MCS_HAVE_NEON

FastKernels resolve_table() {
    FastKernels t{"scalar-blocked",
                  &blocked::multiply_rows,
                  &blocked::multiply_transposed_rows,
                  &blocked::transpose_multiply,
                  &blocked::masked_residual_rows,
                  &blocked::axpy,
                  &blocked::folded_residual,
                  &blocked::folded_line_search_sums};
#if defined(MCS_HAVE_X86_DISPATCH)
    if (cpu_features().avx2 && cpu_features().fma) {
        t = FastKernels{"avx2+fma",
                        &avx2::multiply_rows,
                        &avx2::multiply_transposed_rows,
                        &avx2::transpose_multiply,
                        &avx2::masked_residual_rows,
                        &avx2::axpy,
                        &avx2::folded_residual,
                        &avx2::folded_line_search_sums};
    }
#elif defined(MCS_HAVE_NEON)
    t = FastKernels{"neon",
                    &neon::multiply_rows,
                    &neon::multiply_transposed_rows,
                    &neon::transpose_multiply,
                    &neon::masked_residual_rows,
                    &neon::axpy,
                    &blocked::folded_residual,
                    &blocked::folded_line_search_sums};
#endif
    return t;
}

}  // namespace

const FastKernels& fast_kernels() {
    static const FastKernels table = resolve_table();
    return table;
}

}  // namespace mcs::fastk
