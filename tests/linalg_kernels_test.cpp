// Tests for the output-parameter kernels and the Workspace arena.
//
// The `_into` kernels promise bit-for-bit identity with the value-returning
// ops of linalg/ops.hpp (same loop order, same rounding), so every
// equivalence assertion here uses exact Matrix equality, not a tolerance.
// The Workspace tests pin down the recycling contract the ASD solver's
// zero-allocation steady state depends on.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/context.hpp"
#include "common/rng.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/svd.hpp"
#include "cs/asd.hpp"
#include "cs/init.hpp"
#include "cs/objective.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ops.hpp"
#include "linalg/temporal.hpp"

namespace mcs {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& x : m.data()) {
        x = rng.uniform(-2.0, 2.0);
    }
    return m;
}

// Destination pre-filled with garbage: passes only if fully overwritten.
Matrix garbage(std::size_t rows, std::size_t cols) {
    return Matrix::constant(rows, cols, -777.25);
}

TEST(Kernels, AxpyMatchesScaleAddExactly) {
    Rng rng(8);
    const Matrix y0 = random_matrix(6, 3, rng);
    const Matrix x = random_matrix(6, 3, rng);
    const double alpha = -0.3717;

    Matrix y = y0;
    axpy(y, alpha, x);
    EXPECT_TRUE(y == add(y0, scale(x, alpha)));
}

TEST(Kernels, ProductsMatchValueOpsExactly) {
    Rng rng(9);
    const Matrix a = random_matrix(5, 3, rng);
    const Matrix b = random_matrix(3, 4, rng);
    const Matrix c = random_matrix(6, 3, rng);   // for a·cᵀ (shared cols)
    const Matrix d = random_matrix(5, 4, rng);   // for aᵀ·d (shared rows)

    Matrix ab = garbage(5, 4);
    multiply_into(ab, a, b);
    EXPECT_TRUE(ab == multiply(a, b));

    Matrix act = garbage(5, 6);
    multiply_transposed_into(act, a, c);
    EXPECT_TRUE(act == multiply_transposed(a, c));

    Matrix atd = garbage(3, 4);
    transpose_multiply_into(atd, a, d);
    EXPECT_TRUE(atd == transpose_multiply(a, d));

    Matrix at = garbage(3, 5);
    transpose_into(at, a);
    EXPECT_TRUE(at == transpose(a));
}

TEST(Kernels, MaskedResidualMatchesValueOpExactly) {
    Rng rng(10);
    const Matrix l = random_matrix(6, 2, rng);
    const Matrix r = random_matrix(5, 2, rng);
    const Matrix s = random_matrix(6, 5, rng);
    Matrix mask(6, 5);
    for (auto& x : mask.data()) {
        x = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 1.0;
    }

    Matrix dst = garbage(6, 5);
    masked_residual_into(dst, l, r, mask, s);
    EXPECT_TRUE(dst == masked_residual(l, r, mask, s));
}

TEST(Kernels, GramAndTemporalMatchValueOpsExactly) {
    Rng rng(11);
    const Matrix a = random_matrix(7, 3, rng);

    Matrix gram = garbage(3, 3);
    gram_with_ridge_into(gram, a, 0.25);
    EXPECT_TRUE(gram == gram_with_ridge(a, 0.25));

    const Matrix x = random_matrix(4, 6, rng);
    Matrix adj = garbage(4, 6);
    temporal_diff_adjoint_into(adj, x);
    EXPECT_TRUE(adj == temporal_diff_adjoint(x));
}

TEST(Kernels, SplitPassesMatchSeparatePassesExactly) {
    Rng rng(13);
    const Matrix x = random_matrix(5, 7, rng);
    const Matrix s = random_matrix(5, 7, rng);
    const Matrix c = random_matrix(5, 7, rng);
    const Matrix p = random_matrix(5, 7, rng);
    Matrix mask(5, 7);
    for (auto& v : mask.data()) {
        v = rng.uniform(0.0, 1.0) < 0.6 ? 1.0 : 0.0;
    }

    Matrix m = garbage(5, 7);
    Matrix e = garbage(5, 7);
    split_residuals_into(m, e, x, mask, s, c);
    const Matrix m_ref = subtract(hadamard(x, mask), s);
    const Matrix e_ref = subtract(temporal_diff(x), c);
    EXPECT_TRUE(m == m_ref);
    EXPECT_TRUE(e == e_ref);

    const LineSearchSums sums = line_search_sums(p, mask, m_ref, e_ref);
    const Matrix pm = hadamard(p, mask);
    const Matrix dp = temporal_diff(p);
    EXPECT_EQ(sums.masked_sq, frobenius_norm_squared(pm));
    EXPECT_EQ(sums.residual_dot, frobenius_dot(m_ref, pm));
    EXPECT_EQ(sums.diff_sq, frobenius_norm_squared(dp));
    EXPECT_EQ(sums.diff_dot, frobenius_dot(e_ref, dp));

    // Without a temporal residual only the masked terms are formed.
    Matrix none;
    split_residuals_into(m, none, x, mask, s, c);
    EXPECT_TRUE(m == m_ref);
    const LineSearchSums masked_only = line_search_sums(p, mask, m_ref, none);
    EXPECT_EQ(masked_only.diff_sq, 0.0);
    EXPECT_EQ(masked_only.residual_dot, sums.residual_dot);
}

TEST(Kernels, GemmFlopsAreCounted) {
    PipelineCounters counters;
    const Matrix a(5, 3, 1.0);
    const Matrix b(3, 4, 1.0);
    Matrix dst(5, 4);
    multiply_into(dst, a, b, &counters);
    EXPECT_EQ(counters.gemm_flops, 2u * 5u * 4u * 3u);
}

TEST(Kernels, ShapeMismatchThrows) {
    Matrix dst(2, 2);
    const Matrix a(2, 3);
    const Matrix b(3, 2);
    EXPECT_THROW(axpy(dst, 1.0, a), Error);
    EXPECT_THROW(multiply_into(dst, a, a), Error);  // inner dims disagree
    Matrix wrong(3, 3);
    EXPECT_THROW(multiply_into(wrong, a, b), Error);  // dst shape wrong
}

TEST(Kernels, CholeskyInPlaceMatchesOutOfPlace) {
    Rng rng(12);
    const Matrix a = random_matrix(6, 4, rng);
    const Matrix spd = gram_with_ridge(a, 1.0);

    Matrix factor = spd;
    cholesky_in_place(factor);
    const Matrix reference = cholesky(spd);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            EXPECT_DOUBLE_EQ(factor(i, j), reference(i, j));
        }
    }

    const Matrix rhs = random_matrix(4, 3, rng);
    Matrix solved = rhs;
    cholesky_solve_in_place(reference, solved);
    EXPECT_TRUE(solved == solve_spd(spd, rhs));
}

TEST(Workspace, RecyclesExactShapes) {
    PipelineCounters counters;
    Workspace ws(&counters);

    Matrix first = ws.acquire(3, 4);
    ws.release(std::move(first));
    Matrix second = ws.acquire(3, 4);  // must reuse the pooled buffer
    EXPECT_EQ(ws.created(), 1u);
    EXPECT_EQ(counters.workspace_allocations, 1u);
    EXPECT_EQ(counters.workspace_checkouts, 2u);

    Matrix other = ws.acquire(4, 3);  // different shape: fresh allocation
    EXPECT_EQ(ws.created(), 2u);
    ws.release(std::move(second));
    ws.release(std::move(other));
    EXPECT_EQ(ws.pooled(), 2u);
}

TEST(Workspace, ScratchLeaseReturnsOnScopeExit) {
    Workspace ws;
    {
        Scratch s(ws, 2, 5);
        s->fill(1.0);
        EXPECT_EQ((*s).rows(), 2u);
        EXPECT_EQ(ws.pooled(), 0u);
    }
    EXPECT_EQ(ws.pooled(), 1u);
    EXPECT_EQ(ws.created(), 1u);
}

// ---- ASD steady-state regression ---------------------------------------

struct AsdSetup {
    Matrix s;
    Matrix mask;
    Matrix velocity;
    FactorPair start;
};

AsdSetup make_asd_setup() {
    Rng rng(33);
    AsdSetup setup;
    const Matrix l = random_matrix(12, 3, rng);
    const Matrix r = random_matrix(10, 3, rng);
    setup.s = multiply_transposed(l, r);
    setup.mask = Matrix(12, 10);
    for (auto& x : setup.mask.data()) {
        x = rng.uniform(0.0, 1.0) < 0.8 ? 1.0 : 0.0;
    }
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = 0; j < 10; ++j) {
            if (setup.mask(i, j) == 0.0) {
                setup.s(i, j) = 0.0;
            }
        }
    }
    setup.velocity = Matrix(12, 10);
    setup.start = warm_start(setup.s, setup.mask, 3);
    return setup;
}

TEST(AsdWorkspace, ZeroAllocationsAfterWarmup) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);

    AsdOptions one_iteration;
    one_iteration.max_iterations = 1;
    AsdOptions many_iterations;
    many_iterations.max_iterations = 40;
    many_iterations.relative_tolerance = 0.0;  // force all 40

    PipelineContext warmup_ctx;
    asd_minimize(objective, setup.start.l, setup.start.r, one_iteration,
                 &warmup_ctx);
    PipelineContext steady_ctx;
    asd_minimize(objective, setup.start.l, setup.start.r, many_iterations,
                 &steady_ctx);

    EXPECT_EQ(steady_ctx.counters().asd_iterations, 40u);
    // All scratch buffers exist after iteration 1: running 39 further
    // iterations must not allocate a single additional buffer.
    EXPECT_EQ(steady_ctx.counters().workspace_allocations,
              warmup_ctx.counters().workspace_allocations);
    EXPECT_GT(steady_ctx.counters().workspace_checkouts,
              warmup_ctx.counters().workspace_checkouts);
}

// The fast tier carries X = L·Rᵀ and P in the two n x t leases the exact
// tier's residual build and line search use, so it reaches its steady
// state after one iteration too, and never leases more than the exact
// tier does.
TEST(AsdWorkspace, FastTierZeroAllocationsAfterWarmup) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);
    AsdOptions one_iteration;
    one_iteration.max_iterations = 1;
    AsdOptions many_iterations;
    many_iterations.max_iterations = 120;  // crosses two product refreshes
    many_iterations.relative_tolerance = 0.0;

    const auto allocations = [&](KernelTier tier, const AsdOptions& options) {
        const KernelTierScope scope(tier);
        PipelineContext ctx;
        asd_minimize(objective, setup.start.l, setup.start.r, options, &ctx);
        return ctx.counters().workspace_allocations;
    };
    const std::uint64_t warmup = allocations(KernelTier::kFast, one_iteration);
    EXPECT_EQ(allocations(KernelTier::kFast, many_iterations), warmup);
    EXPECT_LE(warmup, allocations(KernelTier::kExact, one_iteration));
}

// Data-sized (n x t x rank) GEMMs per ASD iteration, pinned by the FLOP
// counters: the exact tier runs the seed's 8 (X and P per half step, two
// GEMMs per gradient); the fast tier runs 4 (P per half step, one GEMM per
// gradient) plus a full L·Rᵀ every kProductRefreshPeriod iterations.
TEST(AsdWorkspace, DataSizedGemmsPerIteration) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);
    AsdOptions options;
    options.max_iterations = 120;
    options.relative_tolerance = 0.0;
    const auto counters = [&](KernelTier tier) {
        const KernelTierScope scope(tier);
        PipelineContext ctx;
        asd_minimize(objective, setup.start.l, setup.start.r, options, &ctx);
        return ctx.counters();
    };
    const std::uint64_t n = 12, t = 10, k = 3, iters = 120;
    const std::uint64_t data = 2 * n * t * k;
    const std::uint64_t grams = iters * (2 * k * k * n + 2 * k * k * t);

    const PipelineCounters exact = counters(KernelTier::kExact);
    EXPECT_EQ(exact.flops_multiply_transposed, (4 * iters + 1) * data);
    EXPECT_EQ(exact.flops_multiply, 2 * iters * data);
    EXPECT_EQ(exact.flops_transpose_multiply, 2 * iters * data + grams);

    const PipelineCounters fast = counters(KernelTier::kFast);
    const std::uint64_t refreshes = iters / kProductRefreshPeriod;
    EXPECT_EQ(fast.flops_multiply_transposed,
              (2 * iters + 1 + refreshes) * data);
    EXPECT_EQ(fast.flops_multiply, iters * data);
    EXPECT_EQ(fast.flops_transpose_multiply, iters * data + grams);
}

TEST(AsdWorkspace, InstrumentationDoesNotChangeResults) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);

    PipelineContext ctx;
    const AsdResult with_ctx = asd_minimize(objective, setup.start.l,
                                            setup.start.r, {}, &ctx);
    const AsdResult without_ctx =
        asd_minimize(objective, setup.start.l, setup.start.r, {});

    EXPECT_EQ(with_ctx.iterations, without_ctx.iterations);
    EXPECT_TRUE(with_ctx.l == without_ctx.l);
    EXPECT_TRUE(with_ctx.r == without_ctx.r);
}

// ---- Kernel tiers (DESIGN.md §13) --------------------------------------
//
// The fast tier's contract: agreement with the exact tier to <= 1e-12
// relative, bitwise determinism run-to-run, and independence from how the
// RowExecutor happens to split the destination rows. Shapes below are
// deliberately not multiples of the SIMD widths so every tail path runs.

double max_rel_dev(const Matrix& exact, const Matrix& fast) {
    const auto de = exact.data();
    const auto df = fast.data();
    double worst = 0.0;
    for (std::size_t i = 0; i < de.size(); ++i) {
        const double denom = std::max(std::abs(de[i]), 1.0);
        worst = std::max(worst, std::abs(de[i] - df[i]) / denom);
    }
    return worst;
}

struct TierFixture {
    std::size_t rows;
    Matrix a, b, l, r, mask, s, e1, e2;

    // Odd dims by default, so every SIMD tail is exercised.
    explicit TierFixture(std::size_t n = 37) : rows(n) {
        Rng rng(55);
        a = random_matrix(rows, 29, rng);
        b = random_matrix(29, 18, rng);
        l = random_matrix(rows, 7, rng);
        r = random_matrix(23, 7, rng);
        mask = Matrix(rows, 23);
        for (auto& x : mask.data()) {
            x = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : 1.0;
        }
        s = random_matrix(rows, 23, rng);
        e1 = random_matrix(rows, 23, rng);
        e2 = random_matrix(rows, 23, rng);
    }

    /// Every dispatched kernel once, into fresh destinations.
    struct Results {
        Matrix mul, mul_t, t_mul, masked, ax;
    };
    Results run_all() const {
        Results out;
        out.mul = garbage(rows, 18);
        multiply_into(out.mul, a, b);
        out.mul_t = garbage(rows, 23);
        multiply_transposed_into(out.mul_t, l, r);
        out.t_mul = garbage(29, 7);
        transpose_multiply_into(out.t_mul, a, l);
        out.masked = garbage(rows, 23);
        masked_residual_into(out.masked, l, r, mask, s);
        out.ax = Matrix(e1);
        axpy(out.ax, -0.637, e2);
        return out;
    }
};

TEST(KernelTiers, FastAgreesWithExactWithinTolerance) {
    const TierFixture f;
    TierFixture::Results exact;
    {
        KernelTierScope tier(KernelTier::kExact);
        exact = f.run_all();
    }
    TierFixture::Results fast;
    {
        KernelTierScope tier(KernelTier::kFast);
        fast = f.run_all();
    }
    EXPECT_LE(max_rel_dev(exact.mul, fast.mul), 1e-12);
    EXPECT_LE(max_rel_dev(exact.mul_t, fast.mul_t), 1e-12);
    EXPECT_LE(max_rel_dev(exact.t_mul, fast.t_mul), 1e-12);
    EXPECT_LE(max_rel_dev(exact.masked, fast.masked), 1e-12);
    EXPECT_LE(max_rel_dev(exact.ax, fast.ax), 1e-12);
}

// The folded passes against the split arithmetic they replace, at widths
// around the SIMD body's edges (it needs a neighbour on both sides).
TEST(KernelTiers, FoldedPassesAgreeWithSplitComposition) {
    for (const std::size_t cols : {1u, 2u, 4u, 5u, 6u, 9u, 23u}) {
        Rng rng(60 + cols);
        const Matrix x = random_matrix(7, cols, rng);
        const Matrix c = random_matrix(7, cols, rng);
        const Matrix p = random_matrix(7, cols, rng);
        Matrix mask(7, cols);
        for (auto& v : mask.data()) {
            v = rng.uniform(0.0, 1.0) < 0.6 ? 1.0 : 0.0;
        }
        // S is zero off the mask, as CsObjective stores it, so M = M∘mask.
        const Matrix s = hadamard(random_matrix(7, cols, rng), mask);
        const double lambda = 0.75;
        const Matrix m = subtract(hadamard(x, mask), s);
        const Matrix e = subtract(temporal_diff(x), c);
        const Matrix w_ref = add(m, scale(temporal_diff_adjoint(e), lambda));

        Matrix w = garbage(7, cols);
        folded_residual_into(w, x, mask, s, c, lambda);
        EXPECT_LE(max_rel_dev(w_ref, w), 1e-12) << "cols " << cols;

        // ⟨W, P⟩ = ⟨M, P∘mask⟩ + λ⟨E, ΔP⟩ for a 0/1 mask and masked S.
        const LineSearchSums split = line_search_sums(p, mask, m, e);
        const LineSearchSums folded = folded_line_search_sums(p, mask, w_ref);
        EXPECT_NEAR(folded.masked_sq, split.masked_sq,
                    1e-12 * (1.0 + split.masked_sq));
        EXPECT_NEAR(folded.diff_sq, split.diff_sq,
                    1e-12 * (1.0 + split.diff_sq));
        EXPECT_NEAR(folded.residual_dot,
                    split.residual_dot + lambda * split.diff_dot,
                    1e-12 * (1.0 + std::abs(split.residual_dot) +
                             std::abs(split.diff_dot)))
            << "cols " << cols;
        EXPECT_EQ(folded.diff_dot, 0.0);
    }
}

TEST(KernelTiers, FastTierIsDeterministicAcrossRuns) {
    const TierFixture f;
    KernelTierScope tier(KernelTier::kFast);
    const TierFixture::Results first = f.run_all();
    const TierFixture::Results second = f.run_all();
    EXPECT_TRUE(first.mul == second.mul);
    EXPECT_TRUE(first.mul_t == second.mul_t);
    EXPECT_TRUE(first.t_mul == second.t_mul);
    EXPECT_TRUE(first.masked == second.masked);
    EXPECT_TRUE(first.ax == second.ax);
}

// A deliberately lopsided row cover: [0,1) ∪ [1,cut) ∪ [cut,rows). If any
// fast kernel's per-element reduction depended on its [lo,hi) grouping,
// this split would change the bits relative to the serial pass.
class LopsidedExecutor : public RowExecutor {
public:
    std::size_t calls = 0;

    void for_rows(std::size_t rows,
                  const std::function<void(std::size_t, std::size_t)>& block)
        override {
        ++calls;
        const std::size_t cut = std::max<std::size_t>(1, rows / 3);
        if (rows == 0) {
            return;
        }
        block(0, std::min<std::size_t>(1, rows));
        if (cut > 1) {
            block(1, cut);
        }
        if (rows > cut) {
            block(cut, rows);
        }
    }
};

TEST(KernelTiers, FastTierIndependentOfRowBlocking) {
    // Tall enough that every row-blocked kernel dispatches and all three
    // of the executor's blocks are non-empty.
    const TierFixture f(3 * kKernelRowBlockThreshold + 1);
    KernelTierScope tier(KernelTier::kFast);
    const TierFixture::Results serial = f.run_all();

    LopsidedExecutor executor;
    set_kernel_row_executor(&executor);
    const TierFixture::Results split = f.run_all();
    set_kernel_row_executor(nullptr);

    EXPECT_EQ(executor.calls, 3u);  // multiply, multiply_transposed, masked
    EXPECT_TRUE(serial.mul == split.mul);
    EXPECT_TRUE(serial.mul_t == split.mul_t);
    EXPECT_TRUE(serial.masked == split.masked);
}

TEST(KernelTiers, ScopeRestoresPreviousTier) {
    EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
    {
        KernelTierScope fast(KernelTier::kFast);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
        {
            KernelTierScope exact(KernelTier::kExact);
            EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
        }
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
    }
    EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
}

TEST(KernelTiers, AliasedDestinationThrows) {
    Rng rng(56);
    Matrix sq = random_matrix(6, 6, rng);
    const Matrix other = random_matrix(6, 6, rng);

    EXPECT_THROW(multiply_into(sq, sq, other), Error);
    EXPECT_THROW(multiply_into(sq, other, sq), Error);
    EXPECT_THROW(multiply_transposed_into(sq, sq, other), Error);
    EXPECT_THROW(transpose_multiply_into(sq, sq, other), Error);
    EXPECT_THROW(transpose_into(sq, sq), Error);
    EXPECT_THROW(temporal_diff_adjoint_into(sq, sq), Error);

    Matrix masked = random_matrix(6, 6, rng);
    const Matrix lf = random_matrix(6, 2, rng);
    const Matrix rf = random_matrix(6, 2, rng);
    EXPECT_THROW(masked_residual_into(masked, lf, rf, sq, masked), Error);
    EXPECT_THROW(masked_residual_into(masked, lf, rf, masked, sq), Error);

    // The documented exception stays legal: axpy updates y in place.
    EXPECT_NO_THROW(axpy(sq, 0.5, other));
}

TEST(KernelTiers, PerKernelFlopCountersAttributed) {
    Rng rng(57);
    const Matrix a = random_matrix(5, 3, rng);
    const Matrix b = random_matrix(3, 4, rng);
    const Matrix c = random_matrix(6, 3, rng);
    const Matrix d = random_matrix(5, 4, rng);

    PipelineCounters counters;
    Matrix ab(5, 4);
    multiply_into(ab, a, b, &counters);
    EXPECT_EQ(counters.flops_multiply, 2u * 5u * 4u * 3u);

    Matrix act(5, 6);
    multiply_transposed_into(act, a, c, &counters);
    EXPECT_EQ(counters.flops_multiply_transposed, 2u * 5u * 6u * 3u);

    Matrix atd(3, 4);
    transpose_multiply_into(atd, a, d, &counters);
    EXPECT_EQ(counters.flops_transpose_multiply, 2u * 3u * 4u * 5u);

    const Matrix mask = Matrix::constant(5, 6, 1.0);
    const Matrix s = random_matrix(5, 6, rng);
    Matrix res(5, 6);
    masked_residual_into(res, a, c, mask, s, &counters);
    EXPECT_EQ(counters.flops_masked_residual, 2u * 5u * 6u * 3u);

    // The slots sum to the total the pipeline already reported.
    EXPECT_EQ(counters.gemm_flops,
              counters.flops_multiply + counters.flops_multiply_transposed +
                  counters.flops_transpose_multiply +
                  counters.flops_masked_residual);
}

TEST(KernelTiers, BlockedRandomizedSvdBitIdenticalUnderExactTier) {
    Rng rng(58);
    const Matrix a = random_matrix(30, 22, rng);
    const FactorPair plain = truncated_factors_randomized(a, 5, 8, 2, 777);
    const FactorPair blocked =
        truncated_factors_randomized_blocked(a, 5, 8, 2, 777);
    EXPECT_TRUE(plain.l == blocked.l);
    EXPECT_TRUE(plain.r == blocked.r);
}

TEST(KernelTiers, BlockedRandomizedSvdFastTierStaysClose) {
    Rng rng(59);
    const Matrix a = random_matrix(30, 22, rng);
    const FactorPair exact = truncated_factors_randomized_blocked(a, 5);
    KernelTierScope tier(KernelTier::kFast);
    const FactorPair fast = truncated_factors_randomized_blocked(a, 5);
    // The range finder feeds a warm start, not a final answer; kernel
    // rounding perturbs the subspace slightly, so the bound here is the
    // warm start's own tolerance, not the single-kernel 1e-12.
    EXPECT_LE(max_rel_dev(exact.l, fast.l), 1e-6);
    EXPECT_LE(max_rel_dev(exact.r, fast.r), 1e-6);
}

}  // namespace
}  // namespace mcs
