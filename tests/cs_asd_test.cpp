// Tests for the ASD solver, the warm start, and the Cholesky/QR helpers
// behind the scaled variant.
#include "cs/asd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "corruption/scenario.hpp"
#include "cs/init.hpp"
#include "cs/reconstruct.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "linalg/qr.hpp"
#include "linalg/temporal.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double scale = 1.0) {
    Matrix m(rows, cols);
    for (auto& x : m.data()) {
        x = rng.uniform(-scale, scale);
    }
    return m;
}

TEST(Cholesky, FactorisesSpdMatrix) {
    const Matrix a{{4, 2}, {2, 3}};
    const Matrix l = cholesky(a);
    EXPECT_TRUE(approx_equal(multiply_transposed(l, l), a, 1e-12));
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // lower triangular
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
    EXPECT_THROW(cholesky(Matrix{{1, 2}, {2, 1}}), Error);
    EXPECT_THROW(cholesky(Matrix(2, 3)), Error);
}

TEST(Cholesky, SolveSpdMatchesDirectCheck) {
    Rng rng(1);
    const Matrix g = random_matrix(5, 5, rng);
    const Matrix a = gram_with_ridge(g, 0.5);  // SPD by construction
    const Matrix b = random_matrix(5, 3, rng);
    const Matrix x = solve_spd(a, b);
    EXPECT_TRUE(approx_equal(multiply(a, x), b, 1e-9));
}

TEST(Cholesky, GramWithRidge) {
    const Matrix a{{1, 0}, {0, 2}, {1, 1}};
    const Matrix g = gram_with_ridge(a, 0.1);
    EXPECT_NEAR(g(0, 0), 2.1, 1e-12);
    EXPECT_NEAR(g(1, 1), 5.1, 1e-12);
    EXPECT_NEAR(g(0, 1), 1.0, 1e-12);
    EXPECT_THROW(gram_with_ridge(a, -0.1), Error);
}

TEST(Qr, OrthonormalisesFullRankInput) {
    Rng rng(2);
    const Matrix a = random_matrix(8, 4, rng);
    const Matrix q = orthonormalize_columns(a);
    const Matrix gram = transpose_multiply(q, q);
    EXPECT_TRUE(approx_equal(gram, Matrix::identity(4), 1e-10));
}

TEST(Qr, DropsDependentColumns) {
    Matrix a(5, 2);
    for (std::size_t i = 0; i < 5; ++i) {
        a(i, 0) = static_cast<double>(i + 1);
        a(i, 1) = 2.0 * static_cast<double>(i + 1);  // same direction
    }
    const Matrix q = orthonormalize_columns(a);
    // Second column collapses to zero.
    double norm1 = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
        norm1 += q(i, 1) * q(i, 1);
    }
    EXPECT_NEAR(norm1, 0.0, 1e-12);
}

TEST(NearestFill, FillsFromNearestTrustedSlot) {
    const Matrix s{{10, 0, 0, 40, 0}};
    const Matrix mask{{1, 0, 0, 1, 0}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(filled(0, 1), 10.0);  // closer to slot 0
    EXPECT_DOUBLE_EQ(filled(0, 2), 40.0);  // closer to slot 3
    EXPECT_DOUBLE_EQ(filled(0, 3), 40.0);
    EXPECT_DOUBLE_EQ(filled(0, 4), 40.0);  // trailing gap
}

TEST(NearestFill, TiePrefersEarlierSlot) {
    const Matrix s{{10, 0, 30}};
    const Matrix mask{{1, 0, 1}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 1), 10.0);
}

TEST(NearestFill, EmptyRowBecomesZero) {
    const Matrix s{{5, 6}, {7, 8}};
    const Matrix mask{{0, 0}, {1, 1}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(filled(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(filled(1, 0), 7.0);
}

// Build a completion problem with known low-rank ground truth.
struct CompletionProblem {
    Matrix truth;
    Matrix s;
    Matrix mask;
    CsObjective objective;
};

CompletionProblem make_completion(std::size_t n, std::size_t t,
                                  std::size_t rank, double observe_p,
                                  std::uint64_t seed) {
    Rng rng(seed);
    const Matrix l = random_matrix(n, rank, rng, 3.0);
    const Matrix r = random_matrix(t, rank, rng, 3.0);
    Matrix truth = multiply_transposed(l, r);
    Matrix mask(n, t);
    for (auto& x : mask.data()) {
        x = rng.bernoulli(observe_p) ? 1.0 : 0.0;
    }
    Matrix s = hadamard(truth, mask);
    CsObjective objective(s, mask, Matrix(), 30.0, 1e-9, 0.0,
                          TemporalMode::kNone);
    return {std::move(truth), std::move(s), std::move(mask),
            std::move(objective)};
}

TEST(Asd, ObjectiveDecreasesMonotonically) {
    auto problem = make_completion(12, 18, 3, 0.6, 3);
    const FactorPair start = warm_start(problem.s, problem.mask, 3);
    AsdOptions options;
    options.max_iterations = 50;
    options.relative_tolerance = 0.0;  // force all iterations
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9)
            << "objective increased at iteration " << i;
    }
}

TEST(Asd, PlainVariantAlsoDescends) {
    auto problem = make_completion(10, 14, 2, 0.7, 4);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.scaled = false;
    options.max_iterations = 80;
    options.relative_tolerance = 0.0;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9);
    }
}

TEST(Asd, RecoversExactlyLowRankMatrix) {
    auto problem = make_completion(15, 20, 2, 0.75, 5);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.max_iterations = 500;
    options.relative_tolerance = 1e-12;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    const Matrix estimate = multiply_transposed(result.l, result.r);
    // Relative reconstruction error on ALL cells (including unobserved).
    const double rel = frobenius_norm(subtract(estimate, problem.truth)) /
                       frobenius_norm(problem.truth);
    EXPECT_LT(rel, 0.05);
}

TEST(Asd, ScaledConvergesFasterThanPlain) {
    auto problem = make_completion(15, 20, 3, 0.6, 6);
    const FactorPair start = warm_start(problem.s, problem.mask, 3);
    AsdOptions scaled;
    scaled.max_iterations = 400;
    scaled.relative_tolerance = 1e-9;
    AsdOptions plain = scaled;
    plain.scaled = false;
    const AsdResult fast =
        asd_minimize(problem.objective, start.l, start.r, scaled);
    const AsdResult slow =
        asd_minimize(problem.objective, start.l, start.r, plain);
    EXPECT_LE(fast.iterations, slow.iterations);
}

TEST(Asd, ReportsConvergence) {
    auto problem = make_completion(8, 10, 2, 0.9, 7);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.max_iterations = 300;
    options.relative_tolerance = 1e-8;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.iterations, 300u);
    EXPECT_EQ(result.objective_history.size(), result.iterations + 1);
}

TEST(Asd, ShapeValidation) {
    auto problem = make_completion(8, 10, 2, 0.9, 8);
    EXPECT_THROW(
        asd_minimize(problem.objective, Matrix(7, 2), Matrix(10, 2), {}),
        Error);
    EXPECT_THROW(
        asd_minimize(problem.objective, Matrix(8, 2), Matrix(10, 3), {}),
        Error);
}

// Property sweep: SPD solve correctness across random sizes and ridges.
class CholeskyProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(CholeskyProperty, SolveSatisfiesSystem) {
    const auto [size, ridge] = GetParam();
    Rng rng(size * 7 + 1);
    const Matrix g = random_matrix(size + 3, size, rng);
    const Matrix a = gram_with_ridge(g, ridge);
    const Matrix b = random_matrix(size, 2, rng);
    const Matrix x = solve_spd(a, b);
    EXPECT_TRUE(approx_equal(multiply(a, x), b, 1e-8))
        << "size " << size << " ridge " << ridge;
    // Factor check: L·Lᵀ == A.
    const Matrix l = cholesky(a);
    EXPECT_TRUE(approx_equal(multiply_transposed(l, l), a, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CholeskyProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 12, 24),
                       ::testing::Values(1e-6, 1.0, 100.0)));

// Property sweep: ASD monotone descent across ranks and observation rates.
class AsdDescentProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(AsdDescentProperty, MonotoneAndConvergent) {
    const auto [rank, observe_p] = GetParam();
    auto problem = make_completion(14, 22, rank, observe_p,
                                   rank * 31 + 5);
    const FactorPair start = warm_start(problem.s, problem.mask, rank);
    AsdOptions options;
    options.max_iterations = 150;
    options.relative_tolerance = 1e-9;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9);
    }
    EXPECT_LT(result.objective_history.back(),
              result.objective_history.front() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RankAndDensity, AsdDescentProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values(0.4, 0.6, 0.9)));

// ---- ASD properties across kernel tiers --------------------------------
//
// The fast tier carries X = L·Rᵀ across half steps and folds the residuals
// (DESIGN.md §13); the exact tier recomputes X and keeps the seed's split
// residuals. These tests pin down what each promises.

// A temporal (kVelocity) completion problem, so the folded Δᵀ term and the
// ⟨E₃, ΔP⟩ line-search term are live.
struct TemporalProblem {
    CsObjective objective;
    FactorPair start;
};

TemporalProblem make_temporal(std::size_t n, std::size_t t,
                              std::size_t rank, std::uint64_t seed) {
    Rng rng(seed);
    const Matrix truth = multiply_transposed(random_matrix(n, rank, rng, 3.0),
                                             random_matrix(t, rank, rng, 3.0));
    Matrix mask(n, t);
    for (auto& x : mask.data()) {
        x = rng.bernoulli(0.7) ? 1.0 : 0.0;
    }
    const Matrix velocity = random_matrix(n, t, rng, 0.1);
    const Matrix s = hadamard(truth, mask);
    CsObjective objective(s, mask, average_velocity(velocity), 30.0, 1e-6,
                          1.0, TemporalMode::kVelocity);
    FactorPair start = warm_start(s, mask, rank);
    return {std::move(objective), std::move(start)};
}

// One paper-scale shard (158 x 240, default CsConfig, row-centred like
// cs_reconstruct) — the shape batch_fleet solves.
TemporalProblem make_paper_scale_shard() {
    const TraceDataset truth = make_paper_scale_dataset(1);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 5;
    const CorruptedDataset data = corrupt(truth, corruption);
    const std::vector<double> means =
        trusted_row_means(data.sx, data.existence);
    Matrix centered = data.sx;
    for (std::size_t i = 0; i < centered.rows(); ++i) {
        for (std::size_t j = 0; j < centered.cols(); ++j) {
            if (data.existence(i, j) != 0.0) {
                centered(i, j) -= means[i];
            }
        }
    }
    const CsConfig config;
    const std::size_t rank = recommended_rank(
        centered.rows(), centered.cols(), config.mode);
    CsObjective objective(centered, data.existence,
                          average_velocity(data.vx), data.tau_s,
                          config.lambda1, config.lambda2, config.mode);
    FactorPair start =
        warm_start(objective.masked_sensory(), data.existence, rank);
    return {std::move(objective), std::move(start)};
}

double relative_frobenius(const Matrix& got, const Matrix& want) {
    return frobenius_norm(subtract(got, want)) / frobenius_norm(want);
}

class AsdTierProperty : public ::testing::TestWithParam<KernelTier> {};

// (i) Every half step's exact line search decreases f by exactly what it
// reports (≥ 0), built from the same carried-product residuals the solver
// uses; and the solver's objective history never rises.
TEST_P(AsdTierProperty, EveryHalfStepDescends) {
    const KernelTierScope tier(GetParam());
    const TemporalProblem problem = make_temporal(24, 40, 4, 21);
    const CsObjective& objective = problem.objective;
    Matrix l = problem.start.l;
    Matrix r = problem.start.r;
    Workspace ws;
    CsObjective::Residuals res;
    Matrix p(24, 40);
    for (std::size_t iter = 0; iter < 30; ++iter) {
        for (const bool r_step : {true, false}) {
            const double before = objective.value(l, r);
            objective.residuals_from_product(res, multiply_transposed(l, r));
            const Matrix grad = r_step ? objective.gradient_r_from(res, l, r)
                                       : objective.gradient_l_from(res, l, r);
            const CsObjective::LineSearch step =
                r_step ? objective.line_search_r(res, l, r, grad, p, ws)
                       : objective.line_search_l(res, l, r, grad, p, ws);
            EXPECT_GE(step.decrease, 0.0);
            axpy(r_step ? r : l, -step.alpha, grad);
            const double after = objective.value(l, r);
            EXPECT_NEAR(before - after, step.decrease, 1e-9 * before)
                << "iteration " << iter << (r_step ? " R" : " L");
        }
    }

    AsdOptions options;
    options.max_iterations = 120;
    options.relative_tolerance = 0.0;
    const AsdResult result = asd_minimize(objective, problem.start.l,
                                          problem.start.r, options);
    ASSERT_EQ(result.objective_history.size(), 121u);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1])
            << "objective rose at iteration " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, AsdTierProperty,
                         ::testing::Values(KernelTier::kExact,
                                           KernelTier::kFast));

// (ii) The fast tier's drift contract on the paper-scale shard: the
// carried X stays within 1e-10 of a fresh L·Rᵀ, and the solve ends where
// the exact tier's does.
TEST(AsdCarriedProduct, FastTierStaysOnExactTrajectory) {
    const TemporalProblem problem = make_paper_scale_shard();
    const AsdOptions options;  // production defaults
    const auto solve = [&](KernelTier tier) {
        const KernelTierScope scope(tier);
        return asd_minimize(problem.objective, problem.start.l,
                            problem.start.r, options);
    };
    const AsdResult exact = solve(KernelTier::kExact);
    const AsdResult fast = solve(KernelTier::kFast);
    // Long enough that the carried product went through a refresh.
    ASSERT_GT(fast.iterations, kProductRefreshPeriod);

    const Matrix fresh = multiply_transposed(fast.l, fast.r);
    EXPECT_LE(relative_frobenius(fast.product, fresh), 1e-10);
    // The exact tier recomputes X after every step.
    EXPECT_TRUE(exact.product == multiply_transposed(exact.l, exact.r));

    EXPECT_EQ(fast.iterations, exact.iterations);
    EXPECT_NEAR(fast.objective_history.back(),
                exact.objective_history.back(),
                1e-8 * exact.objective_history.back());
}

// (iii) The exact tier's solver is the seed algorithm: plain (unscaled)
// ASD written out with CsObjective's value-returning API gives the very
// same factors, bit for bit, in every temporal mode.
TEST(AsdCarriedProduct, ExactTierMatchesValueApiReferenceBitForBit) {
    for (const TemporalMode mode :
         {TemporalMode::kVelocity, TemporalMode::kTemporalOnly,
          TemporalMode::kNone}) {
        const KernelTierScope tier(KernelTier::kExact);
        Rng rng(77);
        const Matrix truth = multiply_transposed(
            random_matrix(18, 3, rng, 3.0), random_matrix(30, 3, rng, 3.0));
        Matrix mask(18, 30);
        for (auto& x : mask.data()) {
            x = rng.bernoulli(0.75) ? 1.0 : 0.0;
        }
        const Matrix s = hadamard(truth, mask);
        const CsObjective objective(s, mask,
                                    random_matrix(18, 30, rng, 0.1), 30.0,
                                    1e-6, 1.0, mode);
        const FactorPair start = warm_start(s, mask, 3);

        AsdOptions options;
        options.scaled = false;
        options.max_iterations = 25;
        options.relative_tolerance = 0.0;
        const AsdResult solved =
            asd_minimize(objective, start.l, start.r, options);

        Matrix l = start.l;
        Matrix r = start.r;
        double f = objective.value(l, r);
        for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
            auto res = objective.residuals(l, r);
            Matrix grad = objective.gradient_r_from(res, l, r);
            auto step = objective.line_search_r(res, l, r, grad);
            axpy(r, -step.alpha, grad);
            f -= step.decrease;
            res = objective.residuals(l, r);
            grad = objective.gradient_l_from(res, l, r);
            step = objective.line_search_l(res, l, r, grad);
            axpy(l, -step.alpha, grad);
            f -= step.decrease;
        }
        EXPECT_TRUE(solved.l == l) << "mode " << static_cast<int>(mode);
        EXPECT_TRUE(solved.r == r) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(solved.objective_history.back(), f);
    }
}

}  // namespace
}  // namespace mcs
