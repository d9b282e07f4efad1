// Chaos harness for the guarded fleet path (DESIGN.md §11): every injected
// fault — poisoned inputs, forced divergence, a throwing task, an expired
// deadline — must end in a finite, fleet-shaped result with a structured
// FailureReport naming the shard, phase and degradation level. No fault
// may crash, hang, or silently corrupt a healthy shard.
//
// This binary runs under the `tsan` preset alongside runtime_test: the
// ladder's retry machinery is exactly the code that must stay race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/failure.hpp"
#include "common/json.hpp"
#include "corruption/chaos.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "fleet_path.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

bool all_finite(const Matrix& m) {
    return std::all_of(m.data().begin(), m.data().end(),
                       [](double v) { return std::isfinite(v); });
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

ItscsInput fleet_input(std::size_t participants, std::size_t slots) {
    const TraceDataset truth = make_small_dataset(9, participants, slots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 13;
    return to_itscs_input(corrupt(truth, corruption));
}

// Run a 3-shard fleet under the given chaos spec and assert the global
// invariants every chaos scenario must uphold: finite output, correct
// shapes, and a failure report on every non-nominal shard.
FleetResult run_chaos_fleet(const ChaosInjector* chaos,
                            PipelineContext* ctx = nullptr,
                            double deadline_seconds = 0.0) {
    const ItscsInput input = fleet_input(24, 40);
    RuntimeConfig config;
    config.threads = 2;
    config.shard_size = 8;
    config.chaos = chaos;
    config.health.deadline_seconds = deadline_seconds;
    FleetRunner runner(config);
    const FleetResult fleet = runner.run(input, ItscsConfig{}, ctx);

    EXPECT_TRUE(all_finite(fleet.aggregate.detection));
    EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_x));
    EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_y));
    EXPECT_EQ(fleet.aggregate.detection.rows(), 24u);
    EXPECT_EQ(fleet.shards.size(), 3u);
    for (const ShardRunReport& report : fleet.shards) {
        if (report.level == DegradationLevel::kNominal) {
            EXPECT_TRUE(report.failures.empty());
            EXPECT_EQ(report.attempts, 1u);
        } else {
            EXPECT_FALSE(report.failures.empty());
            EXPECT_FALSE(report.converged);
            EXPECT_EQ(report.attempts, report.failures.size() + 1);
            for (const FailureReport& failure : report.failures) {
                EXPECT_EQ(failure.shard, report.shard.index);
                EXPECT_NE(failure.kind, FailureKind::kNone);
                EXPECT_FALSE(failure.phase.empty());
            }
        }
    }
    return fleet;
}

// ---- The acceptance scenarios ------------------------------------------

TEST(ChaosFleet, NanVelocityDegradesEveryShardToConservative) {
    ChaosConfig config;
    config.nan_velocity = 1.0;
    config.seed = 71;
    const ChaosInjector chaos(config);
    PipelineContext ctx(1);
    const FleetResult fleet = run_chaos_fleet(&chaos, &ctx);
    for (const ShardRunReport& report : fleet.shards) {
        EXPECT_NE(report.level, DegradationLevel::kNominal);
        ASSERT_FALSE(report.failures.empty());
        EXPECT_EQ(report.failures.front().kind,
                  FailureKind::kNonFiniteInput);
        EXPECT_EQ(report.failures.front().phase, "validate");
    }
    EXPECT_GE(ctx.counters().guard_trips, 3u);
    EXPECT_EQ(ctx.counters().shards_degraded, 3u);
    EXPECT_EQ(ctx.counters().shard_retries, 3u);
}

TEST(ChaosFleet, InfCoordinateIsCaughtAndSanitizedAway) {
    ChaosConfig config;
    config.inf_coordinate = 1.0;
    config.seed = 72;
    const ChaosInjector chaos(config);
    const FleetResult fleet = run_chaos_fleet(&chaos);
    for (const ShardRunReport& report : fleet.shards) {
        EXPECT_NE(report.level, DegradationLevel::kNominal);
        ASSERT_FALSE(report.failures.empty());
        EXPECT_EQ(report.failures.front().kind,
                  FailureKind::kNonFiniteInput);
        // The sanitized retry must succeed: ±Inf only removed a few cells.
        EXPECT_EQ(report.level, DegradationLevel::kConservative);
    }
}

TEST(ChaosFleet, ForcedDivergenceTripsTheObjectiveGuard) {
    ChaosConfig config;
    config.force_divergence = 1.0;
    config.seed = 73;
    const ChaosInjector chaos(config);
    const FleetResult fleet = run_chaos_fleet(&chaos);
    for (const ShardRunReport& report : fleet.shards) {
        EXPECT_NE(report.level, DegradationLevel::kNominal);
        ASSERT_FALSE(report.failures.empty());
        EXPECT_EQ(report.failures.front().kind,
                  FailureKind::kObjectiveDivergence);
        EXPECT_EQ(report.failures.front().phase, "asd_minimize");
        EXPECT_GT(report.failures.front().iteration, 0u);
    }
}

TEST(ChaosFleet, TaskThrowIsContainedPerShard) {
    ChaosConfig config;
    config.task_throw = 1.0;
    config.seed = 74;
    const ChaosInjector chaos(config);
    const FleetResult fleet = run_chaos_fleet(&chaos);
    for (const ShardRunReport& report : fleet.shards) {
        ASSERT_FALSE(report.failures.empty());
        EXPECT_EQ(report.failures.front().kind,
                  FailureKind::kTaskException);
        // The retry runs injector-free, so one rung down suffices.
        EXPECT_EQ(report.level, DegradationLevel::kConservative);
    }
}

TEST(ChaosFleet, DeadlineExpiryLandsOnInterpolation) {
    // A budget no solver iteration can meet: both solver rungs blow it,
    // the solver-free interpolation rung completes.
    const FleetResult fleet = run_chaos_fleet(nullptr, nullptr, 1e-9);
    for (const ShardRunReport& report : fleet.shards) {
        EXPECT_EQ(report.level, DegradationLevel::kInterpolation);
        ASSERT_GE(report.failures.size(), 2u);
        EXPECT_EQ(report.failures[0].kind, FailureKind::kDeadlineExpired);
        EXPECT_EQ(report.failures[1].kind, FailureKind::kDeadlineExpired);
    }
    EXPECT_FALSE(fleet.aggregate.converged);
}

TEST(ChaosFleet, EveryFaultKindAtOnceStillEndsFinite) {
    ChaosConfig config;
    config.nan_velocity = 0.6;
    config.inf_coordinate = 0.6;
    config.duplicate_rows = 0.6;
    config.force_divergence = 0.6;
    config.task_throw = 0.6;
    config.seed = 75;
    const ChaosInjector chaos(config);
    // run_chaos_fleet asserts finiteness + reporting invariants for
    // whatever mix of faults the seed draws.
    run_chaos_fleet(&chaos);
}

TEST(ChaosFleet, LrsdBackendUnderChaosEndsFinite) {
    // The guard layer and degradation ladder are backend-agnostic
    // (DESIGN.md §14): the LRSD backend under a full fault mix must end
    // finite with the same per-shard reporting invariants as ASD.
    ChaosConfig config;
    config.nan_velocity = 0.6;
    config.inf_coordinate = 0.6;
    config.force_divergence = 0.6;
    config.task_throw = 0.6;
    config.seed = 77;
    const ChaosInjector chaos(config);

    const ItscsInput input = fleet_input(24, 40);
    RuntimeConfig runtime;
    runtime.threads = 2;
    runtime.shard_size = 8;
    runtime.chaos = &chaos;
    runtime.solver = SolverKind::kLrsd;
    FleetRunner runner(runtime);
    PipelineContext ctx(1);
    const FleetResult fleet = runner.run(input, ItscsConfig{}, &ctx);

    EXPECT_TRUE(all_finite(fleet.aggregate.detection));
    EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_x));
    EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_y));
    EXPECT_EQ(fleet.shards.size(), 3u);
    EXPECT_EQ(ctx.solver_backend(), SolverKind::kLrsd);
    for (const ShardRunReport& report : fleet.shards) {
        if (report.level != DegradationLevel::kNominal) {
            EXPECT_FALSE(report.failures.empty());
            EXPECT_EQ(report.attempts, report.failures.size() + 1);
        }
    }
}

// ---- Guard overhead must be observation-only ---------------------------

TEST(ChaosFleet, GuardsOnZeroFaultIsBitIdenticalToGuardsOff) {
    const ItscsInput input = fleet_input(24, 40);
    RuntimeConfig guarded;
    guarded.threads = 2;
    guarded.shard_size = 8;
    RuntimeConfig unguarded = guarded;
    unguarded.guard = false;

    FleetRunner a(guarded);
    FleetRunner b(unguarded);
    const FleetResult ra = a.run(input, ItscsConfig{});
    const FleetResult rb = b.run(input, ItscsConfig{});

    EXPECT_TRUE(bitwise_equal(ra.aggregate.detection,
                              rb.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(ra.aggregate.reconstructed_x,
                              rb.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(ra.aggregate.reconstructed_y,
                              rb.aggregate.reconstructed_y));
    for (const ShardRunReport& report : ra.shards) {
        EXPECT_EQ(report.level, DegradationLevel::kNominal);
        EXPECT_EQ(report.attempts, 1u);
        EXPECT_TRUE(report.failures.empty());
    }
}

// The ladder walks the same rungs whichever shard I/O staged the input:
// the chaos run at 4 threads, in core or on f64 slabs, matches the in-core
// run at 1 thread bit for bit, level for level.
class ChaosFleetPath : public testing::TestWithParam<FleetPath> {};

INSTANTIATE_TEST_SUITE_P(Paths, ChaosFleetPath,
                         testing::Values(FleetPath::kInCore,
                                         FleetPath::kSlabF64),
                         fleet_path_name);

TEST_P(ChaosFleetPath, ChaosRunIsDeterministicAcrossThreadCounts) {
    ChaosConfig config;
    config.nan_velocity = 0.5;
    config.force_divergence = 0.5;
    config.seed = 76;
    const ChaosInjector chaos(config);
    const ItscsInput input = fleet_input(24, 40);

    RuntimeConfig one;
    one.threads = 1;
    one.shard_size = 8;
    one.chaos = &chaos;
    RuntimeConfig four = one;
    four.threads = 4;

    FleetRunner a(one);
    const FleetResult ra = a.run(input, ItscsConfig{});
    SlabDir slabs;
    const FleetResult rb = run_fleet_path(GetParam(), four, input,
                                          slabs.path());
    EXPECT_TRUE(bitwise_equal(ra.aggregate.detection,
                              rb.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(ra.aggregate.reconstructed_x,
                              rb.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(ra.aggregate.reconstructed_y,
                              rb.aggregate.reconstructed_y));
    expect_same_ladder(rb, ra);
    bool degraded = false;
    for (std::size_t s = 0; s < ra.shards.size(); ++s) {
        EXPECT_EQ(ra.shards[s].failures.size(),
                  rb.shards[s].failures.size());
        degraded = degraded || ra.shards[s].level != DegradationLevel::kNominal;
    }
    // The spec must actually push a shard down the ladder, or the
    // comparison above checks only the nominal path.
    EXPECT_TRUE(degraded);
}

// ---- ChaosConfig spec grammar ------------------------------------------

TEST(ChaosConfig, ParsesTheFullGrammar) {
    const ChaosConfig config =
        ChaosConfig::parse("nan=0.5,inf=0.25,dup=0.1,diverge=1,throw=0.75,"
                           "cells=0.02,seed=99");
    EXPECT_DOUBLE_EQ(config.nan_velocity, 0.5);
    EXPECT_DOUBLE_EQ(config.inf_coordinate, 0.25);
    EXPECT_DOUBLE_EQ(config.duplicate_rows, 0.1);
    EXPECT_DOUBLE_EQ(config.force_divergence, 1.0);
    EXPECT_DOUBLE_EQ(config.task_throw, 0.75);
    EXPECT_DOUBLE_EQ(config.cell_fraction, 0.02);
    EXPECT_EQ(config.seed, 99u);
    EXPECT_FALSE(config.idle());
    EXPECT_TRUE(ChaosConfig::parse("").idle());
}

TEST(ChaosConfig, RejectsMalformedSpecs) {
    EXPECT_THROW(ChaosConfig::parse("bogus=1"), Error);
    EXPECT_THROW(ChaosConfig::parse("nan"), Error);
    EXPECT_THROW(ChaosConfig::parse("nan=abc"), Error);
    EXPECT_THROW(ChaosConfig::parse("nan=1.5"), Error);
    EXPECT_THROW(ChaosConfig::parse("seed=-1x"), Error);
}

TEST(ChaosConfig, UnknownKeySuggestsTheNearestOne) {
    try {
        ChaosConfig::parse("nang=0.5");
        FAIL() << "expected mcs::Error";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("did you mean 'nan'"),
                  std::string::npos)
            << error.what();
    }
    try {
        ChaosConfig::parse("slotlos=3");
        FAIL() << "expected mcs::Error";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("did you mean 'slotloss'"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ChaosInjector, PlansArePureFunctionsOfSeedAndShard) {
    ChaosConfig config;
    config.nan_velocity = 0.5;
    config.task_throw = 0.5;
    config.seed = 42;
    const ChaosInjector a(config);
    const ChaosInjector b(config);
    bool any = false;
    for (std::size_t s = 0; s < 32; ++s) {
        const ShardChaosPlan pa = a.plan(s);
        const ShardChaosPlan pb = b.plan(s);
        EXPECT_EQ(pa.poison_nan, pb.poison_nan);
        EXPECT_EQ(pa.throw_task, pb.throw_task);
        EXPECT_EQ(pa.seed, pb.seed);
        any = any || pa.any();
    }
    EXPECT_TRUE(any);  // p=0.5 over 32 shards: some fault must fire
}

// ---- FailureReport JSON round-trip -------------------------------------

TEST(FailureReport, RoundTripsThroughJson) {
    FailureReport report;
    report.kind = FailureKind::kRankCollapse;
    report.phase = "asd_minimize";
    report.shard = 7;
    report.iteration = 42;
    report.detail = "factor Gram trace 0.000000";
    const Json encoded = Json::parse(report.to_json().dump());
    const FailureReport decoded = FailureReport::from_json(encoded);
    EXPECT_EQ(decoded.kind, report.kind);
    EXPECT_EQ(decoded.phase, report.phase);
    EXPECT_EQ(decoded.shard, report.shard);
    EXPECT_EQ(decoded.iteration, report.iteration);
    EXPECT_EQ(decoded.detail, report.detail);
}

TEST(FailureReport, NamesRoundTripForEveryKindAndLevel) {
    for (const FailureKind kind :
         {FailureKind::kNone, FailureKind::kNonFiniteInput,
          FailureKind::kNonFiniteValue, FailureKind::kObjectiveDivergence,
          FailureKind::kRankCollapse, FailureKind::kDeadlineExpired,
          FailureKind::kTaskException}) {
        EXPECT_EQ(failure_kind_from_string(to_string(kind)), kind);
    }
    for (const DegradationLevel level :
         {DegradationLevel::kNominal, DegradationLevel::kConservative,
          DegradationLevel::kInterpolation,
          DegradationLevel::kDetectOnly}) {
        EXPECT_EQ(degradation_level_from_string(to_string(level)), level);
    }
    EXPECT_THROW(failure_kind_from_string("nope"), Error);
    EXPECT_THROW(degradation_level_from_string("nope"), Error);
}

}  // namespace
}  // namespace mcs
