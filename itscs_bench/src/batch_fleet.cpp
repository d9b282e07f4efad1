// batch_fleet — the ROADMAP headline: a 632×240 fleet cleaned in one
// batch run, as `itscs clean --tier fast` does it: four paper-scale shards
// of 158 through in-core FleetRunner::run at T threads.
//
// A run sets up kFleets fleets drawn from the seed and cleans each once at
// T threads (which also gives each shard the seed the runner derived for
// it). One fleet's wall swings with its data (the slowest of four shards
// sets it), hence several fleets. Then it runs every shard of the first
// kFleets1t fleets on the calling thread through run_itscs with that
// seed — the 1-thread clean, which FleetRunner's contract says is
// bit-identical, and the benchmark checks it — and spends the time left on
// more T-thread cleans, spread between the 1-thread shards so both see the
// whole run. A fleet's T-thread wall is its fastest clean: the host runs
// in fast and slow spells lasting seconds, and the fastest repeat of a
// fixed job is what they move least.
// Here a "window" is one DETECT → CORRECT → CHECK round of a shard, the
// unit in which a batch clean makes progress; each 1-thread shard gives
// its wall divided by its rounds (single rounds are not timed: their
// costs differ by round index, which makes their quantiles jump with the
// data).
#include <algorithm>
#include <cmath>

#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "linalg/kernel_tier.hpp"
#include "metrics/confusion.hpp"
#include "metrics/reconstruction_error.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"
#include "workloads.hpp"

namespace itscs_bench {

namespace {

constexpr std::size_t kParticipants = 632;
constexpr std::size_t kSlots = 240;
constexpr std::size_t kShardSize = 158;
constexpr double kMissingRatio = 0.2;  // α
constexpr double kFaultRatio = 0.2;    // β
// Fleets per run, all cleaned at T threads; the first kFleets1t of them
// also at 1 thread (~9 s each, so two is what a run holds).
constexpr std::size_t kFleets = 4;
constexpr std::size_t kFleets1t = 2;
// Detection F1 floor: the seed code scores 0.99 on this workload.
constexpr double kF1Floor = 0.95;

struct Fleet {
    mcs::TraceDataset truth;
    mcs::CorruptedDataset data;
    mcs::ItscsInput input;
    std::vector<double> walls;         // untraced T-thread cleans
    std::vector<double> walls_traced;  // traced T-thread cleans
    mcs::FleetResult result;
    // The 1-thread clean, assembled shard by shard.
    mcs::Matrix detection;
    mcs::Matrix rec_x;
    mcs::Matrix rec_y;
    double wall_1t = 0.0;
};

Fleet make_fleet(Run& run, std::size_t index) {
    Fleet fleet;
    mcs::SimulatorConfig sim;
    sim.participants = kParticipants;
    sim.slots = kSlots;
    sim.seed = derive_seed(run.options.seed, 10 * index + 1);
    {
        SpanRecorder::Scope span(run.spans, "trace.simulate_fleet", "fleet",
                                 static_cast<std::int64_t>(index));
        fleet.truth = mcs::simulate_fleet(sim);
    }
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = kMissingRatio;
    corruption.fault_ratio = kFaultRatio;
    corruption.seed = derive_seed(run.options.seed, 10 * index + 2);
    {
        SpanRecorder::Scope span(run.spans, "corruption.corrupt", "fleet",
                                 static_cast<std::int64_t>(index));
        fleet.data = mcs::corrupt(fleet.truth, corruption);
    }
    fleet.input = mcs::to_itscs_input(fleet.data);
    fleet.detection = mcs::Matrix(kParticipants, kSlots);
    fleet.rec_x = mcs::Matrix(kParticipants, kSlots);
    fleet.rec_y = mcs::Matrix(kParticipants, kSlots);
    return fleet;
}

mcs::RuntimeConfig runtime_config(std::size_t threads) {
    mcs::RuntimeConfig config;
    config.threads = threads;
    config.shard_size = kShardSize;
    config.remainder = mcs::ShardRemainder::kTail;
    config.kernel_tier = mcs::KernelTier::kFast;
    config.solver = mcs::SolverKind::kAsd;
    return config;
}

}  // namespace

void run_batch_fleet(Run& run) {
    Outcome& out = run.out;
    const bool traced = run.options.trace;
    const std::size_t threads = bench_threads();
    const mcs::ItscsConfig config;

    // ---- set-up, once per fleet: simulate + corrupt + runner + plan.
    run.spans.set_enabled(traced);
    std::vector<Fleet> fleets(kFleets);
    std::unique_ptr<mcs::FleetRunner> runner;
    mcs::ShardPlan plan = mcs::ShardPlan::whole(1);
    std::vector<double> setup_s;
    for (std::size_t f = 0; f < kFleets; ++f) {
        runner.reset();
        SpanRecorder::Scope setup(run.spans, "bench.setup", "fleet",
                                  static_cast<std::int64_t>(f));
        fleets[f] = make_fleet(run, f);
        runner = std::make_unique<mcs::FleetRunner>(runtime_config(threads));
        {
            SpanRecorder::Scope span(run.spans, "runtime.plan_for");
            plan = runner->plan_for(fleets[f].input);
        }
        setup_s.push_back(setup.end());
    }
    out.set("setup_s", median(setup_s), "s");
    out.set("trace.simulate_s",
            run.spans.total_seconds("trace.simulate_fleet") / kFleets, "s");
    out.set("corruption.corrupt_s",
            run.spans.total_seconds("corruption.corrupt") / kFleets, "s");

    // One T-thread clean of fleet f, recorded as traced or untraced.
    mcs::PipelineContext traced_ctx;
    const auto clean = [&](std::size_t f, bool record) {
        Fleet& fleet = fleets[f];
        run.spans.set_enabled(record);
        mcs::PipelineContext ctx;
        SpanRecorder::Scope span(run.spans, "runtime.FleetRunner::run",
                                 "fleet", static_cast<std::int64_t>(f));
        fleet.result = runner->run(fleet.input, config, &ctx);
        const double wall = span.end();
        (record ? fleet.walls_traced : fleet.walls).push_back(wall);
        out.attempted += fleet.result.shards.size();
        for (const mcs::ShardRunReport& shard : fleet.result.shards) {
            if (shard.level != mcs::DegradationLevel::kNominal) {
                out.breach("batch_fleet: fleet " + std::to_string(f) +
                           " shard " + std::to_string(shard.shard.index) +
                           " degraded");
            }
        }
        if (record && f == 0) {
            traced_ctx = ctx;
        }
        run.spans.set_enabled(traced);
        return wall;
    };

    // ---- every fleet once at T threads: the shard seeds for the
    // 1-thread clean, and the first T-thread samples.
    double first_wall = 0.0;
    for (std::size_t f = 0; f < kFleets; ++f) {
        first_wall = std::max(first_wall, clean(f, false));
    }

    // ---- every shard of the first kFleets1t fleets at 1 thread, through
    // run_itscs on this thread under the runner's tier and seeds; more
    // T-thread cleans between them, round robin over the fleets (a traced
    // run alternates traced and untraced rounds, for the tracing overhead).
    const std::size_t shards = plan.count();
    std::vector<double> round_ms;  // per shard: wall ÷ framework rounds
    std::vector<double> fleet0_shard_s;
    std::size_t next_filler = 0;
    const auto one_thread_shard = [&](std::size_t item) {
        Fleet& fleet = fleets[item / shards];
        const mcs::Shard& shard = plan.shards()[item % shards];
        const mcs::KernelTierScope tier(mcs::KernelTier::kFast);
        const mcs::ItscsInput slice = slice_input(fleet.input, shard);
        mcs::PipelineContext shard_ctx(fleet.result.shards[shard.index].seed);
        SpanRecorder::Scope span(run.spans, "core.run_itscs", "shard",
                                 static_cast<std::int64_t>(shard.index));
        const mcs::ItscsResult one =
            mcs::run_itscs(slice, config, {}, &shard_ctx);
        const double wall = span.end();
        scatter_rows(fleet.detection, one.detection, shard);
        scatter_rows(fleet.rec_x, one.reconstructed_x, shard);
        scatter_rows(fleet.rec_y, one.reconstructed_y, shard);
        fleet.wall_1t += wall;
        round_ms.push_back(wall * 1000.0 /
                           static_cast<double>(
                               std::max<std::size_t>(1, one.iterations)));
        if (item < shards) {
            fleet0_shard_s.push_back(wall);
        }
        ++out.attempted;
        return wall;
    };
    const auto filler = [&] {
        const std::size_t k = next_filler++;
        return clean(k % kFleets, traced && (k / kFleets) % 2 == 0);
    };
    interleave(run, kFleets1t * shards,
               first_wall * static_cast<double>(threads) /
                   static_cast<double>(shards),
               one_thread_shard, first_wall, filler);
    if (traced && fleets.front().walls_traced.empty()) {
        clean(0, true);  // the per-layer numbers come from it
    }

    // ---- outputs and gates.
    double f1_sum = 0.0;
    double mae_sum = 0.0;
    std::vector<double> fleet_walls;
    std::vector<double> walls_1t;
    std::vector<double> overhead_s;
    for (std::size_t f = 0; f < kFleets; ++f) {
        const Fleet& fleet = fleets[f];
        const mcs::ItscsResult& agg = fleet.result.aggregate;
        for (const mcs::Matrix* m :
             {&agg.detection, &agg.reconstructed_x, &agg.reconstructed_y}) {
            if (!all_finite(*m)) {
                out.breach("batch_fleet: non-finite or empty output");
            }
        }
        if (f < kFleets1t &&
            (!bitwise_equal(fleet.detection, agg.detection) ||
             !bitwise_equal(fleet.rec_x, agg.reconstructed_x) ||
             !bitwise_equal(fleet.rec_y, agg.reconstructed_y))) {
            out.breach("batch_fleet: fleet " + std::to_string(f) +
                       " differs between 1 and " + std::to_string(threads) +
                       " threads");
        }
        const double f1 =
            mcs::evaluate_detection(agg.detection, fleet.data.fault,
                                    fleet.data.existence)
                .f1();
        if (!(f1 >= kF1Floor)) {
            out.breach("batch_fleet: f1 " + std::to_string(f1) +
                       " below floor " + std::to_string(kF1Floor));
        }
        f1_sum += f1;
        mae_sum += mcs::reconstruction_mae(
            fleet.truth.x, fleet.truth.y, agg.reconstructed_x,
            agg.reconstructed_y, fleet.data.existence, agg.detection);
        fleet_walls.push_back(fastest(fleet.walls));
        if (f < kFleets1t) {
            walls_1t.push_back(fleet.wall_1t);
        }
        if (!fleet.walls_traced.empty()) {
            overhead_s.push_back(fastest(fleet.walls_traced) -
                                 fastest(fleet.walls));
        }
    }

    const double clean_wall = median(fleet_walls);
    const Tail tail = tail_of(round_ms);
    out.set("clean_wall_s", clean_wall, "s");
    out.set("clean_wall_1t_s", median(walls_1t), "s");
    out.set("window_latency_p50_ms", median(round_ms), "ms");
    out.set("window_latency_tail_ms", tail.value, "ms");
    out.set("f1", f1_sum / kFleets, "ratio");
    out.set("recon_mae_m", mae_sum / kFleets, "m");

    out.notes["fleets"] = std::to_string(kFleets) + " fleets of " +
                          std::to_string(kParticipants) + "x" +
                          std::to_string(kSlots) + ", " +
                          std::to_string(shards) + " shards of " +
                          std::to_string(kShardSize) + ", fast tier, T=" +
                          std::to_string(threads);
    out.notes["clean_wall_s"] =
        "median over fleets of each fleet's fastest T-thread clean";
    out.notes["clean_wall_1t_s"] =
        "median over the first " + std::to_string(kFleets1t) +
        " fleets of the sum of the fleet's 1-thread shards";
    out.notes["window"] =
        "one DETECT-CORRECT-CHECK round of a shard in the 1-thread clean; "
        "each shard gives its wall / rounds";
    out.notes["window_latency_samples"] = round_ms.size();
    out.notes["window_latency_tail"] = tail.label;
    out.notes["reps"] = fleets.front().walls.size();
    mcs::Json walls_t = mcs::Json::array();
    for (const Fleet& fleet : fleets) {
        mcs::Json walls = mcs::Json::array();
        for (const double w : fleet.walls) {
            walls.push_back(w);
        }
        walls_t.push_back(std::move(walls));
    }
    out.notes["fleet_walls_s"] = std::move(walls_t);

    if (!traced) {
        return;
    }
    // ---- per-layer: fleet 0's traced clean and 1-thread shards.
    const Fleet& first = fleets.front();
    add_pipeline_metrics(out, traced_ctx);
    add_kernel_peak(out, multiply_transposed_peak_gflops(
                             run.spans, kShardSize, kSlots,
                             mcs::recommended_rank(kShardSize, kSlots),
                             mcs::KernelTier::kFast, 0.5));
    probe_framework_iteration(
        run.spans, slice_input(first.input, plan.shards().front()), config,
        mcs::KernelTier::kFast);
    const double shard_med = median(fleet0_shard_s);
    const double shard_max =
        *std::max_element(fleet0_shard_s.begin(), fleet0_shard_s.end());
    out.set("runtime.shard_s_median", shard_med, "s");
    out.set("runtime.shard_s_max", shard_max, "s");
    out.set("runtime.shard_imbalance",
            shard_med > 0.0 ? shard_max / shard_med : 0.0, "ratio");
    std::size_t it_min = SIZE_MAX;
    std::size_t it_max = 0;
    for (const mcs::ShardRunReport& shard : first.result.shards) {
        it_min = std::min(it_min, shard.iterations);
        it_max = std::max(it_max, shard.iterations);
    }
    out.set("runtime.shard_iterations_min", static_cast<double>(it_min),
            "count");
    out.set("runtime.shard_iterations_max", static_cast<double>(it_max),
            "count");
    out.set("runtime.shards_stolen",
            static_cast<double>(first.result.steals.stolen_items), "count");
    out.set("runtime.shard_retries",
            static_cast<double>(traced_ctx.counters().shard_retries), "count");
    double wall_t_sum = 0.0;
    double wall_1t_sum = 0.0;
    for (std::size_t f = 0; f < kFleets1t; ++f) {
        wall_t_sum += fleet_walls[f];
        wall_1t_sum += walls_1t[f];
    }
    out.set("runtime.parallel_efficiency",
            wall_1t_sum / (static_cast<double>(threads) * wall_t_sum),
            "ratio");
    out.set("bench.trace_overhead_clean_wall_s",
            overhead_s.empty() ? 0.0 : median(overhead_s), "s");
}

}  // namespace itscs_bench
