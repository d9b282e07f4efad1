// outofcore_stream — the out-of-core data plane: an 8000×48 fleet built
// from 32 independent seeded 250-participant blocks, planned by the cell
// planner, ingested into an f32 SlabStore, and cleaned by
// FleetRunner::run_streamed at T threads under a memory budget well below
// the fleet's in-core bytes, with per-shard checkpoint commits.
//
// A run times run_streamed at T threads once, then runs every shard on
// the calling thread — staged from the same slabs, through run_itscs, with
// the seed the runner derived for it — and checks that both wrote the same
// output (compared at the slab's f32 precision). The 1-thread shards sum
// to the 1-thread clean. The time left buys more T-thread cleans, spread
// between the 1-thread shards so both see the whole run; as on
// batch_fleet, the T-thread wall is the fastest of them. Each shard's
// 1-thread wall divided by its framework rounds is a latency sample (a
// "window" is one DETECT → CORRECT → CHECK round of a shard).
#include <algorithm>
#include <cmath>

#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "linalg/kernel_tier.hpp"
#include "metrics/confusion.hpp"
#include "persist/slab_store.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"
#include "workloads.hpp"

namespace itscs_bench {

namespace {

constexpr std::size_t kBlocks = 32;
constexpr std::size_t kBlockRows = 250;
constexpr std::size_t kParticipants = kBlocks * kBlockRows;
constexpr std::size_t kSlots = 48;
constexpr std::size_t kShardTarget = 200;  // cell planner target size
// At most 2·kShardTarget rows per shard, so four workers need at most
// ~9 MiB of resident window at f32 storage; the fleet is 23.4 MiB in core.
constexpr std::size_t kMemoryBudgetMb = 10;
constexpr double kMissingRatio = 0.2;
constexpr double kFaultRatio = 0.2;
constexpr std::size_t kSetupReps = 3;
// Detection F1 floor: the seed code scores ~0.99 on this workload.
constexpr double kF1Floor = 0.95;

struct Fleet {
    mcs::ItscsInput input;
    mcs::Matrix truth_x;
    mcs::Matrix truth_y;
    mcs::Matrix fault;
};

void copy_block(mcs::Matrix& dst, const mcs::Matrix& block, std::size_t row0) {
    std::copy(block.data().begin(), block.data().end(),
              dst.data().begin() + static_cast<std::ptrdiff_t>(row0 * dst.cols()));
}

Fleet make_fleet(Run& run) {
    Fleet fleet;
    const auto blank = [] { return mcs::Matrix(kParticipants, kSlots); };
    fleet.input.sx = blank();
    fleet.input.sy = blank();
    fleet.input.vx = blank();
    fleet.input.vy = blank();
    fleet.input.existence = blank();
    fleet.truth_x = blank();
    fleet.truth_y = blank();
    fleet.fault = blank();
    for (std::size_t b = 0; b < kBlocks; ++b) {
        mcs::TraceDataset truth;
        {
            SpanRecorder::Scope span(run.spans, "trace.simulate_fleet",
                                     "block", static_cast<std::int64_t>(b));
            truth = mcs::make_small_dataset(
                derive_seed(run.options.seed, 100 + b), kBlockRows, kSlots);
        }
        mcs::CorruptionConfig corruption;
        corruption.missing_ratio = kMissingRatio;
        corruption.fault_ratio = kFaultRatio;
        corruption.seed = derive_seed(run.options.seed, 200 + b);
        mcs::CorruptedDataset data;
        {
            SpanRecorder::Scope span(run.spans, "corruption.corrupt", "block",
                                     static_cast<std::int64_t>(b));
            data = mcs::corrupt(truth, corruption);
        }
        const std::size_t row0 = b * kBlockRows;
        copy_block(fleet.input.sx, data.sx, row0);
        copy_block(fleet.input.sy, data.sy, row0);
        copy_block(fleet.input.vx, data.vx, row0);
        copy_block(fleet.input.vy, data.vy, row0);
        copy_block(fleet.input.existence, data.existence, row0);
        copy_block(fleet.truth_x, truth.x, row0);
        copy_block(fleet.truth_y, truth.y, row0);
        copy_block(fleet.fault, data.fault, row0);
        fleet.input.tau_s = data.tau_s;
    }
    return fleet;
}

mcs::RuntimeConfig runtime_config(std::size_t threads,
                                  const std::string& checkpoint_dir) {
    mcs::RuntimeConfig config;
    config.threads = threads;
    config.shard_size = kShardTarget;
    config.planner = mcs::PlannerMode::kCell;
    config.kernel_tier = mcs::KernelTier::kFast;
    config.storage = mcs::StorageTier::kF32;
    config.memory_budget_mb = kMemoryBudgetMb;
    config.checkpoint_dir = checkpoint_dir;
    return config;
}

mcs::Shard shard_of(const mcs::SlabShardInfo& info, std::size_t index) {
    mcs::Shard shard;
    shard.index = index;
    shard.begin = static_cast<std::size_t>(info.begin);
    shard.end = static_cast<std::size_t>(info.end);
    shard.rows = info.rows;
    return shard;
}

// What an f64 value reads back as from f32 storage.
double through_f32(double v) {
    return static_cast<double>(static_cast<float>(v));
}

}  // namespace

void run_outofcore_stream(Run& run) {
    Outcome& out = run.out;
    const bool traced = run.options.trace;
    const std::size_t threads = bench_threads();
    const mcs::ItscsConfig config;
    const std::string slab_dir = run.options.work_dir + "/slabs";
    const std::string checkpoint_dir = run.options.work_dir + "/checkpoint";

    // ---- set-up: simulate + corrupt 32 blocks + runner + slab ingestion.
    run.spans.set_enabled(traced);
    Fleet fleet;
    std::unique_ptr<mcs::FleetRunner> runner;
    std::unique_ptr<mcs::SlabStore> store;
    std::vector<double> setup_s;
    std::vector<double> ingest_s;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        store.reset();
        runner.reset();
        SpanRecorder::Scope setup(run.spans, "bench.setup", "rep",
                                  static_cast<std::int64_t>(rep));
        fleet = make_fleet(run);
        runner = std::make_unique<mcs::FleetRunner>(
            runtime_config(threads, checkpoint_dir));
        {
            SpanRecorder::Scope span(run.spans,
                                     "persist.FleetRunner::create_slab_store");
            store = runner->create_slab_store(slab_dir, fleet.input);
            ingest_s.push_back(span.end());
        }
        setup_s.push_back(setup.end());
    }
    // The in-core input was only needed for planning and ingestion.
    fleet.input = mcs::ItscsInput{};
    const mcs::SlabGeometry& geometry = store->geometry();
    const std::size_t shard_count = store->shards().size();
    out.set("setup_s", median(setup_s), "s");
    out.set("trace.simulate_s",
            run.spans.total_seconds("trace.simulate_fleet") / kSetupReps, "s");
    out.set("corruption.corrupt_s",
            run.spans.total_seconds("corruption.corrupt") / kSetupReps, "s");
    out.set("persist.slab_ingest_s", median(ingest_s), "s");
    const double input_mib =
        static_cast<double>(kParticipants * kSlots * mcs::kSlabInputMatrices *
                            mcs::element_size(geometry.tier)) /
        (1024.0 * 1024.0);
    out.set("persist.slab_write_mb_s", input_mib / median(ingest_s), "MiB/s");
    std::size_t resident = 0;
    {
        SpanRecorder::Scope span(run.spans,
                                 "runtime.FleetRunner::resident_window_bytes");
        resident = runner->resident_window_bytes(geometry);
    }
    out.set("persist.resident_window_mb",
            static_cast<double>(resident) / (1024.0 * 1024.0), "MiB");
    out.set("persist.slab_file_mb",
            static_cast<double>(geometry.file_size()) / (1024.0 * 1024.0),
            "MiB");

    // ---- run_streamed at T threads; a traced run records one extra,
    // traced, clean for the per-layer numbers and the tracing overhead.
    std::vector<double> wall_t;
    std::vector<double> wall_t_traced;
    mcs::PipelineContext traced_ctx;
    mcs::FleetResult result;
    double checkpoint_mib = 0.0;
    const auto clean = [&](bool record) {
        run.spans.set_enabled(record);
        mcs::PipelineContext ctx;
        SpanRecorder::Scope span(run.spans,
                                 "runtime.FleetRunner::run_streamed");
        result = runner->run_streamed(*store, config, &ctx);
        const double wall = span.end();
        (record ? wall_t_traced : wall_t).push_back(wall);
        checkpoint_mib = directory_mib(checkpoint_dir);
        out.attempted += result.shards.size();
        for (const mcs::ShardRunReport& shard : result.shards) {
            if (shard.level != mcs::DegradationLevel::kNominal) {
                out.breach("outofcore_stream: shard " +
                           std::to_string(shard.shard.index) + " degraded");
            }
        }
        if (record) {
            traced_ctx = ctx;
        }
        return wall;
    };
    const double first_wall = clean(false);
    run.spans.set_enabled(traced);

    // ---- the same shards at 1 thread, staged from the same slabs; more
    // T-thread cleans between them (a traced run alternates traced and
    // untraced ones, for the tracing overhead).
    double wall_1t = 0.0;
    std::vector<double> shard_ms;  // per shard: its 1-thread wall
    std::vector<double> round_ms;  // per shard: that wall ÷ framework rounds
    std::size_t mismatched = 0;
    const auto one_thread_shard = [&](std::size_t s) {
        const std::size_t rows = store->shards()[s].size();
        const mcs::KernelTierScope tier(mcs::KernelTier::kFast);
        mcs::ItscsInput slice;
        mcs::Matrix* inputs[mcs::kSlabInputMatrices] = {
            &slice.sx, &slice.sy, &slice.vx, &slice.vy, &slice.existence};
        double* in_ptrs[mcs::kSlabInputMatrices];
        for (std::size_t m = 0; m < mcs::kSlabInputMatrices; ++m) {
            *inputs[m] = mcs::Matrix(rows, kSlots);
            in_ptrs[m] = inputs[m]->data().data();
        }
        slice.tau_s = geometry.tau_s;
        SpanRecorder::Scope span(run.spans, "core.run_itscs", "shard",
                                 static_cast<std::int64_t>(s));
        {
            SpanRecorder::Scope read(run.spans,
                                     "persist.SlabStore::read_inputs",
                                     "shard", static_cast<std::int64_t>(s));
            store->read_inputs(s, in_ptrs);
        }
        mcs::PipelineContext shard_ctx(result.shards[s].seed);
        const mcs::ItscsResult one =
            mcs::run_itscs(slice, config, {}, &shard_ctx);
        const double wall = span.end();
        wall_1t += wall;
        shard_ms.push_back(wall * 1000.0);
        round_ms.push_back(
            shard_ms.back() /
            static_cast<double>(std::max<std::size_t>(1, one.iterations)));
        ++out.attempted;
        mcs::Matrix slab_out[mcs::kSlabOutputMatrices];
        double* out_ptrs[mcs::kSlabOutputMatrices];
        for (std::size_t m = 0; m < mcs::kSlabOutputMatrices; ++m) {
            slab_out[m] = mcs::Matrix(rows, kSlots);
            out_ptrs[m] = slab_out[m].data().data();
        }
        {
            SpanRecorder::Scope read(run.spans,
                                     "persist.SlabStore::read_outputs",
                                     "shard", static_cast<std::int64_t>(s));
            store->read_outputs(s, out_ptrs);
        }
        const mcs::Matrix* mine[mcs::kSlabOutputMatrices] = {
            &one.detection, &one.reconstructed_x, &one.reconstructed_y};
        for (std::size_t m = 0; m < mcs::kSlabOutputMatrices; ++m) {
            const auto a = mine[m]->data();
            const auto b = slab_out[m].data();
            bool equal = a.size() == b.size();
            for (std::size_t k = 0; equal && k < a.size(); ++k) {
                equal = through_f32(a[k]) == b[k];
            }
            mismatched += equal ? 0 : 1;
        }
        store->evict(s);
        return wall;
    };
    std::size_t fillers = 0;
    const auto filler = [&] {
        const bool record = traced && fillers++ % 2 == 0;
        const double wall = clean(record);
        run.spans.set_enabled(traced);
        return wall;
    };
    interleave(run, shard_count,
               first_wall * static_cast<double>(threads) /
                   static_cast<double>(shard_count),
               one_thread_shard, first_wall, filler);
    if (traced && wall_t_traced.empty()) {  // the per-layer numbers
        clean(true);
        run.spans.set_enabled(traced);
    }
    if (mismatched > 0) {
        out.breach("outofcore_stream: 1-thread and " +
                   std::to_string(threads) +
                   "-thread slab outputs differ in " +
                   std::to_string(mismatched) + " matrices");
    }

    // ---- quality, scored shard by shard from the output slabs.
    mcs::ConfusionCounts confusion;
    double error_sum = 0.0;
    std::size_t error_cells = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
        const mcs::Shard shard = shard_of(store->shards()[s], s);
        const std::size_t rows = shard.size();
        mcs::Matrix outputs[mcs::kSlabOutputMatrices];
        double* out_ptrs[mcs::kSlabOutputMatrices];
        for (std::size_t m = 0; m < mcs::kSlabOutputMatrices; ++m) {
            outputs[m] = mcs::Matrix(rows, kSlots);
            out_ptrs[m] = outputs[m].data().data();
        }
        store->read_outputs(s, out_ptrs);
        mcs::Matrix inputs[mcs::kSlabInputMatrices];
        double* in_ptrs[mcs::kSlabInputMatrices];
        for (std::size_t m = 0; m < mcs::kSlabInputMatrices; ++m) {
            inputs[m] = mcs::Matrix(rows, kSlots);
            in_ptrs[m] = inputs[m].data().data();
        }
        store->read_inputs(s, in_ptrs);
        store->evict(s);
        const mcs::Matrix& existence = inputs[4];
        const mcs::Matrix fault = gather_rows(fleet.fault, shard);
        const mcs::Matrix tx = gather_rows(fleet.truth_x, shard);
        const mcs::Matrix ty = gather_rows(fleet.truth_y, shard);
        for (const mcs::Matrix& m : outputs) {
            if (!all_finite(m)) {
                out.breach("outofcore_stream: non-finite output in shard " +
                           std::to_string(s));
            }
        }
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < kSlots; ++j) {
                const bool observed = existence(i, j) != 0.0;
                const bool flagged = outputs[0](i, j) != 0.0;
                if (observed) {
                    const bool faulty = fault(i, j) != 0.0;
                    confusion.true_positive += flagged && faulty;
                    confusion.false_positive += flagged && !faulty;
                    confusion.false_negative += !flagged && faulty;
                    confusion.true_negative += !flagged && !faulty;
                }
                if (!observed || flagged) {  // reconstructed cells, Eq. (29)
                    error_sum += std::hypot(outputs[1](i, j) - tx(i, j),
                                            outputs[2](i, j) - ty(i, j));
                    ++error_cells;
                }
            }
        }
    }
    const double f1 = confusion.f1();
    if (!(f1 >= kF1Floor)) {
        out.breach("outofcore_stream: f1 " + std::to_string(f1) +
                   " below floor " + std::to_string(kF1Floor));
    }

    const double clean_wall = fastest(wall_t);
    const Tail tail = tail_of(round_ms);
    out.set("clean_wall_s", clean_wall, "s");
    out.set("clean_wall_1t_s", wall_1t, "s");
    out.set("window_latency_p50_ms", median(round_ms), "ms");
    out.set("window_latency_tail_ms", tail.value, "ms");
    out.set("f1", f1, "ratio");
    out.set("recon_mae_m", error_cells > 0 ? error_sum / error_cells : 0.0,
            "m");

    const double in_core_mib =
        static_cast<double>(kParticipants * kSlots * sizeof(double) *
                            (mcs::kSlabInputMatrices +
                             mcs::kSlabOutputMatrices)) /
        (1024.0 * 1024.0);
    out.notes["reps"] = wall_t.size();
    mcs::Json walls = mcs::Json::array();
    for (const double w : wall_t) {
        walls.push_back(w);
    }
    out.notes["walls_s"] = std::move(walls);
    out.notes["fleet"] = std::to_string(kParticipants) + "x" +
                         std::to_string(kSlots) + " in " +
                         std::to_string(kBlocks) + " blocks, " +
                         std::to_string(shard_count) +
                         " cell-planned shards, f32 slabs, fast tier, T=" +
                         std::to_string(threads);
    out.notes["memory_budget_mib"] = kMemoryBudgetMb;
    out.notes["in_core_mib"] = in_core_mib;
    out.notes["window"] =
        "one DETECT-CORRECT-CHECK round of a shard at 1 thread; each shard "
        "gives its wall / rounds";
    out.notes["window_latency_samples"] = round_ms.size();
    out.notes["window_latency_tail"] = tail.label;
    out.notes["peak_rss"] =
        "VmHWM of the whole process, set-up included (the cell planner "
        "needs the fleet in memory once)";

    if (!traced) {
        return;
    }
    // ---- per-layer (traced reps).
    add_pipeline_metrics(out, traced_ctx);
    std::size_t median_rows = 0;
    {
        std::vector<double> sizes;
        for (const mcs::SlabShardInfo& info : store->shards()) {
            sizes.push_back(static_cast<double>(info.size()));
        }
        median_rows = static_cast<std::size_t>(median(sizes));
    }
    add_kernel_peak(out, multiply_transposed_peak_gflops(
                             run.spans, median_rows, kSlots,
                             mcs::recommended_rank(median_rows, kSlots),
                             mcs::KernelTier::kFast, 0.5));
    {
        const mcs::Shard shard = shard_of(store->shards().front(), 0);
        mcs::ItscsInput slice;
        mcs::Matrix* inputs[mcs::kSlabInputMatrices] = {
            &slice.sx, &slice.sy, &slice.vx, &slice.vy, &slice.existence};
        double* in_ptrs[mcs::kSlabInputMatrices];
        for (std::size_t m = 0; m < mcs::kSlabInputMatrices; ++m) {
            *inputs[m] = mcs::Matrix(shard.size(), kSlots);
            in_ptrs[m] = inputs[m]->data().data();
        }
        slice.tau_s = geometry.tau_s;
        store->read_inputs(0, in_ptrs);
        probe_framework_iteration(run.spans, slice, config,
                                  mcs::KernelTier::kFast);
    }
    const double shard_med = median(shard_ms) / 1000.0;
    const double shard_max =
        *std::max_element(shard_ms.begin(), shard_ms.end()) / 1000.0;
    out.set("runtime.shard_s_median", shard_med, "s");
    out.set("runtime.shard_s_max", shard_max, "s");
    out.set("runtime.shard_imbalance",
            shard_med > 0.0 ? shard_max / shard_med : 0.0, "ratio");
    std::size_t it_min = SIZE_MAX;
    std::size_t it_max = 0;
    for (const mcs::ShardRunReport& shard : result.shards) {
        it_min = std::min(it_min, shard.iterations);
        it_max = std::max(it_max, shard.iterations);
    }
    out.set("runtime.shard_iterations_min", static_cast<double>(it_min),
            "count");
    out.set("runtime.shard_iterations_max", static_cast<double>(it_max),
            "count");
    out.set("runtime.shards_stolen",
            static_cast<double>(result.steals.stolen_items), "count");
    out.set("runtime.shard_retries",
            static_cast<double>(traced_ctx.counters().shard_retries), "count");
    out.set("runtime.parallel_efficiency",
            wall_1t / (static_cast<double>(threads) * clean_wall),
            "ratio");
    out.set("persist.checkpoint_commits",
            static_cast<double>(traced_ctx.counters().checkpoint_commits),
            "count");
    out.set("persist.checkpoint_mb", checkpoint_mib, "MiB");
    out.set("bench.trace_overhead_clean_wall_s",
            fastest(wall_t_traced) - clean_wall, "s");
}

}  // namespace itscs_bench
