// The out-of-core data plane (DESIGN.md §18): slab store round trips,
// streamed-vs-in-core bit-identity under the work-stealing scheduler,
// crash recovery through a torn slab file, the geographic by_cell
// planner's determinism and balance contract, and the float32 storage
// tier on the fast kernel tier.
//
// The central contract: routing a fleet through the mmap slab store — at
// any thread count, stolen or not — produces bytes identical to the
// in-core run of the same plan, and any damage to the slab file costs a
// re-run of the affected shards, never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/context.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "persist/frame_io.hpp"
#include "persist/slab_store.hpp"
#include "runtime/fleet_runner.hpp"
#include "runtime/shard_plan.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

constexpr std::size_t kParticipants = 28;
constexpr std::size_t kSlots = 40;
constexpr std::size_t kShardSize = 4;  // 7 shards

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

ItscsInput fleet_input() {
    const TraceDataset truth = make_small_dataset(21, kParticipants, kSlots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 17;
    return to_itscs_input(corrupt(truth, corruption));
}

RuntimeConfig runtime_config(std::size_t threads) {
    RuntimeConfig config;
    config.threads = threads;
    config.shard_size = kShardSize;
    return config;
}

class TempDir {
public:
    explicit TempDir(const char* tag) {
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("mcs_scale_test_") + tag + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

private:
    std::filesystem::path dir_;
};

// Compare a streamed run's output slabs, gathered to fleet rows, against
// an in-core aggregate.
bool streamed_matches_aggregate(const SlabStore& store,
                                const ItscsResult& aggregate) {
    const SlabOutputs out = gather_outputs(store);
    return bitwise_equal(out.detection, aggregate.detection) &&
           bitwise_equal(out.reconstructed_x, aggregate.reconstructed_x) &&
           bitwise_equal(out.reconstructed_y, aggregate.reconstructed_y);
}

// ---- slab store round trips ----------------------------------------------

TEST(SlabStoreTest, F64RoundTripIsExactAndF32RoundsOnce) {
    const ItscsInput input = fleet_input();
    for (const StorageTier tier : {StorageTier::kF64, StorageTier::kF32}) {
        TempDir dir(tier == StorageTier::kF64 ? "rt64" : "rt32");
        RuntimeConfig config = runtime_config(1);
        config.storage = tier;
        FleetRunner runner(config);
        auto store = runner.create_slab_store(dir.path(), input);
        ASSERT_EQ(store->shards().size(), 7u);

        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            const std::size_t rows = store->shards()[s].size();
            Matrix got[kSlabInputMatrices];
            double* mats[kSlabInputMatrices];
            for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
                got[m] = Matrix(rows, kSlots);
                mats[m] = got[m].data().data();
            }
            store->read_inputs(s, mats);
            const Matrix* sources[kSlabInputMatrices] = {
                &input.sx, &input.sy, &input.vx, &input.vy,
                &input.existence};
            const std::size_t begin = store->shards()[s].begin;
            for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
                for (std::size_t k = 0; k < rows; ++k) {
                    for (std::size_t j = 0; j < kSlots; ++j) {
                        const double want = (*sources[m])(begin + k, j);
                        const double expect =
                            tier == StorageTier::kF64
                                ? want
                                : static_cast<double>(
                                      static_cast<float>(want));
                        EXPECT_EQ(expect, got[m](k, j))
                            << "tier=" << to_string(tier) << " shard=" << s
                            << " matrix=" << m;
                    }
                }
            }
        }
    }
}

TEST(SlabStoreTest, ReopenVerifiesGeometryAndF32HalvesTheFile) {
    const ItscsInput input = fleet_input();
    TempDir dir64("geom64");
    TempDir dir32("geom32");
    RuntimeConfig config = runtime_config(1);
    FleetRunner runner64(config);
    config.storage = StorageTier::kF32;
    FleetRunner runner32(config);
    std::size_t bytes64 = 0;
    std::size_t bytes32 = 0;
    {
        auto store = runner64.create_slab_store(dir64.path(), input);
        bytes64 = store->geometry().file_size();
    }
    {
        auto store = runner32.create_slab_store(dir32.path(), input);
        bytes32 = store->geometry().file_size();
    }
    EXPECT_LT(bytes32, bytes64);

    SlabStore reopened(dir64.path());
    EXPECT_EQ(reopened.geometry().participants, kParticipants);
    EXPECT_EQ(reopened.geometry().slots, kSlots);
    EXPECT_EQ(reopened.geometry().tier, StorageTier::kF64);
    EXPECT_EQ(reopened.shards().size(), 7u);
    EXPECT_EQ(reopened.geometry().input_fingerprint, input.fingerprint());

    // A slabs.meta that is CRC-valid but disagrees with itself is refused
    // on open instead of mapped and read out of bounds: here shard 1 of an
    // 8-row fleet claims rows [4, 400000).
    TempDir bad("badmeta");
    SlabGeometry g;
    g.participants = 8;
    g.slots = 4;
    g.shard_count = 2;
    g.max_shard_rows = 4;
    std::vector<SlabShardInfo> halves(2);
    halves[0].end = 4;
    halves[1].begin = 4;
    halves[1].end = 8;
    SlabStore(bad.path(), g, halves);
    ByteWriter w;  // slabs.meta v1: geometry, then begin/end/members per shard
    w.put_u32(1);
    for (const std::uint64_t v : {8u, 4u, 2u, 4u}) {
        w.put_u64(v);
    }
    w.put_u32(0);
    w.put_f64(1.0);
    w.put_u32(0);
    w.put_u64(0);
    w.put_u64(0);
    w.put_u64(2);
    for (const std::uint64_t v : {0u, 4u, 0u, 4u, 400000u, 0u}) {
        w.put_u64(v);
    }
    rewrite_frames(bad.path() + "/slabs.meta", {w.bytes()});
    EXPECT_THROW(SlabStore{bad.path()}, Error);
}

// ---- streamed vs in-core bit-identity ------------------------------------

TEST(RuntimeScaleTest, StreamedIsBitIdenticalToInCoreAt127Threads) {
    const ItscsInput input = fleet_input();
    const FleetResult in_core =
        FleetRunner(runtime_config(1)).run(input, ItscsConfig{});

    std::vector<std::uint32_t> reference_crcs;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        TempDir dir("identity");
        FleetRunner runner(runtime_config(threads));
        auto store = runner.create_slab_store(dir.path(), input);
        PipelineContext ctx;
        const FleetResult fleet =
            runner.run_streamed(*store, ItscsConfig{}, &ctx);

        EXPECT_TRUE(streamed_matches_aggregate(*store, in_core.aggregate))
            << "threads=" << threads;
        EXPECT_EQ(fleet.shards.size(), in_core.shards.size());
        EXPECT_EQ(ctx.counters().slab_shards_streamed, 7u);
        // Streamed mode leaves the fleet on disk: no aggregate matrices.
        EXPECT_EQ(fleet.aggregate.detection.rows(), 0u);

        std::vector<std::uint32_t> crcs;
        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            crcs.push_back(store->output_crc(s));
        }
        if (reference_crcs.empty()) {
            reference_crcs = crcs;
        }
        EXPECT_EQ(crcs, reference_crcs) << "threads=" << threads;
    }
}

// ---- kill-and-resume through the slab store ------------------------------

TEST(RuntimeScaleTest, TornOutputSlabsReRunAndIntactOnesRestore) {
    const ItscsInput input = fleet_input();
    TempDir slab_dir("resume_slabs");
    TempDir cp_dir("resume_cp");

    RuntimeConfig config = runtime_config(2);
    config.checkpoint_dir = cp_dir.path();

    // Pristine pass: every shard computed, committed, and CRC-journaled.
    std::vector<std::uint32_t> pristine_crcs;
    std::size_t output_region_begin = 0;
    std::size_t output_stride = 0;
    {
        FleetRunner runner(config);
        auto store = runner.create_slab_store(slab_dir.path(), input);
        const FleetResult fleet =
            runner.run_streamed(*store, ItscsConfig{});
        EXPECT_TRUE(fleet.checkpoint.enabled);
        EXPECT_EQ(fleet.checkpoint.shards_run, 7u);
        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            pristine_crcs.push_back(store->output_crc(s));
        }
        const SlabGeometry& g = store->geometry();
        output_region_begin = g.shard_count * g.input_stride();
        output_stride = g.output_stride();
        store->sync();
    }

    // The crash: tear the file inside shard 3's output slab. Shards 0-2
    // keep their committed outputs; shards 3-6 read back zero-extended
    // and must fail their journaled CRCs.
    std::filesystem::resize_file(
        std::filesystem::path(slab_dir.path()) / "slabs.bin",
        output_region_begin + 3 * output_stride + output_stride / 2);

    config.resume = true;
    FleetRunner runner(config);
    SlabStore reopened(slab_dir.path());
    const FleetResult resumed =
        runner.run_streamed(reopened, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, 3u);
    EXPECT_EQ(resumed.checkpoint.shards_run, 4u);
    EXPECT_GE(resumed.checkpoint.corrupt_frames, 4u);

    // Re-running the torn shards regenerates the exact pristine bytes.
    for (std::size_t s = 0; s < reopened.shards().size(); ++s) {
        EXPECT_EQ(reopened.output_crc(s), pristine_crcs[s]) << "shard " << s;
    }
}

TEST(RuntimeScaleTest, IntactResumeRestoresEveryShardWithoutRerunning) {
    const ItscsInput input = fleet_input();
    TempDir slab_dir("intact_slabs");
    TempDir cp_dir("intact_cp");

    RuntimeConfig config = runtime_config(1);
    config.checkpoint_dir = cp_dir.path();
    {
        FleetRunner runner(config);
        auto store = runner.create_slab_store(slab_dir.path(), input);
        runner.run_streamed(*store, ItscsConfig{});
        store->sync();
    }
    config.resume = true;
    FleetRunner runner(config);
    SlabStore reopened(slab_dir.path());
    const FleetResult resumed =
        runner.run_streamed(reopened, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, 7u);
    EXPECT_EQ(resumed.checkpoint.shards_run, 0u);
    EXPECT_EQ(resumed.checkpoint.corrupt_frames, 0u);
}

// ---- by_cell planner ------------------------------------------------------

// Four well-separated spatial clusters plus two never-observed rows.
void clustered_positions(Matrix& sx, Matrix& sy, Matrix& existence) {
    const std::size_t n = sx.rows();
    const std::size_t t = sx.cols();
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= n - 2) {
            continue;  // unlocated: existence stays 0
        }
        const double cx = (i % 2 == 0) ? 100.0 : 900.0;
        const double cy = (i % 4 < 2) ? 100.0 : 900.0;
        for (std::size_t j = 0; j < t; ++j) {
            sx(i, j) = cx + static_cast<double>((i * 7 + j) % 11);
            sy(i, j) = cy + static_cast<double>((i * 5 + j) % 13);
            existence(i, j) = 1.0;
        }
    }
}

TEST(ShardPlanCellTest, ByCellIsDeterministicBalancedAndComplete) {
    const std::size_t n = 42;
    const std::size_t t = 12;
    const std::size_t target = 8;
    Matrix sx(n, t);
    Matrix sy(n, t);
    Matrix existence(n, t);
    clustered_positions(sx, sy, existence);

    const ShardPlan plan = ShardPlan::by_cell(sx, sy, existence, target);
    const ShardPlan again = ShardPlan::by_cell(sx, sy, existence, target);
    EXPECT_EQ(plan.fingerprint(), again.fingerprint());
    EXPECT_EQ(plan.mode(), PlannerMode::kCell);
    EXPECT_GE(plan.cells(), 2u);

    // Balance contract: every shard within [max(1, target/2), 2*target],
    // except at most one undersized trailing shard.
    std::size_t undersized = 0;
    for (const Shard& shard : plan.shards()) {
        EXPECT_LE(shard.size(), 2 * target);
        if (shard.size() < std::max<std::size_t>(1, target / 2)) {
            ++undersized;
        }
    }
    EXPECT_LE(undersized, 1u);

    // Completeness: every row exactly once.
    std::vector<int> seen(n, 0);
    for (const Shard& shard : plan.shards()) {
        for (std::size_t k = 0; k < shard.size(); ++k) {
            ASSERT_LT(shard.row_at(k), n);
            seen[shard.row_at(k)] += 1;
        }
    }
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0),
              static_cast<int>(n));
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int c) { return c == 1; }));

    // The two unlocated rows land in the final shard(s), after every
    // located cell.
    const Shard& last = plan.shards().back();
    bool last_holds_unlocated = false;
    for (std::size_t k = 0; k < last.size(); ++k) {
        last_holds_unlocated =
            last_holds_unlocated || last.row_at(k) >= n - 2;
    }
    EXPECT_TRUE(last_holds_unlocated);
}

TEST(ShardPlanCellTest, CellPlannedFleetMatchesRowPlannedNumerics) {
    // Shard membership changes the *grouping*, not any participant's
    // data: a cell-planned run must agree cell-by-cell with solving the
    // same member sets under any other grouping. Here: detection flags
    // per participant must match a whole-fleet... shard-local solve, so
    // we only assert the run completes and covers everyone.
    const ItscsInput input = fleet_input();
    RuntimeConfig config;
    config.threads = 2;
    config.planner = PlannerMode::kCell;
    config.shard_size = 6;
    FleetRunner runner(config);
    const FleetResult fleet = runner.run(input, ItscsConfig{});
    EXPECT_EQ(fleet.aggregate.detection.rows(), kParticipants);

    // Determinism across thread counts holds for cell plans too.
    RuntimeConfig config1 = config;
    config1.threads = 7;
    const FleetResult again =
        FleetRunner(config1).run(input, ItscsConfig{});
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                              again.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                              again.aggregate.reconstructed_x));

    // Streamed through f64 slabs, the cell plan's non-contiguous member
    // rows gather back to the rows the in-core run wrote.
    TempDir dir("cell_stream");
    auto store = runner.create_slab_store(dir.path(), input);
    runner.run_streamed(*store, ItscsConfig{});
    EXPECT_TRUE(streamed_matches_aggregate(*store, fleet.aggregate));
}

// ---- float32 storage at the fast tier -------------------------------------

// Relative Frobenius deviation of `got` from the `want` reference.
double relative_frobenius(const Matrix& got, const Matrix& want) {
    double num = 0.0;
    double den = 0.0;
    const auto g = got.data();
    const auto w = want.data();
    for (std::size_t k = 0; k < w.size(); ++k) {
        num += (g[k] - w[k]) * (g[k] - w[k]);
        den += w[k] * w[k];
    }
    return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

// A streamed run's reconstruction, reassembled into fleet-shaped matrices.
struct StreamedFleet {
    Matrix rx;
    Matrix ry;
    std::vector<std::uint32_t> crcs;
};

StreamedFleet streamed_fleet(StorageTier storage, std::size_t threads) {
    const ItscsInput input = fleet_input();
    TempDir dir(storage == StorageTier::kF64 ? "fast64" : "fast32");
    RuntimeConfig config = runtime_config(threads);
    config.kernel_tier = KernelTier::kFast;
    config.storage = storage;
    FleetRunner runner(config);
    auto store = runner.create_slab_store(dir.path(), input);
    runner.run_streamed(*store, ItscsConfig{});

    SlabOutputs outputs = gather_outputs(*store);
    StreamedFleet out{std::move(outputs.reconstructed_x),
                      std::move(outputs.reconstructed_y), {}};
    for (std::size_t s = 0; s < store->shards().size(); ++s) {
        out.crcs.push_back(store->output_crc(s));
    }
    return out;
}

// The out-of-core benchmark path: f32 slabs, fast kernels, run_streamed.
// Its output is bit-identical at any thread count, and the one float
// rounding per stored element keeps the reconstruction within 1e-3
// (relative Frobenius) of the same run on f64 slabs.
TEST(RuntimeScaleTest, F32SlabsAtFastTierAreThreadStableAndNearF64) {
    const StreamedFleet f64 = streamed_fleet(StorageTier::kF64, 1);
    const StreamedFleet one = streamed_fleet(StorageTier::kF32, 1);
    for (const std::size_t threads : {2u, 7u}) {
        const StreamedFleet many = streamed_fleet(StorageTier::kF32, threads);
        EXPECT_EQ(many.crcs, one.crcs) << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(many.rx, one.rx)) << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(many.ry, one.ry)) << "threads=" << threads;
    }
    // f32 storage really rounds: a bit-identical result would mean the
    // comparison below checks nothing.
    EXPECT_FALSE(bitwise_equal(one.rx, f64.rx));
    EXPECT_LE(relative_frobenius(one.rx, f64.rx), 1e-3);
    EXPECT_LE(relative_frobenius(one.ry, f64.ry), 1e-3);
}

}  // namespace
}  // namespace mcs
