// The two shard-I/O paths of FleetRunner's one shard loop, as a gtest
// parameter: in core (FleetRunner::run) and out of core on f64 slabs
// (FleetRunner::run_streamed). For the same plan both must produce
// bit-identical outputs and the same ladder level and attempt count per
// shard — checkpointed, resumed and under chaos alike.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "persist/slab_store.hpp"
#include "runtime/fleet_runner.hpp"

namespace mcs {

enum class FleetPath { kInCore, kSlabF64 };

inline std::string fleet_path_name(
    const testing::TestParamInfo<FleetPath>& info) {
    return info.param == FleetPath::kInCore ? "InCore" : "SlabF64";
}

// A slab directory under the system temp dir, removed on destruction.
class SlabDir {
public:
    SlabDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("mcs_fleet_path_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        std::filesystem::remove_all(dir_);
    }
    ~SlabDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

private:
    std::filesystem::path dir_;
};

// Run `input` through `path` on a fresh runner. The slab path lays out a
// store in `slab_dir`, or re-opens the one there on resume (as the CLI
// does, so a torn slab re-runs), and gathers the output slabs into the
// aggregate so callers compare both paths alike.
inline FleetResult run_fleet_path(FleetPath path, RuntimeConfig config,
                                  const ItscsInput& input,
                                  const std::string& slab_dir,
                                  PipelineContext* ctx = nullptr) {
    config.storage = StorageTier::kF64;
    FleetRunner runner(config);
    if (path == FleetPath::kInCore) {
        return runner.run(input, ItscsConfig{}, ctx);
    }
    std::unique_ptr<SlabStore> store =
        config.resume && std::filesystem::exists(slab_dir + "/slabs.meta")
            ? std::make_unique<SlabStore>(slab_dir)
            : runner.create_slab_store(slab_dir, input);
    FleetResult fleet = runner.run_streamed(*store, ItscsConfig{}, ctx);
    SlabOutputs out = gather_outputs(*store);
    fleet.aggregate.detection = std::move(out.detection);
    fleet.aggregate.reconstructed_x = std::move(out.reconstructed_x);
    fleet.aggregate.reconstructed_y = std::move(out.reconstructed_y);
    return fleet;
}

// Same levels and attempts per shard as `reference`.
inline void expect_same_ladder(const FleetResult& got,
                               const FleetResult& reference) {
    ASSERT_EQ(got.shards.size(), reference.shards.size());
    for (std::size_t s = 0; s < got.shards.size(); ++s) {
        EXPECT_EQ(got.shards[s].level, reference.shards[s].level)
            << "shard " << s;
        EXPECT_EQ(got.shards[s].attempts, reference.shards[s].attempts)
            << "shard " << s;
    }
}

}  // namespace mcs
