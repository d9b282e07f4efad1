// The benchmark's three workloads. Each fills run.out with every
// end-to-end metric, and, on a traced run, every per-layer metric of the
// layers it exercises. README.md says why each workload exists.
#pragma once

#include "util.hpp"

namespace itscs_bench {

/// 632×240 fleets, i.i.d. faults, 4 shards of 158, fast tier, in-core
/// FleetRunner::run at T threads, and the same shards at 1 thread.
void run_batch_fleet(Run& run);

/// Open-loop replay of a 158-participant trace through a live
/// IngestDaemon (journal on, defence armed, warm start, exact tier).
void run_serve_stream(Run& run);

/// 8000×48 fleet in 32 seeded blocks, slab-stored as f32, cleaned by
/// run_streamed under a memory budget with per-shard checkpoints.
void run_outofcore_stream(Run& run);

}  // namespace itscs_bench
