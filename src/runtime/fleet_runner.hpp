// FleetRunner — shard-parallel execution of the I(TS,CS) framework.
//
// The paper evaluates one 158 x 240 matrix; a production fleet is orders
// of magnitude taller. Participants decompose into shards (ShardPlan) that
// detect/correct independently, so the runner executes run_itscs once per
// shard across a ThreadPool and stitches the results back together.
//
// One shard loop (DESIGN.md §10): run() slices shards out of the fleet
// input and journals their result rows; run_streamed() reads them from a
// SlabStore and journals only each output slab's CRC (DESIGN.md §18). Both
// hand that shard I/O to one private loop, which seeds, restores,
// schedules, walks the ladder, commits and merges.
//
// Determinism contract: shard boundaries, not scheduling order, define the
// numerics. Each shard's PipelineContext seed is drawn from a root RNG *by
// shard index* on the calling thread, each worker owns a private Workspace
// arena, and shard contexts merge into the caller's in shard order after
// the joining barrier. For a fixed RuntimeConfig (minus `threads`) the
// output is bit-identical at any thread count, equal to running run_itscs
// over each shard sequentially, and (on f64 slabs) equal in and out of
// core.
//
// Fault isolation (DESIGN.md §11): with guards on, a failed shard walks
// the degradation ladder (nominal → conservative retry → per-row linear
// interpolation → detect-only) instead of failing the fleet, so the merged
// result is always finite, with the failure recorded per shard. Healthy
// shards are bit-identical to a guards-off run.
//
// Crash safety (DESIGN.md §12): with checkpoint_dir set, every completed
// shard is journaled as it finishes and `resume` restores intact shards
// instead of re-running them; the shard-indexed seeds make restored rows
// equal recomputed ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/failure.hpp"
#include "core/itscs.hpp"
#include "core/streaming.hpp"
#include "corruption/adversary.hpp"
#include "defense/defense.hpp"
#include "linalg/kernels.hpp"
#include "persist/slab_store.hpp"
#include "runtime/shard_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/work_steal.hpp"

namespace mcs {

class ChaosInjector;
class ShardIo;
struct CheckpointManifest;

/// Knobs of the runtime subsystem (CLI: --threads / --shard-size /
/// --kernel-threads).
struct RuntimeConfig {
    /// Shard worker threads. 0 = effective CPUs (the sched_getaffinity
    /// mask via common/topology.hpp — not hardware_concurrency, which
    /// overcounts when the process is pinned); 1 = run shards inline on
    /// the caller (no pool). Never affects results.
    std::size_t threads = 1;

    /// Participants per shard (0 = derive from shard_count). Part of the
    /// numerics: changing it changes the block decomposition.
    std::size_t shard_size = 0;

    /// Shard count when shard_size == 0. 0 = one shard per resolved
    /// worker thread. NOTE: this default couples the decomposition to the
    /// machine — set shard_size or shard_count explicitly whenever
    /// reproducibility across machines matters.
    std::size_t shard_count = 0;

    ShardRemainder remainder = ShardRemainder::kSpread;

    /// Shard decomposition mode (CLI: --planner). kRows keeps the
    /// contiguous row planners above; kCell groups participants by the
    /// spatial cell of their mean observed position
    /// (ShardPlan::by_cell, target size = the resolved shard size), so
    /// neighbouring shards are spatial neighbours and a city decomposes
    /// along its geography. Part of the numerics — a different planner
    /// is a different block decomposition — so it is named in the
    /// checkpoint manifest and refused on resume mismatch.
    PlannerMode planner = PlannerMode::kRows;

    /// Row-blocked kernel parallelism (KernelParallelScope) during run():
    /// <= 1 is off. Pays off on the sequential path (threads == 1) with
    /// tall shards; shard workers always run their kernels inline.
    std::size_t kernel_threads = 1;

    /// Numerical kernel tier for every shard (CLI: --tier). kExact (the
    /// default) keeps the bit-identical scalar loops; kFast dispatches the
    /// GEMM-shaped kernels to SIMD micro-kernels (see
    /// linalg/kernel_tier.hpp). Part of the numerics, so it is covered by
    /// the checkpoint handshake: a --resume never mixes tiers.
    KernelTier kernel_tier = KernelTier::kExact;

    /// Recovery-solver backend for every shard (CLI: --solver). Applied to
    /// the ItscsConfig when the latter keeps the default backend, so the
    /// knob can be set on either side. Part of the numerics and therefore
    /// covered by the checkpoint handshake (an explicit manifest field,
    /// like kernel_tier): a --resume never mixes backends. The health
    /// guards, degradation ladder and chaos seams apply to any backend —
    /// a failed LRSD shard walks the same conservative → interpolation →
    /// detect-only rungs (the conservative rung's rank/λ₁/iteration
    /// overrides bind to whichever backend is active).
    SolverKind solver = SolverKind::kAsd;

    /// Element representation of the out-of-core slab store
    /// (create_slab_store; CLI: --storage). kF32 halves slab bytes: each
    /// element is rounded to float once on write and widened back to
    /// double on read, so every kernel still runs in float64.
    /// Part of the numerics (one rounding per ingested element), named in
    /// the checkpoint manifest and refused on resume mismatch.
    StorageTier storage = StorageTier::kF64;

    /// Resident-memory budget in MiB for run_streamed (CLI:
    /// --memory-budget); 0 = unchecked. The streamer refuses a budget
    /// below resident_window_bytes() instead of quietly thrashing. That
    /// window leaves out solver scratch, so it does not cap RSS
    /// (BENCH_scale.json: 105.9 MB peak against a 64.5 MB window).
    std::size_t memory_budget_mb = 0;

    /// Runtime override of the kernel row-block threshold (CLI:
    /// --row-block-threshold); 0 keeps kKernelRowBlockThreshold. Pure
    /// scheduling — never affects results — so it is excluded from the
    /// checkpoint fingerprint, like `threads`.
    std::size_t kernel_row_block_threshold = 0;

    /// Root seed; shard i's PipelineContext is seeded with the i-th draw
    /// of Rng(seed), independent of thread count.
    std::uint64_t seed = 0x17c5u;

    /// Numeric health guards + the degradation ladder. When false the
    /// pre-guard behaviour returns: no monitors, strict fleet-wide input
    /// validation, and the first shard exception propagates out of run().
    bool guard = true;

    /// Guard thresholds (divergence patience/slack, per-shard deadline).
    /// The deadline applies per *attempt* — a retried shard gets a fresh
    /// budget for its conservative attempt.
    HealthConfig health;

    /// Optional fault injector (tests and `--chaos`); borrowed, must
    /// outlive every run(). Chaos only strikes the nominal attempt, so the
    /// ladder's lower rungs always see an injector-free world.
    const ChaosInjector* chaos = nullptr;

    /// Optional structured adversary (tests and `--adversary`, DESIGN.md
    /// §16); borrowed, must outlive every run(). Unlike chaos — which
    /// strikes per shard, inside the workers — the adversary transforms
    /// the *fleet* input once, on the calling thread, before sharding:
    /// collusion and replay are cross-participant by construction and must
    /// not depend on shard boundaries. Part of the numerics, so it is
    /// mixed into the checkpoint runtime fingerprint when non-idle; a
    /// null or idle injector leaves the run bit-identical to before.
    const AdversaryInjector* adversary = nullptr;

    /// Optional defence suite (tests and `--defense`, DESIGN.md §17);
    /// borrowed, must outlive every run(). Like the adversary — and unlike
    /// chaos — it sees the *fleet*, on the calling thread, before
    /// sharding: its consistency tests are cross-participant by
    /// construction. A non-empty quarantine extends the degradation
    /// ladder with a fleet-level rung: quarantine → re-solve without the
    /// flagged rows → re-test against the honest reconstruction →
    /// reinstate or confirm. Part of the numerics, so the spec is mixed
    /// into the checkpoint runtime fingerprint when non-idle; a null or
    /// idle suite leaves the run bit-identical to before.
    const DefenseSuite* defense = nullptr;

    /// Directory for the durable checkpoint (manifest + shard journal, see
    /// persist/checkpoint.hpp); empty = checkpointing off. Created on
    /// first use. Each completed shard is committed as one CRC-framed
    /// journal record, at whatever degradation level it finished.
    std::string checkpoint_dir;

    /// With checkpoint_dir set: verify the stored manifest against this
    /// run (input/config/runtime fingerprints and the shard plan — any
    /// mismatch throws), restore every intact journaled shard, and re-run
    /// only the missing or corrupt ones. The combined result is
    /// bit-identical to an uninterrupted run. When false (or when no
    /// manifest exists yet) the directory is reset and a fresh journal
    /// started.
    bool resume = false;
};

/// Outcome of one shard's framework run.
struct ShardRunReport {
    Shard shard;
    std::uint64_t seed = 0;       ///< the shard context's derived seed
    std::size_t iterations = 0;
    bool converged = false;       ///< false whenever the shard degraded
    /// Rung of the degradation ladder that produced this shard's rows.
    DegradationLevel level = DegradationLevel::kNominal;
    /// Ladder rungs tried, including the one that succeeded (1 = nominal).
    std::size_t attempts = 1;
    /// One report per failed rung, in ladder order. Empty on a clean run.
    std::vector<FailureReport> failures;
};

/// Checkpoint activity of one run (default state when checkpointing off).
struct CheckpointSummary {
    bool enabled = false;
    std::size_t shards_loaded = 0;   ///< restored from the journal, not run
    std::size_t shards_run = 0;      ///< executed (and committed) this run
    /// Journal frames dropped: CRC failure, undecodable payload, or a
    /// record contradicting the recomputed plan/seeds. Each costs a re-run
    /// of its shard, never correctness.
    std::size_t corrupt_frames = 0;
    bool torn_tail = false;          ///< journal ended mid-frame (crash)
    /// One kCheckpointCorrupt report per dropped frame / torn tail.
    std::vector<FailureReport> journal_failures;
};

/// Fleet-level outcome: the stitched result plus per-shard diagnostics.
struct FleetResult {
    /// detection / reconstructed_x / reconstructed_y are fleet-sized
    /// (rows stitched from the shards); iterations is the max over
    /// shards, converged the conjunction, and history the per-iteration
    /// sum over shards (flagged cells, changes, objectives).
    ItscsResult aggregate;
    std::vector<ShardRunReport> shards;
    CheckpointSummary checkpoint;
    /// Ground truth of the adversary injection (empty mask when
    /// RuntimeConfig::adversary is null or idle). The aggregate's
    /// detection can be scored against this mask directly.
    AdversaryInjection adversary;
    /// Outcome of the defence pass (default state when
    /// RuntimeConfig::defense is null or idle): flags, quarantine and its
    /// reinstate/confirm split, classified outage blocks. The aggregate's
    /// `quarantined` holds the confirmed subset.
    DefenseReport defense;
    /// Work-stealing totals of the final solve — diagnostic only
    /// (scheduling-dependent; never part of the bit-identity contract).
    StealStats steals;
};

/// Shard-parallel driver around run_itscs. Owns its worker pool and one
/// Workspace arena per worker; reusable across runs (long-lived workers
/// recycle their arenas within a run and the runner clear()s them after
/// every barrier, so steady-state memory is bounded by the largest
/// in-flight window, not the all-time peak).
class FleetRunner {
public:
    explicit FleetRunner(RuntimeConfig config = {});
    ~FleetRunner();

    FleetRunner(const FleetRunner&) = delete;
    FleetRunner& operator=(const FleetRunner&) = delete;

    /// Run the framework shard-by-shard. A non-null `ctx` receives the
    /// merged counters and phase timers of every shard context (summed —
    /// phase seconds aggregate CPU-style across workers, so they can
    /// exceed wall time), merged in shard order after the barrier,
    /// including the guard counters (guard_trips / shard_retries /
    /// shards_degraded). With guards on, input shapes are validated
    /// fleet-wide but the finite-value scan runs per shard, so one
    /// poisoned cell degrades one shard instead of throwing for the
    /// whole fleet.
    FleetResult run(const ItscsInput& input, const ItscsConfig& config,
                    PipelineContext* ctx = nullptr);

    /// Same, with streaming warm-start state (DESIGN.md §15). A non-null
    /// `warm` holds one ItscsWarmStart per shard (resized to the plan on
    /// entry; a size mismatch simply cold-starts every shard): each
    /// shard's nominal attempt seeds its CORRECT solves from its entry,
    /// and after the barrier the entry is replaced by the shard's final
    /// factors — or cleared when the shard degraded, so a degraded window
    /// never seeds the next one. Factors are per-shard (shard-local L, own
    /// R), so the aggregate's factors_x/factors_y stay empty — fleet-wide
    /// factors cannot be stitched from per-shard decompositions.
    /// Refused alongside checkpoint_dir: journaled shard records do not
    /// carry warm factors, so a resumed run could not reproduce them.
    FleetResult run(const ItscsInput& input, const ItscsConfig& config,
                    WarmStartState* warm, PipelineContext* ctx = nullptr);

    /// Stream every shard of an out-of-core slab store through the
    /// I(TS,CS) pipeline (DESIGN.md §18): inputs are staged per shard
    /// from the store's mmap, results written to its output slabs, and
    /// each shard's pages dropped after its commit — resident memory is
    /// the in-flight window, not the fleet. The returned FleetResult has
    /// per-shard reports, checkpoint and steal diagnostics but EMPTY
    /// aggregate matrices: results stay in the store (gather_outputs).
    ///
    /// The store's own plan is authoritative (the runner's planner knobs
    /// shaped it at create_slab_store time). Journal records carry the
    /// output slab's CRC instead of the rows (outputs_in_slab); resume
    /// re-checks it, so a torn slab re-runs its shard. Refuses a non-idle
    /// adversary or defence (both transform the fleet in memory) and a
    /// memory budget below resident_window_bytes(). With
    /// StorageTier::kF64 the result equals the in-core run of the same
    /// plan at any thread count.
    FleetResult run_streamed(SlabStore& store, const ItscsConfig& config,
                             PipelineContext* ctx = nullptr);

    /// The shard decomposition run() will use for a fleet of
    /// `participants` rows. PlannerMode::kCell needs the input positions
    /// — use the input-aware overload; this one throws under kCell.
    ShardPlan plan_for(std::size_t participants) const;

    /// Input-aware decomposition: ShardPlan::by_cell under
    /// PlannerMode::kCell (target size = resolved shard size), the row
    /// planners otherwise.
    ShardPlan plan_for(const ItscsInput& input) const;

    /// Lay out and ingest a slab store for `input` under this runner's
    /// plan and RuntimeConfig::storage tier, shard by shard. The in-core
    /// input here is a convenience for CLI/test scale; the scale
    /// harness ingests synthetic shards directly through SlabStore so
    /// the fleet never materialises.
    std::unique_ptr<SlabStore> create_slab_store(
        const std::string& dir, const ItscsInput& input) const;

    /// Slab and staging bytes run_streamed keeps resident per worker: the
    /// computing slab pair, the prefetched next input slab, and the f64
    /// staging arena. The value --memory-budget is checked against (and
    /// the CLI report's resident-window line). Not counted: each worker's
    /// solver scratch and the process baseline, so RSS runs above it.
    std::size_t resident_window_bytes(const SlabGeometry& geometry) const;

    /// Worker threads the runner resolved (>= 1).
    std::size_t threads() const { return threads_; }

    const RuntimeConfig& config() const { return config_; }

    /// Adapter for StreamingDetector: evaluates each window shard-
    /// concurrently through this runner. The runner must outlive every
    /// detector holding the hook.
    WindowEvaluator window_evaluator();

private:
    /// The defence rung around run_in_core: analyze → (when the quarantine
    /// is non-empty) honest re-solve → re-test → final solve without the
    /// confirmed rows. `input` is post-adversary. With a null/idle defence
    /// this is exactly one run_in_core call — the clean path is untouched.
    FleetResult run_defended(const ItscsInput& input,
                             const ItscsConfig& base_config,
                             WarmStartState* warm, PipelineContext* ctx);

    /// In-core staging around run_shards; `input` is post-adversary and
    /// post-quarantine. `allow_checkpoint` gates the journal: only the
    /// *final* solve of a defended run checkpoints (the honest solve is
    /// deterministic and recomputed on resume).
    FleetResult run_in_core(const ItscsInput& input, const ItscsConfig& config,
                            WarmStartState* warm, PipelineContext* ctx,
                            bool allow_checkpoint = true);

    /// The one shard loop behind run() and run_streamed(): seeds and
    /// contexts by shard index, manifest handshake and journal restore,
    /// work-stealing schedule, degradation ladder, commit, and the
    /// shard-order merge after the barrier. `io` stages rows and stores
    /// results; `t` is the slot count; `journal` holds the manifest fields
    /// only the caller knows (null = no checkpoint); `warm` as in run().
    FleetResult run_shards(const std::vector<Shard>& shards, std::size_t t,
                           ShardIo& io, const ItscsConfig& base_config,
                           const CheckpointManifest* journal,
                           WarmStartState* warm, PipelineContext* ctx);

    RuntimeConfig config_;
    std::size_t threads_ = 1;
    std::unique_ptr<ThreadPool> pool_;        // null when threads_ == 1
    std::vector<Workspace> workspaces_;       // one per worker (>= 1)
};

}  // namespace mcs
