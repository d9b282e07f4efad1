#include "runtime/fleet_runner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/topology.hpp"
#include "corruption/chaos.hpp"
#include "cs/interpolation.hpp"
#include "detect/detection.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/temporal.hpp"
#include "persist/checkpoint.hpp"
#include "runtime/kernel_parallel.hpp"

namespace mcs {

namespace {

std::size_t resolve_threads(std::size_t requested) {
    if (requested != 0) {
        return requested;
    }
    // Effective CPUs (the sched_getaffinity mask), not
    // hardware_concurrency: a pinned or containerised process sizing
    // itself to the machine oversubscribes its own allowance.
    return effective_cpu_count();
}

// The runtime-knob half of the checkpoint resume handshake (the other two
// fingerprints — input bytes and ItscsConfig — live in core). Covers every
// RuntimeConfig field that can change the merged numerics or the failure
// record. Deliberately excluded: threads / kernel_threads (never affect
// results), shard_size / shard_count / remainder (the manifest stores the
// *resolved* plan row ranges, which is the stronger check), checkpoint_dir
// and resume themselves, health.deadline_seconds (wall-clock and therefore
// machine-dependent; a deadline trip is already recorded in the journaled
// shard record), and chaos crash_after_commits (the crash seam must not
// stop a clean `--resume` from accepting the crashed run's manifest).
std::uint64_t runtime_fingerprint(const RuntimeConfig& config) {
    Fnv1a h;
    h.mix_u64(config.seed);
    h.mix_u64(config.guard ? 1 : 0);
    // kernel_tier changes the numerics and is *also* stored as an explicit
    // manifest field (clearer refusal message than a fingerprint mismatch).
    h.mix_u64(static_cast<std::uint64_t>(config.kernel_tier));
    h.mix_u64(config.health.divergence_patience);
    h.mix_f64(config.health.divergence_slack);
    if (config.chaos != nullptr && !config.chaos->config().idle()) {
        const ChaosConfig& c = config.chaos->config();
        h.mix_f64(c.nan_velocity);
        h.mix_f64(c.inf_coordinate);
        h.mix_f64(c.duplicate_rows);
        h.mix_f64(c.force_divergence);
        h.mix_f64(c.task_throw);
        h.mix_f64(c.cell_fraction);
        h.mix_u64(c.seed);
    }
    // The adversary rewrites the fleet input before sharding, so the input
    // fingerprint already covers its *effect* — but mixing the spec too
    // gives a resume refusal that names the real cause (a changed spec)
    // instead of a generic input mismatch.
    if (config.adversary != nullptr && !config.adversary->spec().idle()) {
        const AdversarySpec& a = config.adversary->spec();
        h.mix_u64(a.collude);
        h.mix_u64(a.outage);
        h.mix_u64(a.outage_span);
        h.mix_f64(a.outage_noise_m);
        h.mix_u64(a.replay);
        h.mix_u64(a.replay_shift);
        h.mix_u64(a.seed);
    }
    // The defence decides which rows' observations reach the final solve,
    // so a journal written under one spec must not seed a run under
    // another — resume recomputes analyze() + the honest solve and then
    // restores the final solve's shards, which is only sound when the
    // recomputed quarantine matches the journaled one.
    if (config.defense != nullptr && !config.defense->spec().idle()) {
        const DefenseSpec& d = config.defense->spec();
        h.mix_f64(d.collusion);
        h.mix_f64(d.radius);
        h.mix_f64(d.replay);
        h.mix_u64(d.replay_span);
        h.mix_u64(d.outage);
        h.mix_u64(d.outage_span);
        h.mix_f64(d.reinstate);
        h.mix_f64(d.max_quarantine);
    }
    return h.digest();
}

// Ladder rung 1's solver settings: heavier regularisation, half the rank,
// twice the iteration budget — trade reconstruction fidelity for the best
// odds of a finite, convergent solve on data that already failed once.
ItscsConfig conservative_config(const ItscsConfig& config, std::size_t rows,
                                std::size_t cols) {
    ItscsConfig c = config;
    c.cs.lambda1 = std::max(config.cs.lambda1 * 100.0, 1e-3);
    const std::size_t base = config.cs.rank > 0
                                 ? config.cs.rank
                                 : recommended_rank(rows, cols,
                                                    config.cs.mode);
    c.cs.rank = std::max<std::size_t>(2, base / 2);
    c.cs.asd.max_iterations = config.cs.asd.max_iterations * 2;
    return c;
}

// The five input matrices of a fleet or shard input, in slab order
// (S_X, S_Y, Vx, Vy, ℰ).
template <typename Input>
auto input_matrices(Input& in) {
    return std::array{&in.sx, &in.sy, &in.vx, &in.vy, &in.existence};
}

// Clear ℰ on every observed cell where any of the four matrices is
// non-finite and zero the cell everywhere, so the retry solves a strictly
// smaller but well-posed problem. Returns the number of cells cleared.
std::size_t sanitize_non_finite(ItscsInput& in) {
    std::size_t cleared = 0;
    for (std::size_t i = 0; i < in.existence.rows(); ++i) {
        for (std::size_t j = 0; j < in.existence.cols(); ++j) {
            if (in.existence(i, j) == 0.0) {
                continue;
            }
            if (!std::isfinite(in.sx(i, j)) || !std::isfinite(in.sy(i, j)) ||
                !std::isfinite(in.vx(i, j)) || !std::isfinite(in.vy(i, j))) {
                for (Matrix* m : input_matrices(in)) {
                    (*m)(i, j) = 0.0;
                }
                ++cleared;
            }
        }
    }
    return cleared;
}

// Copy the shard's member rows of `src` into the shard-sized `dst` —
// contiguous [begin, end) for row plans, the explicit member list for
// by_cell shards.
void slice_rows(Matrix& dst, const Matrix& src, const Shard& shard) {
    const std::size_t rows = shard.size();
    for (std::size_t k = 0; k < rows; ++k) {
        const auto in = src.row(shard.row_at(k));
        auto out = dst.row(k);
        std::copy(in.begin(), in.end(), out.begin());
    }
}

// Copy the shard-sized `src` back into the shard's member rows of the
// fleet-sized `dst`. Shards are disjoint row sets, so concurrent scatters
// from different workers touch disjoint memory.
void scatter_rows(Matrix& dst, const Matrix& src, const Shard& shard) {
    const std::size_t rows = shard.size();
    for (std::size_t k = 0; k < rows; ++k) {
        const auto in = src.row(k);
        auto out = dst.row(shard.row_at(k));
        std::copy(in.begin(), in.end(), out.begin());
    }
}

// Remove the listed participants' observations: their rows stay in the
// fleet (the shard plan must not move) but contribute no trusted cells to
// any solve.
void mask_rows(ItscsInput& input, const std::vector<std::size_t>& rows) {
    for (const std::size_t i : rows) {
        for (Matrix* m : input_matrices(input)) {
            std::fill(m->row(i).begin(), m->row(i).end(), 0.0);
        }
    }
}

// Missing-not-faulty: clear detection flags on the dark cells of every
// classified outage block, so an availability incident is never charged
// against detection precision.
void apply_outage_labels(Matrix& detection, const Matrix& existence,
                         const DefenseReport& report) {
    for (const OutageBlock& block : report.outages) {
        const std::size_t row_end =
            std::min(detection.rows(), block.first_row + block.rows);
        const std::size_t col_end =
            std::min(detection.cols(), block.first_slot + block.slots);
        for (std::size_t i = block.first_row; i < row_end; ++i) {
            for (std::size_t j = block.first_slot; j < col_end; ++j) {
                if (existence(i, j) == 0.0) {
                    detection(i, j) = 0.0;
                }
            }
        }
    }
}

// Everything between "staged shard input ready" and "shard result ready":
// the unguarded single solve, or the guarded degradation ladder of
// DESIGN.md §11 (nominal → conservative → interpolation → detect-only).
// Called once per shard by the one shard loop, whichever ShardIo staged the
// input, so in-core and out-of-core runs are bit-identical by
// construction. `si` is the shard's staged input — mutated by chaos and
// sanitisation — and `sctx` its private context.
void run_shard_ladder(const RuntimeConfig& rcfg, const ItscsConfig& config,
                      std::size_t s, ItscsInput& si, PipelineContext& sctx,
                      const ItscsWarmStart* warm_seed,
                      ShardRunReport& report, ItscsResult& result) {
    const std::size_t rows = si.sx.rows();
    const std::size_t t = si.sx.cols();

    if (!rcfg.guard) {
        result = run_itscs(si, config, {}, &sctx, warm_seed);
        report.iterations = result.iterations;
        report.converged = result.converged;
        return;
    }

    // Chaos strikes before the first attempt only: the ladder's lower
    // rungs recover from the poisoned state, they are not re-poisoned.
    ShardChaosPlan chaos_plan;
    if (rcfg.chaos != nullptr) {
        chaos_plan = rcfg.chaos->plan(s);
        rcfg.chaos->apply(chaos_plan, si.sx, si.sy, si.vx, si.vy,
                          si.existence);
    }

    HealthMonitor monitor(rcfg.health);

    // Strict per-shard input scan under the monitor (the fleet boundary
    // only checked shapes).
    auto scan_input = [&]() {
        const struct {
            const Matrix* m;
            const char* name;
        } mats[] = {{&si.sx, "S_X"},
                    {&si.sy, "S_Y"},
                    {&si.vx, "Vx"},
                    {&si.vy, "Vy"}};
        for (const auto& entry : mats) {
            const auto hit = find_non_finite(*entry.m, si.existence);
            if (hit.has_value()) {
                monitor.fail(FailureKind::kNonFiniteInput, "validate", 0,
                             std::string(entry.name) +
                                 " non-finite at row " +
                                 std::to_string(hit->first) + ", col " +
                                 std::to_string(hit->second));
                return false;
            }
        }
        return true;
    };

    // One guarded solver attempt. No exception leaves this lambda:
    // anything thrown becomes a kTaskException report, so the pool
    // worker never unwinds.
    auto solve = [&](const ItscsConfig& cfg, bool first_attempt) {
        monitor.arm(s);
        if (first_attempt && chaos_plan.diverge_after > 0) {
            monitor.inject_failure(FailureKind::kObjectiveDivergence,
                                   chaos_plan.diverge_after);
        }
        sctx.set_health(&monitor);
        try {
            if (first_attempt && chaos_plan.throw_task) {
                throw Error("chaos: injected task failure");
            }
            if (scan_input()) {
                // Warm factors seed the nominal attempt only: the
                // conservative rung runs at a different rank, so they
                // could not match anyway.
                result = run_itscs(si, cfg, {}, &sctx,
                                   first_attempt ? warm_seed : nullptr);
            }
        } catch (const std::exception& e) {
            monitor.fail(FailureKind::kTaskException, "run_itscs", 0,
                         e.what());
        } catch (...) {
            monitor.fail(FailureKind::kTaskException, "run_itscs", 0,
                         "non-standard exception");
        }
        sctx.set_health(nullptr);
        return !monitor.tripped();
    };

    auto record_failure = [&]() {
        report.failures.push_back(monitor.report());
        sctx.counters().guard_trips += 1;
    };

    // Rung 2: no solver at all — per-row linear interpolation over the
    // sanitized trusted cells, finite by construction.
    auto interpolate_fallback = [&]() {
        monitor.arm(s);
        try {
            result = ItscsResult{};
            result.detection = Matrix(rows, t);
            result.reconstructed_x = linear_interpolate(si.sx, si.existence);
            result.reconstructed_y = linear_interpolate(si.sy, si.existence);
            return true;
        } catch (const std::exception& e) {
            monitor.fail(FailureKind::kTaskException, "interpolate", 0,
                         e.what());
            return false;
        }
    };

    // Rung 3, cannot fail: pass the sanitized readings through untouched
    // and salvage one plain DETECT pass if it runs.
    auto detect_only_fallback = [&]() {
        result = ItscsResult{};
        result.reconstructed_x = si.sx;
        result.reconstructed_y = si.sy;
        try {
            const Matrix zeros(rows, t);
            const auto detect = [&](const Matrix& pos, const Matrix& vel) {
                return ts_detect(pos, zeros, average_velocity(vel),
                                 Matrix::constant(rows, t, 1.0), si.existence,
                                 si.tau_s, config.detector, true, &sctx);
            };
            const Matrix dx = detect(si.sx, si.vx);
            result.detection = detection_union(dx, detect(si.sy, si.vy));
        } catch (const std::exception&) {
            result.detection = Matrix(rows, t);
        }
    };

    // Walk the ladder until a rung holds.
    DegradationLevel level = DegradationLevel::kNominal;
    bool ok = solve(config, true);
    if (!ok) {
        record_failure();
        sanitize_non_finite(si);
        sctx.counters().shard_retries += 1;
        level = DegradationLevel::kConservative;
        ++report.attempts;
        ok = solve(conservative_config(config, rows, t), false);
    }
    if (!ok) {
        record_failure();
        level = DegradationLevel::kInterpolation;
        ++report.attempts;
        ok = interpolate_fallback();
    }
    if (!ok) {
        record_failure();
        level = DegradationLevel::kDetectOnly;
        ++report.attempts;
        detect_only_fallback();
    }

    if (level != DegradationLevel::kNominal) {
        sctx.counters().shards_degraded += 1;
    }
    report.level = level;
    report.iterations = result.iterations;
    report.converged =
        level == DegradationLevel::kNominal && result.converged;
}

// Fleet-wide diagnostics after the barrier: iterations is the slowest
// shard, converged the conjunction, and history[k] the sum over shards of
// each shard's state after framework iteration k+1. A shard that already
// converged (or stopped) holds its last state — its flagged cells and CS
// objectives still count, with no detection changes — so every entry
// describes the whole fleet and history.back().flagged is the final total.
void merge_fleet_diagnostics(
    ItscsResult& aggregate, const std::vector<ShardRunReport>& shards,
    const std::vector<std::vector<ItscsIterationStats>>& histories) {
    aggregate.converged = true;
    for (const ShardRunReport& report : shards) {
        aggregate.iterations = std::max(aggregate.iterations,
                                        report.iterations);
        aggregate.converged = aggregate.converged && report.converged;
    }
    aggregate.history.resize(aggregate.iterations);
    for (std::size_t k = 0; k < aggregate.iterations; ++k) {
        ItscsIterationStats& merged = aggregate.history[k];
        merged.iteration = k + 1;
        for (const auto& history : histories) {
            if (history.empty()) {
                continue;
            }
            const bool live = k < history.size();
            const ItscsIterationStats& state =
                live ? history[k] : history.back();
            merged.flagged += state.flagged;
            if (live) {
                merged.detection_changes += state.detection_changes;
            }
            merged.cs_objective_x += state.cs_objective_x;
            merged.cs_objective_y += state.cs_objective_y;
        }
    }
}

}  // namespace

// The shard-I/O seam of the one shard loop (FleetRunner::run_shards): an
// in-core and an out-of-core fleet differ only in where a shard's rows come
// from, where its result goes, and what its journal record carries. Calls
// for different shards run concurrently; shards own disjoint rows and slabs.
class ShardIo {
public:
    virtual ~ShardIo() = default;
    /// Fill `staged` (matrices acquired at the shard's shape) with the
    /// shard's input rows and the fleet's tau_s.
    virtual void read(const Shard& shard, ItscsInput& staged) = 0;
    /// Advice: shard `s` is this worker's next one.
    virtual void prefetch(std::size_t /*s*/) {}
    /// Store the shard's result; with a journal (`record` non-null), also
    /// fill the record's payload: the result rows, or where they went.
    virtual void write(const Shard& shard, const ItscsResult& result,
                       PipelineContext& sctx, ShardCheckpoint* record) = 0;
    /// Check a journaled record's payload and, when it holds, restore the
    /// shard's result from it; false = the shard re-runs.
    virtual bool restore(const Shard& shard,
                         const ShardCheckpoint& record) = 0;
    /// The shard is committed: drop what it still holds resident.
    virtual void release(std::size_t /*s*/) {}
};

namespace {

// In-core staging: slice shards out of the fleet input, scatter results
// into fleet-sized matrices, and journal the result rows in full.
class InCoreIo final : public ShardIo {
public:
    explicit InCoreIo(const ItscsInput& input)
        : detection(input.sx.rows(), input.sx.cols()),
          reconstructed_x(input.sx.rows(), input.sx.cols()),
          reconstructed_y(input.sx.rows(), input.sx.cols()),
          input_(input) {}

    void read(const Shard& shard, ItscsInput& staged) override {
        const auto dst = input_matrices(staged);
        const auto src = input_matrices(input_);
        for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
            slice_rows(*dst[m], *src[m], shard);
        }
        staged.tau_s = input_.tau_s;
    }

    void write(const Shard& shard, const ItscsResult& result,
               PipelineContext&, ShardCheckpoint* record) override {
        scatter_rows(detection, result.detection, shard);
        scatter_rows(reconstructed_x, result.reconstructed_x, shard);
        scatter_rows(reconstructed_y, result.reconstructed_y, shard);
        if (record != nullptr) {
            record->detection = result.detection;
            record->reconstructed_x = result.reconstructed_x;
            record->reconstructed_y = result.reconstructed_y;
        }
    }

    bool restore(const Shard& shard, const ShardCheckpoint& record) override {
        const auto fits = [&](const Matrix& m) {
            return m.rows() == shard.size() && m.cols() == detection.cols();
        };
        if (record.outputs_in_slab || !fits(record.detection) ||
            !fits(record.reconstructed_x) || !fits(record.reconstructed_y)) {
            return false;
        }
        scatter_rows(detection, record.detection, shard);
        scatter_rows(reconstructed_x, record.reconstructed_x, shard);
        scatter_rows(reconstructed_y, record.reconstructed_y, shard);
        return true;
    }

    /// Fleet-sized results, stitched from the shards.
    Matrix detection;
    Matrix reconstructed_x;
    Matrix reconstructed_y;

private:
    const ItscsInput& input_;
};

// Out-of-core staging (DESIGN.md §18): read each shard from its input slab,
// write its result to its output slab, journal only that slab's CRC, and
// drop the shard's pages once it is committed.
class SlabIo final : public ShardIo {
public:
    explicit SlabIo(SlabStore& store) : store_(store) {}

    void read(const Shard& shard, ItscsInput& staged) override {
        double* mats[kSlabInputMatrices];
        std::ranges::transform(input_matrices(staged), mats,
                               [](Matrix* m) { return m->data().data(); });
        store_.read_inputs(shard.index, mats);
        staged.tau_s = store_.geometry().tau_s;
    }

    // Overlap the next scheduled shard's page-in with this shard's
    // compute; madvise does the rest.
    void prefetch(std::size_t s) override { store_.prefetch_inputs(s); }

    void write(const Shard& shard, const ItscsResult& result,
               PipelineContext& sctx, ShardCheckpoint* record) override {
        sctx.counters().slab_shards_streamed += 1;
        const double* mats[kSlabOutputMatrices] = {
            result.detection.data().data(),
            result.reconstructed_x.data().data(),
            result.reconstructed_y.data().data()};
        store_.write_outputs(shard.index, mats);
        if (record != nullptr) {
            record->outputs_in_slab = true;
            record->output_slab_crc = store_.output_crc(shard.index);
        }
    }

    // The slab must still hold the committed bytes: a torn or lost slab
    // (open() zero-extends) fails the CRC and the shard re-runs — the
    // corrupt-frame discipline, one layer down.
    bool restore(const Shard& shard, const ShardCheckpoint& record) override {
        return record.outputs_in_slab &&
               record.output_slab_crc == store_.output_crc(shard.index);
    }

    void release(std::size_t s) override { store_.evict(s); }

private:
    SlabStore& store_;
};

}  // namespace

FleetRunner::FleetRunner(RuntimeConfig config)
    : config_(config), threads_(resolve_threads(config.threads)) {
    if (config_.shard_size == 0 && config_.shard_count == 0) {
        // The default decomposition is one shard per resolved worker — a
        // machine property, so results move with the hardware. Loud enough
        // to notice, quiet enough not to fail anything.
        std::fprintf(stderr,
                     "itscs: warning: shard plan defaulting to one shard "
                     "per worker thread (%zu); set --shard-size or "
                     "--shard-count for machine-independent results\n",
                     threads_);
    }
    if (threads_ > 1) {
        pool_ = std::make_unique<ThreadPool>(threads_);
    }
    // One arena per worker (the inline path is "worker 0"). Workers are
    // the exclusive owners while a run is in flight; the runner reclaims
    // ownership at the barrier (see run()).
    workspaces_.resize(std::max<std::size_t>(1, threads_));
}

FleetRunner::~FleetRunner() = default;

ShardPlan FleetRunner::plan_for(std::size_t participants) const {
    MCS_CHECK_MSG(config_.planner == PlannerMode::kRows,
                  "FleetRunner::plan_for: the cell planner needs the input "
                  "positions — use the ItscsInput overload");
    if (config_.shard_size > 0) {
        return ShardPlan::by_size(participants, config_.shard_size,
                                  config_.remainder);
    }
    const std::size_t count =
        config_.shard_count > 0 ? config_.shard_count : threads_;
    return ShardPlan::by_count(participants, count, config_.remainder);
}

ShardPlan FleetRunner::plan_for(const ItscsInput& input) const {
    if (config_.planner == PlannerMode::kCell) {
        // The cell planner's target size is the resolved shard size: the
        // explicit knob when set, else the by_count-equivalent balance.
        const std::size_t n = input.sx.rows();
        std::size_t target = config_.shard_size;
        if (target == 0) {
            const std::size_t count =
                config_.shard_count > 0 ? config_.shard_count : threads_;
            target = std::max<std::size_t>(1, (n + count - 1) / count);
        }
        return ShardPlan::by_cell(input.sx, input.sy, input.existence,
                                  target);
    }
    return plan_for(input.sx.rows());
}

FleetResult FleetRunner::run(const ItscsInput& input,
                             const ItscsConfig& config,
                             PipelineContext* ctx) {
    return run(input, config, nullptr, ctx);
}

FleetResult FleetRunner::run(const ItscsInput& input,
                             const ItscsConfig& base_config,
                             WarmStartState* warm, PipelineContext* ctx) {
    // Structured adversary: transform the fleet once, on the calling
    // thread, before any shard boundary exists — collusion and replay are
    // cross-participant, so applying them per shard would change the
    // numerics with the decomposition. The downstream input fingerprint
    // is computed over the transformed matrices, keeping checkpoint
    // resume sound (the same spec re-produces the same bytes).
    if (config_.adversary != nullptr && !config_.adversary->spec().idle()) {
        ItscsInput transformed = input;
        AdversaryInjection injection = config_.adversary->apply(
            transformed.sx, transformed.sy, transformed.vx, transformed.vy,
            transformed.existence, transformed.tau_s);
        FleetResult out = run_defended(transformed, base_config, warm, ctx);
        out.adversary = std::move(injection);
        return out;
    }
    return run_defended(input, base_config, warm, ctx);
}

FleetResult FleetRunner::run_defended(const ItscsInput& input,
                                      const ItscsConfig& base_config,
                                      WarmStartState* warm,
                                      PipelineContext* ctx) {
    if (config_.defense == nullptr || config_.defense->spec().idle()) {
        // No defence, no deviation: this is the exact pre-defence path.
        return run_in_core(input, base_config, warm, ctx);
    }
    const DefenseSuite& defense = *config_.defense;

    // Like the adversary, the defence sees the whole fleet on the calling
    // thread before any shard boundary exists: its tests are
    // cross-participant, and its decisions must not depend on the
    // decomposition or the thread count.
    DefenseReport report;
    {
        PipelineContext::PhaseScope scope(ctx, "defense");
        report = defense.analyze(input.sx, input.sy, input.existence);
    }

    const auto charge = [&](const DefenseReport& r) {
        if (ctx != nullptr) {
            ctx->counters().defense_trips += r.trips;
            ctx->counters().participants_quarantined += r.quarantined.size();
            ctx->counters().quarantine_reinstated += r.reinstated.size();
        }
    };

    if (report.empty_quarantine()) {
        // Nothing to quarantine: one plain sharded run, bit-identical to
        // a defence-off run apart from the outage relabel (which is a
        // no-op unless a dark block was classified).
        FleetResult out = run_in_core(input, base_config, warm, ctx);
        apply_outage_labels(out.aggregate.detection, input.existence, report);
        charge(report);
        out.defense = std::move(report);
        return out;
    }

    // Quarantine rung of the degradation ladder: re-solve with the flagged
    // rows' observations removed, re-test every flagged row against the
    // honest-only reconstruction, then run the final (checkpointable)
    // solve without the confirmed rows.
    ItscsInput honest = input;
    mask_rows(honest, report.quarantined);
    FleetResult honest_run = run_in_core(honest, base_config, nullptr, ctx,
                                         /*allow_checkpoint=*/false);
    {
        PipelineContext::PhaseScope scope(ctx, "defense");
        defense.retest(input.sx, input.sy, input.existence,
                       honest_run.aggregate.reconstructed_x,
                       honest_run.aggregate.reconstructed_y, report);
    }

    FleetResult out;
    if (report.confirmed.size() == report.quarantined.size() &&
        config_.checkpoint_dir.empty() && warm == nullptr) {
        // Every flagged row was confirmed, so the final input equals the
        // honest input — reuse that solve instead of repeating it.
        out = std::move(honest_run);
    } else if (report.confirmed.empty()) {
        out = run_in_core(input, base_config, warm, ctx);
    } else {
        ItscsInput final_input = input;
        mask_rows(final_input, report.confirmed);
        out = run_in_core(final_input, base_config, warm, ctx);
    }

    // Confirmed frauds: every cell they uploaded is flagged faulty, and
    // their reconstruction rows pass the uploads through untouched — the
    // solve must not launder fraud into plausible-looking clean data.
    const std::size_t t = input.existence.cols();
    for (const std::size_t q : report.confirmed) {
        for (std::size_t j = 0; j < t; ++j) {
            const bool observed = input.existence(q, j) != 0.0;
            out.aggregate.detection(q, j) = observed ? 1.0 : 0.0;
            out.aggregate.reconstructed_x(q, j) = input.sx(q, j);
            out.aggregate.reconstructed_y(q, j) = input.sy(q, j);
        }
    }
    apply_outage_labels(out.aggregate.detection, input.existence, report);
    out.aggregate.quarantined = report.confirmed;
    charge(report);
    out.defense = std::move(report);
    return out;
}

FleetResult FleetRunner::run_in_core(const ItscsInput& input,
                                     const ItscsConfig& config,
                                     WarmStartState* warm,
                                     PipelineContext* ctx,
                                     bool allow_checkpoint) {
    // Guarded runs defer the finite-value scan to each shard's ladder so a
    // poisoned cell faults one shard, not the fleet; unguarded runs keep
    // the strict throw-at-the-boundary contract.
    if (config_.guard) {
        input.validate_shapes();
    } else {
        input.validate();
    }
    const ShardPlan plan = plan_for(input);
    InCoreIo io(input);

    CheckpointManifest journal;
    const bool journaled = allow_checkpoint && !config_.checkpoint_dir.empty();
    if (journaled) {
        journal.participants = input.sx.rows();
        journal.input_fingerprint = input.fingerprint();
        journal.planner = to_string(plan.mode());
        journal.plan_fingerprint = plan.fingerprint();
    }
    FleetResult out = run_shards(plan.shards(), input.sx.cols(), io, config,
                                 journaled ? &journal : nullptr, warm, ctx);
    out.aggregate.detection = std::move(io.detection);
    out.aggregate.reconstructed_x = std::move(io.reconstructed_x);
    out.aggregate.reconstructed_y = std::move(io.reconstructed_y);
    return out;
}

FleetResult FleetRunner::run_shards(const std::vector<Shard>& shards,
                                    std::size_t t, ShardIo& io,
                                    const ItscsConfig& config,
                                    const CheckpointManifest* journal,
                                    WarmStartState* warm,
                                    PipelineContext* ctx) {
    const std::size_t count = shards.size();

    if (warm != nullptr) {
        // Journaled shard records carry no factors, so a resumed run could
        // not reproduce the warm state — refuse the combination instead of
        // silently diverging between crashed and uninterrupted runs.
        MCS_CHECK_MSG(config_.checkpoint_dir.empty(),
                      "FleetRunner: warm-start state cannot be combined "
                      "with checkpoint_dir");
        if (warm->shards.size() != count) {
            // First window (or the shard plan changed): cold-start every
            // shard and start recording factors at the new decomposition.
            warm->shards.assign(count, ItscsWarmStart{});
        }
    }

    // Per-shard seeds drawn by index on this thread — the decomposition's
    // seeds never depend on which worker runs which shard, nor on whether
    // the shard is staged in core or from a slab.
    Rng root(config_.seed);
    std::vector<std::uint64_t> seeds(count);
    std::vector<PipelineContext> contexts;
    contexts.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        seeds[s] = root.next_u64();
        contexts.emplace_back(seeds[s]);
        // Stamp the configured tier up front so even shards that never
        // run (restored from a checkpoint) report what the run used.
        contexts.back().set_kernel_tier(config_.kernel_tier);
    }

    FleetResult out;
    out.shards.resize(count);
    std::vector<std::vector<ItscsIterationStats>> histories(count);

    // ---- durable checkpoint: open the store, restore what survived ----
    CheckpointSummary& cp = out.checkpoint;
    std::unique_ptr<CheckpointStore> store;
    std::vector<bool> restored(count, false);
    if (journal != nullptr) {
        cp.enabled = true;
        store = std::make_unique<CheckpointStore>(config_.checkpoint_dir);

        CheckpointManifest manifest = *journal;
        manifest.slots = t;
        manifest.config_fingerprint = config_fingerprint(config);
        manifest.runtime_fingerprint = runtime_fingerprint(config_);
        manifest.kernel_tier = config_.kernel_tier;
        for (const Shard& shard : shards) {
            manifest.shards.emplace_back(shard.begin, shard.end);
            manifest.shard_members.push_back(shard.members_fingerprint());
        }

        if (config_.resume && store->has_manifest()) {
            // Handshake: a fingerprint or plan mismatch means the journal
            // belongs to a different run — resuming it would fabricate
            // results, so refuse loudly instead of quietly starting over.
            const std::string why = manifest.mismatch(store->read_manifest());
            if (!why.empty()) {
                throw Error("checkpoint resume refused (" + why +
                            "); delete " + config_.checkpoint_dir +
                            " or drop --resume to start over");
            }

            CheckpointLoad load = store->load();
            cp.corrupt_frames = load.corrupt_frames;
            cp.torn_tail = load.torn_tail;
            cp.journal_failures = std::move(load.failures);

            for (auto& [index, record] : load.shards) {
                // The frame had a valid CRC and decoded, but its contents
                // must still agree with the recomputed plan and seeds, and
                // its payload must hold up — anything else is treated
                // exactly like a corrupt frame: dropped, reported, and the
                // shard re-run.
                const Shard* shard = index < count ? &shards[index] : nullptr;
                const bool consistent =
                    shard != nullptr && record.row_begin == shard->begin &&
                    record.row_end == shard->end &&
                    record.members_fingerprint ==
                        shard->members_fingerprint() &&
                    record.seed == seeds[index] &&
                    io.restore(*shard, record);
                if (!consistent) {
                    ++cp.corrupt_frames;
                    cp.journal_failures.push_back(
                        {.kind = FailureKind::kCheckpointCorrupt,
                         .phase = "journal",
                         .shard = index,
                         .detail = "journaled record contradicts the "
                                   "recomputed shard plan/seed or its stored "
                                   "result; shard will re-run"});
                    continue;
                }

                ShardRunReport& report = out.shards[index];
                report.shard = *shard;
                report.seed = record.seed;
                report.iterations = record.iterations;
                report.converged = record.converged;
                report.level = static_cast<DegradationLevel>(record.level);
                report.attempts = record.attempts;
                report.failures = std::move(record.failures);
                histories[index] = std::move(record.history);

                // Fold the original process's instrumentation into the
                // shard's (otherwise untouched) context so the merged
                // report still covers the work that was actually done.
                contexts[index].absorb(record.counters, record.phases);
                contexts[index].counters().checkpoint_shards_resumed += 1;

                restored[index] = true;
                ++cp.shards_loaded;
            }
        } else {
            store->begin(manifest);
        }
    }

    std::vector<std::size_t> pending;
    pending.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        if (!restored[s]) {
            pending.push_back(s);
        }
    }
    if (cp.enabled) {
        cp.shards_run = pending.size();
    }

    // Opt-in row-blocked kernel parallelism for the duration of the run;
    // dormant underneath shard workers (they run kernels inline).
    KernelParallelScope kernel_scope(config_.kernel_threads);

    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    auto run_shard = [&](std::size_t s, std::size_t next) {
        // The tier is thread-local ambient state, so each worker installs
        // it per shard — kernels read it once at entry on this thread
        // before fanning rows out to any RowExecutor.
        KernelTierScope tier_scope(config_.kernel_tier);
        const Shard& shard = shards[s];
        const std::size_t rows = shard.size();
        const std::size_t worker = ThreadPool::worker_index();
        Workspace& ws = workspaces_[worker == kNone ? 0 : worker];

        if (next != kNone) {
            io.prefetch(next);
        }

        // Stage the shard's input in the worker's arena: a worker running
        // several same-shaped shards allocates the staging buffers once.
        ItscsInput si;
        for (Matrix* m : input_matrices(si)) {
            *m = ws.acquire(rows, t);
        }
        io.read(shard, si);

        ShardRunReport& report = out.shards[s];
        report.shard = shard;
        report.seed = seeds[s];

        // Per-shard warm factors: entries are disjoint elements of a
        // pre-sized vector, so workers touch disjoint memory.
        ItscsWarmStart* shard_warm =
            warm != nullptr ? &warm->shards[s] : nullptr;
        const ItscsWarmStart* warm_seed =
            shard_warm != nullptr && !shard_warm->empty() ? shard_warm
                                                          : nullptr;

        ItscsResult result;
        run_shard_ladder(config_, config, s, si, contexts[s], warm_seed,
                         report, result);

        if (shard_warm != nullptr) {
            if (report.level == DegradationLevel::kNominal) {
                shard_warm->x = std::move(result.factors_x);
                shard_warm->y = std::move(result.factors_y);
            } else {
                // A degraded window produced no trustworthy factors; the
                // next window cold-starts this shard.
                *shard_warm = ItscsWarmStart{};
            }
        }

        ShardCheckpoint record;
        io.write(shard, result, contexts[s],
                 store != nullptr ? &record : nullptr);

        if (store != nullptr) {
            // Count the commit first so the journaled counter snapshot
            // includes it — a resumed run then reports the commit the
            // original process made.
            contexts[s].counters().checkpoint_commits += 1;

            record.shard_index = s;
            record.row_begin = shard.begin;
            record.row_end = shard.end;
            record.members_fingerprint = shard.members_fingerprint();
            record.seed = seeds[s];
            record.iterations = report.iterations;
            record.converged = report.converged;
            record.level = static_cast<std::uint32_t>(report.level);
            record.attempts = report.attempts;
            record.failures = report.failures;
            record.history = result.history;
            record.counters = contexts[s].counters();
            record.phases = contexts[s].phase_stats();

            const std::size_t crash_after =
                config_.chaos != nullptr
                    ? config_.chaos->config().crash_after_commits
                    : 0;
            store->commit(record, [crash_after](std::size_t ordinal) {
                // Chaos crash seam: die *after* the k-th frame is flushed,
                // while still holding the journal lock — the journal holds
                // exactly k complete frames, at any thread count.
                if (crash_after > 0 && ordinal == crash_after) {
                    std::abort();
                }
            });
        }

        histories[s] = std::move(result.history);

        for (Matrix* m : input_matrices(si)) {
            ws.release(std::move(*m));
        }
        io.release(s);
    };

    // Work-stealing schedule (runtime/work_steal.hpp): scheduling decides
    // where a shard runs, never what it computes — the merge below stays
    // in shard order, so output is bit-identical at any thread count. The
    // scheduler's next hint (the worker's own deque front) drives prefetch.
    if (pool_ != nullptr && pending.size() > 1) {
        out.steals =
            steal_run(pool_.get(), threads_, pending.size(),
                      [&](std::size_t k, std::size_t next_k) {
                          run_shard(pending[k], next_k == kNone
                                                    ? kNone
                                                    : pending[next_k]);
                      });
    } else {
        for (std::size_t k = 0; k < pending.size(); ++k) {
            run_shard(pending[k],
                      k + 1 < pending.size() ? pending[k + 1] : kNone);
        }
    }

    // ---- joining barrier passed: single-threaded from here on ----

    // Merge instrumentation in shard order (deterministic report), then
    // release every arena's high-water scratch so long-lived workers do
    // not pin the peak of this run.
    if (ctx != nullptr) {
        for (const PipelineContext& shard_ctx : contexts) {
            ctx->merge(shard_ctx);
        }
        // Frame losses and steal totals belong to the run, not to any one
        // shard's context.
        ctx->counters().checkpoint_corrupt_frames += cp.corrupt_frames;
        ctx->counters().shards_stolen += out.steals.stolen_items;
    }
    for (Workspace& ws : workspaces_) {
        ws.clear();
    }

    merge_fleet_diagnostics(out.aggregate, out.shards, histories);
    return out;
}

std::unique_ptr<SlabStore> FleetRunner::create_slab_store(
    const std::string& dir, const ItscsInput& input) const {
    input.validate_shapes();
    const ShardPlan plan = plan_for(input);
    const std::size_t t = input.sx.cols();

    SlabGeometry geometry;
    geometry.participants = plan.rows();
    geometry.slots = t;
    geometry.shard_count = plan.count();
    geometry.tier = config_.storage;
    geometry.tau_s = input.tau_s;
    geometry.planner_mode = static_cast<std::uint32_t>(plan.mode());
    geometry.plan_fingerprint = plan.fingerprint();
    geometry.input_fingerprint = input.fingerprint();
    std::vector<SlabShardInfo> infos;
    infos.reserve(plan.count());
    for (const Shard& shard : plan.shards()) {
        geometry.max_shard_rows =
            std::max(geometry.max_shard_rows, shard.size());
        SlabShardInfo info;
        info.begin = shard.begin;
        info.end = shard.end;
        info.rows = shard.rows;
        infos.push_back(std::move(info));
    }

    auto store =
        std::make_unique<SlabStore>(dir, geometry, std::move(infos));

    // Ingest shard by shard through one reused staging buffer — the
    // store, not this loop, is what unlocks fleets beyond RAM (the scale
    // harness ingests synthetic shards directly, never holding the
    // fleet; this overload is the convenience for inputs already loaded).
    Matrix stage[kSlabInputMatrices];
    const auto sources = input_matrices(input);
    for (const Shard& shard : plan.shards()) {
        const double* mats[kSlabInputMatrices];
        for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
            stage[m] = Matrix(shard.size(), t);
            slice_rows(stage[m], *sources[m], shard);
            mats[m] = stage[m].data().data();
        }
        store->write_inputs(shard.index, mats);
    }
    return store;
}

std::size_t FleetRunner::resident_window_bytes(
    const SlabGeometry& geometry) const {
    // Per worker: the computing shard's input and output slabs, the
    // prefetched next input slab, and the f64 staging arena (five inputs
    // plus three results at double precision, whatever the storage tier).
    const std::size_t staged =
        geometry.max_shard_rows * geometry.slots * sizeof(double) *
        (kSlabInputMatrices + kSlabOutputMatrices);
    const std::size_t per_worker = 2 * geometry.input_stride() +
                                   geometry.output_stride() + staged;
    return std::max<std::size_t>(1, threads_) * per_worker;
}

FleetResult FleetRunner::run_streamed(SlabStore& store,
                                      const ItscsConfig& config,
                                      PipelineContext* ctx) {
    MCS_CHECK_MSG(
        config_.adversary == nullptr || config_.adversary->spec().idle(),
        "run_streamed: the structured adversary transforms the fleet in "
        "memory — ingest post-adversary data instead");
    MCS_CHECK_MSG(
        config_.defense == nullptr || config_.defense->spec().idle(),
        "run_streamed: the defence suite's consistency tests need "
        "fleet-wide matrices — run the defence in-core");

    const SlabGeometry& geometry = store.geometry();
    MCS_CHECK_MSG(!store.shards().empty(), "run_streamed: empty slab store");

    // The store's plan is authoritative — the runner's planner knobs
    // shaped it at ingest time.
    std::vector<Shard> shards;
    for (const SlabShardInfo& info : store.shards()) {
        shards.push_back({shards.size(), info.begin, info.end, info.rows});
    }

    if (config_.memory_budget_mb > 0) {
        const std::size_t window = resident_window_bytes(geometry);
        const std::size_t budget =
            config_.memory_budget_mb * std::size_t(1024) * 1024;
        MCS_CHECK_MSG(
            window <= budget,
            "run_streamed: memory budget " +
                std::to_string(config_.memory_budget_mb) +
                " MiB is below the minimum resident window (" +
                std::to_string((window + 1024 * 1024 - 1) / (1024 * 1024)) +
                " MiB for " + std::to_string(threads_) +
                " workers at this slab geometry) — raise the budget or "
                "lower --threads / the shard size");
    }

    CheckpointManifest journal;
    journal.participants = geometry.participants;
    journal.input_fingerprint = geometry.input_fingerprint;
    journal.planner =
        to_string(static_cast<PlannerMode>(geometry.planner_mode));
    journal.plan_fingerprint = geometry.plan_fingerprint;
    journal.storage = to_string(geometry.tier);
    journal.slab_max_rows = geometry.max_shard_rows;

    // Aggregate matrices stay EMPTY: fleet-sized results live in the
    // store's output slabs — materialising them here would defeat the
    // bounded resident window.
    SlabIo io(store);
    return run_shards(shards, geometry.slots, io, config,
                      config_.checkpoint_dir.empty() ? nullptr : &journal,
                      nullptr, ctx);
}

WindowEvaluator FleetRunner::window_evaluator() {
    return [this](const ItscsInput& input, const ItscsConfig& config,
                  WarmStartState* warm,
                  PipelineContext* ctx) -> ItscsResult {
        return run(input, config, warm, ctx).aggregate;
    };
}

}  // namespace mcs
