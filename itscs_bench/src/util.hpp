// Shared plumbing of the benchmark: the per-run state every workload
// fills, sample statistics, and the probes several workloads share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/context.hpp"
#include "common/json.hpp"
#include "core/itscs.hpp"
#include "linalg/matrix.hpp"
#include "runtime/shard_plan.hpp"
#include "spans.hpp"

namespace itscs_bench {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work_dir;  ///< working directory of this run (removed after)
    std::string out_dir;   ///< where results and traces are written
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one workload run reports.
struct Outcome {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /// Correctness gates that failed, one line each.
    std::vector<std::string> breaches;
    /// Facts stated beside the metrics (sample counts, tail percentile,
    /// shapes, headroom); written into the results file and the table.
    mcs::Json notes = mcs::Json::object();

    void set(const std::string& name, double value, const std::string& unit);
    const Metric* find(const std::string& name) const;
    /// Record a failed correctness gate: counts once into `failed`.
    void breach(const std::string& what);
};

/// State handed to a workload.
struct Run {
    Options options;
    SpanRecorder spans;
    Outcome out;
};

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> samples);
/// Smallest sample (0 when empty): the estimate of a fixed unit of work
/// that the host's slow spells move least.
double fastest(const std::vector<double>& samples);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> samples, double p);

/// The highest whole percentile that still has at least ten samples above
/// it. Below twenty samples that percentile would fall under the median,
/// so the nearest-rank p75 stands in (labelled "p75 (n<20)").
struct Tail {
    double value = 0.0;
    std::string label;  ///< e.g. "p66"
};
Tail tail_of(std::vector<double> samples);

// ---- scheduling -------------------------------------------------------------

/// Runs `items` units, item(0) .. item(items − 1), in order, and in the
/// time left of --seconds (counted from the start of the process, less a
/// second for the scoring and reporting after the measurements) as many
/// calls of `filler` as fit, spread evenly between the items and after the
/// last. item() and filler() return the seconds they took; `item_guess_s`
/// and `filler_guess_s` are the cost estimates until the first of each has
/// run. Every item runs, whatever the clock says.
void interleave(const Run& run, std::size_t items, double item_guess_s,
                const std::function<double(std::size_t)>& item,
                double filler_guess_s, const std::function<double()>& filler);

// ---- environment ------------------------------------------------------------

/// Worker threads of the parallel measurements: min(4, effective CPUs).
std::size_t bench_threads();
/// Peak resident set (VmHWM) of this process, MiB.
double peak_rss_mib();
/// Total size of the regular files under `dir`, MiB (0 when absent).
double directory_mib(const std::string& dir);
/// Environment stamp: bench_stamp.hpp's fields plus T, the fast-kernel
/// path, the CPU features and whether parallel efficiency is resolvable.
mcs::Json environment_stamp(std::size_t repeat);

/// Splitmix64 — derives independent sub-seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// ---- checks -----------------------------------------------------------------

bool bitwise_equal(const mcs::Matrix& a, const mcs::Matrix& b);
bool all_finite(const mcs::Matrix& m);

// ---- per-layer metrics shared by every workload -----------------------------

double phase_seconds(const mcs::PipelineContext& ctx, const std::string& name);

/// The linalg / cs / detect / core / defense metrics read from the
/// counters and phase totals a PipelineContext exports.
void add_pipeline_metrics(Outcome& out, const mcs::PipelineContext& ctx);

/// `multiply_transposed_into` called directly at a solve shape
/// (rows x rank) · (cols x rank)ᵀ under `tier`, repeated for about
/// `seconds`; returns the median GFLOP/s over timed batches. Recorded as
/// `linalg.multiply_transposed` spans.
double multiply_transposed_peak_gflops(SpanRecorder& spans, std::size_t rows,
                                       std::size_t cols, std::size_t rank,
                                       mcs::KernelTier tier, double seconds);

/// Adds `linalg.mt_peak_gflops` and `linalg.kernel_gap` (solve ÷ peak).
void add_kernel_peak(Outcome& out, double peak_gflops);

/// One DETECT → CORRECT → CHECK iteration driven by hand on `input`, so
/// the trace shows `detect.ts_detect`, `cs.cs_reconstruct` and
/// `core.check_axis` spans at a real solve shape. Traced runs only.
void probe_framework_iteration(SpanRecorder& spans,
                               const mcs::ItscsInput& input,
                               const mcs::ItscsConfig& config,
                               mcs::KernelTier tier);

/// Rows of `m` listed by `shard` (its contiguous range or member list).
mcs::Matrix gather_rows(const mcs::Matrix& m, const mcs::Shard& shard);
/// Inverse of gather_rows: writes `block`'s rows into `dst`.
void scatter_rows(mcs::Matrix& dst, const mcs::Matrix& block,
                  const mcs::Shard& shard);
/// The shard's slice of a fleet input.
mcs::ItscsInput slice_input(const mcs::ItscsInput& input,
                            const mcs::Shard& shard);

}  // namespace itscs_bench
