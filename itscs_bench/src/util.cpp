#include "util.hpp"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "bench_stamp.hpp"
#include "common/topology.hpp"
#include "core/check_phase.hpp"
#include "cs/reconstruct.hpp"
#include "detect/detection.hpp"
#include "detect/local_median.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/temporal.hpp"

namespace itscs_bench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
    for (Metric& metric : metrics) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

const Metric* Outcome::find(const std::string& name) const {
    for (const Metric& metric : metrics) {
        if (metric.name == name) {
            return &metric;
        }
    }
    return nullptr;
}

void Outcome::breach(const std::string& what) {
    breaches.push_back(what);
    ++failed;
}

double median(std::vector<double> samples) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double fastest(const std::vector<double>& samples) {
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(), samples.end());
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    const std::size_t index =
        std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, samples.size());
    return samples[index - 1];
}

Tail tail_of(std::vector<double> samples) {
    Tail tail;
    const std::size_t n = samples.size();
    if (n < 20) {
        tail.value = percentile(std::move(samples), 75.0);
        tail.label = "p75 (n<20)";
        return tail;
    }
    // Nearest rank of p is ceil(p·n/100); at least ten samples lie above
    // it when that rank is at most n − 10.
    std::size_t p = (100 * (n - 10)) / n;
    while (p > 0 && static_cast<std::size_t>(std::ceil(
                        static_cast<double>(p) * static_cast<double>(n) / 100.0)) >
                        n - 10) {
        --p;
    }
    tail.value = percentile(std::move(samples), static_cast<double>(p));
    char label[24];
    std::snprintf(label, sizeof(label), "p%zu", p);
    tail.label = label;
    return tail;
}

void interleave(const Run& run, std::size_t items, double item_guess_s,
                const std::function<double(std::size_t)>& item,
                double filler_guess_s, const std::function<double()>& filler) {
    constexpr double kReportReserveSeconds = 1.0;
    const auto seconds_left = [&] {
        return run.options.seconds - kReportReserveSeconds -
               run.spans.now_us() * 1e-6;
    };
    double item_total = 0.0;
    double filler_total = 0.0;
    std::size_t fillers = 0;
    const auto item_cost = [&](std::size_t done) {
        return done > 0 ? item_total / static_cast<double>(done) : item_guess_s;
    };
    const auto filler_cost = [&] {
        return fillers > 0 ? filler_total / static_cast<double>(fillers)
                           : filler_guess_s;
    };
    // Fillers that fit beside the items still to run.
    const auto affordable = [&](std::size_t done) {
        const double spare = seconds_left() -
                             static_cast<double>(items - done) * item_cost(done);
        return std::max(0.0, spare / std::max(filler_cost(), 1e-6));
    };
    double credit = 0.0;
    for (std::size_t i = 0; i < items; ++i) {
        // This gap's share of the fillers left, over the gaps left (one
        // before each remaining item and one after the last).
        credit += affordable(i) / static_cast<double>(items - i + 1);
        while (credit >= 1.0 && affordable(i) >= 1.0) {
            filler_total += filler();
            ++fillers;
            credit -= 1.0;
        }
        item_total += item(i);
    }
    while (affordable(items) >= 1.0) {
        filler_total += filler();
        ++fillers;
    }
}

std::size_t bench_threads() {
    return std::clamp<std::size_t>(mcs::effective_cpu_count(), 1, 4);
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::atof(line.c_str() + 6) / 1024.0;
        }
    }
    return 0.0;
}

double directory_mib(const std::string& dir) {
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec)) {
        return 0.0;
    }
    std::uintmax_t bytes = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) {
            bytes += entry.file_size(ec);
        }
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

mcs::Json environment_stamp(std::size_t repeat) {
    const std::size_t threads = bench_threads();
    mcs::Json stamp = mcs::Json::object();
    mcs::stamp_environment(stamp, repeat, threads);
    stamp["T"] = threads;
    stamp["fast_kernel_path"] = mcs::fast_kernel_path();
    const mcs::CpuFeatures& cpu = mcs::cpu_features();
    mcs::Json features = mcs::Json::array();
    if (cpu.avx2) features.push_back("avx2");
    if (cpu.fma) features.push_back("fma");
    if (cpu.avx512f) features.push_back("avx512f");
    if (cpu.neon) features.push_back("neon");
    stamp["cpu_features"] = std::move(features);
    // Parallel efficiency compares T workers against one; it says nothing
    // when T exceeds the CPUs the process may use, or when T is 1.
    stamp["parallel_efficiency_unresolved"] =
        threads > mcs::effective_cpu_count() || threads < 2;
    return stamp;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool bitwise_equal(const mcs::Matrix& a, const mcs::Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

bool all_finite(const mcs::Matrix& m) {
    for (const double v : m.data()) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return m.rows() > 0 && m.cols() > 0;
}

double phase_seconds(const mcs::PipelineContext& ctx,
                     const std::string& name) {
    for (const mcs::PhaseStat& stat : ctx.phase_stats()) {
        if (stat.name == name) {
            return stat.seconds;
        }
    }
    return 0.0;
}

void add_pipeline_metrics(Outcome& out, const mcs::PipelineContext& ctx) {
    const mcs::PipelineCounters& c = ctx.counters();
    const double asd_s = phase_seconds(ctx, "asd_minimize");
    const double gflop = static_cast<double>(c.gemm_flops) * 1e-9;
    out.set("linalg.gemm_gflop", gflop, "GFLOP");
    out.set("linalg.solve_gflops", asd_s > 0.0 ? gflop / asd_s : 0.0,
            "GFLOP/s");
    const auto iterations = static_cast<double>(c.asd_iterations);
    out.set("cs.asd_iterations", iterations, "count");
    out.set("cs.solves", static_cast<double>(c.cs_solves), "count");
    out.set("cs.iterations_per_solve",
            c.cs_solves > 0 ? iterations / static_cast<double>(c.cs_solves)
                            : 0.0,
            "count");
    out.set("cs.asd_s", asd_s, "s");
    out.set("cs.ms_per_asd_iteration",
            iterations > 0.0 ? asd_s * 1000.0 / iterations : 0.0, "ms");
    out.set("detect.ts_detect_s", phase_seconds(ctx, "ts_detect"), "s");
    out.set("detect.passes", static_cast<double>(c.detect_passes), "count");
    out.set("core.framework_iterations",
            static_cast<double>(c.itscs_iterations), "count");
    out.set("core.check_s", phase_seconds(ctx, "check"), "s");
    out.set("core.run_itscs_s", phase_seconds(ctx, "run_itscs"), "s");
    out.set("core.warm_seed_s",
            std::max(0.0, phase_seconds(ctx, "correct") -
                              phase_seconds(ctx, "cs_reconstruct")),
            "s");
    out.set("defense.analyze_s", phase_seconds(ctx, "defense"), "s");
    out.set("defense.trips", static_cast<double>(c.defense_trips), "count");
}

double multiply_transposed_peak_gflops(SpanRecorder& spans, std::size_t rows,
                                       std::size_t cols, std::size_t rank,
                                       mcs::KernelTier tier, double seconds) {
    const mcs::KernelTierScope scope(tier);
    mcs::Matrix a(rows, rank);
    mcs::Matrix b(cols, rank);
    for (std::size_t k = 0; k < a.data().size(); ++k) {
        a.data()[k] = std::sin(0.37 * static_cast<double>(k));
    }
    for (std::size_t k = 0; k < b.data().size(); ++k) {
        b.data()[k] = std::cos(0.11 * static_cast<double>(k));
    }
    mcs::Matrix dst(rows, cols);
    const double flop_per_call = 2.0 * static_cast<double>(rows) *
                                 static_cast<double>(cols) *
                                 static_cast<double>(rank);
    // Warm caches and the dispatcher, then time batches of ~4e7 FLOP
    // (a few milliseconds at the rates this kernel reaches).
    mcs::multiply_transposed_into(dst, a, b);
    const auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(4e7 / flop_per_call)));
    std::vector<double> rates;
    const double start_us = spans.now_us();
    while (rates.size() < 5 ||
           (spans.now_us() - start_us) * 1e-6 < seconds) {
        SpanRecorder::Scope span(spans, "linalg.multiply_transposed");
        for (std::size_t k = 0; k < batch; ++k) {
            mcs::multiply_transposed_into(dst, a, b);
        }
        const double elapsed = span.end();
        rates.push_back(flop_per_call * static_cast<double>(batch) /
                        std::max(elapsed, 1e-9) * 1e-9);
    }
    return median(std::move(rates));
}

void add_kernel_peak(Outcome& out, double peak_gflops) {
    out.set("linalg.mt_peak_gflops", peak_gflops, "GFLOP/s");
    const Metric* solve = out.find("linalg.solve_gflops");
    out.set("linalg.kernel_gap",
            solve != nullptr && peak_gflops > 0.0 ? solve->value / peak_gflops
                                                  : 0.0,
            "ratio");
}

void probe_framework_iteration(SpanRecorder& spans,
                               const mcs::ItscsInput& input,
                               const mcs::ItscsConfig& config,
                               mcs::KernelTier tier) {
    const mcs::KernelTierScope scope(tier);
    SpanRecorder::Scope iteration(spans, "core.iteration_probe");
    const mcs::Matrix avg_vx = mcs::average_velocity(input.vx);
    const mcs::Matrix avg_vy = mcs::average_velocity(input.vy);
    const mcs::Matrix all_flagged = mcs::Matrix::constant(
        input.sx.rows(), input.sx.cols(), 1.0);
    mcs::Matrix detection;
    {
        SpanRecorder::Scope span(spans, "detect.ts_detect");
        const mcs::Matrix dx = mcs::ts_detect(
            input.sx, input.sx, avg_vx, all_flagged, input.existence,
            input.tau_s, config.detector, /*first_execution=*/true);
        const mcs::Matrix dy = mcs::ts_detect(
            input.sy, input.sy, avg_vy, all_flagged, input.existence,
            input.tau_s, config.detector, /*first_execution=*/true);
        detection = mcs::detection_union(dx, dy);
    }
    const mcs::Matrix gbim = mcs::make_gbim(input.existence, detection);
    mcs::CsReconstruction rx;
    mcs::CsReconstruction ry;
    {
        SpanRecorder::Scope span(spans, "cs.cs_reconstruct");
        rx = mcs::cs_reconstruct(input.sx, gbim, avg_vx, input.tau_s,
                                 config.cs);
        ry = mcs::cs_reconstruct(input.sy, gbim, avg_vy, input.tau_s,
                                 config.cs);
    }
    {
        SpanRecorder::Scope span(spans, "core.check_axis");
        detection = mcs::check_axis(input.sx, rx.estimate, detection,
                                    input.existence, config.check);
        detection = mcs::check_axis(input.sy, ry.estimate, detection,
                                    input.existence, config.check);
    }
}

mcs::Matrix gather_rows(const mcs::Matrix& m, const mcs::Shard& shard) {
    mcs::Matrix out(shard.size(), m.cols());
    for (std::size_t k = 0; k < shard.size(); ++k) {
        const std::size_t row = shard.row_at(k);
        std::copy_n(m.data().data() + row * m.cols(), m.cols(),
                    out.data().data() + k * m.cols());
    }
    return out;
}

void scatter_rows(mcs::Matrix& dst, const mcs::Matrix& block,
                  const mcs::Shard& shard) {
    for (std::size_t k = 0; k < shard.size(); ++k) {
        std::copy_n(block.data().data() + k * block.cols(), block.cols(),
                    dst.data().data() + shard.row_at(k) * dst.cols());
    }
}

mcs::ItscsInput slice_input(const mcs::ItscsInput& input,
                            const mcs::Shard& shard) {
    mcs::ItscsInput out;
    out.sx = gather_rows(input.sx, shard);
    out.sy = gather_rows(input.sy, shard);
    out.vx = gather_rows(input.vx, shard);
    out.vy = gather_rows(input.vy, shard);
    out.existence = gather_rows(input.existence, shard);
    out.tau_s = input.tau_s;
    return out;
}

}  // namespace itscs_bench
