// Kernel-tier regression harness: GFLOP/s per kernel per tier, plus the
// paper-scale CS solve wall time, written to BENCH_kernels.json.
//
// Unlike perf_linalg (google-benchmark microbenches of the value-returning
// ops), this binary measures the dispatched `_into` kernels under both
// KernelTier::exact and KernelTier::fast at pipeline shapes, using
// median-of-N timing with one warm-up sample, and reports:
//
//   * GFLOP/s per kernel per tier, the fast/exact speedup, and the maximum
//     relative deviation between the two tiers (the determinism contract
//     promises <= 1e-12);
//   * the 158 x 240 single-shard CS solve (cs_reconstruct, default config)
//     exact vs. fast — the end-to-end number behind the kernel tier's
//     "- 2x" acceptance bar — with each tier's GEMM FLOPs per solve, per
//     kernel, and the GFLOP/s each tier reached on its own FLOPs;
//   * environment: repeat count, hardware_concurrency, effective CPUs,
//     detected CPU features and the fast path actually dispatched.
//
// `--baseline FILE` turns the binary into a CI gate: current fast/exact
// speedups are compared against the stored ones and the process exits
// non-zero when any kernel (or the CS solve) lost more than 20% of its
// baseline speedup, or when the fast tier's CS solve does more than
// kMaxFastFlopsRatio of the exact tier's GEMM FLOPs. Ratios, not absolute
// GFLOP/s, are compared so the gate
// survives machine changes; when the dispatched fast path differs from the
// baseline's (e.g. scalar-blocked CI runner vs. AVX2 laptop) the gate is
// skipped with a note instead of failing spuriously.
//
// Flags: --quick (fewer samples, smaller inner loops — CI friendly),
// --repeat N (median-of-N, default 9; quick default 5), --output FILE
// (default BENCH_kernels.json), --baseline FILE.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stamp.hpp"
#include "common/context.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "corruption/scenario.hpp"
#include "cs/reconstruct.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "trace/simulator.hpp"

namespace {

// Paper-scale shapes: one 158-participant shard, 240 slots, rank 16 (the
// factor width the ASD inner loop actually carries on a shard this size).
constexpr std::size_t kRows = 158;
constexpr std::size_t kSlots = 240;
constexpr std::size_t kRank = 16;

// Deterministic gate: the fast tier's GEMM FLOPs per CS solve must stay at
// most this fraction of the exact tier's. FLOP counts repeat exactly, so
// unlike a timing gate this one cannot flake — it fails only when the
// fast tier's carried-product path has come unwired (DESIGN.md §13).
constexpr double kMaxFastFlopsRatio = 0.6;

mcs::Matrix random_matrix(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
    mcs::Matrix m(rows, cols);
    mcs::Rng rng(seed);
    for (double& v : m.data()) {
        v = rng.normal();
    }
    return m;
}

mcs::Matrix random_mask(std::size_t rows, std::size_t cols, double keep,
                        std::uint64_t seed) {
    mcs::Matrix m(rows, cols);
    mcs::Rng rng(seed);
    for (double& v : m.data()) {
        v = rng.uniform() < keep ? 1.0 : 0.0;
    }
    return m;
}

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// Largest |exact - fast| over |exact|, with a floor so exact zeros do not
/// blow the ratio up. The fast tier promises <= 1e-12.
double max_rel_deviation(const mcs::Matrix& exact, const mcs::Matrix& fast) {
    const auto de = exact.data();
    const auto df = fast.data();
    double worst = 0.0;
    for (std::size_t i = 0; i < de.size(); ++i) {
        const double denom = std::max(std::abs(de[i]), 1.0);
        worst = std::max(worst, std::abs(de[i] - df[i]) / denom);
    }
    return worst;
}

/// One dispatched kernel at a fixed shape: how to run it once, and how many
/// FLOPs that one run performs (the GEMM convention, 2·m·n·k).
struct KernelCase {
    std::string name;
    std::string shape;
    double flops = 0.0;
    std::function<void(mcs::Matrix&)> run;  ///< writes into the dst given
    std::size_t dst_rows = 0;
    std::size_t dst_cols = 0;
};

std::vector<KernelCase> make_cases() {
    // Operands live in function-static storage so the lambdas can capture
    // by reference without lifetime worries.
    static const mcs::Matrix a_tall = random_matrix(kRows, kSlots, 11);
    static const mcs::Matrix b_thin = random_matrix(kSlots, kRank, 13);
    static const mcs::Matrix l = random_matrix(kRows, kRank, 17);
    static const mcs::Matrix r = random_matrix(kSlots, kRank, 19);
    static const mcs::Matrix mask = random_mask(kRows, kSlots, 0.8, 23);
    static const mcs::Matrix s = random_matrix(kRows, kSlots, 29);
    static const mcs::Matrix h2 = random_matrix(kRows, kSlots, 31);

    const auto dims = [](std::size_t m, std::size_t n, std::size_t k) {
        return std::to_string(m) + "x" + std::to_string(n) + "x" +
               std::to_string(k);
    };

    std::vector<KernelCase> cases;
    cases.push_back(
        {"multiply", dims(kRows, kRank, kSlots),
         2.0 * kRows * kRank * kSlots,
         [](mcs::Matrix& dst) { mcs::multiply_into(dst, a_tall, b_thin); },
         kRows, kRank});
    cases.push_back({"multiply_transposed", dims(kRows, kSlots, kRank),
                     2.0 * kRows * kSlots * kRank,
                     [](mcs::Matrix& dst) {
                         mcs::multiply_transposed_into(dst, l, r);
                     },
                     kRows, kSlots});
    cases.push_back({"transpose_multiply", dims(kSlots, kRank, kRows),
                     2.0 * kSlots * kRank * kRows,
                     [](mcs::Matrix& dst) {
                         mcs::transpose_multiply_into(dst, a_tall, l);
                     },
                     kSlots, kRank});
    cases.push_back({"masked_residual", dims(kRows, kSlots, kRank),
                     2.0 * kRows * kSlots * kRank,
                     [](mcs::Matrix& dst) {
                         mcs::masked_residual_into(dst, l, r, mask, s);
                     },
                     kRows, kSlots});
    cases.push_back({"axpy", std::to_string(kRows) + "x" +
                         std::to_string(kSlots),
                     2.0 * kRows * kSlots,
                     [](mcs::Matrix& dst) {
                         const auto from = s.data();
                         std::copy(from.begin(), from.end(),
                                   dst.data().begin());
                         mcs::axpy(dst, 0.25, h2);
                     },
                     kRows, kSlots});
    return cases;
}

/// Median-of-`repeat` seconds for `inner` calls of `fn`, after one warm-up
/// sample. Returns seconds per call.
double time_per_call(const std::function<void(mcs::Matrix&)>& fn,
                     mcs::Matrix& dst, std::size_t inner,
                     std::size_t repeat) {
    std::vector<double> samples;
    samples.reserve(repeat);
    for (std::size_t rep = 0; rep <= repeat; ++rep) {  // rep 0 = warm-up
        const mcs::Stopwatch timer;
        for (std::size_t i = 0; i < inner; ++i) {
            fn(dst);
        }
        const double elapsed = timer.elapsed_seconds();
        if (rep > 0) {
            samples.push_back(elapsed);
        }
    }
    return median(std::move(samples)) / static_cast<double>(inner);
}

/// Pick an inner-loop count so one timing sample lasts about target_ms.
std::size_t calibrate_inner(const std::function<void(mcs::Matrix&)>& fn,
                            mcs::Matrix& dst, double target_ms) {
    const mcs::Stopwatch timer;
    fn(dst);
    const double once = std::max(timer.elapsed_seconds(), 1e-7);
    const auto inner =
        static_cast<std::size_t>(target_ms / 1000.0 / once) + 1;
    return std::min<std::size_t>(inner, 100000);
}

mcs::Json cpu_json() {
    const mcs::CpuFeatures& cpu = mcs::cpu_features();
    mcs::Json out = mcs::Json::object();
    out["avx2"] = cpu.avx2;
    out["fma"] = cpu.fma;
    out["avx512f"] = cpu.avx512f;
    out["neon"] = cpu.neon;
    return out;
}

mcs::Json bench_kernels(std::size_t repeat, bool quick) {
    const double target_ms = quick ? 2.0 : 10.0;
    mcs::Json rows = mcs::Json::array();
    for (const KernelCase& kc : make_cases()) {
        mcs::Matrix dst(kc.dst_rows, kc.dst_cols);

        mcs::Matrix exact_out(kc.dst_rows, kc.dst_cols);
        mcs::Matrix fast_out(kc.dst_rows, kc.dst_cols);
        double exact_s = 0.0;
        double fast_s = 0.0;
        {
            mcs::KernelTierScope tier(mcs::KernelTier::kExact);
            kc.run(exact_out);
            const std::size_t inner = calibrate_inner(kc.run, dst, target_ms);
            exact_s = time_per_call(kc.run, dst, inner, repeat);
        }
        {
            mcs::KernelTierScope tier(mcs::KernelTier::kFast);
            kc.run(fast_out);
            const std::size_t inner = calibrate_inner(kc.run, dst, target_ms);
            fast_s = time_per_call(kc.run, dst, inner, repeat);
        }
        const double deviation = max_rel_deviation(exact_out, fast_out);
        const double speedup = fast_s > 0.0 ? exact_s / fast_s : 1.0;

        std::cerr << "kernel " << kc.name << " (" << kc.shape
                  << "): exact " << kc.flops / exact_s / 1e9
                  << " GFLOP/s, fast " << kc.flops / fast_s / 1e9
                  << " GFLOP/s, speedup " << speedup << ", max rel dev "
                  << deviation << "\n";

        mcs::Json row = mcs::Json::object();
        row["kernel"] = kc.name;
        row["shape"] = kc.shape;
        row["flops_per_call"] = kc.flops;
        row["exact_gflops"] = kc.flops / exact_s / 1e9;
        row["fast_gflops"] = kc.flops / fast_s / 1e9;
        row["speedup"] = speedup;
        row["max_rel_deviation"] = deviation;
        rows.push_back(std::move(row));
    }
    return rows;
}

/// The acceptance-bar measurement: one paper-scale (158 x 240) shard's CS
/// solve, default CsConfig, exact vs. fast tier. Median-of-N walls with
/// one warm-up each; the estimates of the two tiers are compared cell-wise.
mcs::Json bench_cs_solve(std::size_t repeat, bool quick) {
    std::cerr << "cs solve: simulating " << kRows << "x" << kSlots
              << " dataset...\n";
    const mcs::TraceDataset truth = mcs::make_paper_scale_dataset(1);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 5;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
    const mcs::Matrix avg_vx = mcs::average_velocity(data.vx);
    const std::size_t solve_repeat = quick ? std::min<std::size_t>(repeat, 3)
                                           : repeat;

    const auto timed_tier = [&](mcs::KernelTier tier) {
        mcs::KernelTierScope scope(tier);
        mcs::CsReconstruction result;
        std::vector<double> samples;
        samples.reserve(solve_repeat);
        mcs::PipelineContext ctx;
        for (std::size_t rep = 0; rep <= solve_repeat; ++rep) {
            const mcs::Stopwatch timer;
            result = mcs::cs_reconstruct(data.sx, data.existence, avg_vx,
                                         data.tau_s, mcs::CsConfig{}, nullptr,
                                         rep == 0 ? &ctx : nullptr);
            if (rep > 0) {  // rep 0 = warm-up (and the instrumented run)
                samples.push_back(timer.elapsed_seconds());
            }
        }
        struct Out {
            double wall_ms;
            mcs::CsReconstruction result;
            mcs::PipelineCounters counters;
        };
        return Out{median(std::move(samples)) * 1000.0, std::move(result),
                   ctx.counters()};
    };

    std::cerr << "cs solve: exact tier...\n";
    const auto exact = timed_tier(mcs::KernelTier::kExact);
    std::cerr << "cs solve: fast tier...\n";
    const auto fast = timed_tier(mcs::KernelTier::kFast);
    const double speedup =
        fast.wall_ms > 0.0 ? exact.wall_ms / fast.wall_ms : 1.0;
    const double deviation =
        max_rel_deviation(exact.result.estimate, fast.result.estimate);

    std::cerr << "cs solve: exact " << exact.wall_ms << " ms, fast "
              << fast.wall_ms << " ms, speedup " << speedup
              << ", max rel dev " << deviation << "\n";

    // FLOPs are counted per tier: the fast tier carries X = L·Rᵀ across
    // half steps and takes one GEMM per gradient, so it does about half
    // the exact tier's arithmetic for the same iterations.
    const auto flops_json = [](const mcs::PipelineCounters& c) {
        mcs::Json split = mcs::Json::object();
        split["multiply"] = c.flops_multiply;
        split["multiply_transposed"] = c.flops_multiply_transposed;
        split["transpose_multiply"] = c.flops_transpose_multiply;
        split["masked_residual"] = c.flops_masked_residual;
        return split;
    };
    mcs::Json gemm_flops = mcs::Json::object();
    gemm_flops["exact"] = exact.counters.gemm_flops;
    gemm_flops["fast"] = fast.counters.gemm_flops;
    mcs::Json by_kernel = mcs::Json::object();
    by_kernel["exact"] = flops_json(exact.counters);
    by_kernel["fast"] = flops_json(fast.counters);
    const double flops_ratio =
        static_cast<double>(fast.counters.gemm_flops) /
        static_cast<double>(std::max<std::uint64_t>(
            exact.counters.gemm_flops, 1));

    mcs::Json out = mcs::Json::object();
    out["participants"] = kRows;
    out["slots"] = kSlots;
    out["exact_ms"] = exact.wall_ms;
    out["fast_ms"] = fast.wall_ms;
    out["speedup"] = speedup;
    out["speedup_target"] = 2.0;
    out["meets_target"] = speedup >= 2.0;
    out["gemm_flops_per_solve"] = std::move(gemm_flops);
    out["flops_by_kernel"] = std::move(by_kernel);
    out["fast_to_exact_gemm_flops"] = flops_ratio;
    out["fast_to_exact_gemm_flops_max"] = kMaxFastFlopsRatio;
    out["exact_gflops"] = static_cast<double>(exact.counters.gemm_flops) /
                          (exact.wall_ms / 1000.0) / 1e9;
    out["fast_gflops"] = static_cast<double>(fast.counters.gemm_flops) /
                         (fast.wall_ms / 1000.0) / 1e9;
    out["asd_iterations_exact"] = exact.result.asd_iterations;
    out["asd_iterations_fast"] = fast.result.asd_iterations;
    out["max_rel_deviation"] = deviation;
    return out;
}

/// Ratio-based regression gate: fail when any kernel (or the CS solve)
/// keeps less than `kKeepFraction` of its baseline fast/exact speedup.
constexpr double kKeepFraction = 0.8;

int check_against_baseline(const mcs::Json& current,
                           const std::string& baseline_path) {
    // Machine-independent, so it runs before the fast-path check below.
    const double flops_ratio =
        current.at("cs_solve").at("fast_to_exact_gemm_flops").as_number();
    if (flops_ratio > kMaxFastFlopsRatio) {
        std::cerr << "baseline gate: FLOP REGRESSION in cs_solve: fast tier "
                     "does "
                  << flops_ratio << "x the exact tier's GEMM FLOPs (max "
                  << kMaxFastFlopsRatio << ")\n";
        return 1;
    }
    std::cerr << "baseline gate: cs_solve fast/exact GEMM FLOPs "
              << flops_ratio << " <= " << kMaxFastFlopsRatio << "\n";

    const mcs::Json baseline = mcs::read_json_file(baseline_path);
    const std::string current_path = current.at("fast_path").as_string();
    const std::string stored_path =
        baseline.string_or("fast_path", current_path);
    if (stored_path != current_path) {
        std::cerr << "baseline gate: skipped — baseline fast path is '"
                  << stored_path << "' but this machine dispatches '"
                  << current_path << "' (speedup ratios not comparable)\n";
        return 0;
    }

    int regressions = 0;
    const auto gate = [&](const std::string& name, double now, double then) {
        if (then <= 0.0) {
            return;
        }
        const double floor = then * kKeepFraction;
        if (now < floor) {
            std::cerr << "baseline gate: REGRESSION in " << name
                      << ": speedup " << now << " < " << floor
                      << " (baseline " << then << " x " << kKeepFraction
                      << ")\n";
            ++regressions;
        } else {
            std::cerr << "baseline gate: " << name << " ok (speedup " << now
                      << ", baseline " << then << ")\n";
        }
    };

    const mcs::Json& rows = current.at("kernels");
    const mcs::Json& stored_rows = baseline.at("kernels");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const mcs::Json& row = rows.at(i);
        const std::string& name = row.at("kernel").as_string();
        for (std::size_t j = 0; j < stored_rows.size(); ++j) {
            const mcs::Json& stored = stored_rows.at(j);
            if (stored.at("kernel").as_string() == name) {
                gate(name, row.at("speedup").as_number(),
                     stored.at("speedup").as_number());
                break;
            }
        }
    }
    if (baseline.contains("cs_solve")) {
        gate("cs_solve", current.at("cs_solve").at("speedup").as_number(),
             baseline.at("cs_solve").number_or("speedup", 0.0));
    }
    if (regressions > 0) {
        std::cerr << "baseline gate: " << regressions
                  << " kernel(s) regressed more than "
                  << (1.0 - kKeepFraction) * 100.0 << "% vs " << baseline_path
                  << "\n";
        return 1;
    }
    std::cerr << "baseline gate: all speedups within "
              << (1.0 - kKeepFraction) * 100.0 << "% of " << baseline_path
              << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::size_t repeat = 0;
    std::string output = "BENCH_kernels.json";
    std::string baseline;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg == "--output" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline = argv[++i];
        } else {
            std::cerr << "usage: perf_kernels [--quick] [--repeat N] "
                         "[--output FILE] [--baseline FILE]\n";
            return 2;
        }
    }
    if (repeat == 0) {
        repeat = quick ? 5 : 9;
    }

    mcs::Json report = mcs::Json::object();
    report["benchmark"] = "kernel_tiers";
    // Kernel micro-benches are strictly single-threaded by design.
    mcs::stamp_environment(report, repeat, /*threads_used=*/1, quick);
    report["warmup_runs"] = 1;
    report["cpu"] = cpu_json();
    report["fast_path"] = std::string(mcs::fast_kernel_path());
    report["kernels"] = bench_kernels(repeat, quick);
    report["cs_solve"] = bench_cs_solve(repeat, quick);

    std::ofstream out_file(output);
    out_file << report.dump(2) << "\n";
    std::cout << report.dump(2) << "\n";

    if (!baseline.empty()) {
        return check_against_baseline(report, baseline);
    }
    return 0;
}
