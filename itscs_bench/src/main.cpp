// itscs_bench — the repository benchmark (see README.md).
//
//   itscs_bench --workload <batch_fleet|serve_stream|outofcore_stream>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir DIR] [--out-dir DIR]
//
// Prints a human table, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run also
// writes its spans as Chrome trace-event JSON into --out-dir. Exits 1 when
// any correctness gate fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <unistd.h>

#include "common/json.hpp"
#include "workloads.hpp"

namespace {

using itscs_bench::Metric;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Names and units as BENCHMARK.json lists them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"clean_wall_s", "s"},
    {"clean_wall_1t_s", "s"},
    {"window_latency_p50_ms", "ms"},
    {"window_latency_tail_ms", "ms"},
    {"f1", "ratio"},
    {"recon_mae_m", "m"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"linalg.gemm_gflop", "GFLOP"},
    {"linalg.solve_gflops", "GFLOP/s"},
    {"linalg.mt_peak_gflops", "GFLOP/s"},
    {"linalg.kernel_gap", "ratio"},
    {"cs.asd_iterations", "count"},
    {"cs.solves", "count"},
    {"cs.iterations_per_solve", "count"},
    {"cs.asd_s", "s"},
    {"cs.ms_per_asd_iteration", "ms"},
    {"detect.ts_detect_s", "s"},
    {"detect.passes", "count"},
    {"core.framework_iterations", "count"},
    {"core.check_s", "s"},
    {"core.run_itscs_s", "s"},
    {"core.warm_seed_s", "s"},
    {"core.window_eval_ms", "ms"},
    {"core.window_eval_ms_max", "ms"},
    {"runtime.shard_s_median", "s"},
    {"runtime.shard_s_max", "s"},
    {"runtime.shard_imbalance", "ratio"},
    {"runtime.shard_iterations_min", "count"},
    {"runtime.shard_iterations_max", "count"},
    {"runtime.shards_stolen", "count"},
    {"runtime.shard_retries", "count"},
    {"runtime.parallel_efficiency", "ratio"},
    {"persist.resident_window_mb", "MiB"},
    {"persist.slab_file_mb", "MiB"},
    {"persist.slab_write_mb_s", "MiB/s"},
    {"persist.checkpoint_commits", "count"},
    {"persist.checkpoint_mb", "MiB"},
    {"persist.journal_mb", "MiB"},
    {"persist.journal_append_us", "us"},
    {"serve.submit_block_ms", "ms"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.backlog_slots_max", "count"},
    {"serve.windows", "count"},
    {"serve.windows_warm", "count"},
    {"serve.warm_resets", "count"},
    {"defense.analyze_s", "s"},
    {"defense.trips", "count"},
    {"trace.simulate_s", "s"},
    {"corruption.corrupt_s", "s"},
    {"persist.slab_ingest_s", "s"},
    {"bench.trace_overhead_clean_wall_s", "s"},
    {"bench.trace_overhead_latency_p50_ms", "ms"},
};

int usage(const std::string& problem) {
    std::cerr << "itscs_bench: " << problem << "\n"
              << "usage: itscs_bench --workload "
                 "<batch_fleet|serve_stream|outofcore_stream> --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n";
    return 2;
}

void print_table(const itscs_bench::Outcome& out,
                 const std::vector<Metric>& reported,
                 const std::vector<std::string>& idle) {
    std::printf("%-40s %16s  %s\n", "metric", "value", "unit");
    for (const Metric& metric : reported) {
        bool is_idle = false;
        for (const std::string& name : idle) {
            is_idle = is_idle || name == metric.name;
        }
        std::printf("%-40s %16.6g  %s%s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str(), is_idle ? "  (layer idle)" : "");
    }
    for (const std::string& key : out.notes.keys()) {
        const mcs::Json& note = out.notes.at(key);
        if (!note.is_array()) {  // per-window lists go to the results file
            std::printf("note %s: %s\n", key.c_str(), note.dump(0).c_str());
        }
    }
    for (const std::string& breach : out.breaches) {
        std::printf("GATE FAILED: %s\n", breach.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    itscs_bench::Run run;
    itscs_bench::Options& opt = run.options;
    opt.work_dir = ".bench_build/work";
    opt.out_dir = ".bench_build/results";
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (i + 1 >= argc) {
            return usage("missing value for " + std::string(arg));
        }
        const std::string value(argv[++i]);
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' &&
                           opt.seconds > 0.0 && opt.seconds <= 600.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (arg == "--work-dir") {
            opt.work_dir = value;
        } else if (arg == "--out-dir") {
            opt.out_dir = value;
        } else {
            return usage("unknown argument " + std::string(arg));
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        return usage("--seed, --seconds (0 < s <= 600) and --trace 0|1 are "
                     "required");
    }
    void (*workload)(itscs_bench::Run&) = nullptr;
    if (opt.workload == "batch_fleet") {
        workload = itscs_bench::run_batch_fleet;
    } else if (opt.workload == "serve_stream") {
        workload = itscs_bench::run_serve_stream;
    } else if (opt.workload == "outofcore_stream") {
        workload = itscs_bench::run_outofcore_stream;
    } else {
        return usage("unknown workload '" + opt.workload + "'");
    }

    const std::string tag = opt.workload + "-" + std::to_string(opt.seed) +
                            (opt.trace ? "-trace" : "");
    opt.work_dir += "/" + tag + "-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    std::filesystem::create_directories(opt.work_dir);
    std::filesystem::create_directories(opt.out_dir);

    itscs_bench::Outcome& out = run.out;
    try {
        workload(run);
    } catch (const std::exception& error) {
        std::filesystem::remove_all(opt.work_dir, ec);
        std::cerr << "itscs_bench: " << opt.workload
                  << " failed: " << error.what() << "\n";
        return 1;
    }
    std::filesystem::remove_all(opt.work_dir, ec);
    out.set("peak_rss_mb", itscs_bench::peak_rss_mib(), "MiB");

    // Assemble the reported set: every metric of the requested kind, in
    // catalogue order. A per-layer metric the workload did not set belongs
    // to a layer it does not run and reads 0; a missing end-to-end metric
    // is a benchmark bug and fails the run.
    std::vector<Metric> reported;
    std::vector<std::string> idle;
    if (opt.trace) {
        for (const MetricSpec& spec : kPerLayer) {
            const Metric* metric = out.find(spec.name);
            if (metric == nullptr) {
                idle.push_back(spec.name);
            }
            reported.push_back({spec.name, metric ? metric->value : 0.0,
                                spec.unit});
        }
    } else {
        for (const MetricSpec& spec : kEndToEnd) {
            const Metric* metric = out.find(spec.name);
            if (metric == nullptr) {
                out.breach(std::string("end-to-end metric not measured: ") +
                           spec.name);
            }
            reported.push_back({spec.name, metric ? metric->value : 0.0,
                                spec.unit});
        }
    }
    for (Metric& metric : reported) {
        if (!std::isfinite(metric.value)) {
            out.breach("non-finite metric " + metric.name);
            metric.value = 0.0;
        }
    }

    const mcs::Json stamp = itscs_bench::environment_stamp(
        out.notes.contains("reps")
            ? static_cast<std::size_t>(out.notes.at("reps").as_number())
            : 1);
    std::printf("itscs_bench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("environment: %s\n", stamp.dump(0).c_str());
    print_table(out, reported, idle);

    mcs::Json metrics = mcs::Json::object();
    mcs::Json full = mcs::Json::object();
    for (const Metric& metric : reported) {
        mcs::Json entry = mcs::Json::object();
        entry["value"] = metric.value;
        entry["unit"] = metric.unit;
        metrics[metric.name] = std::move(entry);
    }
    for (const Metric& metric : out.metrics) {
        if (std::isfinite(metric.value)) {
            full[metric.name] = metric.value;
        }
    }
    const bool correct = out.breaches.empty() && out.failed == 0;
    mcs::Json line = mcs::Json::object();
    line["correct"] = correct;
    line["attempted"] = std::max<std::size_t>(out.attempted, 1);
    line["failed"] = out.failed;
    line["metrics"] = metrics;

    // Results file: the line plus every measured value, notes, breaches
    // and the environment stamp.
    mcs::Json results = line;
    results["workload"] = opt.workload;
    results["seed"] = static_cast<std::size_t>(opt.seed);
    results["seconds"] = opt.seconds;
    results["trace"] = opt.trace;
    results["environment"] = stamp;
    results["all_measured"] = full;
    results["notes"] = out.notes;
    mcs::Json breaches = mcs::Json::array();
    for (const std::string& breach : out.breaches) {
        breaches.push_back(breach);
    }
    results["breaches"] = std::move(breaches);
    const std::string results_path = opt.out_dir + "/" + tag + ".json";
    {
        std::ofstream file(results_path);
        file << results.dump(2) << "\n";
    }
    if (opt.trace) {
        const std::string trace_path = opt.out_dir + "/" + tag + ".trace.json";
        mcs::Json metadata = mcs::Json::object();
        metadata["seed"] = static_cast<std::size_t>(opt.seed);
        metadata["environment"] = stamp;
        metadata["per_layer"] = metrics;
        run.spans.write_chrome_trace(trace_path, opt.workload, metadata);
        std::printf("trace: %s (%zu spans, Chrome trace-event JSON)\n",
                    trace_path.c_str(), run.spans.size());
    }
    std::printf("results: %s\n", results_path.c_str());
    std::printf("%s\n", line.dump(0).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
