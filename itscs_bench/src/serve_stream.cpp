// serve_stream — the live path: corrupted 158-participant traces replayed
// open-loop through a real IngestDaemon at its defaults (window 60, stride
// 20, warm start on, exact tier), with the ingest journal on, the defence
// armed at its default spec and 2 runner threads.
//
// A run replays kStreams independent streams, each through a fresh daemon:
// one stream's windows share one fleet, so their costs move together, and
// independent streams keep the run's medians from hanging on one fleet.
// Each stream opens with its first window's slots all due at once (a
// backlog at connect), then one slot every kSlotIntervalMs whatever the
// daemon is doing (independent uploaders: an open loop). A window's latency
// runs from the due time of its last slot until drain() hands back its
// report; the generator polls drain() between due times.
//
// clean_wall_s sums the daemons' evaluations of every window (the
// push_slot that closes a window, at 2 threads). clean_wall_1t_s sums the
// evaluations of each stream's first kWindows1t windows at 1 thread,
// measured by pushing those slots closed-loop through a StreamingDetector
// outside the daemon, with a 1-thread FleetRunner evaluator on the same
// 2-shard plan; window costs swing with their data, so the replay covers
// most of each stream. That replay also checks the daemons' reports bit
// for bit.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "corruption/scenario.hpp"
#include "defense/defense.hpp"
#include "metrics/confusion.hpp"
#include "persist/frame_io.hpp"
#include "serve/daemon.hpp"
#include "serve/upload_codec.hpp"
#include "trace/simulator.hpp"
#include "workloads.hpp"

namespace itscs_bench {

namespace {

constexpr std::size_t kParticipants = 158;
constexpr std::size_t kWindow = 60;
constexpr std::size_t kStride = 20;
constexpr std::size_t kRunnerThreads = 2;
constexpr double kMissingRatio = 0.2;
constexpr double kFaultRatio = 0.2;
constexpr std::size_t kStreams = 3;
// Fixed arrival schedule: one stride every kStride·kSlotIntervalMs = 1 s.
// The seed code evaluates the early windows of a stream in about half of
// that on a 4-CPU x86 box; every run states the headroom it observed.
constexpr double kSlotIntervalMs = 50.0;
// Windows replayed at 1 thread after the open loops; the seconds of
// --seconds kept back for that replay, the set-up and the report (about
// 5.5 s per stream and 1 s); and the seconds a stream takes beyond its
// schedule (connect, the backlog of the first window, the last window's
// evaluation, drain and finish).
constexpr std::size_t kWindows1t = 6;
constexpr double kReserveSeconds = 1.0 + 5.5 * kStreams;
constexpr double kStreamOverheadSeconds = 0.5;
constexpr std::size_t kMinWindows = kWindows1t;
// Set-ups timed per stream (each rebuilds the stream from the same seeds;
// the last one is replayed).
constexpr std::size_t kSetupReps = 3;
// Detection F1 floor: the seed code scores ~0.98 on this workload.
constexpr double kF1Floor = 0.93;

// Windows per stream so that kStreams open loops fill the time left.
std::size_t windows_per_stream(double seconds) {
    const double stride_s = kStride * kSlotIntervalMs / 1000.0;
    const double per_stream = (seconds - kReserveSeconds) / kStreams;
    const double windows =
        std::floor((per_stream - kStreamOverheadSeconds) / stride_s) + 1.0;
    return std::max(kMinWindows,
                    static_cast<std::size_t>(std::max(0.0, windows)));
}

mcs::SlotUpload slot_of(const mcs::CorruptedDataset& data, std::size_t j) {
    const std::size_t n = data.participants();
    mcs::SlotUpload upload;
    upload.x.resize(n);
    upload.y.resize(n);
    upload.vx.resize(n);
    upload.vy.resize(n);
    upload.observed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        upload.x[i] = data.sx(i, j);
        upload.y[i] = data.sy(i, j);
        upload.vx[i] = data.vx(i, j);
        upload.vy[i] = data.vy(i, j);
        upload.observed[i] = data.existence(i, j) != 0.0 ? 1 : 0;
    }
    return upload;
}

// Columns [first, first + width) of a corrupted stream as a framework
// input (what the daemon evaluates for that window).
mcs::ItscsInput window_input(const mcs::CorruptedDataset& data,
                             std::size_t first, std::size_t width) {
    const std::size_t n = data.participants();
    mcs::ItscsInput input;
    input.sx = mcs::Matrix(n, width);
    input.sy = mcs::Matrix(n, width);
    input.vx = mcs::Matrix(n, width);
    input.vy = mcs::Matrix(n, width);
    input.existence = mcs::Matrix(n, width);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < width; ++k) {
            input.sx(i, k) = data.sx(i, first + k);
            input.sy(i, k) = data.sy(i, first + k);
            input.vx(i, k) = data.vx(i, first + k);
            input.vy(i, k) = data.vy(i, first + k);
            input.existence(i, k) = data.existence(i, first + k);
        }
    }
    input.tau_s = data.tau_s;
    return input;
}

mcs::RuntimeConfig runtime_config(std::size_t threads,
                                  const mcs::DefenseSuite* defense) {
    mcs::RuntimeConfig config;
    config.threads = threads;
    config.shard_count = kRunnerThreads;  // the daemon's plan at any threads
    config.kernel_tier = mcs::KernelTier::kExact;
    config.defense = defense;
    return config;
}

bool same_report(const mcs::WindowReport& a, const mcs::WindowReport& b) {
    return a.first_slot == b.first_slot &&
           bitwise_equal(a.detection, b.detection) &&
           bitwise_equal(a.reconstructed_x, b.reconstructed_x) &&
           bitwise_equal(a.reconstructed_y, b.reconstructed_y);
}

struct Stream {
    mcs::TraceDataset truth;
    mcs::CorruptedDataset data;
    std::vector<mcs::SlotUpload> uploads;
    std::string journal;
    std::unique_ptr<mcs::IngestDaemon> daemon;
    std::vector<mcs::WindowReport> reports;
};

}  // namespace

void run_serve_stream(Run& run) {
    Outcome& out = run.out;
    const bool traced = run.options.trace;
    const std::size_t windows = windows_per_stream(run.options.seconds);
    const std::size_t slots = kWindow + kStride * (windows - 1);
    const mcs::ItscsConfig framework;
    // The defence must outlive every runner that borrows it.
    const mcs::DefenseSuite defense(mcs::DefenseSpec::parse(""));

    // ---- set-up, kSetupReps times per stream: simulate + corrupt +
    // encode + daemon.
    run.spans.set_enabled(traced);
    std::vector<Stream> streams(kStreams);
    std::vector<double> setup_s;
    for (std::size_t rep = 0; rep < kSetupReps * kStreams; ++rep) {
        const std::size_t s = rep % kStreams;
        Stream& stream = streams[s];
        stream = Stream{};
        SpanRecorder::Scope setup(run.spans, "bench.setup", "stream",
                                  static_cast<std::int64_t>(s));
        mcs::SimulatorConfig sim;
        sim.participants = kParticipants;
        sim.slots = slots;
        sim.seed = derive_seed(run.options.seed, 10 * s + 11);
        {
            SpanRecorder::Scope span(run.spans, "trace.simulate_fleet");
            stream.truth = mcs::simulate_fleet(sim);
        }
        mcs::CorruptionConfig corruption;
        corruption.missing_ratio = kMissingRatio;
        corruption.fault_ratio = kFaultRatio;
        corruption.seed = derive_seed(run.options.seed, 10 * s + 12);
        {
            SpanRecorder::Scope span(run.spans, "corruption.corrupt");
            stream.data = mcs::corrupt(stream.truth, corruption);
        }
        for (std::size_t j = 0; j < slots; ++j) {
            stream.uploads.push_back(slot_of(stream.data, j));
        }
        mcs::ServeConfig config;
        config.participants = kParticipants;
        config.tau_s = stream.data.tau_s;
        config.window = kWindow;
        config.stride = kStride;
        config.framework = framework;
        config.runtime = runtime_config(kRunnerThreads, &defense);
        stream.journal = run.options.work_dir + "/ingest-" +
                         std::to_string(rep) + ".mcsj";
        config.journal_path = stream.journal;
        config.warm_start = true;
        {
            SpanRecorder::Scope span(run.spans,
                                     "serve.IngestDaemon::IngestDaemon");
            stream.daemon = std::make_unique<mcs::IngestDaemon>(config);
        }
        setup_s.push_back(setup.end());
    }
    out.set("setup_s", median(setup_s), "s");
    out.set("trace.simulate_s",
            run.spans.total_seconds("trace.simulate_fleet") /
                static_cast<double>(setup_s.size()),
            "s");
    out.set("corruption.corrupt_s",
            run.spans.total_seconds("corruption.corrupt") /
                static_cast<double>(setup_s.size()),
            "s");

    // ---- open-loop replays, one stream after another.
    std::vector<double> latency_ms;
    std::vector<double> latency_traced_ms;  // windows whose slots were traced
    std::vector<double> latency_untraced_ms;
    std::vector<double> window_eval_s;      // the daemons' evaluations
    double submit_ms = 0.0;
    double lag_max_ms = 0.0;
    std::size_t backlog_max = 0;
    mcs::ServeStats totals;
    mcs::PipelineContext daemon_ctx;
    const auto window_of_slot = [](std::size_t j) {
        return j < kWindow ? std::size_t{0} : (j - kWindow) / kStride + 1;
    };
    // A traced run records spans for the slots of odd windows only, so
    // traced and untraced windows of one replay can be compared.
    const auto record_window = [&](std::size_t window) {
        return traced && window % 2 == 1;
    };
    // Slot j is due at t0 + max(0, j − (window − 1)) · interval.
    const auto due_us = [](double t0_us, std::size_t j) {
        const std::size_t step = j < kWindow - 1 ? 0 : j - (kWindow - 1);
        return t0_us + static_cast<double>(step) * kSlotIntervalMs * 1000.0;
    };
    for (std::size_t s = 0; s < kStreams; ++s) {
        Stream& stream = streams[s];
        mcs::IngestDaemon& daemon = *stream.daemon;
        const auto collect = [&](double t0_us) {
            std::vector<mcs::WindowReport> got = daemon.drain();
            const double now_us = run.spans.now_us();
            for (mcs::WindowReport& report : got) {
                const std::size_t window = report.first_slot / kStride;
                const double due =
                    due_us(t0_us, report.first_slot + kWindow - 1);
                const double ms = (now_us - due) / 1000.0;
                latency_ms.push_back(ms);
                (record_window(window) ? latency_traced_ms
                                       : latency_untraced_ms)
                    .push_back(ms);
                run.spans.set_enabled(record_window(window));
                run.spans.record("serve.window_latency", due, now_us,
                                 "window", static_cast<std::int64_t>(window));
                stream.reports.push_back(std::move(report));
            }
        };

        daemon.start();
        const double t0_us = run.spans.now_us() + 20'000.0;
        for (std::size_t j = 0; j < slots; ++j) {
            const double due = due_us(t0_us, j);
            for (double now = run.spans.now_us(); now < due;
                 now = run.spans.now_us()) {
                collect(t0_us);
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<long>(std::min(500.0, due - now))));
            }
            lag_max_ms =
                std::max(lag_max_ms, (run.spans.now_us() - due) / 1000.0);
            run.spans.set_enabled(record_window(window_of_slot(j)));
            {
                SpanRecorder::Scope span(run.spans,
                                         "serve.IngestDaemon::submit", "slot",
                                         static_cast<std::int64_t>(j));
                daemon.submit(stream.uploads[j]);
                submit_ms += span.end() * 1000.0;
            }
            const std::size_t accepted = daemon.stats().uploads_accepted;
            backlog_max =
                std::max(backlog_max, j + 1 - std::min(j + 1, accepted));
        }
        // The last report arrives after the last slot: keep polling
        // (bounded, so a stalled daemon fails the window gate instead of
        // hanging the run).
        const double deadline_us = run.spans.now_us() + 60e6;
        while (stream.reports.size() < windows &&
               run.spans.now_us() < deadline_us) {
            collect(t0_us);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        {
            SpanRecorder::Scope span(run.spans, "serve.IngestDaemon::finish");
            daemon.finish();
        }
        collect(t0_us);
        run.spans.set_enabled(traced);

        const mcs::ServeStats stats = daemon.stats();
        // The push_slot of each slot that closes a window carries that
        // window's evaluation (slot_latency_ms is indexed by slot here:
        // nothing was replayed from a journal).
        for (std::size_t j = kWindow - 1; j < stats.slot_latency_ms.size();
             j += kStride) {
            window_eval_s.push_back(stats.slot_latency_ms[j] / 1000.0);
        }
        totals.uploads_rejected += stats.uploads_rejected;
        totals.windows_evaluated += stats.windows_evaluated;
        totals.windows_warm += stats.windows_warm;
        totals.warm_resets += stats.warm_resets;
        totals.shards_stolen += stats.shards_stolen;
        daemon_ctx.merge(daemon.context());

        out.attempted += slots + windows;
        out.failed += stats.uploads_rejected;
        if (stats.uploads_rejected > 0) {
            out.breaches.push_back(
                "serve_stream: stream " + std::to_string(s) + ": " +
                std::to_string(stats.uploads_rejected) + " uploads rejected");
        }
        for (const mcs::FailureReport& failure : daemon.drain_failures()) {
            out.breach("serve_stream: stream " + std::to_string(s) +
                       ": daemon failure: " + failure.detail);
        }
        const std::size_t got =
            std::min(stats.windows_evaluated, stream.reports.size());
        if (stats.windows_evaluated != windows ||
            stream.reports.size() != windows) {
            out.failed += windows - std::min(windows, got);
            out.breaches.push_back(
                "serve_stream: stream " + std::to_string(s) + ": expected " +
                std::to_string(windows) + " windows, daemon evaluated " +
                std::to_string(stats.windows_evaluated) + " and returned " +
                std::to_string(stream.reports.size()));
        }
    }

    // ---- quality over every report, and the finite-output gate.
    mcs::ConfusionCounts confusion;
    double error_sum = 0.0;
    std::size_t error_cells = 0;
    for (const Stream& stream : streams) {
        for (const mcs::WindowReport& report : stream.reports) {
            for (const mcs::Matrix* m :
                 {&report.detection, &report.reconstructed_x,
                  &report.reconstructed_y}) {
                if (!all_finite(*m)) {
                    out.breach("serve_stream: non-finite or empty window " +
                               std::to_string(report.first_slot / kStride));
                }
            }
            for (std::size_t i = 0; i < report.detection.rows(); ++i) {
                for (std::size_t k = 0; k < report.detection.cols(); ++k) {
                    const std::size_t j = report.first_slot + k;
                    const bool observed = stream.data.existence(i, j) != 0.0;
                    const bool flagged = report.detection(i, k) != 0.0;
                    if (observed) {
                        const bool faulty = stream.data.fault(i, j) != 0.0;
                        confusion.true_positive += flagged && faulty;
                        confusion.false_positive += flagged && !faulty;
                        confusion.false_negative += !flagged && faulty;
                        confusion.true_negative += !flagged && !faulty;
                    }
                    if (!observed || flagged) {  // reconstructed, Eq. (29)
                        error_sum += std::hypot(
                            report.reconstructed_x(i, k) - stream.truth.x(i, j),
                            report.reconstructed_y(i, k) - stream.truth.y(i, j));
                        ++error_cells;
                    }
                }
            }
        }
    }
    const double f1 = confusion.f1();
    if (!(f1 >= kF1Floor)) {
        out.breach("serve_stream: f1 " + std::to_string(f1) +
                   " below floor " + std::to_string(kF1Floor));
    }

    // ---- each stream's first kWindows1t windows at 1 thread, outside the
    // daemon (closed loop).
    mcs::FleetRunner runner1(runtime_config(1, &defense));
    const std::size_t slots_1t = kWindow + kStride * (kWindows1t - 1);
    std::vector<double> eval_ms;  // every 1-thread evaluation
    std::size_t mismatched = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
        const Stream& stream = streams[s];
        mcs::StreamingDetector::Config detector_config;
        detector_config.window = kWindow;
        detector_config.stride = kStride;
        detector_config.framework = framework;
        detector_config.evaluator = runner1.window_evaluator();
        detector_config.warm_start = true;
        mcs::StreamingDetector detector(kParticipants, stream.data.tau_s,
                                        detector_config);
        mcs::PipelineContext ctx1;
        detector.attach_context(&ctx1);
        SpanRecorder::Scope pass(run.spans, "bench.one_thread_replay",
                                 "stream", static_cast<std::int64_t>(s));
        std::size_t index = 0;
        for (std::size_t j = 0; j < slots_1t; ++j) {
            SpanRecorder::Scope push(run.spans,
                                     "core.StreamingDetector::push_slot",
                                     "slot", static_cast<std::int64_t>(j));
            detector.push_slot(stream.uploads[j]);
            const double ms = push.end() * 1000.0;
            if (detector.reports_pending() == 0) {
                continue;
            }
            eval_ms.push_back(ms);
            std::optional<mcs::WindowReport> report;
            {
                SpanRecorder::Scope poll(run.spans,
                                         "core.StreamingDetector::poll");
                report = detector.poll();
            }
            if (!report || index >= stream.reports.size() ||
                !same_report(*report, stream.reports[index])) {
                ++mismatched;
            }
            ++index;
        }
    }
    out.attempted += kStreams * kWindows1t;
    if (mismatched > 0 || eval_ms.size() != kStreams * kWindows1t) {
        out.breach("serve_stream: " + std::to_string(mismatched) + " of " +
                   std::to_string(eval_ms.size()) +
                   " 1-thread windows differ from the daemons' reports");
    }

    // ---- end-to-end metrics.
    const Tail tail = tail_of(latency_ms);
    double eval_1t_s = 0.0;
    for (const double ms : eval_ms) {
        eval_1t_s += ms / 1000.0;
    }
    double eval_2t_s = 0.0;
    for (const double seconds : window_eval_s) {
        eval_2t_s += seconds;
    }
    out.set("clean_wall_s", eval_2t_s, "s");
    out.set("clean_wall_1t_s", eval_1t_s, "s");
    out.set("window_latency_p50_ms", median(latency_ms), "ms");
    out.set("window_latency_tail_ms", tail.value, "ms");
    out.set("f1", f1, "ratio");
    out.set("recon_mae_m",
            error_cells > 0 ? error_sum / static_cast<double>(error_cells)
                            : 0.0,
            "m");

    out.notes["reps"] = std::size_t{1};
    out.notes["streams"] =
        std::to_string(kStreams) + " streams of " +
        std::to_string(kParticipants) + "x" + std::to_string(slots) +
        ", window " + std::to_string(kWindow) + ", stride " +
        std::to_string(kStride) + ", " + std::to_string(kRunnerThreads) +
        " runner threads, exact tier, warm start, journal on, defence armed";
    out.notes["schedule"] =
        "open loop: a window's slots due at once, then one slot every " +
        std::to_string(kSlotIntervalMs) + " ms";
    out.notes["window_latency_samples"] = latency_ms.size();
    out.notes["window_latency_tail"] = tail.label;
    out.notes["clean_wall_s"] =
        "sum of the daemons' evaluations (2 threads) of every window";
    out.notes["clean_wall_1t_s"] =
        "sum of each stream's first " + std::to_string(kWindows1t) +
        " windows' evaluations through a 1-thread evaluator, closed loop";
    out.notes["schedule_headroom"] =
        median(window_eval_s) > 0.0
            ? kStride * kSlotIntervalMs / 1000.0 / median(window_eval_s)
            : 0.0;
    mcs::Json per_window = mcs::Json::array();
    for (std::size_t k = 0; k < latency_ms.size(); ++k) {
        mcs::Json entry = mcs::Json::object();
        entry["latency_ms"] = latency_ms[k];
        entry["eval_ms"] =
            k < window_eval_s.size() ? window_eval_s[k] * 1000.0 : 0.0;
        per_window.push_back(std::move(entry));
    }
    out.notes["windows"] = std::move(per_window);

    if (!traced) {
        return;
    }
    // ---- per-layer.
    add_pipeline_metrics(out, daemon_ctx);
    const std::size_t shard_rows = kParticipants / kRunnerThreads;
    add_kernel_peak(out, multiply_transposed_peak_gflops(
                             run.spans, shard_rows, kWindow,
                             mcs::recommended_rank(shard_rows, kWindow),
                             mcs::KernelTier::kExact, 0.5));
    const Stream& first = streams.front();
    const mcs::ItscsInput last = window_input(
        first.data, first.reports.empty() ? 0 : first.reports.back().first_slot,
        kWindow);
    probe_framework_iteration(run.spans, last, framework,
                              mcs::KernelTier::kExact);
    {
        SpanRecorder::Scope span(run.spans, "defense.DefenseSuite::analyze");
        defense.analyze(last.sx, last.sy, last.existence);
    }
    out.set("core.window_eval_ms", median(eval_ms), "ms");
    out.set("core.window_eval_ms_max",
            eval_ms.empty() ? 0.0
                            : *std::max_element(eval_ms.begin(), eval_ms.end()),
            "ms");
    out.set("runtime.shards_stolen", static_cast<double>(totals.shards_stolen),
            "count");
    out.set("runtime.shard_retries",
            static_cast<double>(daemon_ctx.counters().shard_retries), "count");
    std::error_code ec;
    const auto journal_bytes = std::filesystem::file_size(first.journal, ec);
    out.set("persist.journal_mb",
            ec ? 0.0 : static_cast<double>(journal_bytes) / (1024.0 * 1024.0),
            "MiB");
    {
        // FrameWriter::append at the daemon's frame size: encoded slots.
        mcs::FrameWriter writer(run.options.work_dir + "/append_probe.mcsj",
                                /*truncate=*/true);
        std::vector<double> append_us;
        for (std::size_t j = 0; j < slots; ++j) {
            const std::vector<std::uint8_t> frame =
                mcs::encode_slot_upload(first.uploads[j]);
            SpanRecorder::Scope span(run.spans, "persist.FrameWriter::append",
                                     "slot", static_cast<std::int64_t>(j));
            writer.append(frame);
            append_us.push_back(span.end() * 1e6);
        }
        out.set("persist.journal_append_us", median(append_us), "us");
    }
    out.set("serve.submit_block_ms", submit_ms, "ms");
    out.set("serve.generator_lag_ms", lag_max_ms, "ms");
    out.set("serve.backlog_slots_max", static_cast<double>(backlog_max),
            "count");
    out.set("serve.windows", static_cast<double>(totals.windows_evaluated),
            "count");
    out.set("serve.windows_warm", static_cast<double>(totals.windows_warm),
            "count");
    out.set("serve.warm_resets", static_cast<double>(totals.warm_resets),
            "count");
    out.set("bench.trace_overhead_latency_p50_ms",
            median(latency_traced_ms) - median(latency_untraced_ms), "ms");
}

}  // namespace itscs_bench
