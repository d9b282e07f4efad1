// itscs — command-line front end to the I(TS,CS) library.
//
// Subcommands (all I/O is the long-format trace CSV of trace/trace_io.hpp;
// reports are JSON):
//
//   itscs simulate --participants N --slots T [--seed S] [--extent-km W H]
//                  --out trace.csv
//       Generate a synthetic ground-truth fleet.
//
//   itscs corrupt  --in trace.csv --participants N --slots T
//                  [--alpha A] [--beta B] [--gamma G] [--seed S]
//                  [--drift] --out corrupted.csv [--truth-faults faults.csv]
//       Inject missing values and faults; missing readings are dropped
//       from the output file. --truth-faults records the injected fault
//       cells for later scoring.
//
//   itscs clean    --in corrupted.csv --participants N --slots T
//                  [--variant full|no-v|no-vt] [--solver asd|lrsd]
//                  [--estimate-velocity]
//                  [--threads N] [--shard-size K] [--shard-count C]
//                  [--kernel-threads M] [--tier exact|fast]
//                  [--row-block-threshold K]
//                  [--chaos=SPEC] [--adversary=SPEC] [--defense=SPEC]
//                  [--failure-report fr.json]
//                  [--shard-deadline S]
//                  [--checkpoint-dir D] [--resume] [--strict]
//                  --out cleaned.csv [--flags flags.csv]
//                  [--report report.json] [--stats-json]
//       Run the framework: write the reconstructed trace, the flagged
//       cells, and a JSON run report. --stats-json additionally runs the
//       framework instrumented (PipelineContext) and prints its counters
//       and phase timings as JSON on stdout — the whole of stdout; the
//       human summary lines then go to stderr. --threads/--shard-size route
//       the run through the runtime subsystem's FleetRunner (participant
//       shards detected/corrected concurrently; the per-shard contexts
//       are merged so --stats-json stays a single document);
//       --kernel-threads enables row-blocked kernel parallelism instead
//       of (or alongside) sharding. --tier fast switches the GEMM-shaped
//       kernels to the SIMD tier (linalg/kernel_tier.hpp) — deterministic,
//       but not bit-identical to the default exact tier — and
//       --row-block-threshold overrides the minimum destination rows for
//       row-blocked dispatch; both are echoed (with the detected CPU
//       features and per-kernel FLOP totals) in --report and --stats-json.
//       --chaos injects faults per the
//       DESIGN.md §11 spec grammar (nan=p,inf=p,dup=p,diverge=p,throw=p,
//       cells=q,seed=u,crash=k); --adversary injects structured faults per
//       the §16 grammar (collude=k,outage=r,outagespan=w,outagenoise=m,
//       replay=k,replayshift=d,seed=u) fleet-wide before sharding, with
//       the injection's role assignments echoed in --report;
//       --defense arms the §17 defence suite (collusion=r,radius=m,
//       replay=f,replayspan=s,outage=k,outagespan=w,reinstate=r,
//       maxquarantine=q — an empty spec takes every default) fleet-wide
//       before recovery: flagged participants walk the quarantine ladder
//       (quarantine → re-solve without them → re-test → reinstate or
//       confirm) and the decisions are echoed in --report;
//       --failure-report writes the per-shard
//       degradation outcomes (ladder level, attempts, structured
//       failures) as JSON; --shard-deadline sets a per-shard wall-clock
//       budget in seconds. Any of these forces the FleetRunner path.
//
//       --checkpoint-dir journals every completed shard durably
//       (DESIGN.md §12); with --resume, intact journaled shards are
//       restored instead of re-run and the combined output is
//       bit-identical to an uninterrupted run (a mismatched manifest —
//       different input, config or seed — is refused). --strict exits 3
//       when any shard degraded below nominal or any checkpoint frame
//       was corrupt.
//
//   itscs serve    --in corrupted.csv --participants N --slots T
//                  [--window W] [--stride K] [--variant V] [--solver B]
//                  [--threads N] [--shard-size K] [--shard-count C]
//                  [--tier exact|fast] [--chaos=SPEC]
//                  [--journal FILE] [--resume] [--no-warm-start]
//                  [--warm-verify-every K] [--warm-verify-tolerance T]
//                  [--queue-capacity Q] [--report r.json] [--stats-json]
//       Replay the trace through the online ingestion daemon
//       (DESIGN.md §15): slots stream through a bounded queue into a
//       sliding-window detector that evaluates every --stride slots,
//       warm-starting each window's CS solve from the previous window's
//       factors (disable with --no-warm-start; --warm-verify-every k
//       re-checks every k-th warm window against a cold solve). --journal
//       appends every accepted slot to a CRC-framed ingest log; with
//       --resume the journal is replayed first and the trace feed
//       continues after the replayed slots, so a killed serve run picks
//       up exactly where it stopped. --chaos adds slotloss=k to the §11
//       grammar: every k-th upload is lost and an all-missing slot is
//       ingested in its place. Malformed uploads are rejected with
//       structured FailureReports, not crashes.
//
//   itscs demo     [--alpha A] [--beta B] [--seed S] [--json]
//                  [--stats-json] [--solver asd|lrsd]
//       End-to-end in-memory pipeline with ground-truth scoring.
//       --stats-json prints (or, with --json, merges as a "stats" member)
//       the instrumentation counters of the run.
//
//   itscs help     (also --help / -h)
//       Enumerate every subcommand's --key=value flags. Unknown keys on
//       any subcommand error out naming the nearest valid flag.
//
//       --solver picks the CORRECT-step recovery backend (DESIGN.md §14):
//       asd (the paper's Eq. 23 objective, the default) or lrsd (the
//       LS-decomposition of [18], whose sparse component feeds Check()
//       directly). Recorded in checkpoint manifests like the kernel tier,
//       so a --resume never mixes backends.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failures,
// 3 when --strict finds degraded shards or corrupt checkpoint frames.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/context.hpp"
#include "common/failure.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "core/itscs.hpp"
#include "core/variants.hpp"
#include "corruption/chaos.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "runtime/fleet_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/daemon.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "metrics/confusion.hpp"
#include "metrics/reconstruction_error.hpp"
#include "trace/simulator.hpp"
#include "trace/trace_io.hpp"

namespace {

// The kernel stack as it is configured right now: tier, resolved fast
// path, CPU features, and the active row-block threshold. Attached to both
// --report and --stats-json output so a perf number can always be traced
// back to the code path that produced it.
mcs::Json kernel_info(mcs::KernelTier tier) {
    mcs::Json out = mcs::Json::object();
    out["tier"] = std::string(mcs::to_string(tier));
    out["fast_path"] = std::string(mcs::fast_kernel_path());
    out["row_block_threshold"] = mcs::kernel_row_block_threshold();
    const mcs::CpuFeatures& f = mcs::cpu_features();
    mcs::Json cpu = mcs::Json::object();
    cpu["avx2"] = f.avx2;
    cpu["fma"] = f.fma;
    cpu["avx512f"] = f.avx512f;
    cpu["neon"] = f.neon;
    out["cpu"] = cpu;
    return out;
}

// Role assignments and touched-cell counts of one adversary injection,
// echoed in --report so a detection score can be traced to the attack.
mcs::Json adversary_info(const std::string& spec,
                         const mcs::AdversaryInjection& injection) {
    mcs::Json out = mcs::Json::object();
    out["spec"] = spec;
    out["colluders"] = injection.colluders.size();
    out["replays"] = injection.replays.size();
    out["outage_rows"] = injection.outage_rows;
    out["outage_slots"] = injection.outage_slots;
    out["outage_cells"] = injection.outage_cells;
    out["adversarial_cells"] = mcs::count_equal(injection.mask, 1.0);
    return out;
}

// Outcome of one defence pass (DESIGN.md §17): every flag with its test
// and score, the quarantine ladder's reinstate/confirm split, and the
// classified outage blocks.
mcs::Json defense_info(const std::string& spec,
                       const mcs::DefenseReport& report) {
    mcs::Json out = mcs::Json::object();
    out["spec"] = spec;
    mcs::Json flags = mcs::Json::array();
    for (const mcs::DefenseFlag& flag : report.flags) {
        mcs::Json row = mcs::Json::object();
        row["participant"] = flag.participant;
        row["test"] = std::string(mcs::to_string(flag.test));
        row["score"] = flag.score;
        if (flag.test == mcs::DefenseTest::kReplay) {
            row["partner"] = flag.partner;
            row["shift"] = flag.shift;
        }
        flags.push_back(row);
    }
    out["flags"] = flags;
    const auto indices = [](const std::vector<std::size_t>& rows) {
        mcs::Json list = mcs::Json::array();
        for (const std::size_t r : rows) {
            list.push_back(r);
        }
        return list;
    };
    out["quarantined"] = indices(report.quarantined);
    out["reinstated"] = indices(report.reinstated);
    out["confirmed"] = indices(report.confirmed);
    mcs::Json outages = mcs::Json::array();
    for (const mcs::OutageBlock& block : report.outages) {
        mcs::Json row = mcs::Json::object();
        row["first_row"] = block.first_row;
        row["rows"] = block.rows;
        row["first_slot"] = block.first_slot;
        row["slots"] = block.slots;
        row["dark_cells"] = block.dark_cells;
        outages.push_back(row);
    }
    out["outages"] = outages;
    out["missing_not_faulty_cells"] = report.missing_not_faulty_cells;
    out["trips"] = report.trips;
    return out;
}

// ---- flag registry --------------------------------------------------------
//
// One row per --key the CLI understands, per subcommand. Single source of
// truth for three consumers: `itscs help` (enumerates every flag with its
// description), Args::validate (unknown keys error out with the nearest
// valid name), and the usage sketch.

struct FlagSpec {
    const char* name;   // without the leading --
    const char* value;  // value placeholder, "" for boolean flags
    const char* help;
};

const std::vector<FlagSpec>& known_flags(const std::string& command) {
    static const std::vector<FlagSpec> simulate = {
        {"participants", "N", "fleet size (rows)"},
        {"slots", "T", "time slots (columns)"},
        {"seed", "S", "simulator seed (default 42)"},
        {"extent-km", "E", "square road-network extent in km"},
        {"out", "FILE", "ground-truth trace CSV to write"},
    };
    static const std::vector<FlagSpec> corrupt = {
        {"in", "FILE", "ground-truth trace CSV"},
        {"participants", "N", "fleet size (rows)"},
        {"slots", "T", "time slots (columns)"},
        {"alpha", "A", "missing ratio (default 0.2)"},
        {"beta", "B", "fault ratio (default 0.2)"},
        {"gamma", "G", "velocity-fault ratio (default 0)"},
        {"seed", "S", "corruption seed (default 1)"},
        {"drift", "", "contiguous drift bursts instead of i.i.d. bias"},
        {"adversary", "SPEC", "structured adversary per DESIGN.md §16"},
        {"out", "FILE", "corrupted trace CSV to write"},
        {"truth-faults", "FILE", "CSV of injected fault cells"},
    };
    static const std::vector<FlagSpec> clean = {
        {"in", "FILE", "corrupted trace CSV"},
        {"participants", "N", "fleet size (rows)"},
        {"slots", "T", "time slots (columns)"},
        {"variant", "V", "full | no-v | no-vt (default full)"},
        {"estimate-velocity", "", "derive velocities from positions"},
        {"solver", "B", "recovery backend: asd | lrsd (default asd)"},
        {"threads", "N", "shard worker threads (FleetRunner)"},
        {"shard-size", "K", "participants per shard"},
        {"shard-count", "C", "shard count (when no --shard-size)"},
        {"planner", "P", "shard planner: rows | cell (default rows)"},
        {"kernel-threads", "M", "row-blocked kernel parallelism"},
        {"tier", "T", "kernel tier: exact | fast (default exact)"},
        {"slab-dir", "DIR", "out-of-core slab store; stream shards via mmap"},
        {"storage", "S", "slab storage tier: f64 | f32 (with --slab-dir)"},
        {"memory-budget", "MB", "resident-window ceiling for --slab-dir"},
        {"row-block-threshold", "K", "min rows for row-blocked dispatch"},
        {"chaos", "SPEC", "fault injection per DESIGN.md §11 grammar"},
        {"adversary", "SPEC", "structured adversary per DESIGN.md §16"},
        {"defense", "SPEC", "defence suite per DESIGN.md §17"},
        {"failure-report", "FILE", "per-shard degradation outcomes JSON"},
        {"shard-deadline", "S", "per-shard wall-clock budget in seconds"},
        {"checkpoint-dir", "DIR", "durable shard journal directory"},
        {"resume", "", "restore intact journaled shards"},
        {"strict", "", "exit 3 on degraded shards / corrupt frames"},
        {"out", "FILE", "cleaned trace CSV to write"},
        {"flags", "FILE", "CSV of flagged (participant, slot) cells"},
        {"report", "FILE", "JSON run report"},
        {"stats-json", "", "print instrumentation counters as JSON"},
    };
    static const std::vector<FlagSpec> serve = {
        {"in", "FILE", "corrupted trace CSV to replay as a stream"},
        {"participants", "N", "fleet size (rows)"},
        {"slots", "T", "time slots (columns)"},
        {"window", "W", "slots per evaluation window (default 60)"},
        {"stride", "K", "slots between evaluations (default 20)"},
        {"variant", "V", "full | no-v | no-vt (default full)"},
        {"solver", "B", "recovery backend: asd | lrsd (default asd)"},
        {"threads", "N", "shard worker threads (FleetRunner)"},
        {"shard-size", "K", "participants per shard"},
        {"shard-count", "C", "shard count (when no --shard-size)"},
        {"tier", "T", "kernel tier: exact | fast (default exact)"},
        {"chaos", "SPEC", "§11 grammar incl. slotloss=k"},
        {"adversary", "SPEC", "§16 adversary applied to the upload stream"},
        {"defense", "SPEC", "§17 defence; quarantined uploads refused"},
        {"journal", "FILE", "CRC-framed ingest journal"},
        {"resume", "", "replay the journal, then continue the feed"},
        {"no-warm-start", "", "cold-start every window's CS solve"},
        {"warm-verify-every", "K", "cold-check every k-th warm window"},
        {"warm-verify-tolerance", "T", "relative gate (default 1e-2)"},
        {"queue-capacity", "Q", "bounded upload queue (default 256)"},
        {"report", "FILE", "JSON run report (per-window rows)"},
        {"stats-json", "", "print instrumentation counters as JSON"},
    };
    static const std::vector<FlagSpec> demo = {
        {"alpha", "A", "missing ratio (default 0.2)"},
        {"beta", "B", "fault ratio (default 0.2)"},
        {"seed", "S", "dataset seed (default 1)"},
        {"solver", "B", "recovery backend: asd | lrsd (default asd)"},
        {"tier", "T", "kernel tier: exact | fast (default exact)"},
        {"json", "", "JSON report instead of prose"},
        {"stats-json", "", "include instrumentation counters"},
    };
    static const std::vector<FlagSpec> none;
    if (command == "simulate") {
        return simulate;
    }
    if (command == "corrupt") {
        return corrupt;
    }
    if (command == "clean") {
        return clean;
    }
    if (command == "serve") {
        return serve;
    }
    if (command == "demo") {
        return demo;
    }
    return none;
}

// ---- tiny flag parser ---------------------------------------------------

class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int k = first; k < argc; ++k) {
            std::string token = argv[k];
            if (token.rfind("--", 0) != 0) {
                throw mcs::Error("unexpected argument: " + token);
            }
            token = token.substr(2);
            // --key=value form (needed for values that contain '=' or ','
            // themselves, like --chaos=nan=0.5,seed=7).
            const std::size_t eq = token.find('=');
            if (eq != std::string::npos) {
                values_[token.substr(0, eq)] = token.substr(eq + 1);
            } else if (k + 1 < argc &&
                       std::string(argv[k + 1]).rfind("--", 0) != 0) {
                values_[token] = argv[++k];
            } else {
                values_[token] = "";  // boolean flag
            }
        }
    }

    /// Reject any parsed key the spec table does not list, suggesting the
    /// nearest valid name when one is plausibly close.
    void validate(const std::vector<FlagSpec>& known) const {
        for (const auto& [key, value] : values_) {
            bool found = false;
            for (const FlagSpec& spec : known) {
                if (key == spec.name) {
                    found = true;
                    break;
                }
            }
            if (found) {
                continue;
            }
            std::vector<std::string> names;
            names.reserve(known.size());
            for (const FlagSpec& spec : known) {
                names.emplace_back(spec.name);
            }
            std::string message = "unknown flag --" + key;
            const std::string nearest = mcs::nearest_candidate(key, names);
            if (!nearest.empty()) {
                message += " (did you mean --" + nearest + "?)";
            } else {
                message += " (see `itscs help`)";
            }
            throw mcs::Error(message);
        }
    }

    bool has(const std::string& name) const {
        return values_.count(name) > 0;
    }
    std::string get(const std::string& name) const {
        const auto it = values_.find(name);
        if (it == values_.end() || it->second.empty()) {
            throw mcs::Error("missing required flag --" + name);
        }
        return it->second;
    }
    std::string get_or(const std::string& name,
                       const std::string& fallback) const {
        const auto it = values_.find(name);
        return it == values_.end() || it->second.empty() ? fallback
                                                         : it->second;
    }
    double number(const std::string& name, double fallback) const {
        return has(name) ? mcs::parse_double(get(name)) : fallback;
    }
    std::size_t count(const std::string& name) const {
        const long v = mcs::parse_long(get(name));
        if (v <= 0) {
            throw mcs::Error("--" + name + " must be positive");
        }
        return static_cast<std::size_t>(v);
    }
    // A worker count: positive and at most ThreadPool::kMaxThreads, refused
    // here so an absurd --threads fails before any pool is built.
    std::size_t workers(const std::string& name) const {
        const std::size_t v = count(name);
        if (v > mcs::ThreadPool::kMaxThreads) {
            throw mcs::Error("--" + name + " must be at most " +
                             std::to_string(mcs::ThreadPool::kMaxThreads));
        }
        return v;
    }

private:
    std::map<std::string, std::string> values_;
};

void write_flags_csv(const std::string& path, const mcs::Matrix& detection,
                     const mcs::Matrix& existence) {
    std::ofstream out(path);
    MCS_CHECK_MSG(out.good(), "cannot open flags CSV: " + path);
    out << "participant,slot\n";
    for (std::size_t i = 0; i < detection.rows(); ++i) {
        for (std::size_t j = 0; j < detection.cols(); ++j) {
            if (existence(i, j) == 1.0 && detection(i, j) == 1.0) {
                out << i << ',' << j << '\n';
            }
        }
    }
}

// ---- subcommands ----------------------------------------------------------

int cmd_simulate(const Args& args) {
    mcs::SimulatorConfig config;
    config.participants = args.count("participants");
    config.slots = args.count("slots");
    config.seed =
        static_cast<std::uint64_t>(args.number("seed", 42.0));
    if (args.has("extent-km")) {
        // --extent-km takes "W" (square) via single value for simplicity.
        const double extent = args.number("extent-km", 110.0) * 1000.0;
        config.network.width_m = extent;
        config.network.height_m = extent;
    }
    const mcs::TraceDataset dataset = mcs::simulate_fleet(config);
    mcs::write_trace_csv_file(
        args.get("out"), dataset,
        mcs::Matrix::constant(dataset.participants(), dataset.slots(), 1.0));
    std::cout << "wrote " << dataset.participants() << "x"
              << dataset.slots() << " ground-truth trace to "
              << args.get("out") << "\n";
    return 0;
}

int cmd_corrupt(const Args& args) {
    const std::size_t n = args.count("participants");
    const std::size_t t = args.count("slots");
    const mcs::ImportedTrace imported =
        mcs::read_trace_csv_file(args.get("in"), n, t, 30.0);
    MCS_CHECK_MSG(mcs::count_equal(imported.existence, 1.0) == n * t,
                  "corrupt: input trace must be complete ground truth");

    mcs::CorruptionConfig config;
    config.missing_ratio = args.number("alpha", 0.2);
    config.fault_ratio = args.number("beta", 0.2);
    config.velocity_fault_ratio = args.number("gamma", 0.0);
    config.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
    if (args.has("drift")) {
        config.fault_model = mcs::FaultModel::kDrift;
    }
    if (args.has("adversary")) {
        config.adversary = mcs::AdversarySpec::parse(args.get("adversary"));
    }
    const mcs::CorruptedDataset corrupted =
        mcs::corrupt(imported.dataset, config);

    mcs::TraceDataset upload{corrupted.sx, corrupted.sy, corrupted.vx,
                             corrupted.vy, corrupted.tau_s};
    mcs::write_trace_csv_file(args.get("out"), upload, corrupted.existence);
    if (args.has("truth-faults")) {
        write_flags_csv(args.get("truth-faults"), corrupted.fault,
                        corrupted.existence);
    }
    std::cout << "wrote corrupted trace ("
              << mcs::format_percent(config.missing_ratio, 0) << " missing, "
              << mcs::format_percent(config.fault_ratio, 0) << " faulty"
              << (args.has("drift") ? ", drift bursts" : "") << ") to "
              << args.get("out") << "\n";
    if (args.has("adversary")) {
        const mcs::AdversaryInjection& adv = corrupted.adversary;
        std::cout << "adversary: " << adv.colluders.size()
                  << " colluder(s), " << adv.replays.size()
                  << " replayed row(s), outage " << adv.outage_rows << "x"
                  << adv.outage_slots << " (" << adv.outage_cells
                  << " cell(s))\n";
    }
    return 0;
}

mcs::ItscsVariant parse_variant(const std::string& name) {
    if (name == "full") {
        return mcs::ItscsVariant::kFull;
    }
    if (name == "no-v") {
        return mcs::ItscsVariant::kWithoutV;
    }
    if (name == "no-vt") {
        return mcs::ItscsVariant::kWithoutVT;
    }
    throw mcs::Error("unknown variant '" + name +
                     "' (expected full | no-v | no-vt)");
}

int cmd_clean(const Args& args) {
    const std::size_t n = args.count("participants");
    const std::size_t t = args.count("slots");
    const mcs::ImportedTrace imported =
        mcs::read_trace_csv_file(args.get("in"), n, t, 30.0);

    mcs::ItscsInput input{imported.dataset.x, imported.dataset.y,
                          imported.dataset.vx, imported.dataset.vy,
                          imported.existence, imported.dataset.tau_s};
    if (args.has("estimate-velocity")) {
        // 25 m/s (90 km/h) cap: prevents faulty positions from injecting
        // km-scale velocity estimates.
        input.vx = mcs::estimate_velocity(imported.dataset.x,
                                          imported.existence, 30.0, 25.0);
        input.vy = mcs::estimate_velocity(imported.dataset.y,
                                          imported.existence, 30.0, 25.0);
    }
    mcs::ItscsConfig config =
        mcs::make_config(parse_variant(args.get_or("variant", "full")));
    const mcs::SolverKind solver =
        mcs::parse_solver_kind(args.get_or("solver", "asd"));
    config.cs.solver = solver;
    mcs::PipelineContext ctx;
    const bool want_stats = args.has("stats-json");

    // Runtime knobs: any of them routes the run through FleetRunner.
    const std::size_t threads =
        args.has("threads") ? args.workers("threads") : 1;
    const std::size_t shard_size =
        args.has("shard-size") ? args.count("shard-size") : 0;
    const std::size_t shard_count =
        args.has("shard-count") ? args.count("shard-count") : 0;
    const std::size_t kernel_threads =
        args.has("kernel-threads") ? args.workers("kernel-threads")
                                  : 1;
    const mcs::KernelTier tier =
        mcs::parse_kernel_tier(args.get_or("tier", "exact"));
    const std::size_t row_block_threshold =
        args.has("row-block-threshold") ? args.count("row-block-threshold")
                                        : 0;
    // Ambient tier + threshold for the whole command: covers the
    // single-run path directly; FleetRunner re-installs the same values
    // per shard from its RuntimeConfig.
    mcs::KernelTierScope tier_scope(tier);
    if (row_block_threshold != 0) {
        mcs::set_kernel_row_block_threshold(row_block_threshold);
    }
    std::optional<mcs::ChaosConfig> chaos_config;
    if (args.has("chaos")) {
        chaos_config = mcs::ChaosConfig::parse(args.get("chaos"));
    }
    std::optional<mcs::AdversarySpec> adversary_spec;
    if (args.has("adversary")) {
        adversary_spec = mcs::AdversarySpec::parse(args.get("adversary"));
    }
    std::optional<mcs::DefenseSpec> defense_spec;
    if (args.has("defense")) {
        defense_spec = mcs::DefenseSpec::parse(args.get_or("defense", ""));
    }
    const double shard_deadline = args.number("shard-deadline", 0.0);
    const mcs::PlannerMode planner =
        mcs::parse_planner_mode(args.get_or("planner", "rows"));
    const mcs::StorageTier storage =
        mcs::parse_storage_tier(args.get_or("storage", "f64"));
    const std::string slab_dir = args.get_or("slab-dir", "");
    const std::size_t memory_budget =
        args.has("memory-budget") ? args.count("memory-budget") : 0;
    const bool use_runner = threads > 1 || shard_size > 0 ||
                            shard_count > 0 || kernel_threads > 1 ||
                            chaos_config.has_value() ||
                            adversary_spec.has_value() ||
                            defense_spec.has_value() ||
                            shard_deadline > 0.0 ||
                            args.has("failure-report") ||
                            args.has("checkpoint-dir") ||
                            args.has("strict") ||
                            planner != mcs::PlannerMode::kRows ||
                            !slab_dir.empty() ||
                            storage != mcs::StorageTier::kF64 ||
                            memory_budget > 0;

    mcs::ItscsResult result;
    std::vector<mcs::ShardRunReport> shard_reports;
    mcs::CheckpointSummary checkpoint;
    mcs::AdversaryInjection adversary_result;
    mcs::DefenseReport defense_result;
    std::size_t resolved_shard_count = 1;
    std::size_t plan_cells = 0;
    std::size_t plan_window_bytes = 0;
    mcs::StealStats steal_stats;
    if (use_runner) {
        mcs::RuntimeConfig runtime;
        runtime.threads = threads;
        runtime.shard_size = shard_size;
        // Without --shard-size/--shard-count, pin the decomposition to the
        // thread count so the flags alone reproduce the numerics on any
        // machine (and FleetRunner's machine-default warning stays quiet).
        runtime.shard_count =
            shard_count > 0 ? shard_count
                            : (shard_size == 0 ? threads : 0);
        runtime.planner = planner;
        runtime.kernel_threads = kernel_threads;
        runtime.kernel_tier = tier;
        runtime.solver = solver;
        runtime.storage = storage;
        runtime.memory_budget_mb = memory_budget;
        runtime.kernel_row_block_threshold = row_block_threshold;
        runtime.health.deadline_seconds = shard_deadline;
        runtime.checkpoint_dir = args.get_or("checkpoint-dir", "");
        runtime.resume = args.has("resume");
        std::unique_ptr<mcs::ChaosInjector> injector;
        if (chaos_config.has_value()) {
            injector = std::make_unique<mcs::ChaosInjector>(*chaos_config);
            runtime.chaos = injector.get();
        }
        std::unique_ptr<mcs::AdversaryInjector> adversary;
        if (adversary_spec.has_value()) {
            adversary =
                std::make_unique<mcs::AdversaryInjector>(*adversary_spec);
            runtime.adversary = adversary.get();
        }
        std::unique_ptr<mcs::DefenseSuite> defense;
        if (defense_spec.has_value()) {
            defense = std::make_unique<mcs::DefenseSuite>(*defense_spec);
            runtime.defense = defense.get();
        }
        mcs::FleetRunner runner(runtime);
        mcs::FleetResult fleet;
        if (!slab_dir.empty()) {
            // --resume re-opens the store the interrupted run laid out
            // (so torn slabs re-run); otherwise lay it out fresh from the
            // imported fleet.
            std::unique_ptr<mcs::SlabStore> store;
            if (runtime.resume &&
                std::filesystem::exists(slab_dir + "/slabs.meta")) {
                store = std::make_unique<mcs::SlabStore>(slab_dir);
            } else {
                store = runner.create_slab_store(slab_dir, input);
            }
            plan_window_bytes =
                runner.resident_window_bytes(store->geometry());
            fleet = runner.run_streamed(*store, config,
                                        want_stats ? &ctx : nullptr);
            // The CLI's CSV/metrics outputs are fleet-shaped, so
            // materialise the aggregate from the output slabs here — the
            // scale harness, not the CLI, is the keep-it-on-disk path.
            mcs::SlabOutputs outputs = mcs::gather_outputs(*store);
            fleet.aggregate.detection = std::move(outputs.detection);
            fleet.aggregate.reconstructed_x =
                std::move(outputs.reconstructed_x);
            fleet.aggregate.reconstructed_y =
                std::move(outputs.reconstructed_y);
        } else {
            fleet = runner.run(input, config, want_stats ? &ctx : nullptr);
        }
        plan_cells = runner.plan_for(input).cells();
        steal_stats = fleet.steals;
        result = std::move(fleet.aggregate);
        shard_reports = std::move(fleet.shards);
        checkpoint = std::move(fleet.checkpoint);
        adversary_result = std::move(fleet.adversary);
        defense_result = std::move(fleet.defense);
        resolved_shard_count = shard_reports.size();
    } else {
        result = mcs::run_itscs(input, config, {},
                                want_stats ? &ctx : nullptr);
    }

    mcs::TraceDataset cleaned{result.reconstructed_x, result.reconstructed_y,
                              input.vx, input.vy, input.tau_s};
    mcs::write_trace_csv_file(args.get("out"), cleaned,
                              mcs::Matrix::constant(n, t, 1.0));
    if (args.has("flags")) {
        write_flags_csv(args.get("flags"), result.detection,
                        imported.existence);
    }
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
            if (imported.existence(i, j) == 1.0 &&
                result.detection(i, j) == 1.0) {
                ++flagged;
            }
        }
    }
    if (args.has("report")) {
        mcs::Json report = mcs::Json::object();
        report["input"] = args.get("in");
        report["participants"] = n;
        report["slots"] = t;
        report["variant"] = args.get_or("variant", "full");
        report["solver"] = std::string(mcs::to_string(solver));
        report["iterations"] = result.iterations;
        report["converged"] = result.converged;
        report["flagged_readings"] = flagged;
        mcs::Json history = mcs::Json::array();
        for (const auto& h : result.history) {
            mcs::Json row = mcs::Json::object();
            row["iteration"] = h.iteration;
            row["flagged"] = h.flagged;
            row["detection_changes"] = h.detection_changes;
            history.push_back(row);
        }
        report["history"] = history;
        report["kernel"] = kernel_info(tier);
        if (adversary_spec.has_value()) {
            report["adversary"] =
                adversary_info(args.get("adversary"), adversary_result);
        }
        if (defense_spec.has_value()) {
            report["defense"] =
                defense_info(args.get_or("defense", ""), defense_result);
        }
        if (use_runner) {
            // The plan line: how the fleet was decomposed and how much of
            // it is ever resident, so degraded locality (row-planned
            // geographic data, a window close to the in-core footprint)
            // is visible at a glance.
            mcs::Json plan_line = mcs::Json::object();
            plan_line["planner"] = std::string(mcs::to_string(planner));
            plan_line["shards"] = resolved_shard_count;
            plan_line["cells"] = plan_cells;
            plan_line["mode"] =
                slab_dir.empty() ? "in-core" : "streamed";
            const std::size_t in_core_bytes =
                n * t * sizeof(double) *
                (mcs::kSlabInputMatrices + mcs::kSlabOutputMatrices);
            plan_line["in_core_bytes"] = in_core_bytes;
            plan_line["resident_window_bytes"] =
                slab_dir.empty() ? in_core_bytes : plan_window_bytes;
            if (!slab_dir.empty()) {
                plan_line["slab_dir"] = slab_dir;
                plan_line["storage"] =
                    std::string(mcs::to_string(storage));
                plan_line["memory_budget_mb"] = memory_budget;
            }
            report["plan"] = plan_line;
            mcs::Json runtime = mcs::Json::object();
            runtime["threads"] = threads;
            runtime["kernel_threads"] = kernel_threads;
            runtime["kernel_tier"] = std::string(mcs::to_string(tier));
            runtime["solver"] = std::string(mcs::to_string(solver));
            runtime["row_block_threshold"] =
                mcs::kernel_row_block_threshold();
            // The *resolved* decomposition, so a report from a run that
            // leaned on machine defaults still states what actually ran.
            runtime["shard_size"] = shard_size;
            runtime["shard_count"] = resolved_shard_count;
            runtime["shards_stolen"] = steal_stats.stolen_items;
            if (checkpoint.enabled) {
                mcs::Json cp = mcs::Json::object();
                cp["dir"] = args.get("checkpoint-dir");
                cp["resume"] = args.has("resume");
                cp["shards_loaded"] = checkpoint.shards_loaded;
                cp["shards_run"] = checkpoint.shards_run;
                cp["corrupt_frames"] = checkpoint.corrupt_frames;
                cp["torn_tail"] = checkpoint.torn_tail;
                mcs::Json journal_failures = mcs::Json::array();
                for (const mcs::FailureReport& failure :
                     checkpoint.journal_failures) {
                    journal_failures.push_back(failure.to_json());
                }
                cp["journal_failures"] = journal_failures;
                runtime["checkpoint"] = cp;
            }
            mcs::Json shards = mcs::Json::array();
            for (const auto& s : shard_reports) {
                mcs::Json row = mcs::Json::object();
                row["begin"] = s.shard.begin;
                row["end"] = s.shard.end;
                row["iterations"] = s.iterations;
                row["converged"] = s.converged;
                row["level"] = mcs::to_string(s.level);
                row["attempts"] = s.attempts;
                shards.push_back(row);
            }
            runtime["shards"] = shards;
            report["runtime"] = runtime;
        }
        if (want_stats) {
            report["stats"] = ctx.to_json();
        }
        mcs::write_json_file(args.get("report"), report);
    }
    if (args.has("failure-report")) {
        mcs::Json fr = mcs::Json::object();
        fr["shards"] = shard_reports.size();
        if (chaos_config.has_value()) {
            fr["chaos"] = args.get("chaos");
        }
        std::size_t by_level[4] = {0, 0, 0, 0};
        mcs::Json per_shard = mcs::Json::array();
        for (const auto& s : shard_reports) {
            by_level[static_cast<std::size_t>(s.level)] += 1;
            mcs::Json row = mcs::Json::object();
            row["shard"] = s.shard.index;
            row["begin"] = s.shard.begin;
            row["end"] = s.shard.end;
            row["level"] = mcs::to_string(s.level);
            row["attempts"] = s.attempts;
            row["converged"] = s.converged;
            mcs::Json failures = mcs::Json::array();
            for (const mcs::FailureReport& failure : s.failures) {
                failures.push_back(failure.to_json());
            }
            row["failures"] = failures;
            per_shard.push_back(row);
        }
        mcs::Json outcomes = mcs::Json::object();
        outcomes["nominal"] = by_level[0];
        outcomes["conservative"] = by_level[1];
        outcomes["interpolation"] = by_level[2];
        outcomes["detect_only"] = by_level[3];
        fr["outcomes"] = outcomes;
        fr["per_shard"] = per_shard;
        mcs::write_json_file(args.get("failure-report"), fr);
    }
    // With --stats-json, stdout is the stats document alone; the human
    // summary lines go to stderr.
    std::ostream& human = want_stats ? std::cerr : std::cout;
    if (want_stats) {
        mcs::Json stats = ctx.to_json();
        stats["kernel"] = kernel_info(tier);
        std::cout << stats.dump(2) << "\n";
    }
    if (checkpoint.enabled) {
        human << "checkpoint: " << checkpoint.shards_loaded
                  << " shard(s) restored, " << checkpoint.shards_run
                  << " run, " << checkpoint.corrupt_frames
                  << " corrupt frame(s)"
                  << (checkpoint.torn_tail ? ", torn tail" : "") << "\n";
    }
    if (defense_spec.has_value()) {
        human << "defense: " << defense_result.quarantined.size()
                  << " quarantined (" << defense_result.reinstated.size()
                  << " reinstated, " << defense_result.confirmed.size()
                  << " confirmed), " << defense_result.outages.size()
                  << " outage block(s)\n";
    }
    human << "cleaned trace written to " << args.get("out") << " ("
              << flagged << " readings flagged, " << result.iterations
              << " iterations)\n";
    if (args.has("strict")) {
        std::size_t degraded = 0;
        for (const auto& s : shard_reports) {
            if (s.level != mcs::DegradationLevel::kNominal) {
                ++degraded;
            }
        }
        if (degraded > 0 || checkpoint.corrupt_frames > 0) {
            std::cerr << "itscs clean: strict: " << degraded
                      << " degraded shard(s), " << checkpoint.corrupt_frames
                      << " corrupt checkpoint frame(s)\n";
            return 3;
        }
    }
    return 0;
}

// Percentile over a copy (nearest-rank on the sorted sample); 0 when the
// sample is empty so a replay with zero live slots still reports cleanly.
double percentile_ms(std::vector<double> sample, double p) {
    if (sample.empty()) {
        return 0.0;
    }
    std::sort(sample.begin(), sample.end());
    const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
    return sample[static_cast<std::size_t>(rank + 0.5)];
}

int cmd_serve(const Args& args) {
    const std::size_t n = args.count("participants");
    const std::size_t t = args.count("slots");
    const mcs::ImportedTrace imported =
        mcs::read_trace_csv_file(args.get("in"), n, t, 30.0);

    // Structured adversary (§16), applied on the *client* side of the
    // daemon: colluded, replayed and degraded rows arrive through the
    // ingest path as individually valid-looking uploads, so boundary
    // validation cannot reject them — only the detector can.
    mcs::Matrix stream_x = imported.dataset.x;
    mcs::Matrix stream_y = imported.dataset.y;
    mcs::Matrix stream_vx = imported.dataset.vx;
    mcs::Matrix stream_vy = imported.dataset.vy;
    mcs::Matrix stream_existence = imported.existence;
    mcs::AdversaryInjection adversary_result;
    if (args.has("adversary")) {
        const mcs::AdversaryInjector adversary(
            mcs::AdversarySpec::parse(args.get("adversary")));
        adversary_result = adversary.apply(stream_x, stream_y, stream_vx,
                                           stream_vy, stream_existence,
                                           imported.dataset.tau_s);
    }

    mcs::ServeConfig serve;
    serve.participants = n;
    serve.tau_s = imported.dataset.tau_s;
    serve.window = args.has("window") ? args.count("window") : 60;
    serve.stride = args.has("stride") ? args.count("stride") : 20;
    serve.framework =
        mcs::make_config(parse_variant(args.get_or("variant", "full")));
    const mcs::SolverKind solver =
        mcs::parse_solver_kind(args.get_or("solver", "asd"));
    serve.framework.cs.solver = solver;

    const std::size_t threads =
        args.has("threads") ? args.workers("threads") : 1;
    const std::size_t shard_size =
        args.has("shard-size") ? args.count("shard-size") : 0;
    const std::size_t shard_count =
        args.has("shard-count") ? args.count("shard-count") : 0;
    const mcs::KernelTier tier =
        mcs::parse_kernel_tier(args.get_or("tier", "exact"));
    mcs::KernelTierScope tier_scope(tier);
    serve.runtime.threads = threads;
    serve.runtime.shard_size = shard_size;
    serve.runtime.shard_count =
        shard_count > 0 ? shard_count : (shard_size == 0 ? threads : 0);
    serve.runtime.kernel_tier = tier;
    serve.runtime.solver = solver;
    std::unique_ptr<mcs::ChaosInjector> injector;
    if (args.has("chaos")) {
        injector = std::make_unique<mcs::ChaosInjector>(
            mcs::ChaosConfig::parse(args.get("chaos")));
        serve.runtime.chaos = injector.get();
    }
    // Defence (§17): the suite rides the daemon's per-window fleet runs;
    // confirmed participants enter the daemon's sticky quarantine and
    // their later uploads are refused at the ingest boundary.
    std::unique_ptr<mcs::DefenseSuite> defense;
    if (args.has("defense")) {
        defense = std::make_unique<mcs::DefenseSuite>(
            mcs::DefenseSpec::parse(args.get_or("defense", "")));
        serve.runtime.defense = defense.get();
    }
    serve.journal_path = args.get_or("journal", "");
    serve.resume = args.has("resume");
    serve.warm_start = !args.has("no-warm-start");
    serve.warm_verify_every = args.has("warm-verify-every")
                                  ? args.count("warm-verify-every")
                                  : 0;
    serve.warm_verify_tolerance =
        args.number("warm-verify-tolerance", 1e-2);
    serve.queue_capacity = args.has("queue-capacity")
                               ? args.count("queue-capacity")
                               : 256;

    mcs::IngestDaemon daemon(serve);
    daemon.start();
    // With --resume the journal already re-ingested a prefix of this
    // stream; the feed continues after it, so an interrupted serve run
    // plus this one sees each slot exactly once.
    const std::size_t skip = daemon.stats().slots_replayed;
    for (std::size_t j = skip; j < t; ++j) {
        mcs::SlotUpload upload;
        upload.x.resize(n);
        upload.y.resize(n);
        upload.vx.resize(n);
        upload.vy.resize(n);
        upload.observed.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            upload.x[i] = stream_x(i, j);
            upload.y[i] = stream_y(i, j);
            upload.vx[i] = stream_vx(i, j);
            upload.vy[i] = stream_vy(i, j);
            upload.observed[i] = stream_existence(i, j) == 1.0 ? 1 : 0;
        }
        daemon.submit(std::move(upload));
    }
    daemon.finish();

    const std::vector<mcs::WindowReport> reports = daemon.drain();
    const std::vector<mcs::FailureReport> failures =
        daemon.drain_failures();
    const mcs::ServeStats stats = daemon.stats();

    if (args.has("report")) {
        mcs::Json report = mcs::Json::object();
        report["input"] = args.get("in");
        report["participants"] = n;
        report["slots"] = t;
        report["window"] = serve.window;
        report["stride"] = serve.stride;
        report["solver"] = std::string(mcs::to_string(solver));
        report["warm_start"] = serve.warm_start;
        report["threads"] = threads;
        report["uploads_accepted"] = stats.uploads_accepted;
        report["uploads_rejected"] = stats.uploads_rejected;
        report["slots_dropped"] = stats.slots_dropped;
        report["slots_replayed"] = stats.slots_replayed;
        report["windows_evaluated"] = stats.windows_evaluated;
        report["windows_warm"] = stats.windows_warm;
        report["warm_resets"] = stats.warm_resets;
        report["journal_corrupt_frames"] = stats.journal_corrupt_frames;
        report["journal_torn_tail"] = stats.journal_torn_tail;
        report["participants_quarantined"] = stats.participants_quarantined;
        report["readings_quarantined"] = stats.readings_quarantined;
        report["slot_latency_p50_ms"] =
            percentile_ms(stats.slot_latency_ms, 50.0);
        report["slot_latency_p99_ms"] =
            percentile_ms(stats.slot_latency_ms, 99.0);
        mcs::Json windows = mcs::Json::array();
        for (const mcs::WindowReport& w : reports) {
            mcs::Json row = mcs::Json::object();
            row["first_slot"] = w.first_slot;
            row["width"] = w.detection.cols();
            row["iterations"] = w.iterations;
            row["converged"] = w.converged;
            row["warm_started"] = w.warm_started;
            row["warm_verified"] = w.warm_verified;
            row["warm_reset"] = w.warm_reset;
            row["warm_deviation"] = w.warm_deviation;
            row["flagged"] = mcs::count_equal(w.detection, 1.0);
            row["quarantined"] = w.quarantined.size();
            windows.push_back(row);
        }
        report["windows"] = windows;
        mcs::Json failure_rows = mcs::Json::array();
        for (const mcs::FailureReport& failure : failures) {
            failure_rows.push_back(failure.to_json());
        }
        report["failures"] = failure_rows;
        if (args.has("adversary")) {
            report["adversary"] =
                adversary_info(args.get("adversary"), adversary_result);
        }
        if (args.has("defense")) {
            mcs::Json quarantined = mcs::Json::array();
            for (const std::size_t q : daemon.quarantined()) {
                quarantined.push_back(q);
            }
            mcs::Json d = mcs::Json::object();
            d["spec"] = args.get_or("defense", "");
            d["quarantined"] = quarantined;
            report["defense"] = d;
        }
        report["kernel"] = kernel_info(tier);
        mcs::write_json_file(args.get("report"), report);
    }
    if (args.has("stats-json")) {
        mcs::Json stats_json = daemon.context().to_json();
        stats_json["kernel"] = kernel_info(tier);
        std::cout << stats_json.dump(2) << "\n";
    }
    std::cout << "served " << stats.uploads_accepted << " slot(s) ("
              << stats.slots_replayed << " replayed, "
              << stats.uploads_rejected << " rejected, "
              << stats.slots_dropped << " lost, "
              << stats.readings_quarantined << " quarantined reading(s) of "
              << stats.participants_quarantined << " participant(s)): "
              << stats.windows_evaluated << " window(s), "
              << stats.windows_warm << " warm, " << stats.warm_resets
              << " reset(s), p99 "
              << mcs::format_fixed(
                     percentile_ms(stats.slot_latency_ms, 99.0), 2)
              << " ms\n";
    return 0;
}

int cmd_demo(const Args& args) {
    const double alpha = args.number("alpha", 0.2);
    const double beta = args.number("beta", 0.2);
    const auto seed =
        static_cast<std::uint64_t>(args.number("seed", 1.0));

    const mcs::TraceDataset truth = mcs::make_small_dataset(seed, 40, 120);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = alpha;
    corruption.fault_ratio = beta;
    corruption.seed = seed + 1;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
    mcs::PipelineContext ctx;
    const bool want_stats = args.has("stats-json");
    const mcs::KernelTier tier =
        mcs::parse_kernel_tier(args.get_or("tier", "exact"));
    mcs::KernelTierScope tier_scope(tier);
    mcs::ItscsConfig config = mcs::make_config(mcs::ItscsVariant::kFull);
    config.cs.solver = mcs::parse_solver_kind(args.get_or("solver", "asd"));
    const mcs::ItscsResult result = mcs::run_itscs(
        mcs::to_itscs_input(data), config, {}, want_stats ? &ctx : nullptr);
    const mcs::ConfusionCounts counts = mcs::evaluate_detection(
        result.detection, data.fault, data.existence);
    const double mae = mcs::reconstruction_mae(
        truth.x, truth.y, result.reconstructed_x, result.reconstructed_y,
        data.existence, result.detection);

    if (args.has("json")) {
        mcs::Json report = mcs::Json::object();
        report["alpha"] = alpha;
        report["beta"] = beta;
        report["solver"] =
            std::string(mcs::to_string(config.cs.solver));
        report["precision"] = counts.precision();
        report["recall"] = counts.recall();
        report["f1"] = counts.f1();
        report["mae_m"] = mae;
        report["iterations"] = result.iterations;
        if (want_stats) {
            mcs::Json stats = ctx.to_json();
            stats["kernel"] = kernel_info(tier);
            report["stats"] = stats;
        }
        std::cout << report.dump(2) << "\n";
    } else if (want_stats) {
        mcs::Json stats = ctx.to_json();
        stats["kernel"] = kernel_info(tier);
        std::cout << stats.dump(2) << "\n";
    } else {
        std::cout << "demo (alpha=" << mcs::format_percent(alpha, 0)
                  << ", beta=" << mcs::format_percent(beta, 0)
                  << "): precision "
                  << mcs::format_percent(counts.precision()) << ", recall "
                  << mcs::format_percent(counts.recall()) << ", MAE "
                  << mcs::format_fixed(mae, 0) << " m, "
                  << result.iterations << " iterations\n";
    }
    return 0;
}

// `itscs help`: the full flag enumeration, one row per --key, from the
// same registry that validates them.
int cmd_help() {
    std::cout << "usage: itscs <simulate|corrupt|clean|serve|demo|help> "
                 "[--key value | --key=value ...]\n\n";
    const struct {
        const char* name;
        const char* blurb;
    } commands[] = {
        {"simulate", "generate a synthetic ground-truth fleet trace"},
        {"corrupt", "inject missing values and faults into a trace"},
        {"clean", "run the I(TS,CS) framework over a corrupted trace"},
        {"serve", "replay a trace through the online ingestion daemon"},
        {"demo", "end-to-end in-memory pipeline with ground-truth scoring"},
    };
    for (const auto& command : commands) {
        std::cout << command.name << " — " << command.blurb << "\n";
        for (const FlagSpec& spec : known_flags(command.name)) {
            std::string left = std::string("--") + spec.name;
            if (spec.value[0] != '\0') {
                left += "=";
                left += spec.value;
            }
            std::cout << "  " << left
                      << std::string(left.size() < 28 ? 28 - left.size() : 1,
                                     ' ')
                      << spec.help << "\n";
        }
        std::cout << "\n";
    }
    std::cout << "Unknown --keys are rejected with the nearest valid "
                 "name.\nExit status: 0 success, 1 usage, 2 runtime "
                 "failure, 3 --strict violations.\n";
    return 0;
}

int usage() {
    std::cerr
        << "usage: itscs <simulate|corrupt|clean|serve|demo|help> "
           "[--flags...]\n"
           "  simulate --participants N --slots T [--seed S] "
           "[--extent-km E] --out trace.csv\n"
           "  corrupt  --in trace.csv --participants N --slots T "
           "[--alpha A] [--beta B]\n"
           "           [--gamma G] [--seed S] [--drift] [--adversary=SPEC]\n"
           "           --out c.csv [--truth-faults f.csv]\n"
           "  clean    --in c.csv --participants N --slots T "
           "[--variant full|no-v|no-vt]\n"
           "           [--solver asd|lrsd] [--estimate-velocity] "
           "[--threads N]\n"
           "           [--shard-size K] [--shard-count C]\n"
           "           [--kernel-threads M] [--tier exact|fast] "
           "[--row-block-threshold K]\n"
           "           [--chaos=SPEC] [--adversary=SPEC] [--defense=SPEC] "
           "[--failure-report fr.json]\n"
           "           [--shard-deadline S] [--checkpoint-dir D] "
           "[--resume] [--strict]\n"
           "           --out cleaned.csv "
           "[--flags flags.csv] [--report r.json]\n"
           "           [--stats-json]\n"
           "  serve    --in c.csv --participants N --slots T [--window W] "
           "[--stride K]\n"
           "           [--variant V] [--solver asd|lrsd] [--threads N] "
           "[--shard-size K]\n"
           "           [--shard-count C] [--tier exact|fast] "
           "[--chaos=SPEC] [--adversary=SPEC]\n"
           "           [--defense=SPEC] [--journal j.bin] [--resume] "
           "[--no-warm-start]\n"
           "           [--warm-verify-every K] [--warm-verify-tolerance T]\n"
           "           [--queue-capacity Q] [--report r.json] "
           "[--stats-json]\n"
           "  demo     [--alpha A] [--beta B] [--seed S] [--json] "
           "[--stats-json]\n"
           "           [--solver asd|lrsd] [--tier exact|fast]\n"
           "  help     full flag reference (also --help / -h)\n";
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        return cmd_help();
    }
    try {
        const Args args(argc, argv, 2);
        args.validate(known_flags(command));
        if (command == "simulate") {
            return cmd_simulate(args);
        }
        if (command == "corrupt") {
            return cmd_corrupt(args);
        }
        if (command == "clean") {
            return cmd_clean(args);
        }
        if (command == "serve") {
            return cmd_serve(args);
        }
        if (command == "demo") {
            return cmd_demo(args);
        }
        return usage();
    } catch (const std::exception& error) {
        std::cerr << "itscs " << command << ": " << error.what() << "\n";
        return 2;
    }
}
