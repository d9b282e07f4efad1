// Span recorder for the traced run (`--trace 1`).
//
// Spans are recorded only from the benchmark's own code, around calls into
// the repository's public functions; nothing inside src/ is instrumented.
// Each span has a name (`module.function`), a start and end on one
// steady clock, the span that was open on the same thread when it began
// (its parent), and an optional tag naming the shard or window it covers.
// Spans stay in memory and are written once, as Chrome trace-event JSON,
// when the run ends.
//
// A disabled recorder still times every scope (the benchmark's end-to-end
// numbers come from the same scopes) but stores nothing, so the untraced
// run pays one clock read per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mcs {
class Json;
}

namespace itscs_bench {

struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the recorder's epoch
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t tid = 0;
    std::string tag_key;  ///< "shard", "window", "slot", "rep" or empty
    std::int64_t tag = -1;
};

class SpanRecorder {
public:
    SpanRecorder();

    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /// Microseconds since the recorder was constructed.
    double now_us() const;

    /// Sum of the durations (seconds) of every recorded span named `name`.
    double total_seconds(const std::string& name) const;

    /// Write every span as Chrome trace-event JSON ("X" complete events,
    /// one pid, tid per recording thread; args carry workload, tag, span
    /// id and parent id). `metadata` is stored under "otherData".
    void write_chrome_trace(const std::string& path,
                            const std::string& workload,
                            const mcs::Json& metadata) const;

    std::size_t size() const;

    /// Record a span whose ends were measured elsewhere (e.g. a window's
    /// latency from its due time to the drain that returned it). A no-op
    /// when disabled.
    void record(const char* name, double start_us, double end_us,
                const char* tag_key = nullptr, std::int64_t tag = -1);

    /// RAII span. Always measures; records only when the recorder is
    /// enabled. end() closes it early and returns the elapsed seconds.
    class Scope {
    public:
        Scope(SpanRecorder& recorder, const char* name,
              const char* tag_key = nullptr, std::int64_t tag = -1);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        double end();

    private:
        SpanRecorder& recorder_;
        const char* name_;
        const char* tag_key_;
        std::int64_t tag_;
        double start_us_;
        std::uint64_t id_ = 0;
        std::uint64_t parent_ = 0;
        bool open_ = true;
        double seconds_ = 0.0;
    };

private:
    std::chrono::steady_clock::time_point epoch_;
    bool enabled_ = false;
    mutable std::mutex mutex_;  // guards spans_ and next_id_
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
};

}  // namespace itscs_bench
