#include "spans.hpp"

#include <atomic>
#include <fstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace itscs_bench {

namespace {

// Innermost open span on this thread (the parent of the next one).
thread_local std::uint64_t t_open_span = 0;

// Small stable thread ids for the trace's "tid" field, in first-span order.
std::uint32_t thread_ordinal() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t ordinal = next++;
    return ordinal;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

double SpanRecorder::total_seconds(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.name == name) {
            total += (span.end_us - span.start_us) * 1e-6;
        }
    }
    return total;
}

std::size_t SpanRecorder::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& workload,
                                      const mcs::Json& metadata) const {
    mcs::Json events = mcs::Json::array();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const Span& span : spans_) {
            mcs::Json event = mcs::Json::object();
            event["name"] = span.name;
            event["cat"] = span.name.substr(0, span.name.find('.'));
            event["ph"] = "X";
            event["ts"] = span.start_us;
            event["dur"] = span.end_us - span.start_us;
            event["pid"] = 1;
            event["tid"] = static_cast<std::size_t>(span.tid);
            mcs::Json args = mcs::Json::object();
            args["workload"] = workload;
            args["span_id"] = static_cast<std::size_t>(span.id);
            args["parent_id"] = static_cast<std::size_t>(span.parent);
            if (!span.tag_key.empty()) {
                args[span.tag_key] = static_cast<long>(span.tag);
            }
            event["args"] = std::move(args);
            events.push_back(std::move(event));
        }
    }
    mcs::Json doc = mcs::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    doc["otherData"] = metadata;
    std::ofstream out(path);
    MCS_CHECK_MSG(static_cast<bool>(out), "cannot write trace " + path);
    out << doc.dump(0) << "\n";
    MCS_CHECK_MSG(static_cast<bool>(out), "cannot write trace " + path);
}

void SpanRecorder::record(const char* name, double start_us, double end_us,
                          const char* tag_key, std::int64_t tag) {
    if (!enabled_) {
        return;
    }
    Span span;
    span.name = name;
    span.start_us = start_us;
    span.end_us = end_us;
    span.parent = t_open_span;
    span.tid = thread_ordinal();
    if (tag_key != nullptr) {
        span.tag_key = tag_key;
        span.tag = tag;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    span.id = next_id_++;
    spans_.push_back(std::move(span));
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           const char* tag_key, std::int64_t tag)
    : recorder_(recorder),
      name_(name),
      tag_key_(tag_key),
      tag_(tag),
      start_us_(recorder.now_us()) {
    if (recorder_.enabled_) {
        {
            const std::lock_guard<std::mutex> lock(recorder_.mutex_);
            id_ = recorder_.next_id_++;
        }
        parent_ = t_open_span;
        t_open_span = id_;
    }
}

SpanRecorder::Scope::~Scope() { end(); }

double SpanRecorder::Scope::end() {
    if (!open_) {
        return seconds_;
    }
    open_ = false;
    const double end_us = recorder_.now_us();
    seconds_ = (end_us - start_us_) * 1e-6;
    if (id_ != 0) {
        t_open_span = parent_;
        Span span;
        span.name = name_;
        span.start_us = start_us_;
        span.end_us = end_us;
        span.id = id_;
        span.parent = parent_;
        span.tid = thread_ordinal();
        if (tag_key_ != nullptr) {
            span.tag_key = tag_key_;
            span.tag = tag_;
        }
        const std::lock_guard<std::mutex> lock(recorder_.mutex_);
        recorder_.spans_.push_back(std::move(span));
    }
    return seconds_;
}

}  // namespace itscs_bench
