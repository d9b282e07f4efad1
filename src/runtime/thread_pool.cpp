#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.hpp"
#include "common/topology.hpp"

namespace mcs {

namespace {

// Worker identity, process-wide: set once per worker thread, never reset
// (a worker thread dies with its pool). SIZE_MAX = not a pool worker.
thread_local std::size_t tls_worker_index = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool::ThreadPool(Options options) : options_(options) {
    std::size_t threads = options.threads;
    if (threads == 0) {
        // Effective CPUs, not hardware_concurrency: a pool sized past the
        // process's affinity mask oversubscribes by construction.
        threads = effective_cpu_count();
    }
    MCS_CHECK_MSG(threads <= kMaxThreads,
                  "ThreadPool: " + std::to_string(threads) +
                      " workers requested, at most " +
                      std::to_string(kMaxThreads) + " allowed");
    MCS_CHECK_MSG(options.queue_capacity >= 1,
                  "ThreadPool: queue capacity must be at least 1");
    workers_.reserve(threads);
    for (std::size_t k = 0; k < threads; ++k) {
        workers_.emplace_back([this, k] { worker_loop(k); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Graceful shutdown: nothing already accepted is dropped. Workers
        // keep draining the queue after `stopping_` flips; they only exit
        // once it is empty.
        stopping_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::worker_loop(std::size_t index) {
    tls_worker_index = index;
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stopping and drained
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        not_full_.notify_one();
        try {
            task.fn();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex_);
            errors_.push_back(
                {std::move(task.label), std::current_exception()});
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0) {
                idle_.notify_all();
            }
        }
    }
}

void ThreadPool::submit(std::function<void()> task, std::string label) {
    MCS_CHECK_MSG(task != nullptr, "ThreadPool: null task");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock, [this] {
            return stopping_ || queue_.size() < options_.queue_capacity;
        });
        MCS_CHECK_MSG(!stopping_, "ThreadPool: submit after shutdown");
        queue_.push_back({std::move(task), std::move(label)});
    }
    not_empty_.notify_one();
}

void ThreadPool::wait_idle() {
    std::vector<TaskError> errors;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
        errors = std::exchange(errors_, {});
    }
    if (!errors.empty()) {
        std::rethrow_exception(errors.front().error);
    }
}

std::exception_ptr ThreadPool::take_error() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::exception_ptr first =
        errors_.empty() ? nullptr : errors_.front().error;
    errors_.clear();
    return first;
}

std::vector<ThreadPool::TaskError> ThreadPool::take_errors() {
    std::unique_lock<std::mutex> lock(mutex_);
    return std::exchange(errors_, {});
}

bool ThreadPool::on_worker_thread() {
    return tls_worker_index != static_cast<std::size_t>(-1);
}

std::size_t ThreadPool::worker_index() { return tls_worker_index; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
    MCS_CHECK_MSG(begin <= end, "parallel_for: inverted range");
    MCS_CHECK_MSG(grain >= 1, "parallel_for: grain must be at least 1");
    MCS_CHECK_MSG(body != nullptr, "parallel_for: null body");
    MCS_CHECK_MSG(!on_worker_thread(),
                  "parallel_for: nested call from a pool worker");
    const std::size_t total = end - begin;
    if (total == 0) {
        return;
    }
    // Deterministic chunking: as many chunks as workers (so every worker
    // can participate) but never smaller than `grain`. Depends only on the
    // range and pool size — a fixed pool size gives fixed chunk boundaries.
    const std::size_t max_chunks = std::max<std::size_t>(
        1, std::min(size(), (total + grain - 1) / grain));
    if (max_chunks == 1) {
        body(begin, end);
        return;
    }
    const std::size_t chunk = (total + max_chunks - 1) / max_chunks;

    // Per-call completion state: the call must be re-entrant from several
    // non-worker threads at once, so nothing is stored in the pool.
    struct ForState {
        std::mutex mutex;
        std::condition_variable done;
        std::size_t pending = 0;
        std::exception_ptr error;
    } state;
    state.pending = (total + chunk - 1) / chunk;

    for (std::size_t lo = begin; lo < end; lo += chunk) {
        const std::size_t hi = std::min(end, lo + chunk);
        submit([&state, &body, lo, hi] {
            try {
                body(lo, hi);
            } catch (...) {
                std::unique_lock<std::mutex> lock(state.mutex);
                if (state.error == nullptr) {
                    state.error = std::current_exception();
                }
            }
            std::unique_lock<std::mutex> lock(state.mutex);
            if (--state.pending == 0) {
                state.done.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done.wait(lock, [&state] { return state.pending == 0; });
    if (state.error != nullptr) {
        std::rethrow_exception(state.error);
    }
}

}  // namespace mcs
