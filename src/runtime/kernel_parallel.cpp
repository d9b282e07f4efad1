#include "runtime/kernel_parallel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mcs {

class KernelParallelScope::PoolRowExecutor final : public RowExecutor {
public:
    explicit PoolRowExecutor(std::size_t threads) : pool_(threads) {}

    void for_rows(std::size_t rows,
                  const std::function<void(std::size_t, std::size_t)>& block)
        override {
        // A kernel running on any pool worker (e.g. inside a FleetRunner
        // shard) must not fan out again: parallel_for would reject the
        // nesting, and serial is the right answer there anyway — the
        // outer level already owns the cores.
        if (ThreadPool::on_worker_thread()) {
            block(0, rows);
            return;
        }
        // Grain keeps blocks at least half the serial threshold so the
        // per-block dispatch cost stays amortised even on short kernels.
        const std::size_t grain = std::max<std::size_t>(
            kKernelRowBlockThreshold / 2,
            rows / (2 * std::max<std::size_t>(1, pool_.size())));
        pool_.parallel_for(0, rows, grain, block);
    }

private:
    ThreadPool pool_;
};

KernelParallelScope::KernelParallelScope(std::size_t kernel_threads) {
    if (kernel_threads <= 1) {
        return;  // inactive: serial kernels
    }
    MCS_CHECK_MSG(kernel_row_executor() == nullptr,
                  "KernelParallelScope: an executor is already installed "
                  "(one scope at a time)");
    executor_ = std::make_unique<PoolRowExecutor>(kernel_threads);
    set_kernel_row_executor(executor_.get());
}

KernelParallelScope::~KernelParallelScope() {
    if (executor_ != nullptr) {
        set_kernel_row_executor(nullptr);
    }
}

}  // namespace mcs
