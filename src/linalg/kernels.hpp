// Output-parameter kernels and the Workspace scratch-buffer arena.
//
// The value-returning ops in linalg/ops.hpp allocate a fresh Matrix per
// call, which is fine for one-shot use but makes iterative solvers (the ASD
// inner loop, the I(TS,CS) framework loop) allocate every gradient, Gram
// matrix and residual on every iteration. The `_into` kernels here write
// into a caller-provided destination instead; paired with a Workspace that
// recycles scratch buffers, a steady-state loop performs zero heap
// allocations after its first (warm-up) iteration.
//
// Contracts shared by every `_into` kernel:
//   * dst must already have the result shape — kernels never resize
//     (MCS_CHECK at entry), because a silent resize is a silent allocation;
//   * dst is fully overwritten, so stale contents of a recycled buffer
//     never leak through;
//   * dst must not alias any input (axpy's in-place y excepted) —
//     MCS_CHECK-rejected at entry;
//   * under the default KernelTier::kExact, results are bit-for-bit
//     identical to the matching value-returning op (same loop order, same
//     rounding) — asserted by linalg_kernels_test. Under KernelTier::kFast
//     (see linalg/kernel_tier.hpp) the GEMM-shaped kernels, axpy and the
//     folded ASD passes dispatch to SIMD micro-kernels that agree to
//     ≤1e-12 relative and are deterministic run-to-run and across thread
//     counts.
//
// Only kernels that a solve calls (the ASD objective and step in cs/, the
// randomized range finder in linalg/svd.cpp) live here; element-wise
// one-offs use the value-returning ops.
//
// GEMM-shaped kernels take an optional PipelineCounters* and add 2·m·n·k
// FLOPs per product, so instrumented pipelines can report arithmetic volume.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/context.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

// ---- Opt-in row-blocked kernel parallelism -----------------------------
//
// The linalg layer sits below the runtime subsystem, so it cannot own a
// thread pool. Instead the GEMM-shaped kernels whose destination rows are
// independent (multiply_into, multiply_transposed_into,
// masked_residual_into) expose a seam: when a RowExecutor is installed,
// the outer i-loop is split into disjoint row blocks and handed to it.
// Every row is computed by exactly the serial loop's arithmetic — same
// inner loop order, same term skipping — so results stay bit-identical to
// the serial path regardless of how blocks are scheduled. Installed by
// runtime::KernelParallelScope, gated by RuntimeConfig::kernel_threads.

/// Executor for disjoint row blocks of a kernel's destination.
class RowExecutor {
public:
    virtual ~RowExecutor() = default;

    /// Invoke block(begin, end) over a disjoint cover of [0, rows), in any
    /// order / concurrently; must not return before every block finished.
    /// Implementations must run the blocks inline when already on a worker
    /// thread (kernels cannot know their caller's nesting level).
    virtual void for_rows(
        std::size_t rows,
        const std::function<void(std::size_t, std::size_t)>& block) = 0;
};

/// Install (nullptr: remove) the process-wide kernel row executor. The
/// pointer is not owned. Installation is not synchronised — install/remove
/// only while no kernels are running (startup, or the RAII scope in the
/// runtime subsystem).
void set_kernel_row_executor(RowExecutor* executor);

/// Currently installed executor (nullptr = serial kernels).
RowExecutor* kernel_row_executor();

/// Destinations with fewer rows run serially even when an executor is
/// installed: below this, block-dispatch overhead beats the arithmetic.
constexpr std::size_t kKernelRowBlockThreshold = 64;

/// y += alpha · x (same shape). The in-place update of the BLAS axpy.
void axpy(Matrix& y, double alpha, const Matrix& x);

/// dst = a · b (a.cols == b.rows; dst is a.rows x b.cols).
void multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                   PipelineCounters* counters = nullptr);

/// dst = a · bᵀ without forming the transpose (a.cols == b.cols).
void multiply_transposed_into(Matrix& dst, const Matrix& a, const Matrix& b,
                              PipelineCounters* counters = nullptr);

/// dst = aᵀ · b without forming the transpose (a.rows == b.rows).
void transpose_multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                             PipelineCounters* counters = nullptr);

/// dst = aᵀ (dst is a.cols x a.rows).
void transpose_into(Matrix& dst, const Matrix& a);

/// dst = (l · rᵀ) ∘ mask − s, the masked CS fitting residual (see
/// linalg/ops.hpp masked_residual for the shape contract).
void masked_residual_into(Matrix& dst, const Matrix& l, const Matrix& r,
                          const Matrix& mask, const Matrix& s,
                          PipelineCounters* counters = nullptr);

/// dst = aᵀa + ridge·I (dst is a.cols x a.cols).
void gram_with_ridge_into(Matrix& dst, const Matrix& a, double ridge,
                          PipelineCounters* counters = nullptr);

/// dst = Δᵀe: the adjoint, under the Frobenius inner product, of the
/// temporal difference X·𝕋 with its first column zeroed (see
/// linalg/temporal.hpp).
void temporal_diff_adjoint_into(Matrix& dst, const Matrix& e);

// ---- Fused ASD passes (DESIGN.md §13) ----------------------------------
//
// One pass over the data-sized operands instead of a chain of element-wise
// kernels, so an ASD half-step never materialises P∘mask or ΔP. Δ is the
// temporal difference X·𝕋 of linalg/temporal.hpp. The split kernels are the
// exact tier's: each output and each sum takes the same per-element
// arithmetic, in the same row-major order, as the separate kernels and
// frobenius_* reductions they replace, so they are bit-identical to them.
// The folded kernels are the fast tier's (SIMD, fixed shape-determined
// reduction order, not bit-identical to anything else).

/// m = x∘mask − s and, unless e is empty, e = Δx − c (all the same shape).
void split_residuals_into(Matrix& m, Matrix& e, const Matrix& x,
                          const Matrix& mask, const Matrix& s,
                          const Matrix& c);

/// w = (x∘mask − s) + lambda·Δᵀ(Δx − c): both residual terms of the CS
/// objective folded into the one matrix its gradients need.
void folded_residual_into(Matrix& w, const Matrix& x, const Matrix& mask,
                          const Matrix& s, const Matrix& c, double lambda);

/// The sums an exact line search along a product P needs.
struct LineSearchSums {
    double masked_sq = 0.0;     ///< ‖P∘mask‖²_F
    double diff_sq = 0.0;       ///< ‖ΔP‖²_F
    double residual_dot = 0.0;  ///< ⟨m, P∘mask⟩ (split) or ⟨w, P⟩ (folded)
    double diff_dot = 0.0;      ///< ⟨e, ΔP⟩ (split; 0 when e is empty or folded)
};

/// Split sums: ‖P∘mask‖², ⟨m, P∘mask⟩ and, unless e is empty, ‖ΔP‖² and
/// ⟨e, ΔP⟩ — bit-identical to frobenius_* over hadamard / temporal_diff.
LineSearchSums line_search_sums(const Matrix& p, const Matrix& mask,
                                const Matrix& m, const Matrix& e);

/// Folded sums: ‖P∘mask‖², ‖ΔP‖² and ⟨w, P⟩ (diff_dot stays 0).
LineSearchSums folded_line_search_sums(const Matrix& p, const Matrix& mask,
                                       const Matrix& w);

/// Recycling arena for scratch matrices.
///
/// acquire() returns a Matrix of the requested shape, reusing a pooled
/// buffer when one with that exact shape is free and allocating otherwise;
/// release() returns the buffer to the pool. Contents of an acquired buffer
/// are unspecified — every `_into` kernel fully overwrites its destination,
/// so this never matters in practice.
///
/// A Workspace may be bound to a PipelineCounters, in which case every
/// acquire() bumps workspace_checkouts and every pool miss bumps
/// workspace_allocations — the counter pair behind the "zero allocations
/// after warm-up" regression test and the perf_pipeline JSON report.
///
/// Ownership rule: the arena is single-owner — not thread-safe, one
/// Workspace per solver instance / per worker. Ownership may hand off
/// between threads at synchronisation points (FleetRunner's workers each
/// keep a long-lived arena and the runner clear()s them after the joining
/// barrier); what is forbidden is concurrent use. Long-lived owners should
/// clear() between independent runs: the pool retains every
/// distinct-shape buffer ever released (its high-water mark), and a
/// worker that just processed an oversized shard would otherwise pin that
/// peak memory forever.
class Workspace {
public:
    explicit Workspace(PipelineCounters* counters = nullptr)
        : counters_(counters) {}

    /// Check out a rows x cols buffer (pooled if available, else fresh).
    Matrix acquire(std::size_t rows, std::size_t cols);

    /// Return a buffer to the pool for later reuse.
    void release(Matrix&& m);

    /// Drop every pooled buffer (checked-out buffers are unaffected),
    /// releasing the arena's high-water-mark scratch back to the heap.
    /// Call between independent runs on long-lived workers; created() is
    /// a lifetime total and keeps counting across clears.
    void clear();

    PipelineCounters* counters() const { return counters_; }

    /// Buffers currently sitting in the pool.
    std::size_t pooled() const { return pool_.size(); }
    /// Fresh allocations made by this workspace over its lifetime.
    std::size_t created() const { return created_; }

private:
    std::vector<Matrix> pool_;
    PipelineCounters* counters_;
    std::size_t created_ = 0;
};

/// RAII lease of one Workspace buffer: acquires on construction, releases
/// on destruction. Dereference (*s / s->) to reach the Matrix.
class Scratch {
public:
    Scratch(Workspace& ws, std::size_t rows, std::size_t cols)
        : ws_(ws), m_(ws.acquire(rows, cols)) {}
    ~Scratch() { ws_.release(std::move(m_)); }
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    Matrix& operator*() { return m_; }
    const Matrix& operator*() const { return m_; }
    Matrix* operator->() { return &m_; }
    const Matrix* operator->() const { return &m_; }

private:
    Workspace& ws_;
    Matrix m_;
};

}  // namespace mcs
