// Extension bench (beyond the paper's figures): head-to-head against the
// LRSD decomposition baseline of the paper's related work ([18] — low-rank
// + sparse error components). The paper argues [18] "cannot automatically
// detect faulty data"; here LRSD is given a residual threshold so it can
// compete on both problems, and I(TS,CS) still wins on both — showing the
// value of the time-series detector and the velocity term rather than of
// mere robust completion.
//
// The LRSD rows are truncated. LRSD stands in for the LS-decomposition of
// arXiv:1509.03723, but on all four scenarios below lrsd_decompose stops
// at LrsdConfig::max_iterations (8 rounds) on both axes with
// converged = false. The rows therefore score a decomposition cut off by
// its round limit, not its fixed point.
#include <iostream>

#include "common/format.hpp"
#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "trace/simulator.hpp"

int main() {
    std::cout << "=== Extension: I(TS,CS) vs the LRSD baseline [18] ===\n";
    const mcs::TraceDataset fleet = mcs::make_paper_scale_dataset(1);
    std::cout << "dataset: " << fleet.participants() << " x "
              << fleet.slots() << "\n";
    const mcs::MethodSettings settings;
    const std::vector<mcs::Method> methods{
        mcs::Method::kTmm, mcs::Method::kCsOnly, mcs::Method::kLrsd,
        mcs::Method::kItscsFull};

    const std::pair<double, double> scenarios[] = {
        {0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}};
    for (const auto& [alpha, beta] : scenarios) {
        std::cout << "\n--- alpha = " << mcs::format_percent(alpha, 0)
                  << ", beta = " << mcs::format_percent(beta, 0) << " ---\n";
        mcs::Table table(
            {"method", "precision", "recall", "MAE (m)", "time (s)"});
        for (const mcs::Method method : methods) {
            mcs::CorruptionConfig corruption;
            corruption.missing_ratio = alpha;
            corruption.fault_ratio = beta;
            corruption.seed = 5000 +
                              static_cast<std::uint64_t>(alpha * 100) +
                              static_cast<std::uint64_t>(beta * 10);
            const mcs::ExperimentPoint point =
                mcs::run_scenario(fleet, corruption, method, settings);
            table.add_row({to_string(method),
                           mcs::format_percent(point.precision),
                           mcs::format_percent(point.recall),
                           reconstructs(method)
                               ? mcs::format_fixed(point.mae_m, 0)
                               : std::string("-"),
                           mcs::format_fixed(point.elapsed_s, 1)});
        }
        table.print(std::cout);
    }
    return 0;
}
