/**
 * @file
 * Shared helpers for the model-application benches (Figs 8-11,
 * Table 7): baseline platform, class parameters, and the queuing
 * model (analytic by default; --measured rebuilds it from an MLC
 * sweep on the simulator, the paper's actual procedure).
 */

#ifndef MEMSENSE_BENCH_MODEL_COMMON_HH
#define MEMSENSE_BENCH_MODEL_COMMON_HH

#include <string>
#include <vector>

#include "bench_common.hh"
#include "measure/loaded_latency.hh"
#include "model/memsense.hh"

namespace memsense::bench
{

/**
 * Build the solver; --measured derives the queuing curve via MLC,
 * running the delay points on --jobs workers (the curve is identical
 * for any count). With any fault-tolerance flag set, failing delay points of the MLC
 * sweeps are retried then dropped (and reported), and --checkpoint
 * makes the sweep family resumable.
 */
inline model::Solver
makeSolver(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--measured") {
            inform("measuring the queuing model on the simulator "
                   "(Fig. 7 procedure) ...");
            auto setups = measure::paperFig7Setups();
            std::size_t points = 0;
            for (auto &s : setups) {
                s.delayCycles = {0, 8, 16, 32, 48, 96, 256, 1024};
                s.measure = nsToPicos(250'000.0);
                s.jobs = jobsArg(argc, argv);
                s.resilience = resilienceArgs(argc, argv);
                points += s.delayCycles.size();
            }
            measure::FailureManifest manifest;
            model::Solver solver(
                measure::measureQueuingModel(setups, 24, 0.95, &manifest));
            reportFailures("mlc", manifest, points);
            return solver;
        }
    }
    return model::Solver();
}

/** The three class-mean parameter sets (published Table 6 values). */
inline std::vector<model::WorkloadParams>
classMixes()
{
    return model::paper::classParams();
}

} // namespace memsense::bench

#endif // MEMSENSE_BENCH_MODEL_COMMON_HH
