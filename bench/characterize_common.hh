/**
 * @file
 * Shared driver for the characterization benches (Fig. 3, Tables
 * 2/4/5): frequency-scaling sweeps, Eq. 1 fits, and paper-vs-measured
 * parameter tables.
 */

#ifndef MEMSENSE_BENCH_CHARACTERIZE_COMMON_HH
#define MEMSENSE_BENCH_CHARACTERIZE_COMMON_HH

#include <string>
#include <vector>

#include "bench_common.hh"
#include "measure/freq_scaling.hh"
#include "workloads/factory.hh"

namespace memsense::bench
{

/** Sweep settings scaled by --fast. */
inline measure::FreqScalingConfig
sweepConfig(bool fast)
{
    measure::FreqScalingConfig cfg;
    if (fast) {
        cfg.coreGhz = {2.1, 2.7, 3.1};
        cfg.measure = nsToPicos(600'000.0);
        cfg.warmup = nsToPicos(4'000'000.0);
        cfg.adaptiveWarmup = false;
    } else {
        cfg.runsPerPoint = 2; // the paper's Table 3 took two per point
    }
    return cfg;
}

/** Sweep settings from the bench flags (--fast, --jobs N, and the
 *  fault-tolerance flags --max-retries / --job-timeout-ms /
 *  --checkpoint). */
inline measure::FreqScalingConfig
sweepConfig(int argc, char **argv)
{
    measure::FreqScalingConfig cfg = sweepConfig(fastMode(argc, argv));
    cfg.jobs = jobsArg(argc, argv);
    cfg.resilience = resilienceArgs(argc, argv);
    return cfg;
}

/**
 * Characterize a list of workloads on the parallel engine. With any
 * fault-tolerance flag set, grid-point failures are retried and
 * quarantined (reported via reportFailures under @p exp_id) instead
 * of aborting the sweep, and --checkpoint enables resume.
 */
inline std::vector<measure::Characterization>
characterizeIds(const std::vector<std::string> &ids,
                const measure::FreqScalingConfig &cfg,
                const std::string &exp_id = "characterize")
{
    measure::PhaseTimer phase("sweep");
    measure::FailureManifest manifest;
    std::vector<measure::Characterization> chars =
        measure::characterizeMany(ids, cfg, &manifest);
    reportFailures(exp_id, manifest,
                   ids.size() * cfg.coreGhz.size() *
                       cfg.memMtPerSec.size() *
                       static_cast<std::size_t>(cfg.runsPerPoint));
    return chars;
}

/** Print the fitted-parameter table with the paper's values beside. */
inline void
printParamTable(const std::string &exp_id,
                const std::vector<measure::Characterization> &chars)
{
    Table t({"Workload", "CPI_cache", "BF", "MPKI", "WBR", "R^2",
             "paper CPI_cache", "paper BF", "paper MPKI", "paper WBR"});
    std::vector<std::vector<double>> csv;
    for (const auto &c : chars) {
        const auto &info = workloads::workloadInfo(c.workloadId);
        const auto &got = c.model.params;
        const auto &ref = info.paperTarget;
        t.addRow({info.display, formatDouble(got.cpiCache, 2),
                  formatDouble(got.bf, 2), formatDouble(got.mpki, 1),
                  formatPercent(got.wbr, 0), formatDouble(c.model.fit.r2, 2),
                  formatDouble(ref.cpiCache, 2), formatDouble(ref.bf, 2),
                  formatDouble(ref.mpki, 1), formatPercent(ref.wbr, 0)});
        csv.push_back({got.cpiCache, got.bf, got.mpki, got.wbr,
                       c.model.fit.r2, ref.cpiCache, ref.bf, ref.mpki,
                       ref.wbr});
    }
    t.print(std::cout);
    csvBlock(exp_id,
             {"cpi_cache", "bf", "mpki", "wbr", "r2", "paper_cpi_cache",
              "paper_bf", "paper_mpki", "paper_wbr"},
             csv);
}

/** Print the per-workload fit scatter (Fig. 3 style). */
inline void
printFitScatter(const std::string &exp_id,
                const std::vector<measure::Characterization> &chars)
{
    measure::PhaseTimer phase("report");
    for (const auto &c : chars) {
        const auto &info = workloads::workloadInfo(c.workloadId);
        std::cout << "\n-- " << info.display
                  << strformat(": CPI = %.3f + %.3f * (MPI*MP), "
                               "R^2 = %.3f --\n",
                               c.model.params.cpiCache, c.model.params.bf,
                               c.model.fit.r2);
        Table t({"core GHz", "DDR MT/s", "MPI*MP (cyc/inst)",
                 "CPI measured", "CPI fitted", "error"});
        std::vector<std::vector<double>> csv;
        for (const auto &o : c.observations) {
            double fitted = c.model.predictCpi(o.latencyPerInstruction());
            t.addRow({formatDouble(o.coreGhz, 1),
                      formatDouble(o.memMtPerSec, 0),
                      formatDouble(o.latencyPerInstruction(), 3),
                      formatDouble(o.cpiEff, 3), formatDouble(fitted, 3),
                      formatPercent(fitted / o.cpiEff - 1.0, 1)});
            csv.push_back({o.coreGhz, o.memMtPerSec,
                           o.latencyPerInstruction(), o.cpiEff, fitted});
        }
        t.print(std::cout);
        csvBlock(exp_id + "_" + c.workloadId,
                 {"ghz", "mt", "mpi_mp", "cpi_measured", "cpi_fitted"},
                 csv);
    }
}

} // namespace memsense::bench

#endif // MEMSENSE_BENCH_CHARACTERIZE_COMMON_HH
