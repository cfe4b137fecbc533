/**
 * @file
 * membench — the repository benchmark.
 *
 *     membench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads: sweep_fig03, sweep_fig07, serve_cold, serve_hot (see
 * membench/README.md). Run from the repository root; membench/run.sh
 * builds this binary and memsense_serve first. An untraced run prints
 * the end-to-end metrics of BENCHMARK.json, a traced run its per-layer
 * metrics; both end with one JSON line {"correct", "attempted",
 * "failed", "metrics"}.
 * Exit 0 when the outputs checked correct, 1 when they did not or the
 * run could not complete, 2 on bad arguments.
 */

#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/report.hh"
#include "harness/serve_bench.hh"
#include "harness/stats.hh"
#include "harness/sweeps.hh"
#include "util/log.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "membench: " << why
              << "\nusage: membench --workload "
                 "<sweep_fig03|sweep_fig07|serve_cold|serve_hot> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    membench::RunInfo run;
    std::string probe;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                return usage("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload") {
                run.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                run.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                run.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                run.trace = value == "1";
            } else if (flag == "--setup-probe") {
                probe = value;
            } else {
                return usage("unknown flag " + flag);
            }
        }
    } catch (const std::exception &) {
        return usage("bad numeric value");
    }

    memsense::setLogLevel(memsense::LogLevel::Warn);
    if (!probe.empty())
        return membench::sweepSetupProbe(probe, run.seed);
    if (!have_workload || !(run.seconds > 0.0))
        return usage("--workload and a positive --seconds are required");
    if (!membench::isSweepWorkload(run.workload) &&
        !membench::isServeWorkload(run.workload))
        return usage("unknown workload " + run.workload);

    // A server that dies mid-run must surface as a failed write, not
    // end the benchmark.
    signal(SIGPIPE, SIG_IGN);
    try {
        const membench::Catalogue catalogue =
            membench::readCatalogue("BENCHMARK.json");
        const membench::CpuTicks before = membench::systemCpuTicks();
        const membench::Result result =
            membench::isSweepWorkload(run.workload)
                ? membench::runSweepWorkload(run)
                : membench::runServeWorkload(run);
        const membench::CpuTicks after = membench::systemCpuTicks();
        membench::HostRecord host = membench::hostRecord();
        host.stealFrac = membench::ratio(
            static_cast<double>(after.steal - before.steal),
            static_cast<double>(after.total - before.total));
        return membench::printResult(std::cout, run, host, catalogue,
                                     result) ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "membench: " << run.workload << ": " << e.what() << "\n";
        return 1;
    }
}
