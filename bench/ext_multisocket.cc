/**
 * @file
 * Sec. VIII extension: multi-socket NUMA placement sweep.
 *
 * The paper notes the model "can be extended in a straightforward way
 * to model additional memory architectures such as multi-socket".
 * This bench sweeps the remote-access fraction (NUMA placement
 * quality) on a two-socket version of the baseline and reports the
 * CPI cost per class, plus the effect of a strangled interconnect.
 */

#include "bench_common.hh"
#include "model/multisocket.hh"
#include "model/paper_data.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    header("Multi-socket extension (Sec. VIII)",
           "CPI vs. remote-access fraction on 2 sockets (65 ns remote "
           "hop, 32 GB/s interconnect per socket)");

    model::MultiSocketPlatform plat;
    plat.socket = model::Platform::paperBaseline();
    plat.sockets = 2;

    model::MultiSocketSolver solver;
    const std::vector<double> fractions = {0.0, 0.1, 0.25, 0.5, 0.75,
                                           1.0};
    for (const auto &p : model::paper::classParams()) {
        auto sweep = solver.remoteFractionSweep(p, plat, fractions);
        std::cout << "\n-- " << p.name << " --\n";
        Table t({"remote fraction", "CPI", "vs. pinned", "local MP (ns)",
                 "remote MP (ns)", "link util"});
        std::vector<std::vector<double>> csv;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const auto &pt = sweep[i];
            t.addRow({formatPercent(fractions[i], 0),
                      formatDouble(pt.cpiEff, 3),
                      formatPercent(pt.cpiEff / sweep[0].cpiEff - 1.0, 1),
                      formatDouble(pt.localMpNs, 1),
                      formatDouble(pt.remoteMpNs, 1),
                      formatPercent(pt.interconnectUtilization, 0)});
            csv.push_back({fractions[i], pt.cpiEff, pt.localMpNs,
                           pt.remoteMpNs, pt.interconnectUtilization});
        }
        t.print(std::cout);
        csvBlock("ext_numa_" + p.name,
                 {"remote_frac", "cpi", "local_mp", "remote_mp",
                  "link_util"},
                 csv);
    }

    // A thin interconnect turns placement into a first-order knob.
    std::cout << "\n-- interleaved placement (50% remote) vs. "
                 "interconnect width, HPC mix --\n";
    Table t({"link GB/s", "CPI", "link bound"});
    plat.remoteFraction = 0.5;
    for (double link : {4.0, 8.0, 16.0, 32.0, 64.0}) {
        plat.interconnectGBps = link;
        auto pt = solver.solve(
            model::paper::classParams(model::WorkloadClass::Hpc), plat);
        t.addRow({formatDouble(link, 0), formatDouble(pt.cpiEff, 3),
                  pt.interconnectBound ? "yes" : "no"});
    }
    t.print(std::cout);
    return 0;
}
