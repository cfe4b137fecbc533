/**
 * @file
 * Sec. IV.D extension: phase-weighted model application.
 *
 * The paper notes the model can be applied "to multiple program
 * phases independently ... provided we are able to apply a weight to
 * each phase based on the relative number of instructions". This
 * bench builds a two-phase Spark-like job (map: gather-heavy;
 * shuffle: write-heavy) and compares the phase-aware evaluation
 * against the single-phase averaged-parameter shortcut across
 * bandwidth configurations — quantifying when the shortcut is safe
 * (the paper's "provided bandwidth demand does not reach capacity"
 * caveat).
 */

#include "bench_common.hh"
#include "model/paper_data.hh"
#include "model/phases.hh"
#include "model/sensitivity.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    header("Phase-weighted model (Sec. IV.D)",
           "Phase-aware vs. averaged-parameter CPI across bandwidth "
           "configurations");

    model::Phase map;
    map.name = "map";
    map.weight = 2.0;
    map.params.name = "map";
    map.params.cpiCache = 0.85;
    map.params.bf = 0.26;
    map.params.mpki = 9.0;
    map.params.wbr = 0.45;

    model::Phase shuffle;
    shuffle.name = "shuffle";
    shuffle.weight = 1.0;
    shuffle.params.name = "shuffle";
    shuffle.params.cpiCache = 0.95;
    shuffle.params.bf = 0.12;
    shuffle.params.mpki = 14.0;
    shuffle.params.wbr = 0.9;

    model::PhasedWorkload job({map, shuffle});
    model::WorkloadParams avg = job.averagedParams("averaged");

    model::Platform base = model::Platform::paperBaseline();
    model::Solver solver;
    auto variants =
        model::SensitivityAnalyzer::standardBandwidthVariants(base.memory);

    Table t({"memory config", "phase-aware CPI", "averaged CPI",
             "shortcut error", "any phase BW bound"});
    std::vector<std::vector<double>> csv;
    for (const auto &mem : variants) {
        model::Platform plat = base;
        plat.memory = mem;
        model::PhasedPoint phased = job.evaluate(solver, plat);
        double averaged = solver.solve(avg, plat).cpiEff;
        bool any_bound = false;
        for (const auto &op : phased.perPhase)
            any_bound = any_bound || op.bandwidthBound;
        t.addRow({mem.describe(), formatDouble(phased.cpiEff, 3),
                  formatDouble(averaged, 3),
                  formatPercent(averaged / phased.cpiEff - 1.0, 1),
                  any_bound ? "yes" : "no"});
        csv.push_back({mem.effectiveBandwidthGBps(), phased.cpiEff,
                       averaged, any_bound ? 1.0 : 0.0});
    }
    t.setFootnote("\nThe shortcut is accurate while no phase is "
                  "bandwidth bound and degrades once the heavy phase "
                  "crosses the knee — the paper's Sec. IV.D caveat, "
                  "quantified.");
    t.print(std::cout);
    csvBlock("ext_phases",
             {"bw_gbps", "phased_cpi", "averaged_cpi", "any_bound"},
             csv);
    return 0;
}
