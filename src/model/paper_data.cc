#include "model/paper_data.hh"

#include <limits>

#include "util/error.hh"

namespace memsense::model::paper
{

namespace
{

WorkloadParams
make(const std::string &name, WorkloadClass cls, double cpi_cache,
     double bf, double mpki, double wbr, double iopi = 0.0,
     double io_bytes = 0.0)
{
    WorkloadParams p;
    p.name = name;
    p.cls = cls;
    p.cpiCache = cpi_cache;
    p.bf = bf;
    p.mpki = mpki;
    p.wbr = wbr;
    p.iopi = iopi;
    p.ioBytes = io_bytes;
    p.validate();
    return p;
}

} // anonymous namespace

std::vector<WorkloadParams>
bigDataParams()
{
    // Table 2 as published. NITS WBR: the table prints "17%" in the
    // available copy, but the text states the NITS percentage exceeds
    // 100% due to non-temporal writes; we take 117% as the intended
    // value. NITS also carries the paper's ~2 GB/s I/O stream,
    // expressed here as IOPI * IOSZ (~0.65 B of I/O per instruction at
    // the observed instruction rate).
    return {
        make("Structured Data", WorkloadClass::BigData, 0.89, 0.20, 5.6,
             0.32),
        make("NITS", WorkloadClass::BigData, 0.96, 0.18, 5.0, 1.17,
             1.0 / 8192.0, 4096.0),
        make("Spark", WorkloadClass::BigData, 0.90, 0.25, 6.0, 0.64),
        make("Proximity", WorkloadClass::BigData, 0.93, 0.03, 0.5, 0.47),
    };
}

std::vector<WorkloadParams>
enterpriseParams()
{
    // Inferred per-workload values consistent with the Table 6 class
    // mean (1.47, 0.41, 6.7, 27%); see file comment.
    return {
        make("Virtualization", WorkloadClass::Enterprise, 1.40, 0.44, 7.6,
             0.25),
        make("Web Caching", WorkloadClass::Enterprise, 1.60, 0.46, 5.4,
             0.20),
        make("OLTP", WorkloadClass::Enterprise, 1.55, 0.40, 7.0, 0.30,
             1.0 / 20000.0, 8192.0),
        make("JVM", WorkloadClass::Enterprise, 1.33, 0.34, 6.8, 0.33),
    };
}

std::vector<WorkloadParams>
hpcParams()
{
    // Inferred per-workload values consistent with the Table 6 class
    // mean (0.75, 0.07, 26.7, 27%); see file comment.
    return {
        make("bwaves", WorkloadClass::Hpc, 0.55, 0.04, 30.0, 0.30),
        make("milc", WorkloadClass::Hpc, 0.80, 0.10, 28.0, 0.35),
        make("soplex", WorkloadClass::Hpc, 0.85, 0.09, 25.0, 0.25),
        make("wrf", WorkloadClass::Hpc, 0.80, 0.05, 23.8, 0.18),
    };
}

std::vector<WorkloadParams>
allWorkloadParams()
{
    std::vector<WorkloadParams> all = bigDataParams();
    auto ent = enterpriseParams();
    auto hpc = hpcParams();
    all.insert(all.end(), ent.begin(), ent.end());
    all.insert(all.end(), hpc.begin(), hpc.end());
    return all;
}

std::vector<WorkloadParams>
classParams()
{
    // Table 6 as published.
    return {
        make("Enterprise", WorkloadClass::Enterprise, 1.47, 0.41, 6.7,
             0.27),
        make("Big Data", WorkloadClass::BigData, 0.91, 0.21, 5.5, 0.92),
        make("HPC", WorkloadClass::Hpc, 0.75, 0.07, 26.7, 0.27),
    };
}

WorkloadParams
classParams(WorkloadClass cls)
{
    // Every serve request starts from a class preset: build and
    // validate Table 6 once, not per call.
    static const std::vector<WorkloadParams> table = classParams();
    for (const auto &p : table) {
        if (p.cls == cls)
            return p;
    }
    throw ConfigError("no published class parameters for " +
                      className(cls));
}

std::vector<FitObservation>
table3StructuredDataRuns()
{
    // Table 3 as published: two independent runs at each of four core
    // speeds, DDR speed fixed; MPI and MP (core cycles) measured per
    // run. CPI (measured) is the bottom comparison row.
    auto obs = [](double ghz, double mpi, double mp_cycles,
                  double cpi_measured) {
        FitObservation o;
        o.coreGhz = ghz;
        o.memMtPerSec = 1866.7;
        o.mpi = mpi;
        o.mpCycles = mp_cycles;
        o.cpiEff = cpi_measured;
        o.mpki = mpi * 1000.0;
        o.wbr = 0.32;
        o.instructions = 1.0;
        return o;
    };
    return {
        obs(2.1, 0.0056, 402, 1.32),
        obs(2.4, 0.0056, 462, 1.38),
        obs(2.7, 0.0059, 543, 1.47),
        obs(3.1, 0.0057, 631, 1.60),
        obs(2.1, 0.0056, 383, 1.32),
        obs(2.4, 0.0056, 448, 1.39),
        obs(2.7, 0.0055, 502, 1.44),
        obs(3.1, 0.0055, 598, 1.57),
    };
}

std::vector<Table7Row>
table7()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    return {
        // class, +1GB/s/core gain, -10ns gain, GB/s == 10ns, ns == 8GB/s
        {WorkloadClass::Enterprise, 0.5, 3.5, 39.7, 2.0},
        {WorkloadClass::BigData, 0.9, 2.5, 27.1, 2.9},
        {WorkloadClass::Hpc, 24.0, 0.0, 0.0, inf},
    };
}

} // namespace memsense::model::paper
