#include "model/params.hh"

#include "util/error.hh"

namespace memsense::model
{

std::string
className(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::BigData:
        return "Big Data";
      case WorkloadClass::Enterprise:
        return "Enterprise";
      case WorkloadClass::Hpc:
        return "HPC";
      case WorkloadClass::CoreBound:
        return "Core Bound";
    }
    throw LogicError("unknown workload class");
}

double
WorkloadParams::bytesPerInstruction() const
{
    return mpi() * (1.0 + wbr) * kLineSizeBytes + iopi * ioBytes;
}

double
WorkloadParams::refsPerCycle() const
{
    return mpi() * (1.0 + wbr) / cpiCache;
}

void
WorkloadParams::validate() const
{
    // Every solve passes through here, so the messages (which carry
    // the workload name) are built only on the failing branch.
    if (!(cpiCache > 0.0))
        throw ConfigError(name + ": CPI_cache must be positive");
    if (!(bf >= 0.0 && bf <= 1.0))
        throw ConfigError(name + ": blocking factor must be in [0, 1]");
    if (!(mpki >= 0.0))
        throw ConfigError(name + ": MPKI must be non-negative");
    if (!(wbr >= 0.0 && wbr <= 2.0))
        throw ConfigError(name + ": WBR must be in [0, 2] (non-temporal "
                                 "stores can push it above 1, but not "
                                 "above 2)");
    if (!(iopi >= 0.0))
        throw ConfigError(name + ": IOPI must be non-negative");
    if (!(ioBytes >= 0.0))
        throw ConfigError(name + ": IOSZ must be non-negative");
}

WorkloadParams
classMean(const std::string &name, WorkloadClass cls,
          const std::vector<WorkloadParams> &members)
{
    requireConfig(!members.empty(), "class mean over zero workloads");
    WorkloadParams mean;
    mean.name = name;
    mean.cls = cls;
    mean.cpiCache = 0.0;
    mean.bf = 0.0;
    mean.mpki = 0.0;
    mean.wbr = 0.0;
    mean.iopi = 0.0;
    mean.ioBytes = 0.0;
    for (const auto &m : members) {
        mean.cpiCache += m.cpiCache;
        mean.bf += m.bf;
        mean.mpki += m.mpki;
        mean.wbr += m.wbr;
        mean.iopi += m.iopi;
        mean.ioBytes += m.ioBytes;
    }
    auto n = static_cast<double>(members.size());
    mean.cpiCache /= n;
    mean.bf /= n;
    mean.mpki /= n;
    mean.wbr /= n;
    mean.iopi /= n;
    mean.ioBytes /= n;
    return mean;
}

} // namespace memsense::model
