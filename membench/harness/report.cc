#include "harness/report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "serve/json.hh"

namespace membench
{

namespace
{

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // anonymous namespace

Catalogue
readCatalogue(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const memsense::serve::JsonValue v =
        memsense::serve::parseJson(text.str());
    auto specs = [&v](const char *list) {
        std::vector<MetricSpec> out;
        for (const auto &m : v.at(list).items)
            out.push_back({m.at("name").asString("name"),
                           m.at("unit").asString("unit")});
        return out;
    };
    return Catalogue{specs("end_to_end"), specs("per_layer")};
}

bool
bypasses(const std::string &workload, const std::string &metric)
{
    // Metric name prefixes of the layers each kind of workload never
    // reaches.
    static const std::vector<std::string> kSweepBypasses = {
        "model.solve", "model.bw_bound", "serve.", "loadgen."};
    static const std::vector<std::string> kServeBypasses = {
        "workloads.", "sim.", "measure.", "model.fit"};
    const bool sweep = workload.rfind("sweep_", 0) == 0;
    for (const std::string &prefix : sweep ? kSweepBypasses : kServeBypasses)
        if (metric.rfind(prefix, 0) == 0)
            return true;
    return false;
}

bool
isInvariant(const std::string &metric)
{
    static const std::set<std::string> kInvariants = {
        "workloads.ops",
        "sim.instructions",
        "sim.l1.accesses",
        "sim.l1.miss_ratio",
        "sim.l2.miss_ratio",
        "sim.llc.accesses",
        "sim.llc.miss_ratio",
        "sim.llc.dirty_evictions",
        "sim.prefetch.issued",
        "sim.core.mshr_stall_frac",
        "sim.core.dep_stall_frac",
        "sim.dram.reads",
        "sim.dram.writes",
        "sim.dram.row_hit_ratio",
        "sim.dram.queue_ns",
        "measure.points",
        "model.solve_iters",
        "model.bw_bound_frac",
    };
    return kInvariants.count(metric) > 0;
}

void
Result::fail(std::uint64_t n, const std::string &why)
{
    failed += n;
    notes.push_back(why);
}

bool
printResult(std::ostream &out, const RunInfo &run, const HostRecord &host,
            const Catalogue &catalogue, const Result &result)
{
    const std::vector<MetricSpec> &specs =
        run.trace ? catalogue.perLayer : catalogue.endToEnd;
    bool correct = result.checksRan && result.failed == 0 &&
                   result.attempted > 0;

    out << "membench: workload=" << run.workload << " seed=" << run.seed
        << " seconds=" << run.seconds << " trace=" << (run.trace ? 1 : 0)
        << "\n";
    out << "membench: host " << host.toJson() << "\n";

    std::string json_metrics;
    for (const MetricSpec &spec : specs) {
        auto it = result.metrics.find(spec.name);
        Value v;
        bool present = it != result.metrics.end() &&
                       std::isfinite(it->second.value);
        if (present) {
            v = it->second;
            out << "membench: metric " << spec.name << " = "
                << number(v.value) << " " << spec.unit << " (n=" << v.samples
                << (run.trace && isInvariant(spec.name) ? ", invariant" : "")
                << ")\n";
        } else if (run.trace && it == result.metrics.end() &&
                   bypasses(run.workload, spec.name)) {
            present = true;
            out << "membench: metric " << spec.name
                << " = 0 (layer bypassed by this workload)\n";
        } else {
            correct = false;
            out << "membench: metric " << spec.name << " missing\n";
        }
        if (!json_metrics.empty())
            json_metrics += ",";
        json_metrics += "\"" + spec.name + "\":{\"value\":" +
                        (present ? number(v.value) : "null") +
                        ",\"unit\":\"" + spec.unit + "\"}";
    }
    const double fail_frac =
        result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0;
    out << "membench: fail_frac = " << number(fail_frac) << " ("
        << result.failed << " failed of " << result.attempted
        << " attempted)\n";
    for (const std::string &note : result.notes)
        out << "membench: note " << note << "\n";
    if (host.stealFrac > kValidatedStealFrac)
        out << "membench: note host steal " << number(host.stealFrac)
            << " is above the " << kValidatedStealFrac
            << " at which the bounds were validated; do not compare this "
               "run's timings at face value\n";
    if (!result.checksRan)
        out << "membench: note output checks did not complete\n";

    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << result.attempted
        << ",\"failed\":" << result.failed << ",\"metrics\":{"
        << json_metrics << "}}" << std::endl;
    return correct;
}

} // namespace membench
