/**
 * @file
 * Result printing against the metric catalogue of BENCHMARK.json.
 *
 * Every workload fills one Result. The printer lists each metric of
 * the run's kind (end-to-end for untraced runs, per-layer for traced
 * runs) with its unit and the sample count behind it, then ends with
 * the one-line JSON summary: {"correct", "attempted", "failed",
 * "metrics"}. A metric the workload did not fill, unless its layer is
 * bypassed, or one filled with a non-finite value, makes the result
 * incorrect.
 */

#ifndef MEMBENCH_REPORT_HH
#define MEMBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/host.hh"

namespace membench
{

/**
 * Host steal share (HostRecord::stealFrac) up to which the bounds of
 * BENCHMARK.json were validated. A run above it says so in a note.
 */
constexpr double kValidatedStealFrac = 0.01;

/** One metric that BENCHMARK.json names. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The metrics of BENCHMARK.json, in its order, by run kind. */
struct Catalogue
{
    std::vector<MetricSpec> endToEnd; ///< printed by untraced runs
    std::vector<MetricSpec> perLayer; ///< printed by traced runs
};

/** Read the catalogue from BENCHMARK.json at @p path; throws. */
Catalogue readCatalogue(const std::string &path);

/**
 * Whether @p workload never reaches the layer of per-layer metric
 * @p metric. A bypassed metric the run did not fill reports 0.
 */
bool bypasses(const std::string &workload, const std::string &metric);

/**
 * Whether per-layer metric @p metric is an exact count: it repeats bit
 * for bit at one seed, so any change in it is a change in behaviour,
 * never a gain or a regression.
 */
bool isInvariant(const std::string &metric);

/** One measured value and the number of samples behind it. */
struct Value
{
    double value = 0.0;
    std::size_t samples = 0;
};

/** What one run measured and checked. */
struct Result
{
    std::uint64_t attempted = 0; ///< operations run
    std::uint64_t failed = 0;    ///< failed, refused, missing or wrong
    bool checksRan = false;      ///< output checks completed
    std::map<std::string, Value> metrics;
    std::vector<std::string> notes; ///< check findings, for the log

    void set(const std::string &name, double value, std::size_t samples)
    {
        metrics[name] = Value{value, samples};
    }

    /** Record @p n failed operations with a reason. */
    void fail(std::uint64_t n, const std::string &why);
};

/** The run's identity, printed with the result. */
struct RunInfo
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/**
 * Print the human-readable report and the final JSON line. Returns
 * whether the result counts as correct.
 */
bool printResult(std::ostream &out, const RunInfo &run,
                 const HostRecord &host, const Catalogue &catalogue,
                 const Result &result);

} // namespace membench

#endif // MEMBENCH_REPORT_HH
