/**
 * @file
 * Performance suite: the google-benchmark kernels of
 * perf_microbench, distilled into one schema-versioned document:
 *
 *     {
 *       "schema": "memsense.bench.v1",
 *       "suite": "perf_suite",
 *       "microbench": { "BM_CacheLookup/2": { "median_ns": ...,
 *           "mad_ns": ..., "host": { ... } }, ... }
 *     }
 *
 * Each row carries the median and MAD of its repetitions, in
 * nanoseconds whatever the kernel's time unit, and the host block of
 * the machine it ran on. The committed copy (BENCH_memsense.json at
 * the repo root) is the microbenchmark trajectory: refresh a row with
 * scripts/check_perf.sh. End-to-end and per-layer comparisons of two
 * trees are scripts/ab.sh's job (docs/performance.md), which runs
 * interleaved membench pairs instead of timing one tree against a
 * committed number.
 *
 * Wall-clock numbers are machine- and load-dependent; the suite
 * reports medians to shave scheduler noise, but cross-machine
 * comparisons are only meaningful within one host block.
 *
 * Usage:
 *   perf_suite [--bin-dir DIR] [--out FILE] [--benchmark-filter REGEX]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "util/error.hh"
#include "util/string_util.hh"

namespace
{

using memsense::bench::stringArg;

/** Format a double with enough digits for a perf log (not %.17g). */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Run a shell command, discarding output; returns wall seconds. */
double
timedRun(const std::string &cmd)
{
    // memsense-lint: allow(no-nondeterminism): this driver MEASURES
    // wall time; the sim results it times stay seed-deterministic
    const auto start = std::chrono::steady_clock::now();
    const int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
    // memsense-lint: allow(no-nondeterminism): wall-time measurement
    const auto end = std::chrono::steady_clock::now();
    if (rc != 0)
        throw memsense::ConfigError("command failed (" +
                                     std::to_string(rc) + "): " + cmd);
    return std::chrono::duration<double>(end - start).count();
}

/** First line of a shell command's stdout; "" when it fails. */
std::string
commandOutput(const std::string &cmd)
{
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return "";
    char buf[256] = {};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    const int rc = ::pclose(pipe);
    return got && rc == 0 ? memsense::trim(buf) : "";
}

/** Where a row was measured: CPU, core count, compiler, build type
 *  and the commit (with "+dirty" for uncommitted changes). */
std::string
hostJson()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 &&
            colon != std::string::npos) {
            model = memsense::trim(line.substr(colon + 1));
            break;
        }
    }
    std::string commit =
        commandOutput("git rev-parse --short=12 HEAD 2>/dev/null");
    if (commit.empty())
        commit = "unknown";
    else if (!commandOutput("git status --porcelain --untracked-files=no "
                            "2>/dev/null")
                  .empty())
        commit += "+dirty";
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "GCC " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream out;
    out << "{\"cpus\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": \"" << model << "\", \"compiler\": \""
        << compiler << "\", \"build_type\": \"" << MEMSENSE_BUILD_TYPE
        << "\", \"commit\": \"" << commit << "\"}";
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Pull `"key": <number>` out of a flat JSON section. This is not a
 * JSON parser — it only needs to read the documents this repo writes
 * (sorted keys, one scalar per key, no escapes in the keys we ask
 * for), which keeps the suite dependency-free.
 */
bool
extractNumber(const std::string &doc, const std::string &key,
              double &value_out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return false;
    value_out = std::strtod(doc.c_str() + pos + needle.size(), nullptr);
    return true;
}

/**
 * Nanoseconds per unit of a google-benchmark row's `"time_unit"`
 * ("ns" when the row names none).
 */
double
nsPerTimeUnit(const std::string &row)
{
    const std::string needle = "\"time_unit\": \"";
    const std::size_t pos = row.find(needle);
    if (pos == std::string::npos)
        return 1.0;
    const std::string_view unit =
        std::string_view(row).substr(pos + needle.size());
    if (unit.starts_with("us\""))
        return 1e3;
    if (unit.starts_with("ms\""))
        return 1e6;
    if (unit.starts_with("s\""))
        return 1e9;
    return 1.0;
}

/**
 * Run perf_microbench with JSON output and distill the aggregate
 * rows: for each kernel, its `_median` and `_mad` real-time values.
 */
std::vector<std::pair<std::string, std::pair<double, double>>>
runMicrobench(const std::string &binDir, const std::string &filter,
              const std::string &scratch)
{
    const std::string jsonPath = scratch + "/microbench.json";
    std::string cmd = binDir + "/perf_microbench" +
                      " --benchmark_format=json --benchmark_out=" +
                      jsonPath + " --benchmark_out_format=json";
    if (!filter.empty())
        cmd += " --benchmark_filter='" + filter + "'";
    std::fprintf(stderr, "perf_suite: perf_microbench%s\n",
                 filter.empty() ? ""
                                : (" (filter " + filter + ")").c_str());
    timedRun(cmd);

    // google-benchmark JSON: one object per row in "benchmarks"; the
    // aggregate rows carry "name": "<bench>_<stat>" and "real_time".
    std::vector<std::pair<std::string, std::pair<double, double>>> out;
    const std::string doc = readFile(jsonPath);
    std::size_t pos = 0;
    while ((pos = doc.find("\"name\":", pos)) != std::string::npos) {
        const std::size_t q1 = doc.find('"', pos + 7);
        const std::size_t q2 = doc.find('"', q1 + 1);
        if (q1 == std::string::npos || q2 == std::string::npos)
            break;
        std::string name = doc.substr(q1 + 1, q2 - q1 - 1);
        pos = q2 + 1;
        const bool isMedian =
            name.size() > 7 &&
            name.compare(name.size() - 7, 7, "_median") == 0;
        const bool isMad =
            name.size() > 4 &&
            name.compare(name.size() - 4, 4, "_mad") == 0;
        if (!isMedian && !isMad)
            continue;
        const std::size_t next = doc.find("\"name\":", pos);
        const std::string row = doc.substr(
            pos, next == std::string::npos ? doc.size() - pos
                                          : next - pos);
        double rt = 0.0;
        if (!extractNumber(row, "real_time", rt))
            continue;
        rt *= nsPerTimeUnit(row);
        name.erase(name.size() - (isMedian ? 7 : 4));
        // Strip the "/repeats:K" suffix benchmark appends.
        const std::size_t rep = name.find("/repeats:");
        if (rep != std::string::npos)
            name.erase(rep);
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const auto &e) {
                                   return e.first == name;
                               });
        if (it == out.end()) {
            out.emplace_back(name, std::make_pair(0.0, 0.0));
            it = out.end() - 1;
        }
        (isMedian ? it->second.first : it->second.second) = rt;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace memsense;
    bench::benchInit(argc, argv);

    std::string binDir = stringArg(argc, argv, "--bin-dir");
    if (binDir.empty()) {
        const std::string self = argv[0];
        const std::size_t slash = self.find_last_of('/');
        binDir = slash == std::string::npos ? "." : self.substr(0, slash);
    }
    std::string outPath = stringArg(argc, argv, "--out");
    if (outPath.empty())
        outPath = "BENCH_memsense.json";
    const std::string filter =
        stringArg(argc, argv, "--benchmark-filter");

    char scratchTemplate[] = "/tmp/memsense_perf_XXXXXX";
    const char *scratchC = mkdtemp(scratchTemplate);
    if (scratchC == nullptr)
        throw ConfigError("mkdtemp failed for the scratch directory");
    const std::string scratch = scratchC;

    const auto micro = runMicrobench(binDir, filter, scratch);
    const std::string host = hostJson();

    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"memsense.bench.v1\",\n"
        << "  \"suite\": \"perf_suite\",\n"
        << "  \"microbench\": {";
    for (std::size_t i = 0; i < micro.size(); ++i)
        out << (i ? ",\n    " : "\n    ") << "\"" << micro[i].first
            << "\": {\"median_ns\": " << num(micro[i].second.first)
            << ", \"mad_ns\": " << num(micro[i].second.second)
            << ", \"host\": " << host << "}";
    out << (micro.empty() ? "" : "\n  ") << "}\n"
        << "}\n";

    // Atomic write, same temp+rename discipline as the metrics file.
    const std::string tmp = outPath + ".tmp";
    {
        std::ofstream f(tmp);
        if (!f)
            throw ConfigError("cannot write " + tmp);
        f << out.str();
    }
    if (std::rename(tmp.c_str(), outPath.c_str()) != 0)
        throw ConfigError("cannot rename " + tmp + " -> " + outPath);
    std::fprintf(stderr, "perf_suite: wrote %s\n", outPath.c_str());
    std::system(("rm -rf " + scratch).c_str());
    return 0;
}
