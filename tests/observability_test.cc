/**
 * @file
 * Schema and determinism tests for the observability layer
 * (util/trace + measure/metrics): the emitted Chrome trace parses and
 * its spans nest per thread track, worker tracks match the --jobs
 * worker count, the metrics document validates against the
 * memsense.metrics.v1 schema, and the "counters" section is
 * byte-identical across worker counts for a deterministic sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "json_test_support.hh"
#include "measure/metrics.hh"
#include "measure/parallel.hh"
#include "model/platform.hh"
#include "model/solver.hh"
#include "util/error.hh"
#include "util/trace.hh"

namespace
{

using namespace memsense;
using memsense::testjson::JsonValue;
using memsense::testjson::parseJson;

std::string
tempFile(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

class ObservabilityTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetAll(); }
    void TearDown() override { resetAll(); }

    static void resetAll()
    {
        trace::resetForTest();
        measure::MetricsRegistry::instance().resetForTest();
    }
};

/** One complete ("X") event lifted out of the parsed trace. */
struct Interval
{
    double ts = 0.0;
    double end = 0.0;
    std::string name;
};

TEST_F(ObservabilityTest, TraceFileParsesAndSpansNestPerTrack)
{
    const std::string path = tempFile("obs_trace.json");
    trace::startTracing(path);

    measure::ParallelExecutor exec(3);
    std::vector<int> inputs(8);
    std::iota(inputs.begin(), inputs.end(), 0);
    std::vector<int> doubled = exec.mapOrdered(inputs, [](const int &x) {
        trace::Span inner("test.inner");
        return x * 2;
    });
    EXPECT_EQ(trace::stopTracing(), path);
    EXPECT_EQ(doubled[7], 14);

    JsonValue doc = parseJson(slurp(path));
    ASSERT_TRUE(doc.isObject());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    std::map<double, std::vector<Interval>> by_tid;
    int jobs_spans = 0;
    int inner_spans = 0;
    for (const JsonValue &e : events.array) {
        ASSERT_TRUE(e.isObject());
        const std::string ph = e.at("ph").str;
        EXPECT_EQ(e.at("pid").number, 1.0);
        if (ph != "X")
            continue;
        Interval iv;
        iv.ts = e.at("ts").number;
        iv.end = iv.ts + e.at("dur").number;
        iv.name = e.at("name").str;
        by_tid[e.at("tid").number].push_back(iv);
        if (iv.name == "measure.job")
            ++jobs_spans;
        if (iv.name == "test.inner")
            ++inner_spans;
    }
    EXPECT_EQ(jobs_spans, 8);
    EXPECT_EQ(inner_spans, 8);

    // Spans on one thread track must obey stack discipline: any two
    // either nest or are disjoint (0.01 us slack for the fixed-point
    // timestamp formatting).
    const double eps = 0.01;
    for (auto &[tid, ivs] : by_tid) {
        std::sort(ivs.begin(), ivs.end(),
                  [](const Interval &a, const Interval &b) {
                      if (a.ts < b.ts)
                          return true;
                      if (b.ts < a.ts)
                          return false;
                      return a.end > b.end;
                  });
        std::vector<Interval> stack;
        for (const Interval &iv : ivs) {
            while (!stack.empty() && stack.back().end <= iv.ts + eps)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(iv.end, stack.back().end + eps)
                    << iv.name << " overlaps " << stack.back().name
                    << " on tid " << tid;
            }
            stack.push_back(iv);
        }
    }
}

TEST_F(ObservabilityTest, WorkerThreadTracksEqualJobs)
{
    const std::string path = tempFile("obs_tracks.json");
    trace::startTracing(path);

    const int jobs = 4;
    measure::ParallelExecutor exec(jobs);
    std::vector<int> inputs(16);
    std::iota(inputs.begin(), inputs.end(), 0);
    exec.mapOrdered(inputs, [](const int &x) { return x; });
    trace::stopTracing();

    JsonValue doc = parseJson(slurp(path));
    int workers = 0;
    bool has_main = false;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").str != "M" ||
            e.at("name").str != "thread_name")
            continue;
        const std::string name = e.at("args").at("name").str;
        if (name.rfind("worker-", 0) == 0)
            ++workers;
        if (name == "main")
            has_main = true;
    }
    EXPECT_EQ(workers, jobs);
    EXPECT_TRUE(has_main);

    const std::map<int, std::string> tracks = trace::threadTracks();
    EXPECT_EQ(tracks.size(), static_cast<std::size_t>(jobs + 1));
    EXPECT_EQ(tracks.at(0), "main");
    EXPECT_EQ(tracks.at(1), "worker-0");
    EXPECT_EQ(tracks.at(jobs), "worker-" + std::to_string(jobs - 1));
}

TEST_F(ObservabilityTest, CountersByteIdenticalAcrossJobCounts)
{
    auto counters_for = [](int jobs) {
        resetAll();
        trace::setStatsEnabled(true);

        measure::ParallelExecutor exec(jobs);
        std::vector<int> inputs(32);
        std::iota(inputs.begin(), inputs.end(), 0);
        measure::ResilienceOptions opts;
        opts.retry.maxAttempts = 3;
        opts.sleepMs = [](double) {}; // no real backoff sleeps
        auto results = exec.mapSettled(
            inputs,
            [](const int &x) -> double {
                if (x % 5 == 0)
                    throw TransientError("deterministic flake");
                return static_cast<double>(x);
            },
            opts);
        EXPECT_EQ(results.size(), inputs.size());
        return measure::MetricsRegistry::countersJson(
            measure::MetricsRegistry::instance().snapshot());
    };

    const std::string serial = counters_for(1);
    const std::string parallel4 = counters_for(4);
    const std::string parallel8 = counters_for(8);
    EXPECT_EQ(serial, parallel4);
    EXPECT_EQ(serial, parallel8);

    // And the totals mean what they should: 32 jobs, 7 quarantined
    // (every 5th), each flaky job retried twice after its first try.
    EXPECT_NE(serial.find("\"measure.jobs_run\": 32"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("\"measure.jobs_quarantined\": 7"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("\"measure.job_retries\": 14"),
              std::string::npos)
        << serial;
}

TEST_F(ObservabilityTest, DisabledMacrosRecordNothing)
{
    {
        MS_TRACE_SPAN("test.disabled");
        MS_METRIC_COUNT("test.disabled_counter");
        MS_METRIC_OBSERVE("test.disabled_value", 42.0);
    }
    EXPECT_TRUE(trace::counterTotals().empty());
    EXPECT_TRUE(trace::spanStats().empty());
    EXPECT_TRUE(trace::valueStats().empty());
}

TEST_F(ObservabilityTest, MetricsDocumentValidatesAgainstSchema)
{
    trace::setStatsEnabled(true);

    model::WorkloadParams p;
    p.cpiCache = 1.2;
    p.bf = 0.6;
    p.mpki = 20.0;
    p.wbr = 0.3;
    model::Platform plat = model::Platform::paperBaseline();
    model::Solver solver;
    model::OperatingPoint op = solver.solve(p, plat);
    EXPECT_GT(op.iterations, 0);
    {
        measure::PhaseTimer phase("unit");
    }

    const std::string path = tempFile("obs_metrics.json");
    measure::MetricsRegistry::instance().flushToFile(path, "unit_test");

    JsonValue doc = parseJson(slurp(path));
    EXPECT_EQ(doc.at("schema").str, "memsense.metrics.v1");
    EXPECT_EQ(doc.at("experiment").str, "unit_test");

    const JsonValue &counters = doc.at("counters");
    ASSERT_TRUE(counters.isObject());
    EXPECT_GE(counters.at("solver.solves").number, 1.0);
    EXPECT_GE(counters.at("solver.iterations").number, 1.0);
    EXPECT_GE(counters.at("queuing.delay_lookups").number, 1.0);

    const JsonValue &dist =
        doc.at("distributions").at("solver.iterations_per_solve");
    EXPECT_GE(dist.at("count").number, 1.0);
    EXPECT_GE(dist.at("max").number, dist.at("min").number);
    EXPECT_FALSE(dist.at("log2_buckets").object.empty());

    const JsonValue &span = doc.at("spans").at("solver.solve");
    EXPECT_GE(span.at("count").number, 1.0);
    EXPECT_LE(span.at("min_ns").number, span.at("max_ns").number);
    EXPECT_GE(span.at("total_ns").number, span.at("max_ns").number);

    const JsonValue &gauges = doc.at("gauges");
    ASSERT_TRUE(gauges.has("phase.unit.wall_ms"));
    EXPECT_GE(gauges.at("phase.unit.wall_ms").number, 0.0);

    // The determinism helper is exactly the document's counters
    // section.
    const std::string slice = measure::MetricsRegistry::countersJson(
        measure::MetricsRegistry::instance().snapshot());
    EXPECT_NE(slurp(path).find(slice), std::string::npos);
}

TEST_F(ObservabilityTest, WallClockArtifactsStayOutOfCountersSlice)
{
    // Regression guard for the determinism contract: countersJson()
    // is the byte-comparable slice that figure-level determinism
    // checks diff across --jobs values, so nothing wall-clock —
    // PhaseTimer gauges, span timings — may ever appear in it. A
    // PhaseTimer leaking into the slice would make the determinism
    // checks flaky exactly when observability is armed.
    trace::setStatsEnabled(true);
    {
        measure::PhaseTimer sweep("sweep");
        MS_TRACE_SPAN("unit.work");
        MS_METRIC_COUNT("unit.deterministic_total");
    }

    measure::MetricsSnapshot snap =
        measure::MetricsRegistry::instance().snapshot();
    // The phase recorded both of its wall-clock artifacts...
    ASSERT_TRUE(snap.gauges.count("phase.sweep.wall_ms"));
    ASSERT_TRUE(snap.spans.count("phase.sweep"));
    ASSERT_TRUE(snap.spans.count("unit.work"));

    // ...and none of them reach the byte-comparable slice; the
    // deterministic counter does.
    const std::string slice =
        measure::MetricsRegistry::countersJson(snap);
    EXPECT_NE(slice.find("unit.deterministic_total"),
              std::string::npos)
        << slice;
    EXPECT_EQ(slice.find("phase."), std::string::npos) << slice;
    EXPECT_EQ(slice.find("wall_ms"), std::string::npos) << slice;
    EXPECT_EQ(slice.find("_ns"), std::string::npos) << slice;
    EXPECT_EQ(slice.find("unit.work"), std::string::npos) << slice;

    // Two snapshots of the same counters serialize byte-identically
    // even though wall time moved between them.
    {
        measure::PhaseTimer again("sweep");
    }
    const std::string slice2 = measure::MetricsRegistry::countersJson(
        measure::MetricsRegistry::instance().snapshot());
    EXPECT_EQ(slice, slice2);
}

TEST_F(ObservabilityTest, TracingLifecycleGuards)
{
    EXPECT_EQ(trace::stopTracing(), "") << "stop without start is a no-op";
    EXPECT_THROW(trace::startTracing(""), ConfigError);

    const std::string path = tempFile("obs_lifecycle.json");
    trace::startTracing(path);
    EXPECT_THROW(trace::startTracing(path), ConfigError);
    EXPECT_EQ(trace::stopTracing(), path);
    EXPECT_FALSE(trace::tracingEnabled());

    JsonValue doc = parseJson(slurp(path));
    EXPECT_TRUE(doc.at("traceEvents").isArray());
}

TEST_F(ObservabilityTest, ValueStatBucketsAreLog2)
{
    EXPECT_EQ(trace::valueBucketIndex(1.0),
              -trace::kValueBucketMinLog2);
    EXPECT_EQ(trace::valueBucketIndex(2.0),
              -trace::kValueBucketMinLog2 + 1);
    EXPECT_EQ(trace::valueBucketIndex(3.9),
              -trace::kValueBucketMinLog2 + 1);
    EXPECT_EQ(trace::valueBucketIndex(0.5),
              -trace::kValueBucketMinLog2 - 1);
    EXPECT_EQ(trace::valueBucketIndex(0.0), -1);
    EXPECT_EQ(trace::valueBucketIndex(-5.0), -1);
    EXPECT_EQ(trace::valueBucketIndex(
                  std::numeric_limits<double>::infinity()),
              -1);
    EXPECT_EQ(trace::valueBucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              -1);
    // Values beyond the bucket range clamp to the edge buckets.
    EXPECT_EQ(trace::valueBucketIndex(1e-30), 0);
    EXPECT_EQ(trace::valueBucketIndex(1e300),
              trace::kValueBuckets - 1);
}

} // anonymous namespace
