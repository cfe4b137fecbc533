/**
 * @file
 * Self-tests of the benchmark's own logic: percentiles, the arrival
 * schedule and lateness, the golden and reply comparators, the seeded
 * request traffic, and result printing against the metric catalogue of
 * BENCHMARK.json. Run with `bash membench/run.sh --self-test`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "harness/checks.hh"
#include "harness/report.hh"
#include "harness/requests.hh"
#include "harness/schedule.hh"
#include "harness/stats.hh"
#include "model/solver.hh"
#include "serve/json.hh"
#include "serve/request.hh"

namespace membench
{
namespace
{

TEST(Percentile, NoSamplesIsNaN)
{
    EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
    EXPECT_TRUE(std::isnan(median({})));
}

TEST(Percentile, OneSampleIsEveryPercentile)
{
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(percentile({7.0}, p), 7.0) << p;
}

TEST(Percentile, FewSamplesUseNearestRank)
{
    const std::vector<double> five = {5, 1, 3, 2, 4};
    EXPECT_EQ(percentile(five, 0.0), 1.0);  // rank clamps to 1
    EXPECT_EQ(percentile(five, 0.2), 1.0);  // ceil(1.0) = 1
    EXPECT_EQ(percentile(five, 0.21), 2.0); // ceil(1.05) = 2
    EXPECT_EQ(percentile(five, 0.5), 3.0);  // ceil(2.5) = 3
    EXPECT_EQ(percentile(five, 0.9), 5.0);  // ceil(4.5) = 5
    EXPECT_EQ(percentile(five, 1.0), 5.0);
    // Even count: the lower middle sample, never an interpolation.
    EXPECT_EQ(median({4, 1, 3, 2}), 2.0);
    EXPECT_EQ(percentile({4, 1, 3, 2}, 0.9), 4.0);
}

TEST(Percentile, WindowedTakesTheMedianWindow)
{
    EXPECT_TRUE(std::isnan(windowedPercentile({}, 4, 0.5)));
    // Three windows of four; the middle one's p50 is the median window.
    const std::vector<double> s = {1, 2, 3, 4, 10, 20, 30, 40, 5, 6, 7, 8};
    EXPECT_EQ(windowedPercentile(s, 4, 0.5), 6.0);  // p50s 2, 20, 6
    EXPECT_EQ(windowedPercentile(s, 4, 1.0), 8.0);  // maxima 4, 40, 8
    // One stalled window does not move the result.
    std::vector<double> stalled = s;
    stalled[5] = 1000.0;
    EXPECT_EQ(windowedPercentile(stalled, 4, 0.5), 6.0);
    // A short tail window is dropped; a lone short window is kept.
    EXPECT_EQ(windowedPercentile({1, 2, 3, 4, 100}, 4, 1.0), 4.0);
    EXPECT_EQ(windowedPercentile({7, 9}, 4, 1.0), 9.0);
}

TEST(Schedule, BurstsFitThePhase)
{
    BurstSchedule s;
    s.ratePerSec = 10'000.0;
    s.burstSize = 32;
    s.seconds = 1.0;
    EXPECT_EQ(s.bursts(), 312u); // floor(312.5)
    EXPECT_EQ(s.requests(), 312u * 32u);
    EXPECT_DOUBLE_EQ(s.periodNs(), 3'200'000.0);
    s.seconds = 0.0;
    EXPECT_EQ(s.bursts(), 0u);
    s.seconds = 1.0;
    s.ratePerSec = 0.0;
    EXPECT_EQ(s.bursts(), 0u);
}

TEST(Schedule, RequestsAreDueWithTheirBurst)
{
    BurstSchedule s;
    s.ratePerSec = 10'000.0;
    s.burstSize = 32;
    s.seconds = 2.0;
    EXPECT_EQ(s.burstDueNs(0), 0);
    EXPECT_EQ(s.burstDueNs(1), 3'200'000);
    EXPECT_EQ(s.burstDueNs(10), 32'000'000);
    EXPECT_EQ(s.requestDueNs(0), 0);
    EXPECT_EQ(s.requestDueNs(31), 0);
    EXPECT_EQ(s.requestDueNs(32), 3'200'000);
    EXPECT_EQ(s.requestDueNs(33), 3'200'000);
    // Due times do not drift: burst k is exactly k periods in.
    EXPECT_EQ(s.burstDueNs(624), 624LL * 3'200'000);
}

TEST(Schedule, LatenessAndLatencyCountFromTheDueTime)
{
    const std::int64_t due = 10'000'000;
    EXPECT_DOUBLE_EQ(lateMs(due, due), 0.0);
    EXPECT_DOUBLE_EQ(lateMs(due, due + 1'500'000), 1.5);
    EXPECT_DOUBLE_EQ(lateMs(due, due - 50'000), 0.0); // early is not late
    // Sent 2 ms late, answered 1 ms after sending: the request waited
    // 3 ms from when it was due.
    const std::int64_t sent = due + 2'000'000;
    EXPECT_DOUBLE_EQ(latencyMs(due, sent + 1'000'000), 3.0);
}

Csv
table(std::vector<std::vector<double>> rows)
{
    Csv c;
    c.columns = {"ghz", "cpi"};
    c.rows = std::move(rows);
    return c;
}

TEST(GoldenComparator, ToleranceAppliesToMeasuredColumnsOnly)
{
    const Csv golden = table({{2.1, 1.0}, {2.7, 2.0}});
    const Tolerance tol{1e-4, 1e-6};
    EXPECT_TRUE(
        compareCsv(golden, table({{2.1, 1.00005}, {2.7, 2.0}}), {"ghz"}, tol)
            .ok());
    const CsvMatch far =
        compareCsv(golden, table({{2.1, 1.0}, {2.7, 2.01}}), {"ghz"}, tol);
    EXPECT_TRUE(far.shapeOk);
    EXPECT_EQ(far.badRows, std::vector<std::size_t>{1});
    EXPECT_NE(far.firstDiff.find("cpi"), std::string::npos);
    // An exact column tolerates nothing.
    EXPECT_FALSE(compareCsv(golden, table({{2.1000001, 1.0}, {2.7, 2.0}}),
                            {"ghz"}, tol)
                     .ok());
    EXPECT_TRUE(compareCsv(golden, table({{2.1000001, 1.0}, {2.7, 2.0}}),
                           {}, tol)
                    .ok());
}

TEST(GoldenComparator, ShapeMismatchFailsTheTable)
{
    const Csv golden = table({{2.1, 1.0}, {2.7, 2.0}});
    const CsvMatch fewer =
        compareCsv(golden, table({{2.1, 1.0}}), {"ghz"}, Tolerance{});
    EXPECT_FALSE(fewer.shapeOk);
    EXPECT_FALSE(fewer.ok());
    Csv renamed = golden;
    renamed.columns[1] = "cpi_fitted";
    EXPECT_FALSE(compareCsv(golden, renamed, {}, Tolerance{}).shapeOk);
}

TEST(GoldenComparator, ParsesTheCheckedInGoldens)
{
    EXPECT_FALSE(parseCsv("a,b\n1,x\n").has_value());
    const std::optional<Csv> nits =
        readCsv(std::string(MEMBENCH_ROOT) + "/tests/golden/fig03_nits.csv");
    ASSERT_TRUE(nits.has_value());
    EXPECT_EQ(nits->columns.size(), 5u);
    EXPECT_EQ(nits->rows.size(), 6u);
    EXPECT_TRUE(compareCsv(*nits, *nits, {"ghz", "mt"}, Tolerance{}).ok());
    EXPECT_FALSE(readCsv("/nonexistent/golden.csv").has_value());
}

TEST(ReplyComparator, ByteForByte)
{
    const std::string want = "{\"id\":\"m7\",\"ok\":true,\"op\":{\"cpi_eff\":1.25}}";
    EXPECT_EQ(compareReply(want, want), "");
    const std::string got = "{\"id\":\"m7\",\"ok\":true,\"op\":{\"cpi_eff\":1.26}}";
    const std::string diff = compareReply(got, want);
    EXPECT_NE(diff.find("byte " + std::to_string(want.find("1.25") + 3)),
              std::string::npos)
        << diff;
    EXPECT_NE(compareReply(want + " ", want), ""); // trailing byte
    EXPECT_NE(compareReply("", want), "");
}

TEST(ReplyComparator, IdAndStatus)
{
    EXPECT_EQ(replyId("{\"id\":\"m12\",\"ok\":true,\"op\":{}}"), "m12");
    EXPECT_TRUE(replyOk("{\"id\":\"m12\",\"ok\":true,\"op\":{}}"));
    EXPECT_FALSE(replyOk(
        "{\"id\":\"m12\",\"ok\":false,\"error\":{\"type\":\"overloaded\"}}"));
    EXPECT_FALSE(replyOk("{\"id\":\"m12\",\"degraded\":true,\"ok\":true}"));
    EXPECT_EQ(replyId("{\"ok\":true}"), "");
    EXPECT_FALSE(replyOk("garbage"));
}

/** A request line without its id: what the server's cache keys on. */
std::string
body(const std::string &line)
{
    return line.substr(line.find(',') + 1);
}

TEST(Traffic, ColdSweepsAreSeededDistinctAndSolvable)
{
    const memsense::model::Solver solver;
    for (std::uint64_t seed : {1ULL, 7ULL}) {
        const Traffic t = makeTraffic(false, seed, 8, 40);
        ASSERT_EQ(t.warmup.size(), 8 * kSweepPoints);
        ASSERT_EQ(t.measured.size(), 40 * kSweepPoints);
        const Traffic again = makeTraffic(false, seed, 8, 40);
        EXPECT_EQ(t.warmup, again.warmup);
        EXPECT_EQ(t.measured, again.measured);
        EXPECT_EQ(t.measured[3].rfind("{\"id\":\"m3\",", 0), 0u);

        std::set<std::string> bodies;
        for (const auto *lines : {&t.warmup, &t.measured})
            for (const std::string &line : *lines) {
                bodies.insert(body(line));
                const memsense::serve::EvalRequest req =
                    memsense::serve::parseRequestLine(line, 1);
                EXPECT_NO_THROW(solver.solve(req.workload, req.platform))
                    << line;
            }
        EXPECT_EQ(bodies.size(), 48 * kSweepPoints) << "seed " << seed;
    }
    EXPECT_NE(makeTraffic(false, 1, 1, 1).measured,
              makeTraffic(false, 2, 1, 1).measured);
}

TEST(Traffic, EachBurstIsOneClassPresetWithTwoSteppedFields)
{
    const Traffic t = makeTraffic(false, 3, 2, 30);
    for (std::size_t b = 0; b < t.measured.size() / kSweepPoints; ++b) {
        std::set<std::string> classes;
        std::map<std::string, std::set<double>> values;
        for (std::size_t i = b * kSweepPoints; i < (b + 1) * kSweepPoints;
             ++i) {
            const memsense::serve::JsonValue v =
                memsense::serve::parseJson(t.measured[i]);
            const memsense::serve::JsonValue &w = v.at("workload");
            ASSERT_EQ(w.members.size(), 1u) << t.measured[i];
            classes.insert(w.at("class").asString("class"));
            for (const auto &[name, value] : v.at("platform").members)
                values[name].insert(value.asNumber(name));
        }
        EXPECT_EQ(classes.size(), 1u) << "burst " << b;
        ASSERT_EQ(values.size(), 5u) << "burst " << b;
        std::size_t stepped = 0;
        for (const auto &[name, seen] : values)
            stepped += seen.size() > 1 ? 1u : 0u;
        EXPECT_EQ(stepped, 2u) << "burst " << b;
    }
}

TEST(Traffic, HotBurstsResendOneWarmupSweep)
{
    const Traffic t = makeTraffic(true, 5, 8, 30);
    ASSERT_EQ(t.measured.size(), 30 * kSweepPoints);
    std::set<std::string> hot;
    for (const std::string &line : t.warmup)
        hot.insert(body(line));
    ASSERT_EQ(hot.size(), t.warmup.size());
    for (std::size_t b = 0; b < 30; ++b) {
        std::set<std::string> burst;
        for (std::size_t i = b * kSweepPoints; i < (b + 1) * kSweepPoints;
             ++i) {
            EXPECT_EQ(hot.count(body(t.measured[i])), 1u) << t.measured[i];
            burst.insert(body(t.measured[i]));
        }
        EXPECT_EQ(burst.size(), kSweepPoints) << "burst " << b;
    }
}

TEST(Report, BypassedLayersAndInvariants)
{
    EXPECT_TRUE(bypasses("sweep_fig03", "serve.parse_us"));
    EXPECT_TRUE(bypasses("sweep_fig07", "model.solve_us"));
    EXPECT_FALSE(bypasses("sweep_fig03", "model.fit_ms"));
    EXPECT_FALSE(bypasses("sweep_fig07", "sim.dram.reads"));
    EXPECT_TRUE(bypasses("serve_cold", "sim.dram.reads"));
    EXPECT_TRUE(bypasses("serve_hot", "model.fit_ms"));
    EXPECT_FALSE(bypasses("serve_hot", "model.solve_us"));
    EXPECT_FALSE(bypasses("serve_cold", "trace.overhead_frac"));
    EXPECT_TRUE(isInvariant("sim.instructions"));
    EXPECT_FALSE(isInvariant("sim.run_s"));
}

TEST(Report, CatalogueComesFromBenchmarkJson)
{
    const Catalogue c =
        readCatalogue(std::string(MEMBENCH_ROOT) + "/BENCHMARK.json");
    ASSERT_FALSE(c.endToEnd.empty());
    ASSERT_FALSE(c.perLayer.empty());
    EXPECT_EQ(c.endToEnd.front().name, "ops_per_s");
    EXPECT_EQ(c.endToEnd.front().unit, "1/s");
    EXPECT_THROW(readCatalogue("/nonexistent/BENCHMARK.json"),
                 std::runtime_error);

    // The printer takes names and units from the catalogue, reports a
    // bypassed layer as 0 and flags the invariants.
    RunInfo run;
    run.workload = "serve_cold";
    run.trace = true;
    Result r;
    r.attempted = 1;
    r.checksRan = true;
    for (const MetricSpec &m : c.perLayer)
        if (!bypasses(run.workload, m.name))
            r.set(m.name, 1.0, 1);
    std::ostringstream out;
    EXPECT_TRUE(printResult(out, run, HostRecord{}, c, r));
    EXPECT_NE(out.str().find("sim.run_s = 0 (layer bypassed"),
              std::string::npos);
    EXPECT_NE(out.str().find("model.solve_iters = 1 count (n=1, invariant)"),
              std::string::npos);
    r.metrics.erase("model.solve_us");
    EXPECT_FALSE(printResult(out, run, HostRecord{}, c, r));
}

} // anonymous namespace
} // namespace membench
