/**
 * @file
 * Tests for the load-generator engine.
 *
 * The loadgen's seams — the Dialer, the clock, and the backoff sleeper
 * — are all injected here: it dials in-process servers (real Server
 * instances or tiny scripted fakes), time advances only when observed,
 * and backoff sleeps land in a recorder instead of the scheduler. That
 * makes reply classification, reconnect backoff, give-up bounds, and
 * percentile math all deterministic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/transport.hh"

namespace memsense::serve
{
namespace
{

/** A real server on an in-process transport, dialable by the loadgen. */
struct LoopbackServer
{
    InProcessTransport *transport = nullptr;
    std::unique_ptr<Server> server;

    explicit LoopbackServer(ServerOptions opts = {})
    {
        opts.pollMs = 5;
        server = std::make_unique<Server>(std::move(opts));
        auto t = std::make_unique<InProcessTransport>();
        transport = t.get();
        server->addTransport(std::move(t));
        server->start();
    }

    Dialer
    dialer()
    {
        return [this] { return transport->connect().asStream(); };
    }
};

/** A scripted fake: replies to each request with the next canned line. */
struct ScriptedServer
{
    explicit ScriptedServer(std::vector<std::string> script_in)
        : script(std::move(script_in))
    {
        serverThread = std::thread([this] { serve(); });
    }

    ~ScriptedServer()
    {
        transport.shutdownTransport();
        serverThread.join();
    }

    Dialer
    dialer()
    {
        return [this] { return transport.connect().asStream(); };
    }

  private:
    void
    serve()
    {
        std::vector<std::unique_ptr<LineStream>> streams;
        std::size_t cursor = 0;
        for (;;) {
            std::unique_ptr<LineStream> conn;
            const Transport::Accept a = transport.accept(conn, 5);
            if (a == Transport::Accept::Closed)
                return;
            if (a == Transport::Accept::Conn)
                streams.push_back(std::move(conn));
            for (auto &s : streams) {
                std::string line;
                while (s->readLine(line, 1) == LineStream::Read::Line) {
                    s->write(script[cursor % script.size()] + "\n");
                    ++cursor;
                }
            }
        }
    }

    InProcessTransport transport;
    std::vector<std::string> script;
    std::thread serverThread;
};

TEST(LoadgenRequestLine, InjectsIdAndDeadlineAheadOfFixtureKeys)
{
    const std::string line = loadgenRequestLine(
        "{\"id\":\"fixture\",\"workload\":{\"mpki\":9}}", 7, 50.0);
    EXPECT_EQ(line.find("{\"id\":\"lg-7\",\"deadline_ms\":50,"), 0u)
        << line;
    // First key wins in the request parser: the fixture's own id is
    // shadowed, not duplicated into the reply.
    EXPECT_NE(line.find("\"id\":\"fixture\""), std::string::npos);
}

TEST(LoadgenRequestLine, EmptyObjectNeedsNoComma)
{
    EXPECT_EQ(loadgenRequestLine("{}", 0, 0.0), "{\"id\":\"lg-0\"}");
    EXPECT_EQ(loadgenRequestLine("{ }", 1, 0.0), "{\"id\":\"lg-1\" }");
}

TEST(LoadgenRun, MalformedFixtureIsACleanConfigErrorUpFront)
{
    // Regression: a fixture with no JSON object used to throw inside a
    // connection thread (= std::terminate). validate() must catch it
    // on the caller's thread before any thread spawns.
    LoadgenOptions opts;
    opts.fixtures = {"{\"workload\":{}}", "not json at all"};
    Dialer never = []() -> std::unique_ptr<LineStream> {
        ADD_FAILURE() << "dialed before fixture validation";
        return nullptr;
    };
    EXPECT_THROW(runLoadgen(never, opts), ConfigError);
}

TEST(LoadgenRun, AllRepliesClassifiedAgainstARealServer)
{
    LoopbackServer lb;
    LoadgenOptions opts;
    opts.connections = 4;
    opts.totalRequests = 80;
    opts.fixtures = {"{\"workload\":{\"mpki\":10}}",
                     "{\"workload\":{\"mpki\":11}}",
                     "{\"workload\":{\"mpki\":12}}"};
    const LoadReport report = runLoadgen(lb.dialer(), opts);
    EXPECT_EQ(report.sent, 80u);
    EXPECT_EQ(report.ok, 80u);
    EXPECT_EQ(report.classified(), report.sent);
    EXPECT_EQ(report.transportErrors, 0u);
    lb.server->stop();
    const ServerStats stats = lb.server->stats();
    EXPECT_EQ(stats.accepted, 80u);
    EXPECT_TRUE(stats.consistent());
    // 3 unique fixture shapes: a handful of full solves (connections
    // can race the first insert), everything else from the cache.
    EXPECT_GE(stats.solved, 3u);
    EXPECT_EQ(stats.solved + stats.cacheHits, 80u);
}

TEST(LoadgenRun, ClassifiesEveryReplyShape)
{
    ScriptedServer fake({
        "{\"id\":\"a\",\"ok\":true,\"op\":{}}",
        "{\"id\":\"c\",\"ok\":false,\"error\":{\"type\":\"overloaded\","
        "\"message\":\"m\",\"fatal\":false,\"attempts\":0}}",
        "{\"id\":\"d\",\"ok\":false,\"error\":{\"type\":"
        "\"deadline_exceeded\",\"message\":\"m\",\"fatal\":false,"
        "\"attempts\":0}}",
        "{\"id\":\"e\",\"ok\":false,\"error\":{\"type\":\"ConfigError\","
        "\"message\":\"m\",\"fatal\":true,\"attempts\":0}}",
        "this is not even json",
    });
    LoadgenOptions opts;
    opts.connections = 1; // keep the canned order aligned
    opts.totalRequests = 5;
    opts.fixtures = {"{\"workload\":{}}"};
    const LoadReport report = runLoadgen(fake.dialer(), opts);
    EXPECT_EQ(report.sent, 5u);
    EXPECT_EQ(report.ok, 1u);
    EXPECT_EQ(report.overloaded, 1u);
    EXPECT_EQ(report.deadlineExceeded, 1u);
    EXPECT_EQ(report.otherErrors, 2u); // ConfigError + unparseable
    EXPECT_EQ(report.classified(), report.sent);
    EXPECT_DOUBLE_EQ(report.shedRate(), 1.0 / 5.0);
}

TEST(LoadgenRun, ReconnectsUnderBoundedBackoff)
{
    LoopbackServer lb;
    int dials = 0;
    std::vector<double> sleeps;
    Dialer flaky = [&]() -> std::unique_ptr<LineStream> {
        ++dials;
        if (dials <= 2)
            throw ConfigError("connection refused (test)");
        return lb.transport->connect().asStream();
    };
    LoadgenOptions opts;
    opts.connections = 1;
    opts.totalRequests = 3;
    opts.fixtures = {"{\"workload\":{\"mpki\":13}}"};
    opts.reconnect.maxAttempts = 4;
    opts.reconnect.baseDelayMs = 10.0;
    opts.reconnect.multiplier = 2.0;
    opts.reconnect.jitterFrac = 0.0;
    opts.sleepMs = [&sleeps](double ms) { sleeps.push_back(ms); };
    const LoadReport report = runLoadgen(flaky, opts);
    EXPECT_EQ(report.sent, 3u);
    EXPECT_EQ(report.ok, 3u);
    EXPECT_EQ(report.dialFailures, 2u);
    // Two failed dials -> two deterministic backoff waits: 10, 20.
    ASSERT_EQ(sleeps.size(), 2u);
    EXPECT_DOUBLE_EQ(sleeps[0], 10.0);
    EXPECT_DOUBLE_EQ(sleeps[1], 20.0);
    lb.server->stop();
}

TEST(LoadgenRun, GivesUpAfterTheDialBudgetWithoutHanging)
{
    Dialer dead = []() -> std::unique_ptr<LineStream> {
        throw ConfigError("connection refused (test)");
    };
    LoadgenOptions opts;
    opts.connections = 2;
    opts.totalRequests = 10;
    opts.fixtures = {"{\"workload\":{}}"};
    opts.reconnect.maxAttempts = 3;
    opts.sleepMs = [](double) {};
    const LoadReport report = runLoadgen(dead, opts);
    EXPECT_EQ(report.sent, 0u);
    EXPECT_EQ(report.dialFailures, 6u); // 3 attempts x 2 connections
    EXPECT_EQ(report.classified(), 0u);
}

TEST(LoadgenRun, DroppedConnectionIsRetriedAndCounted)
{
    LoopbackServer lb;
    int dials = 0;
    // First connection dies immediately (shutdown before use); the
    // redial lands on the real server.
    Dialer flaky = [&]() -> std::unique_ptr<LineStream> {
        ++dials;
        auto stream = lb.transport->connect().asStream();
        if (dials == 1)
            stream->shutdownStream();
        return stream;
    };
    LoadgenOptions opts;
    opts.connections = 1;
    opts.totalRequests = 4;
    opts.fixtures = {"{\"workload\":{\"mpki\":14}}"};
    opts.sleepMs = [](double) {};
    opts.recvTimeoutMs = 2000;
    const LoadReport report = runLoadgen(flaky, opts);
    EXPECT_EQ(report.sent, 4u);
    EXPECT_EQ(report.transportErrors, 1u);
    EXPECT_EQ(report.ok, 3u);
    EXPECT_EQ(report.reconnects, 1u);
    EXPECT_EQ(report.classified(), report.sent);
    lb.server->stop();
}

TEST(LoadgenRun, LatencyPercentilesComeFromTheInjectedClock)
{
    LoopbackServer lb;
    LoadgenOptions opts;
    opts.connections = 1;
    opts.totalRequests = 10;
    opts.fixtures = {"{\"workload\":{\"mpki\":15}}"};
    // Every clock observation advances 1ms; each request observes the
    // clock twice (send, reply), so every latency is exactly 1ms.
    auto t = std::make_shared<double>(0.0);
    opts.nowMs = [t] {
        *t += 1.0;
        return *t;
    };
    const LoadReport report = runLoadgen(lb.dialer(), opts);
    EXPECT_EQ(report.ok, 10u);
    EXPECT_DOUBLE_EQ(report.p50Ms, 1.0);
    EXPECT_DOUBLE_EQ(report.p99Ms, 1.0);
    lb.server->stop();
}

TEST(LoadgenRun, OpenLoopPacingSleepsTowardTheTargetRate)
{
    LoopbackServer lb;
    LoadgenOptions opts;
    opts.connections = 1;
    opts.totalRequests = 5;
    opts.fixtures = {"{\"workload\":{\"mpki\":16}}"};
    opts.targetRatePerSec = 100.0; // one request per 10ms
    // Frozen clock: every request is "early", so pacing must sleep
    // exactly the schedule offsets 0, 10, 20, 30, 40.
    opts.nowMs = [] { return 0.0; };
    std::vector<double> sleeps;
    opts.sleepMs = [&sleeps](double ms) { sleeps.push_back(ms); };
    const LoadReport report = runLoadgen(lb.dialer(), opts);
    EXPECT_EQ(report.sent, 5u);
    ASSERT_EQ(sleeps.size(), 4u); // index 0 is due immediately
    EXPECT_DOUBLE_EQ(sleeps[0], 10.0);
    EXPECT_DOUBLE_EQ(sleeps[3], 40.0);
    lb.server->stop();
}

TEST(LoadgenPercentile, NearestRankHandlesTinySampleSets)
{
    // Nearest-rank: rank ceil(p * n) clamped to [1, n], no
    // interpolation. The old (p * (n-1))-index form understated tails
    // and had nothing sane to say about 0 or 1 samples.
    const std::vector<double> none;
    EXPECT_DOUBLE_EQ(percentileNearestRank(none, 0.50), 0.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(none, 0.99), 0.0);
    const std::vector<double> one = {7.5};
    EXPECT_DOUBLE_EQ(percentileNearestRank(one, 0.0), 7.5);
    EXPECT_DOUBLE_EQ(percentileNearestRank(one, 0.50), 7.5);
    EXPECT_DOUBLE_EQ(percentileNearestRank(one, 0.99), 7.5);
    const std::vector<double> two = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentileNearestRank(two, 0.50), 1.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(two, 0.99), 2.0);
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentileNearestRank(ten, 0.50), 5.0);
    // p99 of a full set is the largest sample, never an index past
    // the end — and never the second-largest.
    EXPECT_DOUBLE_EQ(percentileNearestRank(ten, 0.99), 10.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(ten, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(ten, 0.0), 1.0);
}

TEST(LoadgenRun, ReplylessRunReportsZeroLatencySamples)
{
    // When nothing ever replied there are no latencies; the report
    // must say so (latencySamples == 0) instead of dressing the 0.0
    // placeholders up as measured percentiles.
    Dialer dead = []() -> std::unique_ptr<LineStream> {
        throw ConfigError("connection refused (test)");
    };
    LoadgenOptions opts;
    opts.connections = 1;
    opts.totalRequests = 4;
    opts.fixtures = {"{\"workload\":{}}"};
    opts.reconnect.maxAttempts = 2;
    opts.sleepMs = [](double) {};
    const LoadReport report = runLoadgen(dead, opts);
    EXPECT_EQ(report.latencySamples, 0u);
    EXPECT_DOUBLE_EQ(report.p50Ms, 0.0);
    EXPECT_DOUBLE_EQ(report.p99Ms, 0.0);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"latency_samples\":0"), std::string::npos)
        << json;
}

} // anonymous namespace
} // namespace memsense::serve
