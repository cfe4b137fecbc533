/**
 * @file
 * Tests for the fault-tolerant evaluation server.
 *
 * Driven almost entirely over the in-process transport so the full
 * accept/read/answer/reply/drain path runs with zero kernel
 * dependencies, plus socket round-trips that skip cleanly when the
 * sandbox forbids binding. Deadline behaviour is tested with an
 * auto-advancing injected clock (every observation moves time forward
 * by a fixed step) or a virtual clock that only injected solve stalls
 * move, so the deadline check is deterministic rather than
 * sleep-raced; slow solves are forced with `delay`-kind injected
 * faults that hold one connection's reader inside a solve.
 *
 * The invariant asserted everywhere: every accepted request gets
 * exactly one reply — ServerStats::consistent() — no matter which
 * fault, deadline, or drain path it took.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"
#include "util/fault_injection.hh"
#include "util/socket.hh"

namespace memsense::serve
{
namespace
{

/** Server + its in-process transport, wired for one test. */
struct TestServer
{
    InProcessTransport *transport = nullptr;
    std::unique_ptr<Server> server;

    explicit TestServer(ServerOptions opts = {})
    {
        server = std::make_unique<Server>(std::move(opts));
        auto t = std::make_unique<InProcessTransport>();
        transport = t.get();
        server->addTransport(std::move(t));
        server->start();
    }
};

/** Fast server options for tests (tight poll). */
ServerOptions
testOptions()
{
    ServerOptions opts;
    opts.pollMs = 5;
    return opts;
}

/** A clock that advances stepMs on every observation. */
std::function<double()>
autoAdvancingClock(double step_ms)
{
    auto t = std::make_shared<double>(0.0);
    return [t, step_ms] {
        *t += step_ms;
        return *t;
    };
}

std::string
coldRequest(const char *id, double mpki)
{
    return std::string("{\"id\":\"") + id +
           "\",\"workload\":{\"mpki\":" + std::to_string(mpki) + "}}";
}

/** Receive one line or fail the test. */
std::string
mustRecv(InProcessClient &client, int timeout_ms = 5000)
{
    std::string line;
    const LineStream::Read r = client.recv(line, timeout_ms);
    EXPECT_EQ(r, LineStream::Read::Line) << "no reply within budget";
    return line;
}

/** Spin until @p pred holds or ~2s of real time passes. */
template <typename Pred>
bool
spinUntil(Pred pred)
{
    for (int i = 0; i < 400; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

class ServeServerTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        fault::reset();
        fault::setSleepHandler(nullptr);
    }
};

TEST_F(ServeServerTest, StartStopWithoutTrafficIsClean)
{
    TestServer ts(testOptions());
    ts.server->stop();
    ts.server->stop(); // idempotent
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, EveryRequestGetsExactlyOneReply)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("r1", 10.0));
    client.send(coldRequest("r2", 11.0));
    client.send(coldRequest("r3", 10.0)); // dup of r1's params
    std::vector<std::string> replies;
    for (int i = 0; i < 3; ++i)
        replies.push_back(mustRecv(client));
    for (const std::string &r : replies)
        EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.repliesOk, 3u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, CacheHitsAreServedInlineOnTheReaderThread)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("cold", 12.0));
    const std::string first = mustRecv(client);
    client.send(coldRequest("warm", 12.0));
    const std::string second = mustRecv(client);
    EXPECT_NE(second.find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.solved, 1u);
    // The hit and the solve must agree byte-for-byte past the id.
    EXPECT_EQ(first.substr(first.find("\"op\"")),
              second.substr(second.find("\"op\"")));
}

TEST_F(ServeServerTest, MalformedLineGetsATypedErrorReply)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send("this is not json");
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"id\":\"line-1\""), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"fatal\":true"), std::string::npos) << reply;
    // The connection survives a bad line; the next request works.
    client.send(coldRequest("after", 13.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    EXPECT_TRUE(ts.server->stats().consistent());
}

TEST_F(ServeServerTest, ConnectionLimitShedsTheExcessConnection)
{
    ServerOptions opts = testOptions();
    opts.maxConnections = 1;
    TestServer ts(opts);
    InProcessClient first = ts.transport->connect();
    first.send(coldRequest("keep", 50.0));
    EXPECT_NE(mustRecv(first).find("\"ok\":true"), std::string::npos);
    InProcessClient second = ts.transport->connect();
    const std::string refused = mustRecv(second);
    EXPECT_NE(refused.find("connection limit"), std::string::npos)
        << refused;
    // The first connection keeps working.
    first.send(coldRequest("still", 51.0));
    EXPECT_NE(mustRecv(first).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.connectionsShed, 1u);
    EXPECT_EQ(stats.connections, 1u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, OversizedLineIsRefusedAndConnectionDropped)
{
    ServerOptions opts = testOptions();
    TestServer ts(opts);
    // The in-process transport has no byte cap (its lines arrive
    // pre-framed), so exercise the fd-backed stream's cap directly
    // through a socketpair-like pipe is covered in the socket tests;
    // here assert the parser-level cap on a hostile huge line.
    InProcessClient client = ts.transport->connect();
    const std::string huge(2u << 20, 'x');
    client.send("{\"id\":\"big\",\"workload\":{\"name\":\"" + huge +
                "\"}}");
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("byte cap"), std::string::npos) << reply;
    ts.server->stop();
    EXPECT_TRUE(ts.server->stats().consistent());
}

TEST_F(ServeServerTest, InjectedParseFaultBecomesAPerLineError)
{
    TestServer ts(testOptions());
    fault::configure("server.parse:throw:nth=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("pf", 60.0));
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("injected fault"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"fatal\":false"), std::string::npos)
        << reply;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.parseErrors, 1u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, InjectedProbeFaultBecomesAnInternalError)
{
    TestServer ts(testOptions());
    fault::configure("evaluator.probe:throw:nth=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("probe", 61.0));
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"type\":\"internal\""), std::string::npos)
        << reply;
    ts.server->stop();
    EXPECT_TRUE(ts.server->stats().consistent());
}

TEST_F(ServeServerTest, InjectedSolveFaultBecomesATypedErrorReply)
{
    TestServer ts(testOptions());
    fault::configure("evaluator.solve:throw:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("sf", 63.0));
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"type\":\"FaultInjected\""), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"attempts\":1"), std::string::npos) << reply;
    // Retryable failure: the same request succeeds afterwards.
    client.send(coldRequest("sf2", 63.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    EXPECT_TRUE(ts.server->stats().consistent());
}

TEST_F(ServeServerTest, InjectedWriteFaultIsCountedNotThrown)
{
    TestServer ts(testOptions());
    fault::configure("server.write:throw:nth=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("wf", 64.0));
    ASSERT_TRUE(spinUntil([&ts] {
        return ts.server->stats().writeErrors >= 1;
    })) << ts.server->stats().describe();
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.writeErrors, 1u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, StatsJsonCarriesTheLedger)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("j", 70.0));
    mustRecv(client);
    ts.server->stop();
    const std::string json = ts.server->stats().toJson();
    EXPECT_NE(json.find("\"accepted\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"consistent\":true"), std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// One answer path: every line is answered on its connection's reader,
// in the pass that read it.

/** @p lines framed as one burst, for a single LineStream::write. */
std::string
framedBurst(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

/** What memsense_eval writes for the single request @p line. */
std::string
batchToolReply(const std::string &line)
{
    std::istringstream in(line + "\n");
    std::ostringstream out;
    runEvalService(in, out);
    std::string reply = out.str();
    if (!reply.empty() && reply.back() == '\n')
        reply.pop_back();
    return reply;
}

TEST_F(ServeServerTest, DeadlineExpiredBeforeTheSolveIsRefused)
{
    ServerOptions opts = testOptions();
    // Every clock observation advances 1s: a 10ms budget taken when the
    // pass begins has always expired at the check before the solve.
    opts.nowMs = autoAdvancingClock(1000.0);
    TestServer ts(opts);
    InProcessClient client = ts.transport->connect();
    client.send("{\"id\":\"dl\",\"deadline_ms\":10,"
                "\"workload\":{\"mpki\":14}}");
    const std::string reply = mustRecv(client);
    EXPECT_EQ(reply, "{\"id\":\"dl\",\"ok\":false,\"error\":{\"type\":"
                     "\"deadline_exceeded\",\"message\":\"deadline "
                     "expired before the solve\",\"fatal\":false,"
                     "\"attempts\":0}}");
    // The refused point was never solved or cached, and a cache hit is
    // answered whatever its budget: the check guards the solve only.
    client.send(coldRequest("solve", 14.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    client.send("{\"id\":\"hit\",\"deadline_ms\":10,"
                "\"workload\":{\"mpki\":14}}");
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.solved, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(ts.server->evaluator().cacheStats().inserts, 1u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, DeadlineCountsTheWaitBehindEarlierSolvesInItsPass)
{
    // A virtual clock that only injected solve stalls move: each solve
    // takes 100ms of it, and nothing else takes any.
    auto clock_ms = std::make_shared<std::atomic<double>>(0.0);
    fault::setSleepHandler(
        [clock_ms](double ms) { clock_ms->store(clock_ms->load() + ms); });
    ServerOptions opts = testOptions();
    opts.nowMs = [clock_ms] { return clock_ms->load(); };
    TestServer ts(opts);
    fault::configure("server.solve:delay=100");
    InProcessClient client = ts.transport->connect();
    // One pass: the first miss stalls 100ms, so the second, whose 50ms
    // budget started with the pass, has expired at its check. The hit
    // after it is answered whatever its budget.
    const std::vector<std::string> burst = {
        coldRequest("first", 180.0),
        "{\"id\":\"queued\",\"deadline_ms\":50,\"workload\":{\"mpki\":181}}",
        "{\"id\":\"hit\",\"deadline_ms\":50,\"workload\":{\"mpki\":180}}",
    };
    ASSERT_TRUE(client.asStream()->write(framedBurst(burst)));
    EXPECT_EQ(mustRecv(client).rfind("{\"id\":\"first\",\"ok\":true", 0), 0u);
    EXPECT_EQ(mustRecv(client),
              "{\"id\":\"queued\",\"ok\":false,\"error\":{\"type\":"
              "\"deadline_exceeded\",\"message\":\"deadline expired "
              "before the solve\",\"fatal\":false,\"attempts\":0}}");
    EXPECT_EQ(mustRecv(client).rfind("{\"id\":\"hit\",\"ok\":true", 0), 0u);
    // Sent alone, the same request starts its budget with its own pass
    // and is solved: the check bounds the wait before a solve, not the
    // solve's own 100ms.
    client.send("{\"id\":\"alone\",\"deadline_ms\":50,"
                "\"workload\":{\"mpki\":181}}");
    EXPECT_EQ(mustRecv(client).rfind("{\"id\":\"alone\",\"ok\":true", 0), 0u);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.solved, 2u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, RepliesOnOneConnectionComeBackInLineOrder)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("warm", 140.0)); // line 1
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    // One burst, lines 2-8: hits, misses, a malformed line and an
    // out-of-domain line, answered in one pass and written in order.
    const std::string bad_domain =
        "{\"id\":\"bad\",\"workload\":{\"mpki\":-5}}";
    const std::vector<std::string> burst = {
        coldRequest("h1", 140.0), coldRequest("m1", 141.0),
        "this is not json",       bad_domain,
        coldRequest("m2", 142.0), coldRequest("m1-again", 141.0),
        coldRequest("h2", 140.0),
    };
    ASSERT_TRUE(client.asStream()->write(framedBurst(burst)));
    const char *const ids[] = {"h1", "m1", "line-4", "bad",
                               "m2", "m1-again", "h2"};
    std::vector<std::string> replies;
    for (const char *id : ids) {
        replies.push_back(mustRecv(client));
        EXPECT_EQ(replies.back().rfind(std::string("{\"id\":\"") + id +
                                           "\",",
                                       0),
                  0u)
            << "expected " << id << ", got " << replies.back();
    }
    EXPECT_NE(replies[2].find("JSON parse error"), std::string::npos)
        << replies[2];
    EXPECT_EQ(replies[3], batchToolReply(bad_domain));
    for (std::size_t i : {0u, 1u, 4u, 5u, 6u}) {
        EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos)
            << replies[i];
    }
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.accepted, 8u);
    EXPECT_EQ(stats.cacheHits, 3u);
    EXPECT_EQ(stats.solved, 3u);
    EXPECT_EQ(stats.parseErrors, 1u);
    EXPECT_EQ(stats.repliesError, 2u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, FailedSolveGetsTheBatchToolsReplyAloneAndInABurst)
{
    // One failed solve, one rendering: the evaluator's failure record
    // (its type, `"attempts":1`), byte for byte what memsense_eval
    // writes, whether the line arrives alone or among other misses.
    const std::string bad_domain =
        "{\"id\": \"bad-domain\", \"workload\": {\"class\": \"bigdata\", "
        "\"mpki\": -5.0}}";
    const std::string want = batchToolReply(bad_domain);
    ASSERT_NE(want.find("\"type\":\"ConfigError\""), std::string::npos)
        << want;
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(bad_domain);
    EXPECT_EQ(mustRecv(client), want);

    std::vector<std::string> burst;
    for (int i = 0; i < 16; ++i)
        burst.push_back(i == 7 ? bad_domain
                               : coldRequest(("c" + std::to_string(i)).c_str(),
                                             150.0 + i));
    ASSERT_TRUE(client.asStream()->write(framedBurst(burst)));
    for (int i = 0; i < 16; ++i) {
        const std::string reply = mustRecv(client);
        if (i == 7) {
            EXPECT_EQ(reply, want);
        } else {
            EXPECT_NE(reply.find("\"id\":\"c" + std::to_string(i) +
                                 "\",\"ok\":true"),
                      std::string::npos)
                << reply;
        }
    }
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.solved, 15u);
    EXPECT_EQ(stats.repliesError, 2u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, SlowSolvesOnOneConnectionDoNotHoldAnothersHits)
{
    TestServer ts(testOptions());
    InProcessClient slow = ts.transport->connect();
    InProcessClient fast = ts.transport->connect();
    fast.send(coldRequest("warm", 160.0));
    EXPECT_NE(mustRecv(fast).find("\"ok\":true"), std::string::npos);
    // Every solve from here on stalls 600ms. The slow connection
    // streams misses; its reader sits inside the first of them.
    fault::configure("server.solve:delay=600");
    std::vector<std::string> misses;
    for (int i = 0; i < 3; ++i)
        misses.push_back(
            coldRequest(("m" + std::to_string(i)).c_str(), 161.0 + i));
    ASSERT_TRUE(slow.asStream()->write(framedBurst(misses)));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    })) << "the slow connection never reached a solve";
    // The other connection's reader answers its hits meanwhile, each
    // far inside the stall.
    std::string reply;
    for (int i = 0; i < 5; ++i) {
        const std::string id = "hit" + std::to_string(i);
        fast.send(coldRequest(id.c_str(), 160.0));
        ASSERT_EQ(fast.recv(reply, 200), LineStream::Read::Line)
            << "hit " << i << " waited on another connection's solve";
        EXPECT_NE(reply.find("\"id\":\"" + id + "\",\"ok\":true"),
                  std::string::npos)
            << reply;
    }
    for (int i = 0; i < 3; ++i)
        EXPECT_NE(mustRecv(slow).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.cacheHits, 5u);
    EXPECT_EQ(stats.solved, 4u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, StopAnswersEveryLineAlreadyRead)
{
    TestServer ts(testOptions());
    // 50ms per solve, so stop() lands in the middle of the burst.
    fault::configure("server.solve:delay=50");
    InProcessClient client = ts.transport->connect();
    std::vector<std::string> burst;
    for (int i = 0; i < 16; ++i)
        burst.push_back(
            coldRequest(("s" + std::to_string(i)).c_str(), 170.0 + i));
    ASSERT_TRUE(client.asStream()->write(framedBurst(burst)));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 2;
    }));
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_GE(stats.accepted, 2u);
    EXPECT_LT(stats.accepted, 16u) << "stop did not cut the burst short";
    // Every line the reader took is answered in full and in order;
    // the lines it never read are not owed a reply.
    std::string reply;
    std::uint64_t replies = 0;
    while (client.recv(reply, 1000) == LineStream::Read::Line) {
        EXPECT_EQ(reply.rfind("{\"id\":\"s" + std::to_string(replies) +
                                  "\",\"ok\":true",
                              0),
                  0u)
            << reply;
        ++replies;
    }
    EXPECT_EQ(replies, stats.accepted);
    EXPECT_EQ(stats.solved, stats.accepted);
    EXPECT_EQ(stats.repliesOk, stats.accepted);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

// ---------------------------------------------------------------------
// Burst I/O: one write per reader pass.

TEST_F(ServeServerTest, FailedCoalescedFlushCountsEveryReplyAsAWriteError)
{
    TestServer ts(testOptions());
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("warm", 100.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    // Eight cache hits in one burst: one reader pass, one flush, one
    // write. Failing that write loses all eight replies, and the
    // ledger must say so.
    std::vector<std::string> hits;
    for (int i = 0; i < 8; ++i)
        hits.push_back(coldRequest(("h" + std::to_string(i)).c_str(),
                                   100.0));
    fault::configure("server.write:throw:nth=1");
    ASSERT_TRUE(client.asStream()->write(framedBurst(hits)));
    ASSERT_TRUE(spinUntil([&ts] {
        return ts.server->stats().writeErrors >= 8;
    })) << ts.server->stats().describe();
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(fault::fireCount("server.write"), 1u);
    EXPECT_EQ(stats.accepted, 9u);
    EXPECT_EQ(stats.cacheHits, 8u);
    EXPECT_EQ(stats.writeErrors, 8u);
    EXPECT_EQ(stats.repliesOk, 1u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
    std::string line;
    EXPECT_EQ(client.recv(line, 50), LineStream::Read::Eof) << line;
}

// ---------------------------------------------------------------------
// Socket transports. These bind real sockets, so they skip (rather
// than fail) when the sandbox forbids it.

std::string
socketRoundTrip(Server &server, std::unique_ptr<LineStream> stream,
                const std::string &request)
{
    EXPECT_TRUE(stream->write(request + "\n"));
    std::string reply;
    EXPECT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line);
    stream->shutdownStream();
    server.stop();
    return reply;
}

TEST_F(ServeServerTest, TcpRoundTrip)
{
    net::Listener listener;
    try {
        listener = net::listenTcp("127.0.0.1", 0);
    } catch (const ConfigError &e) {
        GTEST_SKIP() << "cannot bind TCP in this environment: "
                     << e.what();
    }
    const int port = listener.port;
    ASSERT_GT(port, 0);
    StreamLimits limits;
    ServerOptions opts = testOptions();
    Server server(opts);
    server.addTransport(
        makeSocketTransport(std::move(listener), limits));
    server.start();
    auto stream = makeSocketStream(net::connectTcp("127.0.0.1", port),
                                   limits, "test-client");
    const std::string reply = socketRoundTrip(
        server, std::move(stream), coldRequest("tcp", 80.0));
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    EXPECT_TRUE(server.stats().consistent());
}

TEST_F(ServeServerTest, UnixSocketRoundTripAndLineCap)
{
    const std::string path =
        ::testing::TempDir() + "memsense_server_test.sock";
    net::Listener listener;
    try {
        listener = net::listenUnix(path);
    } catch (const ConfigError &e) {
        GTEST_SKIP() << "cannot bind a Unix socket here: " << e.what();
    }
    StreamLimits limits;
    limits.maxLineBytes = 256; // exercise the fd-stream line cap too
    ServerOptions opts = testOptions();
    opts.maxLineBytes = 256;
    Server server(opts);
    server.addTransport(
        makeSocketTransport(std::move(listener), limits));
    server.start();
    // The client keeps the default cap: ok-replies are longer than the
    // 256-byte cap under test on the server side.
    StreamLimits client_limits;
    auto stream = makeSocketStream(net::connectUnix(path),
                                   client_limits, "test-client");
    ASSERT_TRUE(stream->write(coldRequest("ux", 81.0) + "\n"));
    std::string reply;
    ASSERT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line);
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    // A line past the cap draws a ConfigError reply, then EOF.
    ASSERT_TRUE(stream->write(
        "{\"id\":\"big\",\"workload\":{\"name\":\"" +
        std::string(600, 'x') + "\"}}\n"));
    ASSERT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line);
    EXPECT_NE(reply.find("exceeds"), std::string::npos) << reply;
    EXPECT_EQ(stream->readLine(reply, 5000), LineStream::Read::Eof);
    stream->shutdownStream();
    server.stop();
    EXPECT_TRUE(server.stats().consistent());
}

/** Unix-socket server for one test; empty when binding is refused. */
std::unique_ptr<Server>
unixServer(const std::string &path, ServerOptions opts)
{
    net::Listener listener;
    try {
        listener = net::listenUnix(path);
    } catch (const ConfigError &) {
        return nullptr;
    }
    auto server = std::make_unique<Server>(std::move(opts));
    server->addTransport(
        makeSocketTransport(std::move(listener), StreamLimits{}));
    server->start();
    return server;
}

TEST_F(ServeServerTest, BurstOfHitsIsWrittenInOneWritePerPass)
{
    const std::string path =
        ::testing::TempDir() + "memsense_server_burst.sock";
    ServerOptions opts = testOptions();
    auto server = unixServer(path, opts);
    if (!server)
        GTEST_SKIP() << "cannot bind a Unix socket here";
    auto stream =
        makeSocketStream(net::connectUnix(path), StreamLimits{}, "client");
    ASSERT_TRUE(stream->write(coldRequest("warm", 120.0) + "\n"));
    std::string reply;
    ASSERT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line);
    // Count writes under an inert spec: nothing fires, every write
    // through a LineStream (the client's burst included) is a hit.
    fault::configure("server.write:throw:p=0");
    constexpr std::size_t kLines = 32;
    std::vector<std::string> hits;
    for (std::size_t i = 0; i < kLines; ++i)
        hits.push_back(coldRequest(("h" + std::to_string(i)).c_str(),
                                   120.0));
    ASSERT_TRUE(stream->write(framedBurst(hits)));
    for (std::size_t i = 0; i < kLines; ++i) {
        ASSERT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line)
            << "reply " << i;
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
    // The client's one write, plus one per reader pass of at most
    // kMaxPassLines lines.
    const std::size_t passes =
        (kLines + Server::kMaxPassLines - 1) / Server::kMaxPassLines;
    EXPECT_LE(fault::hitCount("server.write"), passes + 1);
    EXPECT_EQ(fault::fireCount("server.write"), 0u);
    stream->shutdownStream();
    server->stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.cacheHits, kLines);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, BurstOfMissesIsWrittenInOneWritePerPass)
{
    const std::string path =
        ::testing::TempDir() + "memsense_server_miss_burst.sock";
    auto server = unixServer(path, testOptions());
    if (!server)
        GTEST_SKIP() << "cannot bind a Unix socket here";
    auto stream =
        makeSocketStream(net::connectUnix(path), StreamLimits{}, "client");
    // Count writes under an inert spec: nothing fires, every write
    // through a LineStream (the client's burst included) is a hit.
    fault::configure("server.write:throw:p=0");
    constexpr std::size_t kLines = 32;
    std::vector<std::string> misses;
    for (std::size_t i = 0; i < kLines; ++i)
        misses.push_back(coldRequest(("m" + std::to_string(i)).c_str(),
                                     180.0 + static_cast<double>(i)));
    ASSERT_TRUE(stream->write(framedBurst(misses)));
    std::string reply;
    for (std::size_t i = 0; i < kLines; ++i) {
        ASSERT_EQ(stream->readLine(reply, 5000), LineStream::Read::Line)
            << "reply " << i;
        EXPECT_EQ(reply.rfind("{\"id\":\"m" + std::to_string(i) +
                                  "\",\"ok\":true",
                              0),
                  0u)
            << reply;
    }
    // The misses are solved in the pass that read them, so their
    // replies go out with that pass's one write.
    const std::size_t passes =
        (kLines + Server::kMaxPassLines - 1) / Server::kMaxPassLines;
    EXPECT_LE(fault::hitCount("server.write"), passes + 1);
    EXPECT_EQ(fault::fireCount("server.write"), 0u);
    stream->shutdownStream();
    server->stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.solved, kLines);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, ClosedLoopClientNeverWaitsOnAnUnflushedReply)
{
    const std::string path =
        ::testing::TempDir() + "memsense_server_closed_loop.sock";
    auto server = unixServer(path, testOptions());
    if (!server)
        GTEST_SKIP() << "cannot bind a Unix socket here";
    auto stream =
        makeSocketStream(net::connectUnix(path), StreamLimits{}, "client");
    // One line at a time, each waiting for its reply: alternating cold
    // solves and repeats of them (cache hits). The budget is far below
    // what a poll could add, so a reply held back until more input
    // arrived would time out here.
    std::string reply;
    for (int i = 0; i < 20; ++i) {
        const double mpki = 130.0 + (i / 2);
        const std::string id = "c" + std::to_string(i);
        ASSERT_TRUE(stream->write(coldRequest(id.c_str(), mpki) + "\n"));
        ASSERT_EQ(stream->readLine(reply, 2000), LineStream::Read::Line)
            << "request " << i;
        EXPECT_NE(reply.find("\"id\":\"" + id + "\""), std::string::npos)
            << reply;
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
    stream->shutdownStream();
    server->stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.solved, 10u);
    EXPECT_EQ(stats.cacheHits, 10u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

} // anonymous namespace
} // namespace memsense::serve
