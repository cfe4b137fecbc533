/**
 * @file
 * Tests for the fault-tolerant evaluation server.
 *
 * Driven almost entirely over the in-process transport so the full
 * accept/read/admit/solve/reply/drain machinery runs with zero kernel
 * dependencies, plus socket round-trips that skip cleanly when the
 * sandbox forbids binding. Deadline behaviour is tested with an
 * auto-advancing injected clock (every observation moves time forward
 * by a fixed step), so deadline-in-queue and deadline-mid-solve are
 * deterministic rather than sleep-raced; queue-pressure behaviour is
 * forced with `delay`-kind injected faults that hold the single worker
 * busy while requests pile up behind it.
 *
 * The invariant asserted everywhere: every accepted request gets
 * exactly one reply — ServerStats::consistent() — no matter which
 * fault, shed, deadline, or drain path it took.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hh"
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

/** Fast server options for tests (tight poll, quick drain). */
ServerOptions
testOptions()
{
    ServerOptions opts;
    opts.pollMs = 5;
    opts.drainDeadlineMs = 200.0;
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
    void TearDown() override { fault::reset(); }
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

TEST_F(ServeServerTest, DeadlineExpiredWhileQueuedIsRefusedCheaply)
{
    ServerOptions opts = testOptions();
    // Every clock observation advances 1s, so a 10ms budget taken at
    // enqueue has always expired by the worker's dequeue check.
    opts.nowMs = autoAdvancingClock(1000.0);
    TestServer ts(opts);
    InProcessClient client = ts.transport->connect();
    client.send("{\"id\":\"dl\",\"deadline_ms\":10,"
                "\"workload\":{\"mpki\":14}}");
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"type\":\"deadline_exceeded\""),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("while queued"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"fatal\":false"), std::string::npos) << reply;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.solved, 0u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, DeadlineCutsASolveMidFlightCooperatively)
{
    ServerOptions opts = testOptions();
    // Budget 1500ms, step 1000ms: the dequeue check survives (enqueue
    // t=1000 -> deadline 2500, dequeue t=2000) and the first solver
    // cancel poll (t=3000) fires — the cooperative mid-solve path.
    opts.nowMs = autoAdvancingClock(1000.0);
    TestServer ts(opts);
    InProcessClient client = ts.transport->connect();
    client.send("{\"id\":\"mid\",\"deadline_ms\":1500,"
                "\"workload\":{\"mpki\":15}}");
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"type\":\"deadline_exceeded\""),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("mid-solve"), std::string::npos) << reply;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, QueueOverflowShedsWithOverloadedError)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxQueueDepth = 1;
    TestServer ts(opts);
    // Hold the single worker inside its first solve for 400ms.
    fault::configure("server.solve:delay=400:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 20.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    })) << "worker never picked up the blocking request";
    client.send(coldRequest("queued", 21.0));
    // Give the reader a beat to enqueue "queued" before overflowing.
    ASSERT_TRUE(spinUntil([&ts] {
        return ts.server->stats().accepted >= 2;
    }));
    client.send(coldRequest("shed", 22.0));
    // The shed reply arrives first (reader thread, no queue wait).
    const std::string shed_reply = mustRecv(client);
    EXPECT_NE(shed_reply.find("\"type\":\"overloaded\""),
              std::string::npos)
        << shed_reply;
    EXPECT_NE(shed_reply.find("queue full"), std::string::npos)
        << shed_reply;
    // The blocked and queued solves still complete.
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.solved, 2u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, ShedRequestsCanBeServedStaleAndDegraded)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxQueueDepth = 1;
    opts.allowStale = true;
    TestServer ts(opts);
    InProcessClient client = ts.transport->connect();
    // Warm the coarse stale cache with a full solve near mpki=10.
    client.send("{\"id\":\"warm\",\"workload\":{\"mpki\":10.0001}}");
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    // Now jam the worker and fill the queue.
    fault::configure("server.solve:delay=400:count=1");
    client.send(coldRequest("busy", 30.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    client.send(coldRequest("queued", 31.0));
    ASSERT_TRUE(spinUntil([&ts] {
        return ts.server->stats().accepted >= 3;
    }));
    // Same coarse key as the warm solve, different exact fingerprint:
    // shed, but answerable stale.
    client.send("{\"id\":\"stale-ok\",\"workload\":{\"mpki\":10.0002}}");
    const std::string degraded = mustRecv(client);
    EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos)
        << degraded;
    EXPECT_NE(degraded.find("\"ok\":true"), std::string::npos)
        << degraded;
    // The same shape opting out of staleness gets the overload error.
    client.send("{\"id\":\"no-stale\",\"allow_stale\":false,"
                "\"workload\":{\"mpki\":10.0003}}");
    const std::string refused = mustRecv(client);
    EXPECT_NE(refused.find("\"type\":\"overloaded\""), std::string::npos)
        << refused;
    // Drain the two slow solves.
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.staleServed, 1u);
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, StaleStoreFaultCostsNeitherAReplyNorAWorker)
{
    // The stale cache is best effort. A throw while filling it (an
    // injected fault here; bad_alloc building the coarse key in the
    // wild) must not send a second reply for an answered request on
    // the single-job path, nor escape the worker on the batch path.
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxBatch = 16;
    opts.maxQueueDepth = 16;
    opts.allowStale = true;
    TestServer ts(opts);
    fault::configure(
        "server.solve:delay=400:count=1;server.stale_store:throw");
    InProcessClient client = ts.transport->connect();
    // Single-job path: the worker holds "busy" inside its solve...
    client.send(coldRequest("busy", 40.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    // ...while three distinct shapes queue up for one batch pass.
    const std::string lines[] = {
        coldRequest("b1", 41.0),
        coldRequest("b2", 42.0),
        coldRequest("b3", 43.0),
    };
    std::size_t queued_bytes = 0;
    for (const std::string &line : lines) {
        client.send(line);
        queued_bytes += line.size();
    }
    ASSERT_TRUE(spinUntil([&ts, queued_bytes] {
        return ts.server->inflightBytesNow() == queued_bytes;
    }));
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    // The worker survived the batch: a later request is still solved.
    client.send(coldRequest("after", 44.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_GE(fault::fireCount("server.stale_store"), 5u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.accepted, 5u);
    EXPECT_EQ(stats.repliesOk, 5u);
    EXPECT_EQ(stats.repliesError, 0u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, StaleBookkeepingIsSkippedWithoutAllowStale)
{
    // Only staleLookup reads the stale cache, and only with allowStale
    // on; without it no solve may pay for the coarse key or the insert.
    TestServer ts(testOptions());
    fault::configure("server.stale_store:throw");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("s1", 50.0));
    EXPECT_NE(mustRecv(client).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    EXPECT_EQ(fault::fireCount("server.stale_store"), 0u);
    EXPECT_TRUE(ts.server->stats().consistent());
}

TEST_F(ServeServerTest, DrainDeadlineFlushesQueuedWorkAsOverloaded)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.drainDeadlineMs = 50.0;
    TestServer ts(opts);
    fault::configure("server.solve:delay=400:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 40.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    client.send(coldRequest("q1", 41.0));
    client.send(coldRequest("q2", 42.0));
    ASSERT_TRUE(spinUntil([&ts] {
        return ts.server->stats().accepted >= 3;
    }));
    // Stop: the 50ms drain budget expires inside the worker's 400ms
    // stall, so q1/q2 are flushed as "server draining".
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.drained, 2u);
    EXPECT_EQ(stats.solved, 1u);
    EXPECT_TRUE(stats.consistent());
    int ok = 0;
    int draining = 0;
    for (int i = 0; i < 3; ++i) {
        const std::string reply = mustRecv(client);
        if (reply.find("\"ok\":true") != std::string::npos)
            ++ok;
        if (reply.find("server draining") != std::string::npos)
            ++draining;
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(draining, 2);
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

TEST_F(ServeServerTest, InjectedEnqueueFaultFallsBackToShedding)
{
    TestServer ts(testOptions());
    fault::configure("server.enqueue:throw:nth=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("eq", 62.0));
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"type\":\"overloaded\""), std::string::npos)
        << reply;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_TRUE(stats.consistent());
}

TEST_F(ServeServerTest, InjectedSolveFaultBecomesATypedErrorReply)
{
    TestServer ts(testOptions());
    fault::configure("evaluator.solve:throw:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("sf", 63.0));
    const std::string reply = mustRecv(client);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("FaultInjected"), std::string::npos) << reply;
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
// Batching, dedup, and per-client quotas.

TEST_F(ServeServerTest, BatchCoalescesAndDedupsQueuedDuplicates)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxBatch = 16;
    opts.maxQueueDepth = 16;
    TestServer ts(opts);
    // Hold the single worker inside its first solve while duplicates
    // pile up behind it, then let one drain pass coalesce them.
    fault::configure("server.solve:delay=600:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 20.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    })) << "worker never picked up the blocking request";
    // Six queued requests, three distinct shapes: the batch must cost
    // exactly three cold solves.
    const std::string lines[] = {
        coldRequest("a1", 91.0), coldRequest("a2", 91.0),
        coldRequest("a3", 91.0), coldRequest("b1", 92.0),
        coldRequest("b2", 92.0), coldRequest("c1", 93.0),
    };
    std::size_t queued_bytes = 0;
    for (const std::string &line : lines) {
        client.send(line);
        queued_bytes += line.size();
    }
    ASSERT_TRUE(spinUntil([&ts, queued_bytes] {
        return ts.server->inflightBytesNow() == queued_bytes;
    })) << "queued requests never all landed in the admission queue";
    for (int i = 0; i < 7; ++i)
        EXPECT_NE(mustRecv(client).find("\"ok\":true"),
                  std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    // The acceptance invariant: cold-solve count == unique shapes.
    // busy + three unique batch members insert; the duplicates do not.
    EXPECT_EQ(ts.server->evaluator().cacheStats().inserts, 4u);
    EXPECT_EQ(stats.solved, 7u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchedRequests, 6u);
    EXPECT_EQ(stats.batchDeduped, 3u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, DeadlineCanExpireMidBatchAfterASharedSolve)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    // Step 1000ms per observation. The deadline-carrying duplicate
    // observes the clock at enqueue (t=1000, deadline 2500), at batch
    // triage (t=2000, still live), and at the post-solve recheck
    // (t=3000, expired): its patient twin pins the dedup group at
    // "never cancel", so the shared solve completes and the expiry is
    // caught by the mid-batch recheck, not by cancellation.
    opts.nowMs = autoAdvancingClock(1000.0);
    TestServer ts(opts);
    fault::configure("server.solve:delay=400:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 40.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    const std::string patient = coldRequest("dup-patient", 95.0);
    const std::string hurried =
        "{\"id\":\"dup-hurried\",\"deadline_ms\":1500,"
        "\"workload\":{\"mpki\":95}}";
    client.send(patient);
    client.send(hurried);
    const std::size_t queued_bytes = patient.size() + hurried.size();
    ASSERT_TRUE(spinUntil([&ts, queued_bytes] {
        return ts.server->inflightBytesNow() == queued_bytes;
    }));
    int ok = 0;
    std::string hurried_reply;
    for (int i = 0; i < 3; ++i) {
        const std::string reply = mustRecv(client);
        if (reply.find("\"id\":\"dup-hurried\"") != std::string::npos)
            hurried_reply = reply;
        else if (reply.find("\"ok\":true") != std::string::npos)
            ++ok;
    }
    EXPECT_EQ(ok, 2); // busy + the patient duplicate
    EXPECT_NE(hurried_reply.find("\"type\":\"deadline_exceeded\""),
              std::string::npos)
        << hurried_reply;
    EXPECT_NE(hurried_reply.find("deadline expired mid-batch"),
              std::string::npos)
        << hurried_reply;
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.solved, 2u);
    EXPECT_EQ(stats.batchDeduped, 1u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, PerClientQuotaShedsBeforeGlobalAdmission)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxQueueDepth = 1;
    opts.maxQueuePerClient = 1;
    TestServer ts(opts);
    fault::configure("server.solve:delay=600:count=1");
    InProcessClient noisy = ts.transport->connect();
    InProcessClient good = ts.transport->connect();
    noisy.send(coldRequest("busy", 20.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    // The noisy client's one queued job is both its whole quota and the
    // whole global queue.
    const std::string n1 = coldRequest("n1", 21.0);
    noisy.send(n1);
    ASSERT_TRUE(spinUntil([&ts, &n1] {
        return ts.server->inflightBytesNow() == n1.size();
    }));
    // Both the noisy client's quota AND the global queue bound would
    // now refuse its next request; the quota tier must win, so the
    // noisy neighbor hears "slow down", not "server full".
    noisy.send(coldRequest("n2", 22.0));
    const std::string quota_reply = mustRecv(noisy);
    EXPECT_NE(quota_reply.find("\"type\":\"quota_exceeded\""),
              std::string::npos)
        << quota_reply;
    EXPECT_NE(quota_reply.find("over quota"), std::string::npos)
        << quota_reply;
    // The well-behaved client has nothing queued, so its quota is
    // clean; hitting the full global queue draws the capacity error,
    // not the quota error.
    good.send(coldRequest("g1", 23.0));
    const std::string shed_reply = mustRecv(good);
    EXPECT_NE(shed_reply.find("\"type\":\"overloaded\""),
              std::string::npos)
        << shed_reply;
    // The jammed and queued solves drain normally.
    EXPECT_NE(mustRecv(noisy).find("\"ok\":true"), std::string::npos);
    EXPECT_NE(mustRecv(noisy).find("\"ok\":true"), std::string::npos);
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.quotaShed, 1u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.solved, 2u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
    // Per-client ledgers: the quota shed landed on the noisy client,
    // the capacity shed on the other, and both survive into the JSON.
    ASSERT_EQ(stats.clients.size(), 2u);
    std::uint64_t quota_sheds = 0;
    std::uint64_t capacity_sheds = 0;
    for (const ClientStats &c : stats.clients) {
        quota_sheds += c.quotaShed;
        capacity_sheds += c.shed;
        if (c.quotaShed > 0) {
            EXPECT_EQ(c.shed, 0u) << c.id;
        }
    }
    EXPECT_EQ(quota_sheds, 1u);
    EXPECT_EQ(capacity_sheds, 1u);
    const std::string json = stats.toJson();
    EXPECT_NE(json.find("\"clients\":{"), std::string::npos) << json;
    EXPECT_NE(json.find("\"quota_shed\":1"), std::string::npos) << json;
}

TEST_F(ServeServerTest, DrainReleasesInflightBytesPerJobExactly)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.drainDeadlineMs = 50.0;
    TestServer ts(opts);
    fault::configure("server.solve:delay=400:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 40.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    }));
    const std::string q1 = coldRequest("q1", 41.0);
    const std::string q2 = coldRequest("q2", 42.0);
    client.send(q1);
    client.send(q2);
    // The queue's byte ledger must hold exactly the two queued lines
    // (the jammed request's bytes were released at dequeue) ...
    const std::size_t queued_bytes = q1.size() + q2.size();
    ASSERT_TRUE(spinUntil([&ts, queued_bytes] {
        return ts.server->inflightBytesNow() == queued_bytes;
    })) << ts.server->inflightBytesNow();
    // ... and the drain flush must release it per job, landing on
    // exactly zero — the regression guard for the drain path once
    // zeroing the counter wholesale instead of per flushed job.
    ts.server->stop();
    EXPECT_EQ(ts.server->inflightBytesNow(), 0u);
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.drained, 2u);
    EXPECT_EQ(stats.solved, 1u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeServerTest, CoarseStaleKeyCanonicalizesFloatEdgeCases)
{
    // The coarse stale-cache key must not let bitwise float oddities
    // split one coarse slot into several: -0.0 vs +0.0, denormals vs
    // zero, and every NaN payload all render one canonical token.
    EvalRequest base;
    EvalRequest probe;
    base.workload.wbr = 0.0;
    probe.workload.wbr = -0.0;
    EXPECT_EQ(coarseRequestKey(base), coarseRequestKey(probe));
    probe.workload.wbr = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(coarseRequestKey(base), coarseRequestKey(probe));
    probe.workload.wbr = -std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(coarseRequestKey(base), coarseRequestKey(probe));
    base.workload.iopi = std::numeric_limits<double>::quiet_NaN();
    probe.workload.wbr = base.workload.wbr;
    probe.workload.iopi = -std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(coarseRequestKey(base), coarseRequestKey(probe));

    // Deterministic bit-pattern fuzz: for any double, the key must be
    // class-canonical — NaNs key like the canonical NaN, zeros and
    // denormals like 0.0 — and negating a zero/denormal never changes
    // the key.
    const std::string zero_key = [] {
        EvalRequest r;
        r.workload.wbr = 0.0;
        return coarseRequestKey(r);
    }();
    const std::string nan_key = [] {
        EvalRequest r;
        r.workload.wbr = std::numeric_limits<double>::quiet_NaN();
        return coarseRequestKey(r);
    }();
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 256; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        double v;
        static_assert(sizeof(v) == sizeof(lcg), "double is 64-bit");
        std::memcpy(&v, &lcg, sizeof(v));
        EvalRequest r;
        r.workload.wbr = v;
        const std::string key = coarseRequestKey(r);
        const bool zeroClass =
            // memsense-lint: allow(float-equal): exact-zero sentinel
            v == 0.0 || std::fpclassify(v) == FP_SUBNORMAL;
        if (std::isnan(v)) {
            EXPECT_EQ(key, nan_key) << "bits " << lcg;
        } else if (zeroClass) {
            EXPECT_EQ(key, zero_key) << "bits " << lcg;
        }
        EvalRequest neg;
        neg.workload.wbr = -v;
        if (zeroClass) {
            EXPECT_EQ(coarseRequestKey(neg), key) << "bits " << lcg;
        }
    }
}

// ---------------------------------------------------------------------
// Burst I/O: one write per reply batch, one admission group per pass.

/** @p lines framed as one burst, for a single LineStream::write. */
std::string
framedBurst(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

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

TEST_F(ServeServerTest, BurstIsAdmittedOrShedInLineOrder)
{
    ServerOptions opts = testOptions();
    opts.workers = 1;
    opts.maxQueueDepth = 4;
    TestServer ts(opts);
    fault::configure("server.solve:delay=400:count=1");
    InProcessClient client = ts.transport->connect();
    client.send(coldRequest("busy", 110.0));
    ASSERT_TRUE(spinUntil([] {
        return fault::fireCount("server.solve") >= 1;
    })) << "worker never picked up the blocking request";
    // Eight distinct cold lines in one burst, twice the queue bound:
    // one admission group, decided line by line in order.
    std::vector<std::string> burst;
    for (int i = 0; i < 8; ++i)
        burst.push_back(coldRequest(("q" + std::to_string(i)).c_str(),
                                    111.0 + i));
    ASSERT_TRUE(client.asStream()->write(framedBurst(burst)));
    std::vector<std::string> replies;
    for (int i = 0; i < 9; ++i)
        replies.push_back(mustRecv(client));
    std::string extra;
    EXPECT_EQ(client.recv(extra, 50), LineStream::Read::Idle) << extra;
    for (int i = 0; i < 8; ++i) {
        const std::string id = "\"id\":\"q" + std::to_string(i) + "\"";
        int seen = 0;
        for (const std::string &r : replies) {
            if (r.find(id) == std::string::npos)
                continue;
            ++seen;
            if (i < 4) {
                EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
            } else {
                EXPECT_NE(r.find("\"type\":\"overloaded\""),
                          std::string::npos)
                    << r;
            }
        }
        EXPECT_EQ(seen, 1) << "q" << i;
    }
    ts.server->stop();
    const ServerStats stats = ts.server->stats();
    EXPECT_EQ(stats.accepted, 9u);
    EXPECT_EQ(stats.shed, 4u);
    EXPECT_EQ(stats.solved, 5u);
    EXPECT_TRUE(stats.consistent()) << stats.describe();
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
    // maxBatch lines.
    const std::size_t passes = (kLines + opts.maxBatch - 1) / opts.maxBatch;
    EXPECT_LE(fault::hitCount("server.write"), passes + 1);
    EXPECT_EQ(fault::fireCount("server.write"), 0u);
    stream->shutdownStream();
    server->stop();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.cacheHits, kLines);
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
    // solves (worker flush) and repeats of them (reader flush). The
    // budget is far below what any poll or linger could add, so a
    // reply held back until more input arrived would time out here.
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
