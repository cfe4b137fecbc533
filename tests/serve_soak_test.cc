/**
 * @file
 * Chaos/soak test: the server under sustained load with faults firing
 * probabilistically at every injection site at once.
 *
 * Labeled `soak` in ctest (run via `ctest -L soak` or the default
 * suite — the budget is kept small enough for tier-1). The assertions
 * are the server's survival contract, not specific outcomes:
 *
 *  - the run terminates (no hang) and nothing crashes;
 *  - the server ledger stays consistent — every accepted request got
 *    exactly one reply or one counted write failure — and no live
 *    snapshot during the storm shows more replies than accepted
 *    requests;
 *  - the loadgen classified every request it sent;
 *  - after fault::reset(), a clean control batch is all-ok on the same
 *    server instance (no lingering poisoned state).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "util/fault_injection.hh"

namespace memsense::serve
{
namespace
{

class ServeSoakTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::reset(); }
};

TEST_F(ServeSoakTest, SurvivesMixedFaultStormAndStaysConsistent)
{
    ServerOptions opts;
    opts.workers = 3;
    opts.pollMs = 5;
    opts.maxQueueDepth = 16;
    opts.allowStale = true;
    opts.drainDeadlineMs = 500.0;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();

    // Every site at once, each at a deterministic-but-scattered rate.
    fault::configure("seed=1234;"
                     "server.read:throw:p=0.02;"
                     "server.parse:throw:p=0.05;"
                     "server.enqueue:throw:p=0.05;"
                     "server.solve:throw:p=0.05;"
                     "server.write:throw:p=0.05;"
                     "evaluator.probe:throw:p=0.02;"
                     "evaluator.solve:throw:p=0.1;"
                     "evaluator.insert:throw:p=0.02");

    LoadgenOptions load;
    load.connections = 6;
    load.totalRequests = 400;
    // A mix of shapes: some repeated (cache traffic), some spread
    // (cold solves), one habitually malformed.
    load.fixtures = {
        "{\"workload\":{\"mpki\":10}}",
        "{\"workload\":{\"mpki\":11}}",
        "{\"workload\":{\"mpki\":12},\"platform\":{\"channels\":2}}",
        "{\"workload\":{\"class\":\"enterprise\"}}",
        "{\"workload\":{\"mpki\":-5}}", // out of domain
    };
    load.recvTimeoutMs = 2000;
    load.reconnect.maxAttempts = 8;
    load.reconnect.baseDelayMs = 1.0;
    load.reconnect.maxDelayMs = 10.0;
    Dialer dial = [transport] { return transport->connect().asStream(); };
    // A live snapshot may trail the traffic, but it never shows more
    // replies than accepted requests: a pass is accepted before any of
    // its replies is counted.
    std::atomic<bool> storming{true};
    std::atomic<std::uint64_t> snapshots{0};
    std::atomic<std::uint64_t> overdrawn{0};
    std::thread watcher([&] {
        while (storming.load()) {
            const ServerStats live = server.stats();
            if (live.repliesOk + live.repliesError + live.writeErrors >
                live.accepted)
                overdrawn.fetch_add(1);
            snapshots.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    const LoadReport storm = runLoadgen(dial, load);
    storming = false;
    watcher.join();
    EXPECT_GT(snapshots.load(), 0u);
    EXPECT_EQ(overdrawn.load(), 0u);

    // Survival: everything sent was classified; the loadgen did not
    // hang or lose requests.
    EXPECT_EQ(storm.classified(), storm.sent);
    EXPECT_GT(storm.sent, 0u);
    // Under this storm some requests must still succeed outright.
    EXPECT_GT(storm.ok, 0u);

    // Clean control on the SAME server: faults off, fresh traffic.
    fault::reset();
    LoadgenOptions clean = load;
    clean.connections = 2;
    clean.totalRequests = 50;
    clean.fixtures = {"{\"workload\":{\"mpki\":13}}",
                      "{\"workload\":{\"mpki\":10}}"};
    const LoadReport control = runLoadgen(dial, clean);
    EXPECT_EQ(control.sent, 50u);
    EXPECT_EQ(control.ok, 50u);
    EXPECT_EQ(control.transportErrors, 0u);

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_TRUE(stats.consistent()) << stats.describe();
    // The storm's accepted count covers both phases.
    EXPECT_GE(stats.accepted, control.sent);
}

TEST_F(ServeSoakTest, DeadlinePressureUnderDelayFaultsDrainsCleanly)
{
    ServerOptions opts;
    opts.workers = 2;
    opts.pollMs = 5;
    opts.maxQueueDepth = 8;
    opts.defaultDeadlineMs = 20.0;
    opts.drainDeadlineMs = 200.0;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();

    // Real 30ms stalls inside some solves: with a 20ms default
    // deadline, delayed solves overrun their budget and must be cut
    // at the next cancel poll, not crash or wedge a worker.
    fault::configure("seed=99;server.solve:delay=30:p=0.3");

    LoadgenOptions load;
    load.connections = 4;
    load.totalRequests = 120;
    load.fixtures = {
        "{\"workload\":{\"mpki\":20}}", "{\"workload\":{\"mpki\":21}}",
        "{\"workload\":{\"mpki\":22}}", "{\"workload\":{\"mpki\":23}}",
        "{\"workload\":{\"mpki\":24}}", "{\"workload\":{\"mpki\":25}}",
    };
    load.recvTimeoutMs = 2000;
    Dialer dial = [transport] { return transport->connect().asStream(); };
    const LoadReport report = runLoadgen(dial, load);

    EXPECT_EQ(report.classified(), report.sent);
    EXPECT_EQ(report.sent, 120u);
    EXPECT_GT(report.ok + report.deadlineExceeded, 0u);

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

TEST_F(ServeSoakTest, SkewedClientsUnderQuotasAndBatchFaultsStayLedgered)
{
    // A noisy-neighbor mix (half the traffic from one connection)
    // against tight per-client quotas and batching, with faults firing
    // between batch assembly and the solve. The contract is the same
    // survival ledger: every request classified, every accepted
    // request answered exactly once, and quota sheds landing as their
    // own bucket rather than leaking into overload counts.
    ServerOptions opts;
    opts.workers = 2;
    opts.pollMs = 5;
    opts.maxQueueDepth = 16;
    opts.maxBatch = 8;
    opts.batchLingerMs = 1.0;
    opts.maxQueuePerClient = 2;
    opts.drainDeadlineMs = 500.0;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();

    fault::configure("seed=77;"
                     "server.batch:throw:p=0.05;"
                     "server.solve:delay=5:p=0.2;"
                     "evaluator.solve:throw:p=0.05");

    LoadgenOptions load;
    load.connections = 4;
    load.totalRequests = 240;
    load.hotClientFraction = 0.5;
    load.fixtures = {
        "{\"workload\":{\"mpki\":30}}",
        "{\"workload\":{\"mpki\":31}}",
        "{\"workload\":{\"mpki\":30},\"platform\":{\"channels\":4}}",
        "{\"workload\":{\"mpki\":32}}",
    };
    load.recvTimeoutMs = 2000;
    Dialer dial = [transport] { return transport->connect().asStream(); };
    const LoadReport report = runLoadgen(dial, load);

    EXPECT_EQ(report.classified(), report.sent);
    EXPECT_EQ(report.sent, 240u);
    EXPECT_EQ(report.hotClientSent, 120u);
    EXPECT_GT(report.ok, 0u);

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_TRUE(stats.consistent()) << stats.describe();
    // Per-client ledgers cover every connection the run dialed.
    EXPECT_GE(stats.clients.size(), 4u);
    std::uint64_t client_quota_sheds = 0;
    for (const ClientStats &c : stats.clients)
        client_quota_sheds += c.quotaShed;
    EXPECT_EQ(client_quota_sheds, stats.quotaShed);
}

} // anonymous namespace
} // namespace memsense::serve
