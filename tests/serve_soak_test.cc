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
    opts.pollMs = 5;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();

    // Every site at once, each at a deterministic-but-scattered rate.
    fault::configure("seed=1234;"
                     "server.read:throw:p=0.02;"
                     "server.parse:throw:p=0.05;"
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
    opts.pollMs = 5;
    opts.defaultDeadlineMs = 20.0;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();

    // Real 30ms stalls inside some solves, longer than the 20ms default
    // deadline: a slow solve must delay only its own connection, and
    // never crash or wedge a reader.
    fault::configure("seed=99;server.solve:delay=30:p=0.3");

    // A sweep client sends 48 misses as one burst, three passes of 16:
    // a miss waiting in its pass behind a stalled solve runs out of
    // budget. The loadgen's closed-loop lines start a pass each and
    // meet their check on time.
    constexpr int kSweep = 48;
    std::atomic<int> sweep_ok{0};
    std::atomic<int> sweep_expired{0};
    std::thread sweeper([&] {
        InProcessClient sweep = transport->connect();
        std::string burst;
        for (int i = 0; i < kSweep; ++i)
            burst += "{\"id\":\"sw" + std::to_string(i) +
                     "\",\"workload\":{\"mpki\":" +
                     std::to_string(40 + i) + "}}\n";
        if (!sweep.asStream()->write(burst))
            return;
        std::string reply;
        for (int i = 0; i < kSweep; ++i) {
            if (sweep.recv(reply, 2000) != LineStream::Read::Line)
                return;
            if (reply.find("\"ok\":true") != std::string::npos)
                sweep_ok.fetch_add(1);
            else if (reply.find("\"deadline_exceeded\"") !=
                     std::string::npos)
                sweep_expired.fetch_add(1);
        }
    });

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
    sweeper.join();

    EXPECT_EQ(report.classified(), report.sent);
    EXPECT_EQ(report.sent, 120u);
    EXPECT_GT(report.ok + report.deadlineExceeded, 0u);
    EXPECT_EQ(sweep_ok.load() + sweep_expired.load(), kSweep)
        << "a sweep reply went missing or was neither ok nor expired";
    EXPECT_GT(sweep_expired.load(), 0)
        << "no miss ran out of budget behind a stalled solve";

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.deadlineExceeded,
              report.deadlineExceeded +
                  static_cast<std::uint64_t>(sweep_expired.load()));
    EXPECT_TRUE(stats.consistent()) << stats.describe();
}

} // anonymous namespace
} // namespace memsense::serve
