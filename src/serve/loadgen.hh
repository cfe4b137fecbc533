/**
 * @file
 * Load generator for the evaluation server.
 *
 * Replays a set of fixture request lines against a server over N
 * concurrent connections, classifies every reply (ok / overloaded /
 * deadline_exceeded / other error / transport failure), and reports
 * latency percentiles and the shed rate. This is both the
 * memsense_loadgen CLI's engine and the traffic source of the chaos
 * and soak suites, so it has the same testability seams as the server:
 * the connection factory (Dialer), the clock, and the backoff sleeper
 * are all injectable — tests dial in-process fake servers and record
 * sleeps instead of waiting.
 *
 * Failure behaviour mirrors what a well-behaved client of this server
 * should do: a transport failure (refused dial, dropped connection)
 * triggers a bounded exponential-backoff reconnect (util/retry.hh's
 * deterministic schedule, streamed per connection); when the attempt
 * budget is exhausted the connection gives up and the report says so —
 * the loadgen itself never hangs and never crashes on a flaky server.
 */

#ifndef MEMSENSE_SERVE_LOADGEN_HH
#define MEMSENSE_SERVE_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/transport.hh"
#include "util/retry.hh"

namespace memsense::serve
{

/** Connection factory: dial one new connection to the server (throw
 *  ConfigError on failure — the loadgen retries under its policy). */
using Dialer = std::function<std::unique_ptr<LineStream>()>;

/** Knobs of one load-generation run. */
struct LoadgenOptions
{
    int connections = 1;       ///< concurrent client connections
    std::uint64_t totalRequests = 100; ///< across all connections
    /** Fixture request lines, replayed round-robin. Each gets a fresh
     *  `"id":"lg-<n>"` (and `deadline_ms`, when set) injected, so
     *  replies can be matched and deduplicated. */
    std::vector<std::string> fixtures;
    double deadlineMs = 0.0;   ///< per-request deadline to inject; 0 = none
    double targetRatePerSec = 0.0; ///< open-loop pacing; 0 = closed loop
    int recvTimeoutMs = 5000;  ///< reply wait budget per request
    RetryPolicy reconnect;     ///< bounded backoff for redials
    std::function<double()> nowMs;      ///< injectable clock
    std::function<void(double)> sleepMs; ///< injectable backoff/pace sleep

    /** Validate the knobs; throws ConfigError on nonsense. */
    void validate() const;
};

/** Outcome of one run. Every sent request lands in exactly one
 *  classification bucket: sent == ok + overloaded + deadlineExceeded +
 *  otherErrors + transportErrors. */
struct LoadReport
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;         ///< `"ok":true`
    std::uint64_t overloaded = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t otherErrors = 0;     ///< any other `"ok":false`
    std::uint64_t transportErrors = 0; ///< no reply (drop/timeout)
    std::uint64_t reconnects = 0;      ///< successful redials
    std::uint64_t dialFailures = 0;    ///< failed dial attempts
    /** Replied requests contributing to the percentiles below; 0 means
     *  p50/p99 are the 0.0 placeholder, not a measured latency. */
    std::uint64_t latencySamples = 0;
    double p50Ms = 0.0; ///< nearest-rank median reply latency
    double p99Ms = 0.0; ///< nearest-rank 99th percentile latency

    /** Requests classified (the ledger right-hand side). */
    std::uint64_t classified() const
    {
        return ok + overloaded + deadlineExceeded + otherErrors +
               transportErrors;
    }

    /** Fraction of sent requests shed by the server. */
    double shedRate() const
    {
        return sent == 0 ? 0.0
                         : static_cast<double>(overloaded) /
                               static_cast<double>(sent);
    }

    /** One human-readable summary line. */
    std::string describe() const;

    /** JSON object (stable key order) for scripted assertions. */
    std::string toJson() const;
};

/** Run the load: dial via @p dial, replay per @p opts, aggregate. */
LoadReport runLoadgen(const Dialer &dial, const LoadgenOptions &opts);

/**
 * Rewrite one fixture line for send @p index: inject the loadgen id
 * (first-key-wins over any fixture id) and, when @p deadline_ms > 0,
 * a deadline. Exposed for tests.
 */
std::string loadgenRequestLine(const std::string &fixture,
                               std::uint64_t index, double deadline_ms);

/**
 * Nearest-rank percentile of @p sorted (ascending) samples: for n
 * samples and p in [0, 1], the value at rank ceil(p * n), clamped to
 * [1, n]; 0.0 when there are no samples. No interpolation — with one
 * sample every percentile IS that sample, and p99 of a full set is the
 * largest sample, never an index past the end. Exposed for tests.
 */
double percentileNearestRank(const std::vector<double> &sorted,
                             double p);

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_LOADGEN_HH
