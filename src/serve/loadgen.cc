#include "serve/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "serve/json.hh"
#include "util/error.hh"
#include "util/string_util.hh"

namespace memsense::serve
{

namespace
{

double
steadyNowMs()
{
    using namespace std::chrono;
    // memsense-lint: allow(no-nondeterminism): the default wall clock
    // of a latency-measuring tool; tests inject LoadgenOptions::nowMs
    const auto since_epoch = steady_clock::now().time_since_epoch();
    return duration<double, std::milli>(since_epoch).count();
}

void
realSleepMs(double delay_ms)
{
    if (delay_ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
}

/** Reply classification buckets (exactly one per sent request). */
enum class ReplyClass
{
    Ok,
    Degraded,
    Overloaded,
    QuotaExceeded,
    DeadlineExceeded,
    OtherError,
};

ReplyClass
classifyReply(const std::string &line)
{
    try {
        JsonValue v = parseJson(line);
        if (v.has("ok") && v.at("ok").kind == JsonValue::Kind::Bool &&
            v.at("ok").boolean) {
            const bool degraded =
                v.has("degraded") &&
                v.at("degraded").kind == JsonValue::Kind::Bool &&
                v.at("degraded").boolean;
            return degraded ? ReplyClass::Degraded : ReplyClass::Ok;
        }
        if (v.has("error") && v.at("error").has("type")) {
            const std::string &type =
                v.at("error").at("type").asString("error.type");
            if (type == "overloaded")
                return ReplyClass::Overloaded;
            if (type == "quota_exceeded")
                return ReplyClass::QuotaExceeded;
            if (type == "deadline_exceeded")
                return ReplyClass::DeadlineExceeded;
        }
    } catch (const ConfigError &) {
        // An unparseable reply still counts: the request got *a*
        // response, just not one we recognize.
    }
    return ReplyClass::OtherError;
}

/** Shared mutable state of one run. */
struct RunState
{
    /** Shared work-stealing cursor. Under a hot-client skew it starts
     *  at hotCount (the cold range); otherwise at 0 (the whole run). */
    std::atomic<std::uint64_t> nextIndex{0};
    /** Connection 0's private cursor over [0, hotCount) under skew. */
    std::atomic<std::uint64_t> hotNext{0};
    std::mutex mu;
    LoadReport report;
    std::vector<double> latenciesMs;
    double startMs = 0.0;
};

} // anonymous namespace

void
LoadgenOptions::validate() const
{
    requireConfig(connections >= 1, "loadgen connections must be >= 1");
    requireConfig(!fixtures.empty(),
                  "loadgen needs at least one fixture line");
    // Checked up front so a bad fixture is a clean ConfigError here,
    // not a throw inside a connection thread (= std::terminate).
    for (const std::string &f : fixtures)
        requireConfig(f.find('{') != std::string::npos,
                      "fixture line is not a JSON object: " + f);
    requireConfig(deadlineMs >= 0.0, "loadgen deadline_ms must be >= 0");
    requireConfig(targetRatePerSec >= 0.0,
                  "loadgen rate must be >= 0");
    requireConfig(hotClientFraction >= 0.0 && hotClientFraction <= 1.0,
                  "loadgen hot-client fraction must be in [0, 1]");
    requireConfig(recvTimeoutMs >= 1,
                  "loadgen recv timeout must be >= 1 ms");
    reconnect.validate();
}

std::string
LoadReport::describe() const
{
    return strformat(
        "%llu sent: %llu ok, %llu degraded, %llu overloaded, %llu "
        "quota, %llu deadline, %llu other-err, %llu transport-err; "
        "%llu reconnects; p50 %.3f ms, p99 %.3f ms (%llu samples), "
        "shed rate %.3f",
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(degraded),
        static_cast<unsigned long long>(overloaded),
        static_cast<unsigned long long>(quotaExceeded),
        static_cast<unsigned long long>(deadlineExceeded),
        static_cast<unsigned long long>(otherErrors),
        static_cast<unsigned long long>(transportErrors),
        static_cast<unsigned long long>(reconnects), p50Ms, p99Ms,
        static_cast<unsigned long long>(latencySamples), shedRate());
}

std::string
LoadReport::toJson() const
{
    auto field = [](const char *name, std::uint64_t v) {
        return "\"" + std::string(name) +
               "\":" + std::to_string(static_cast<unsigned long long>(v));
    };
    return "{" + field("sent", sent) + "," + field("ok", ok) + "," +
           field("degraded", degraded) + "," +
           field("overloaded", overloaded) + "," +
           field("quota_exceeded", quotaExceeded) + "," +
           field("deadline_exceeded", deadlineExceeded) + "," +
           field("other_errors", otherErrors) + "," +
           field("transport_errors", transportErrors) + "," +
           field("reconnects", reconnects) + "," +
           field("dial_failures", dialFailures) + "," +
           field("hot_client_sent", hotClientSent) + "," +
           field("latency_samples", latencySamples) + ",\"p50_ms\":" +
           jsonNumber(p50Ms) + ",\"p99_ms\":" + jsonNumber(p99Ms) +
           ",\"shed_rate\":" + jsonNumber(shedRate()) + "}";
}

std::string
loadgenRequestLine(const std::string &fixture, std::uint64_t index,
                   double deadline_ms)
{
    const std::size_t open = fixture.find('{');
    requireConfig(open != std::string::npos,
                  "fixture line is not a JSON object: " + fixture);
    // First-key-wins in the request parser, so injecting at the front
    // overrides any id/deadline the fixture itself carries.
    std::string injected = "{\"id\":\"lg-" + std::to_string(index) + "\"";
    if (deadline_ms > 0.0)
        injected += ",\"deadline_ms\":" + jsonNumber(deadline_ms);
    const std::string rest = fixture.substr(open + 1);
    // An empty object needs no separating comma.
    const std::size_t body = rest.find_first_not_of(" \t");
    if (body != std::string::npos && rest[body] != '}')
        injected += ",";
    return injected + rest;
}

LoadReport
runLoadgen(const Dialer &dial, const LoadgenOptions &opts)
{
    opts.validate();
    requireConfig(static_cast<bool>(dial), "loadgen needs a dialer");
    const auto now =
        opts.nowMs ? opts.nowMs : std::function<double()>(steadyNowMs);
    const auto sleep = opts.sleepMs
                           ? opts.sleepMs
                           : std::function<void(double)>(realSleepMs);

    RunState state;
    state.startMs = now();
    state.latenciesMs.reserve(opts.totalRequests);
    // Hot-client skew: connection 0 owns the first hotCount indices;
    // the shared cursor starts past them (see RunState).
    const std::uint64_t hotCount = static_cast<std::uint64_t>(
        opts.hotClientFraction *
        static_cast<double>(opts.totalRequests));
    state.nextIndex.store(hotCount);

    auto connectionLoop = [&](int conn_id) {
        const bool is_hot = hotCount > 0 && conn_id == 0;
        std::unique_ptr<LineStream> stream;
        // Dial (and re-dial) under the bounded backoff policy; stream
        // = per-connection id keeps the jitter schedules decorrelated.
        // The attempt budget is per redial sequence (it resets after a
        // successful dial), so one flaky stretch cannot starve the
        // rest of an otherwise healthy run.
        auto redial = [&]() -> bool {
            int dial_attempts = 0;
            while (dial_attempts < opts.reconnect.maxAttempts) {
                ++dial_attempts;
                try {
                    stream = dial();
                    if (stream)
                        return true;
                } catch (const std::exception &) {
                    // fall through to backoff
                }
                {
                    std::lock_guard<std::mutex> lock(state.mu);
                    ++state.report.dialFailures;
                }
                if (dial_attempts < opts.reconnect.maxAttempts)
                    sleep(opts.reconnect.delayMs(
                        dial_attempts + 1,
                        static_cast<std::uint64_t>(conn_id)));
            }
            return false;
        };
        if (!redial())
            return;

        std::string reply;
        for (;;) {
            const std::uint64_t index = is_hot
                                            ? state.hotNext.fetch_add(1)
                                            : state.nextIndex.fetch_add(1);
            if (is_hot ? index >= hotCount : index >= opts.totalRequests)
                return;
            // Open-loop pacing: send k at startMs + k/rate, globally.
            if (opts.targetRatePerSec > 0.0) {
                const double due_ms =
                    state.startMs + 1000.0 *
                                        static_cast<double>(index) /
                                        opts.targetRatePerSec;
                const double wait_ms = due_ms - now();
                if (wait_ms > 0.0)
                    sleep(wait_ms);
            }
            // memsense-lint: allow(no-hot-loop-alloc): one line built
            // per network request; the socket round-trip dominates
            std::string line = loadgenRequestLine(
                opts.fixtures[index % opts.fixtures.size()], index,
                opts.deadlineMs);
            line += '\n';

            bool replied = false;
            ReplyClass cls = ReplyClass::OtherError;
            double latency_ms = 0.0;
            const double sent_at = now();
            if (stream->write(line)) {
                const LineStream::Read r =
                    stream->readLine(reply, opts.recvTimeoutMs);
                if (r == LineStream::Read::Line) {
                    replied = true;
                    latency_ms = now() - sent_at;
                    cls = classifyReply(reply);
                }
            }
            {
                std::lock_guard<std::mutex> lock(state.mu);
                ++state.report.sent;
                if (is_hot)
                    ++state.report.hotClientSent;
                if (replied) {
                    // memsense-lint: allow(no-hot-loop-alloc):
                    // reserved to totalRequests before the run
                    state.latenciesMs.push_back(latency_ms);
                    switch (cls) {
                      case ReplyClass::Ok:
                        ++state.report.ok;
                        break;
                      case ReplyClass::Degraded:
                        ++state.report.degraded;
                        break;
                      case ReplyClass::Overloaded:
                        ++state.report.overloaded;
                        break;
                      case ReplyClass::QuotaExceeded:
                        ++state.report.quotaExceeded;
                        break;
                      case ReplyClass::DeadlineExceeded:
                        ++state.report.deadlineExceeded;
                        break;
                      case ReplyClass::OtherError:
                        ++state.report.otherErrors;
                        break;
                    }
                } else {
                    ++state.report.transportErrors;
                }
            }
            if (!replied) {
                // The connection is suspect after a drop or timeout:
                // tear it down and redial under the backoff budget.
                stream->shutdownStream();
                stream.reset();
                if (!redial())
                    return;
                std::lock_guard<std::mutex> lock(state.mu);
                ++state.report.reconnects;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(opts.connections));
    for (int c = 0; c < opts.connections; ++c)
        // memsense-lint: allow(no-hot-loop-alloc): reserved to
        // opts.connections just above
        threads.emplace_back(connectionLoop, c);
    for (auto &t : threads)
        t.join();

    LoadReport report = state.report;
    // Nearest-rank percentiles over the replied requests only. An
    // all-shed/all-timeout run has no samples: the report then says so
    // (latency_samples == 0) instead of presenting 0.0 ms as measured.
    std::sort(state.latenciesMs.begin(), state.latenciesMs.end());
    report.latencySamples = state.latenciesMs.size();
    report.p50Ms = percentileNearestRank(state.latenciesMs, 0.50);
    report.p99Ms = percentileNearestRank(state.latenciesMs, 0.99);
    return report;
}

double
percentileNearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    // Nearest rank, 1-based: ceil(p * n), clamped so p = 0 still maps
    // to the first sample and rounding noise can never index past the
    // end (the old p * (size-1) truncation underweighted the tail and
    // read garbage ranks for tiny sample counts).
    double rank = std::ceil(p * n);
    if (rank < 1.0)
        rank = 1.0;
    if (rank > n)
        rank = n;
    // memsense-lint: allow(unclamped-double-to-int): clamped to [1, n]
    // just above
    return sorted[static_cast<std::size_t>(rank) - 1];
}

} // namespace memsense::serve
