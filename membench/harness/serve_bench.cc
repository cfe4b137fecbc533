#include "harness/serve_bench.hh"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/checks.hh"
#include "harness/host.hh"
#include "harness/requests.hh"
#include "harness/schedule.hh"
#include "harness/stats.hh"
#include "model/solver.hh"
#include "serve/evaluator.hh"
#include "serve/json.hh"
#include "serve/request.hh"
#include "util/socket.hh"
#include "util/trace.hh"

namespace membench
{

namespace
{

using namespace memsense;

/** Average offered load. At 10k/s the server shed requests whenever
 *  neighbouring tenants slowed the host about 2x; 5k/s keeps that
 *  headroom while each burst still queues. */
constexpr double kRatePerSec = 5'000.0;
/** Requests due together: one client's design-space sweep. A burst of
 *  128 takes 1-3 ms to serve, so its latency measures the server's work
 *  rather than one vCPU preemption, which at 32 requests per burst could
 *  double a burst's latency. */
constexpr std::size_t kBurst = kSweepPoints;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWarmupSweeps = 8; ///< set-up pass; the hot set
constexpr std::size_t kWarmupRequests = kWarmupSweeps * kBurst;
constexpr int kSetups = 15;              ///< set-ups timed per run
constexpr std::int64_t kSpinNs = 200'000; ///< busy-wait before a due time
constexpr std::int64_t kLeadNs = 20'000'000; ///< first burst after set-up
constexpr std::int64_t kReplyGraceNs = 10'000'000'000; ///< for stragglers
constexpr int kIoTimeoutMs = 30'000;

/** Lines [first, first + kBurst) of @p lines, newline-terminated. */
std::string
burstPayload(const std::vector<std::string> &lines, std::size_t first)
{
    std::string payload;
    for (std::size_t i = first; i < first + kBurst; ++i) {
        payload += lines[i];
        payload += '\n';
    }
    return payload;
}

// ------------------------------------------------------------ processes

std::string
serverBinary()
{
    return (std::filesystem::path(selfExe()).parent_path() / "memsense_serve")
        .string();
}

/** A running memsense_serve with default flags on a Unix socket. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &socket_path,
                  const std::string &stats_path)
    {
        child = spawnChild({serverBinary(), "--unix", socket_path,
                            "--stats-json", stats_path});
        if (readUntil(child.outFd, "listening on", kIoTimeoutMs).empty()) {
            stop();
            throw std::runtime_error("memsense_serve did not start");
        }
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    pid_t pid() const { return child.pid; }

    /** SIGTERM, wait for the drain and exit; returns the exit status. */
    int
    stop()
    {
        if (child.pid < 0)
            return status;
        kill(child.pid, SIGTERM);
        drainOutput(child.outFd, kIoTimeoutMs);
        close(child.outFd);
        status = waitChild(child.pid, kIoTimeoutMs);
        child.pid = -1;
        return status;
    }

  private:
    Child child;
    int status = -1;
};

/** One client connection and its unread input. */
struct Conn
{
    net::FdHandle fd;
    std::string in;
    bool eof = false;
};

/** Read @p want more lines from @p c into @p out; false on EOF/timeout. */
bool
readLines(Conn &c, std::size_t want, std::vector<std::string> &out,
          int timeout_ms)
{
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
    std::size_t got = 0;
    char buf[65536];
    for (;;) {
        std::size_t nl = 0;
        while (got < want && (nl = c.in.find('\n')) != std::string::npos) {
            out.push_back(c.in.substr(0, nl));
            c.in.erase(0, nl + 1);
            ++got;
        }
        if (got == want)
            return true;
        const std::int64_t left_ms = (deadline - nowNs()) / 1'000'000;
        if (left_ms <= 0)
            return false;
        pollfd p{c.fd.get(), POLLIN, 0};
        if (poll(&p, 1, static_cast<int>(left_ms)) <= 0)
            continue;
        const ssize_t n = read(c.fd.get(), buf, sizeof buf);
        if (n <= 0)
            return false;
        c.in.append(buf, static_cast<std::size_t>(n));
    }
}

/** A started server with its client connections. */
struct Live
{
    std::unique_ptr<ServerProcess> server;
    std::vector<Conn> conns;
    std::string socketPath;
    std::string statsPath;

    void
    close()
    {
        conns.clear();
        if (server)
            server->stop();
    }
};

/**
 * One set-up: spawn the server, connect, and run the closed-loop
 * warm-up pass (each burst waits for its replies before the next).
 */
Live
setUp(const std::vector<std::string> &warmup_bursts, int k)
{
    Live live;
    const std::string base = scratchDir() + "/" + std::to_string(getpid()) +
                             "-" + std::to_string(k);
    live.socketPath = base + ".sock";
    live.statsPath = base + ".stats.json";
    live.server =
        std::make_unique<ServerProcess>(live.socketPath, live.statsPath);
    for (std::size_t c = 0; c < kConnections; ++c)
        live.conns.push_back(Conn{net::connectUnix(live.socketPath), {}, false});
    for (std::size_t b = 0; b < warmup_bursts.size(); ++b) {
        Conn &c = live.conns[b % kConnections];
        const std::string &payload = warmup_bursts[b];
        std::vector<std::string> replies;
        if (!net::writeAll(c.fd.get(), payload.data(), payload.size()) ||
            !readLines(c, kBurst, replies, kIoTimeoutMs))
            throw std::runtime_error("warm-up burst got no replies");
        for (const std::string &r : replies)
            if (!replyOk(r))
                throw std::runtime_error("warm-up request failed: " + r);
    }
    return live;
}

/** The server's counter ledger from --stats-json. */
struct ServerCounts
{
    double accepted = 0, cacheHits = 0, shed = 0, batches = 0,
           batchedRequests = 0;
    bool consistent = false;
};

std::optional<ServerCounts>
readServerCounts(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    try {
        const serve::JsonValue v = serve::parseJson(text.str());
        auto num = [&v](const char *key) { return v.at(key).asNumber(key); };
        ServerCounts c;
        c.accepted = num("accepted");
        c.cacheHits = num("cache_hits");
        c.shed = num("shed") + num("quota_shed");
        c.batches = num("batches");
        c.batchedRequests = num("batched_requests");
        c.consistent = v.at("consistent").kind ==
                           serve::JsonValue::Kind::Bool &&
                       v.at("consistent").boolean;
        return c;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

// ------------------------------------------------------------ open loop

/** What the measured phase saw. */
struct Phase
{
    std::int64_t startNs = 0;             ///< due time of burst 0
    std::vector<std::int64_t> replyNs;    ///< per request; -1 = none
    std::vector<std::string> replies;     ///< per request
    std::vector<double> lateMs;           ///< per burst sent
    std::size_t stray = 0;  ///< replies with an unknown or repeated id
    double serverCpuS = 0.0;
    double serverPeakRssMb = 0.0;
    bool sendFailed = false;
};

/** Sleep, then spin the last stretch, until steady time @p due_ns. */
void
waitUntil(std::int64_t due_ns)
{
    const std::int64_t left = due_ns - nowNs();
    if (left > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    while (nowNs() < due_ns) {
    }
}

/** Receiver thread: match replies to requests by id, stamp arrival. */
void
receiveReplies(std::vector<Conn> &conns, Phase &ph, std::int64_t give_up_ns,
               const std::atomic<bool> &abort)
{
    const std::size_t n = ph.replyNs.size();
    std::size_t received = 0;
    char buf[65536];
    auto record = [&](std::string_view line, std::int64_t t) {
        const std::string_view id = replyId(line);
        std::size_t idx = 0;
        if (id.size() < 2 || id[0] != 'm' ||
            std::from_chars(id.data() + 1, id.data() + id.size(), idx).ec !=
                std::errc() ||
            idx >= n || ph.replyNs[idx] >= 0) {
            ++ph.stray;
            return;
        }
        ph.replyNs[idx] = t;
        ph.replies[idx] = std::string(line);
        ++received;
    };
    while (received < n && nowNs() < give_up_ns &&
           !abort.load(std::memory_order_relaxed)) {
        std::vector<pollfd> fds;
        std::vector<Conn *> owners;
        for (Conn &c : conns) {
            if (c.eof)
                continue;
            fds.push_back(pollfd{c.fd.get(), POLLIN, 0});
            owners.push_back(&c);
        }
        if (fds.empty())
            break;
        if (poll(fds.data(), fds.size(), 20) <= 0)
            continue;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = *owners[i];
            const ssize_t got = read(c.fd.get(), buf, sizeof buf);
            const std::int64_t t = nowNs();
            if (got <= 0) {
                c.eof = true;
                continue;
            }
            c.in.append(buf, static_cast<std::size_t>(got));
            std::size_t pos = 0;
            std::size_t nl = 0;
            while ((nl = c.in.find('\n', pos)) != std::string::npos) {
                record(std::string_view(c.in).substr(pos, nl - pos), t);
                pos = nl + 1;
            }
            c.in.erase(0, pos);
        }
    }
}

/** Send the schedule open loop on the live connections. */
Phase
openLoop(const std::vector<std::string> &lines, const BurstSchedule &sched,
         Live &live)
{
    Phase ph;
    const std::size_t bursts = sched.bursts();
    ph.replyNs.assign(sched.requests(), -1);
    ph.replies.resize(sched.requests());
    ph.lateMs.reserve(bursts);
    ph.startNs = nowNs() + kLeadNs;
    const std::int64_t give_up =
        ph.startNs + sched.burstDueNs(bursts - 1) + kReplyGraceNs;

    const pid_t server = live.server->pid();
    const double cpu0 = processCpuSeconds(server);
    std::atomic<bool> abort{false};
    std::thread receiver(
        [&] { receiveReplies(live.conns, ph, give_up, abort); });
    try {
        std::string payload = burstPayload(lines, 0);
        for (std::size_t k = 0; k < bursts; ++k) {
            const std::int64_t due = ph.startNs + sched.burstDueNs(k);
            waitUntil(due);
            ph.lateMs.push_back(lateMs(due, nowNs()));
            const Conn &c = live.conns[k % kConnections];
            if (!net::writeAll(c.fd.get(), payload.data(), payload.size())) {
                ph.sendFailed = true;
                break;
            }
            if (k + 1 < bursts)
                payload = burstPayload(lines, (k + 1) * kBurst);
        }
    } catch (const std::exception &) {
        ph.sendFailed = true;
    }
    if (ph.sendFailed)
        abort.store(true, std::memory_order_relaxed);
    receiver.join();
    ph.serverCpuS = processCpuSeconds(server) - cpu0;
    ph.serverPeakRssMb = peakRssMb(server);
    return ph;
}

// --------------------------------------------------------------- checks

/** What the reply check found. */
struct Verdict
{
    /** Requests whose ok reply equals the reference. */
    std::vector<bool> verified;
    std::size_t solved = 0;         ///< requests the reference solved
    std::size_t bandwidthBound = 0; ///< of those, bandwidth bound
};

/**
 * Compare every reply with serve::resultLine of model::Solver().solve
 * on the same parsed request; count missing, error and wrong replies.
 */
Verdict
checkReplies(const std::vector<std::string> &lines, const Phase &ph,
             Result &r)
{
    const model::Solver solver;
    Verdict v;
    v.verified.assign(ph.replyNs.size(), false);
    std::size_t missing = 0, errors = 0, wrong = 0;
    std::string first_error, first_wrong;
    for (std::size_t i = 0; i < ph.replyNs.size(); ++i) {
        if (ph.replyNs[i] < 0) {
            ++missing;
            continue;
        }
        const std::string &reply = ph.replies[i];
        if (!replyOk(reply)) {
            if (errors++ == 0)
                first_error = reply;
            continue;
        }
        std::string diff;
        try {
            const serve::EvalRequest req =
                serve::parseRequestLine(lines[i], i + 1);
            serve::EvalOutcome want;
            want.id = req.id;
            want.result.attempts = 1;
            want.result.value = solver.solve(req.workload, req.platform);
            ++v.solved;
            v.bandwidthBound += want.result.value->bandwidthBound ? 1u : 0u;
            diff = compareReply(reply, serve::resultLine(want));
        } catch (const std::exception &e) {
            diff = std::string("reference solve threw: ") + e.what();
        }
        v.verified[i] = diff.empty();
        if (!diff.empty() && wrong++ == 0)
            first_wrong = "request " + std::to_string(i) + ": " + diff;
    }
    if (missing > 0)
        r.fail(missing, std::to_string(missing) + " requests got no reply");
    if (errors > 0)
        r.fail(errors, std::to_string(errors) +
                           " error replies, first: " + first_error);
    if (wrong > 0)
        r.fail(wrong, std::to_string(wrong) +
                          " replies differ from the reference, first " +
                          first_wrong);
    if (ph.stray > 0)
        r.fail(ph.stray, std::to_string(ph.stray) +
                             " replies with an unknown or repeated id");
    return v;
}

// --------------------------------------------------------------- replay

/**
 * Replays the run's request lines on one thread through the serving
 * layers' public functions: parse, cache probe, evaluateBatch of the
 * misses at the server's observed batch size, and serialization. The
 * evaluator is warmed like the server was. A traced replay arms the
 * program's span statistics (util/trace.hh) while it runs; its spans
 * are the benchmark's serve.parse, serve.probe and serve.serialize and
 * the program's own serve.batch and solver.solve. Requests are
 * replayed in slices so that a traced and an untraced replay can
 * alternate and share the host's noise.
 */
class RequestReplay
{
  public:
    RequestReplay(const Traffic &traffic_in, const Phase &ph_in,
                  const std::vector<bool> &verified_in, std::size_t batch_in,
                  bool traced_in)
        : traffic(traffic_in), ph(ph_in), verified(verified_in),
          batch(batch_in), traced(traced_in)
    {
        std::vector<serve::EvalRequest> warm;
        for (std::size_t j = 0; j < traffic.warmup.size(); ++j)
            warm.push_back(serve::parseRequestLine(traffic.warmup[j], j + 1));
        ev.evaluateBatch(warm);
    }

    /**
     * Replay requests [first, last); when @p trace_path is not empty,
     * write their spans there.
     */
    void
    run(std::size_t first, std::size_t last, const std::string &trace_path)
    {
        if (!trace_path.empty())
            trace::startTracing(trace_path);
        trace::setStatsEnabled(traced);
        const std::int64_t t0 = nowNs();
        for (std::size_t i = first; i < last; ++i)
            replayOne(i);
        if (last == ph.replyNs.size())
            flush();
        wallS += static_cast<double>(nowNs() - t0) / 1e9;
        trace::setStatsEnabled(false);
        if (!trace_path.empty())
            trace::stopTracing();
    }

    double wall() const { return wallS; }
    std::size_t mismatches() const { return mismatched; }

  private:
    /** Requests whose reply already failed a check are not recounted. */
    void
    compare(std::size_t i, const std::string &line)
    {
        if (verified[i] && line != ph.replies[i])
            ++mismatched;
    }

    void
    replayOne(std::size_t i)
    {
        serve::EvalRequest req;
        {
            trace::Span span("serve.parse");
            req = serve::parseRequestLine(traffic.measured[i], i + 1);
        }
        std::optional<model::OperatingPoint> hit;
        {
            trace::Span span("serve.probe");
            hit = ev.probe(req.workload, req.platform);
        }
        if (!hit) {
            pending.push_back(std::move(req));
            pendingIdx.push_back(i);
            if (pending.size() >= batch)
                flush();
            return;
        }
        serve::EvalOutcome o;
        o.id = req.id;
        o.result.attempts = 1;
        o.result.value = *hit;
        o.cacheHit = true;
        std::string reply;
        {
            trace::Span span("serve.serialize");
            reply = serve::resultLine(o);
        }
        compare(i, reply);
    }

    void
    flush()
    {
        if (pending.empty())
            return;
        const std::vector<serve::EvalOutcome> outs = ev.evaluateBatch(pending);
        for (std::size_t j = 0; j < outs.size(); ++j) {
            std::string reply;
            {
                trace::Span span("serve.serialize");
                reply = serve::resultLine(outs[j]);
            }
            compare(pendingIdx[j], reply);
        }
        pending.clear();
        pendingIdx.clear();
    }

    const Traffic &traffic;
    const Phase &ph;
    const std::vector<bool> &verified;
    std::size_t batch;
    bool traced;
    serve::Evaluator ev;
    std::vector<serve::EvalRequest> pending;
    std::vector<std::size_t> pendingIdx;
    double wallS = 0.0;
    std::size_t mismatched = 0;
};

/** Per-layer metrics of a traced serve run. */
void
tracedLayers(const Traffic &traffic, const Phase &ph,
             const std::vector<bool> &verified, const ServerCounts &counts,
             const RunInfo &run, Result &r)
{
    const std::size_t n = ph.replyNs.size();
    const double nn = static_cast<double>(n);
    const std::size_t batch = static_cast<std::size_t>(std::max(
        1.0, std::round(ratio(counts.batchedRequests, counts.batches))));

    // Alternate slices of the untraced and the traced replay (each with
    // its own evaluator), so the overhead compares like with like. The
    // first traced slice also writes a trace file.
    RequestReplay plain(traffic, ph, verified, batch, false);
    RequestReplay traced(traffic, ph, verified, batch, true);
    const std::string trace_path = scratchDir() + "/trace-" + run.workload +
                                   "-" + std::to_string(run.seed) + ".json";
    constexpr std::size_t kSlice = 1024;
    for (std::size_t first = 0; first < n; first += kSlice) {
        const std::size_t last = std::min(n, first + kSlice);
        const std::string path = first == 0 ? trace_path : "";
        if ((first / kSlice) % 2 == 0) {
            plain.run(first, last, "");
            traced.run(first, last, path);
        } else {
            traced.run(first, last, path);
            plain.run(first, last, "");
        }
    }
    const std::size_t mismatches =
        std::max(plain.mismatches(), traced.mismatches());
    if (mismatches > 0)
        r.fail(mismatches, std::to_string(mismatches) +
                               " replayed replies differ from the server's");

    // Only the traced replay armed the statistics.
    const std::map<std::string, trace::SpanStat> spans = trace::spanStats();
    const std::map<std::string, std::uint64_t> counters =
        trace::counterTotals();
    auto span = [&spans](const char *site) {
        auto it = spans.find(site);
        return it == spans.end() ? trace::SpanStat{} : it->second;
    };
    auto counter = [&counters](const char *name) {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto us_per_request = [&](const char *site) {
        return static_cast<double>(span(site).totalNs) / 1e3 / nn;
    };
    const double cpu_us = ph.serverCpuS * 1e6 / nn;
    const double parse = us_per_request("serve.parse");
    const double probe = us_per_request("serve.probe");
    const double serialize = us_per_request("serve.serialize");
    const double batch_per_req = us_per_request("serve.batch");
    const trace::SpanStat solves = span("solver.solve");
    const double solve_us = ratio(static_cast<double>(solves.totalNs) / 1e3,
                                  static_cast<double>(solves.count));
    const trace::SpanStat batches = span("serve.batch");
    r.set("model.solve_us", solve_us, solves.count);
    r.set("model.solve_iters",
          ratio(counter("solver.iterations"), counter("solver.solves")),
          solves.count);
    r.set("serve.batch_us",
          ratio(static_cast<double>(batches.totalNs) / 1e3,
                static_cast<double>(batches.count)),
          batches.count);
    // The ledger spans the server's life, set-up pass included; when no
    // measured request reached the queue, the measured phase batched
    // nothing.
    const double queued = counts.accepted -
                          static_cast<double>(kWarmupRequests) -
                          counts.cacheHits - counts.shed;
    r.set("serve.server.batch_mean",
          queued > 0.0 ? ratio(counts.batchedRequests, counts.batches) : 0.0,
          static_cast<std::size_t>(counts.batches));
    r.set("serve.parse_us", parse, n);
    r.set("serve.serialize_us", serialize, n);
    r.set("serve.probe_us", probe, n);
    r.set("serve.server.hit_frac",
          ratio(counts.cacheHits,
                counts.accepted - static_cast<double>(kWarmupRequests)),
          n);
    r.set("serve.server.shed", counts.shed, n);
    r.set("serve.overhead_us",
          cpu_us - (parse + probe + batch_per_req + serialize), n);
    r.set("serve.solve_share", ratio(solve_us, cpu_us), solves.count);
    r.set("loadgen.late_ms", percentile(ph.lateMs, 0.9), ph.lateMs.size());
    r.set("trace.overhead_frac", traced.wall() / plain.wall() - 1.0, 1);
}

} // anonymous namespace

bool
isServeWorkload(const std::string &workload)
{
    return workload == "serve_cold" || workload == "serve_hot";
}

Result
runServeWorkload(const RunInfo &run)
{
    Result r;
    BurstSchedule sched;
    sched.ratePerSec = kRatePerSec;
    sched.burstSize = kBurst;
    sched.seconds = run.seconds;
    if (sched.bursts() == 0)
        throw std::runtime_error("--seconds too short for one burst");
    const Traffic traffic = makeTraffic(run.workload == "serve_hot", run.seed,
                                        kWarmupSweeps, sched.bursts());

    std::vector<std::string> warmup_bursts;
    for (std::size_t b = 0; b < kWarmupSweeps; ++b)
        warmup_bursts.push_back(burstPayload(traffic.warmup, b * kBurst));

    // Set up several times; keep the last server for the measured phase.
    std::vector<double> setup_s;
    Live live;
    std::error_code ignored;
    for (int k = 0; k < kSetups; ++k) {
        live.close();
        std::filesystem::remove(live.statsPath, ignored);
        const std::int64_t t0 = nowNs();
        live = setUp(warmup_bursts, k);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    const Phase ph = openLoop(traffic.measured, sched, live);
    live.close();
    std::optional<ServerCounts> counts = readServerCounts(live.statsPath);
    std::filesystem::remove(live.statsPath, ignored);
    std::filesystem::remove(live.socketPath, ignored);

    const std::size_t n = ph.replyNs.size();
    r.attempted = n;
    if (ph.sendFailed)
        r.notes.push_back("the server stopped accepting requests");
    if (!counts)
        r.fail(1, "no readable --stats-json ledger from the server");
    else if (!counts->consistent)
        r.fail(1, "the server's reply ledger is inconsistent");
    const Verdict verdict = checkReplies(traffic.measured, ph, r);
    r.checksRan = true;
    const double bw_bound_frac =
        ratio(static_cast<double>(verdict.bandwidthBound),
              static_cast<double>(verdict.solved));

    std::vector<double> latencies;
    latencies.reserve(n);
    std::size_t ok = 0;
    std::int64_t last = ph.startNs;
    for (std::size_t i = 0; i < n; ++i) {
        if (ph.replyNs[i] < 0)
            continue;
        ok += replyOk(ph.replies[i]) ? 1u : 0u;
        last = std::max(last, ph.replyNs[i]);
        latencies.push_back(latencyMs(
            ph.startNs + sched.requestDueNs(i), ph.replyNs[i]));
    }

    // Latency from due time: the percentile of each second of arrivals,
    // then the median over the seconds. It is a per-layer metric, not a
    // bounded one: on a host whose hypervisor steals CPU it follows the
    // steal more than the server.
    const auto window = static_cast<std::size_t>(kRatePerSec);
    const double p50 = windowedPercentile(latencies, window, 0.5);
    const double p90 = windowedPercentile(latencies, window, 0.9);
    if (run.trace) {
        r.set("loadgen.p50_ms", p50, latencies.size());
        r.set("loadgen.p90_ms", p90, latencies.size());
        r.set("model.bw_bound_frac", bw_bound_frac, verdict.solved);
        if (counts) {
            try {
                tracedLayers(traffic, ph, verdict.verified, *counts, run, r);
            } catch (const std::exception &e) {
                trace::setStatsEnabled(false);
                trace::stopTracing();
                r.fail(n, std::string("replay threw: ") + e.what());
            }
        }
        return r;
    }
    r.set("ops_per_s",
          static_cast<double>(ok) /
              (static_cast<double>(last - ph.startNs) / 1e9),
          ok);
    r.notes.push_back("latency from due time: p50 " + std::to_string(p50) +
                      " ms, p90 " + std::to_string(p90) + " ms (n=" +
                      std::to_string(latencies.size()) + ")");
    r.notes.push_back("bandwidth-bound share of the measured points: " +
                      std::to_string(bw_bound_frac) + " (n=" +
                      std::to_string(verdict.solved) + ")");
    r.set("cpu_us_per_op", ph.serverCpuS * 1e6 / static_cast<double>(n), n);
    r.set("setup_s", median(setup_s), setup_s.size());
    r.set("peak_rss_mb", ph.serverPeakRssMb, 1);
    return r;
}

} // namespace membench
