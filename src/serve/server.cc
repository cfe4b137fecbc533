#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "serve/json.hh"
#include "serve/request.hh"
#include "util/contract.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/retry.hh"
#include "util/string_util.hh"
#include "util/trace.hh"

namespace memsense::serve
{

namespace
{

double
steadyNowMs()
{
    using namespace std::chrono;
    // memsense-lint: allow(no-nondeterminism): the default deadline
    // clock of a live server; tests inject ServerOptions::nowMs
    const auto since_epoch = steady_clock::now().time_since_epoch();
    return duration<double, std::milli>(since_epoch).count();
}

/**
 * One coarse-key field: `%.3g`, canonicalized. `%.3g` alone is not
 * portable at the edges — glibc renders -0.0 as "-0" where other libcs
 * render "0", denormal spellings differ, and NaN may print with a sign
 * or payload — which made which stale slot a request maps to depend on
 * the libc. Collapse all of those edge cases explicitly.
 */
std::string
coarseNumber(double v)
{
    if (std::isnan(v))
        return "nan";
    // Covers +0.0, -0.0 (== compares equal) and denormals: at 3
    // significant digits they are all indistinguishable from zero.
    // memsense-lint: allow(float-equal): exact-zero class sentinel
    if (v == 0.0 || std::fpclassify(v) == FP_SUBNORMAL)
        return "0";
    return strformat("%.3g", v);
}

/** Client records exported via stats(); see the header field comment. */
constexpr std::size_t kMaxClientRecords = 4096;

} // anonymous namespace

/**
 * Coarse request key for the stale-answer cache: every numeric knob
 * quantized to 3 significant digits, so "the same experiment re-run
 * with jittered inputs" maps to one slot. Deliberately much coarser
 * than the exact request key — a degraded answer is allowed
 * to be approximately right, and every reply served from this cache is
 * flagged `"degraded":true` so clients can tell.
 */
std::string
coarseRequestKey(const EvalRequest &req)
{
    const model::WorkloadParams &w = req.workload;
    const model::Platform &p = req.platform;
    return strformat("%s|%s|%s|%s|%s|%s|%d|%d|%s|%d|%s|%s|%s",
                     coarseNumber(w.cpiCache).c_str(),
                     coarseNumber(w.bf).c_str(),
                     coarseNumber(w.mpki).c_str(),
                     coarseNumber(w.wbr).c_str(),
                     coarseNumber(w.iopi).c_str(),
                     coarseNumber(w.ioBytes).c_str(), p.cores, p.smt,
                     coarseNumber(p.ghz).c_str(), p.memory.channels,
                     coarseNumber(p.memory.megaTransfers).c_str(),
                     coarseNumber(p.memory.efficiency).c_str(),
                     coarseNumber(p.memory.compulsoryNs).c_str());
}

void
ServerOptions::validate() const
{
    requireConfig(workers >= 1, "server workers must be >= 1");
    requireConfig(maxConnections >= 1,
                  "server maxConnections must be >= 1");
    requireConfig(maxQueueDepth >= 1,
                  "server maxQueueDepth must be >= 1");
    requireConfig(maxInflightBytes >= 1,
                  "server maxInflightBytes must be >= 1");
    requireConfig(maxLineBytes >= 2, "server maxLineBytes must be >= 2");
    requireConfig(maxBatch >= 1, "server maxBatch must be >= 1");
    requireConfig(batchLingerMs >= 0.0,
                  "server batchLingerMs must be >= 0");
    requireConfig(defaultDeadlineMs >= 0.0,
                  "server defaultDeadlineMs must be >= 0");
    requireConfig(drainDeadlineMs >= 0.0,
                  "server drainDeadlineMs must be >= 0");
    requireConfig(pollMs >= 1, "server pollMs must be >= 1");
}

std::string
ServerStats::describe() const
{
    return strformat(
        "%llu conns (%llu shed): %llu accepted = %llu ok + %llu err + "
        "%llu write-fail%s; %llu hits, %llu stale, %llu shed, %llu "
        "quota-shed, %llu deadline, %llu solved, %llu drained, %llu "
        "batches (%llu reqs, %llu deduped), %llu parse errors",
        static_cast<unsigned long long>(connections),
        static_cast<unsigned long long>(connectionsShed),
        static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(repliesOk),
        static_cast<unsigned long long>(repliesError),
        static_cast<unsigned long long>(writeErrors),
        consistent() ? "" : " [LEDGER INCONSISTENT]",
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(staleServed),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(quotaShed),
        static_cast<unsigned long long>(deadlineExceeded),
        static_cast<unsigned long long>(solved),
        static_cast<unsigned long long>(drained),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(batchedRequests),
        static_cast<unsigned long long>(batchDeduped),
        static_cast<unsigned long long>(parseErrors));
}

std::string
ClientStats::toJson() const
{
    auto field = [](const char *name, std::uint64_t v) {
        return "\"" + std::string(name) +
               "\":" + std::to_string(v);
    };
    return "{" + field("accepted", accepted) + "," +
           field("cache_hits", cacheHits) + "," +
           field("solved", solved) + "," + field("shed", shed) + "," +
           field("quota_shed", quotaShed) + "," +
           field("replies_ok", repliesOk) + "," +
           field("replies_error", repliesError) + "," +
           field("write_errors", writeErrors) + "}";
}

std::string
ServerStats::toJson() const
{
    auto field = [](const char *name, std::uint64_t v) {
        return "\"" + std::string(name) +
               "\":" + std::to_string(v);
    };
    std::string clients_json = "{";
    for (std::size_t i = 0; i < clients.size(); ++i) {
        if (i > 0)
            clients_json += ",";
        clients_json +=
            "\"" + jsonEscape(clients[i].id) + "\":" + clients[i].toJson();
    }
    clients_json += "}";
    return "{" + field("connections", connections) + "," +
           field("connections_shed", connectionsShed) + "," +
           field("accepted", accepted) + "," +
           field("parse_errors", parseErrors) + "," +
           field("cache_hits", cacheHits) + "," +
           field("stale_served", staleServed) + "," +
           field("shed", shed) + "," + field("quota_shed", quotaShed) +
           "," + field("deadline_exceeded", deadlineExceeded) + "," +
           field("solved", solved) + "," + field("drained", drained) +
           "," + field("batches", batches) + "," +
           field("batched_requests", batchedRequests) + "," +
           field("batch_deduped", batchDeduped) + "," +
           field("replies_ok", repliesOk) + "," +
           field("replies_error", repliesError) + "," +
           field("write_errors", writeErrors) + ",\"consistent\":" +
           (consistent() ? "true" : "false") +
           ",\"clients\":" + clients_json + "}";
}

Server::Server(ServerOptions opts)
    : options(std::move(opts)), eval(model::Solver(), options.eval)
{
    options.validate();
    if (!options.nowMs)
        options.nowMs = steadyNowMs;
}

Server::~Server()
{
    stop();
}

double
Server::now() const
{
    return options.nowMs();
}

void
Server::addTransport(std::unique_ptr<Transport> transport)
{
    requireConfig(!started.load(), "addTransport must precede start()");
    transports.push_back(std::move(transport));
}

void
Server::start()
{
    requireConfig(!transports.empty(),
                  "server needs at least one transport");
    requireConfig(!started.exchange(true), "server already started");
    workerThreads.reserve(static_cast<std::size_t>(options.workers));
    for (int i = 0; i < options.workers; ++i)
        // memsense-lint: allow(no-hot-loop-alloc): one-time startup,
        // reserved to options.workers just above
        workerThreads.emplace_back([this] { workerLoop(); });
    acceptThreads.reserve(transports.size());
    for (auto &t : transports)
        // memsense-lint: allow(no-hot-loop-alloc): one-time startup,
        // reserved to transports.size() just above
        acceptThreads.emplace_back([this, tp = t.get()] {
            acceptLoop(tp);
        });
}

void
Server::requestStop()
{
    if (stopFlag.exchange(true))
        return;
    for (auto &t : transports)
        t->shutdownTransport();
    queueCv.notify_all();
}

void
Server::stop()
{
    if (!started.load() || stopped.exchange(true))
        return;
    requestStop();
    for (auto &t : acceptThreads)
        if (t.joinable())
            t.join();
    // Readers poll stopFlag between lines (pollMs granularity), so
    // each exits within one poll tick; joining here is bounded.
    for (;;) {
        std::thread reader;
        {
            std::lock_guard<std::mutex> lock(readerMu);
            if (readerThreads.empty())
                break;
            reader = std::move(readerThreads.back());
            readerThreads.pop_back();
        }
        if (reader.joinable())
            reader.join();
    }
    // Drain: give queued work drainDeadlineMs of real time to flow to
    // the workers, then cut them off and flush what remains.
    {
        std::unique_lock<std::mutex> lock(queueMu);
        queueIdleCv.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(
                options.drainDeadlineMs),
            [this] { return queue.empty(); });
        hardStop = true;
    }
    queueCv.notify_all();
    for (auto &t : workerThreads)
        if (t.joinable())
            t.join();
    flushQueueAsDrained();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu);
    ServerStats snap = counters;
    snap.clients.reserve(clientStates.size());
    for (const auto &client : clientStates)
        // memsense-lint: allow(no-hot-loop-alloc): reserved to
        // clientStates.size() just above; stats() is a cold snapshot
        snap.clients.push_back(client->counters);
    return snap;
}

std::size_t
Server::inflightBytesNow() const
{
    std::lock_guard<std::mutex> lock(queueMu);
    return inflightBytes;
}

void
Server::acceptLoop(Transport *transport)
{
    while (!stopFlag.load(std::memory_order_acquire)) {
        std::unique_ptr<LineStream> stream;
        const Transport::Accept a =
            transport->accept(stream, options.pollMs);
        if (a == Transport::Accept::Closed)
            return;
        if (a == Transport::Accept::Idle)
            continue;
        std::shared_ptr<LineStream> shared(std::move(stream));
        if (activeConnections.load(std::memory_order_acquire) >=
            options.maxConnections) {
            // Connection-level shedding: refuse with one typed error
            // line, before any request is accepted into the ledger.
            {
                std::lock_guard<std::mutex> lock(statsMu);
                ++counters.connectionsShed;
            }
            // memsense-lint: allow(no-hot-loop-alloc): once per refused
            // connection, not per request
            std::string refusal = errorReplyLine(
                "", "overloaded", "connection limit reached", false);
            refusal += '\n';
            shared->write(refusal);
            shared->shutdownStream();
            continue;
        }
        // ClientId: peer label + connection serial. The serial keeps
        // ids unique across fd/port reuse, so per-client quotas and
        // counter slices never blend two distinct connections.
        auto client = std::make_shared<ClientState>();
        const std::uint64_t serial = clientSerial.fetch_add(1) + 1;
        // memsense-lint: allow(no-hot-loop-alloc): once per connection
        client->id = shared->peer() + "#" + std::to_string(serial);
        client->counters.id = client->id;
        {
            std::lock_guard<std::mutex> lock(statsMu);
            ++counters.connections;
            if (clientStates.size() >= kMaxClientRecords)
                clientStates.erase(clientStates.begin());
            // memsense-lint: allow(no-hot-loop-alloc): one record per
            // accepted connection — connection churn, not the
            // per-request hot path; bounded by kMaxClientRecords
            clientStates.push_back(client);
        }
        MS_METRIC_COUNT("serve.client.connected");
        activeConnections.fetch_add(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(readerMu);
        // memsense-lint: allow(no-hot-loop-alloc): one thread per
        // accepted connection — connection churn, not the per-request
        // hot path
        readerThreads.emplace_back(
            [this, shared, client] { readLoop(shared, client); });
    }
}

void
Server::readLoop(std::shared_ptr<LineStream> stream,
                 std::shared_ptr<ClientState> client)
{
    // One pass is the run of lines readable without waiting, capped at
    // maxBatch. It ends (misses admitted, replies flushed) before the
    // reader could block for more input, so a client sending one line
    // at a time still gets each reply at once.
    ReaderPass pass;
    pass.cold.reserve(options.maxBatch);
    pass.verdicts.reserve(options.maxBatch);
    std::string line;
    std::size_t line_number = 0;
    while (!stopFlag.load(std::memory_order_acquire)) {
        if (pass.lines > 0 &&
            (pass.lines >= options.maxBatch || !stream->lineReady()))
            endPass(pass, *client);
        const LineStream::Read r =
            stream->readLine(line, options.pollMs);
        if (r == LineStream::Read::Idle)
            continue;
        if (r == LineStream::Read::Eof ||
            r == LineStream::Read::Error)
            break;
        ++line_number;
        if (r == LineStream::Read::TooLong) {
            // The oversized line was counted and dropped by the
            // stream; reply once, then drop the connection — the
            // framing past an unread tail is unrecoverable.
            ++pass.lines;
            // Oversized-line error path: fires at most once per
            // connection, so the string building below is cold.
            // memsense-lint: allow(no-hot-loop-alloc): cold error path
            std::string cap_id = "line-" + std::to_string(line_number);
            // memsense-lint: allow(no-hot-loop-alloc): cold error path
            std::string cap_msg = "request line exceeds ";
            // memsense-lint: allow(no-hot-loop-alloc): cold error path
            cap_msg += std::to_string(options.maxLineBytes);
            cap_msg += " bytes";
            reply(pass.replies, *stream, *client,
                  ReplyKind::ParseError,
                  errorReplyLine(cap_id, "ConfigError", cap_msg, true));
            break;
        }
        bool blank = true;
        for (char c : line)
            if (c != ' ' && c != '\t' && c != '\r')
                blank = false;
        if (blank)
            continue;
        ++pass.lines;
        handleLine(pass, stream, client, line, line_number);
    }
    endPass(pass, *client);
    // Deliberately no shutdownStream() here: queued jobs from this
    // connection still own the stream via shared_ptr and will write
    // their replies (half-closed clients read them); the descriptor
    // closes when the last reference drops.
    activeConnections.fetch_sub(1, std::memory_order_acq_rel);
}

void
Server::handleLine(ReaderPass &pass,
                   const std::shared_ptr<LineStream> &stream,
                   const std::shared_ptr<ClientState> &client,
                   const std::string &line, std::size_t line_number)
{
    // This line is already counted in pass.lines: endPass accepts it
    // into the ledger, and it is owed exactly one reply on every path
    // below.
    EvalRequest req;
    try {
        MS_FAULT_POINT("server.parse");
        req = parseRequestLine(line, line_number);
    } catch (const std::exception &) {
        const std::exception_ptr ep = std::current_exception();
        const ExceptionInfo info = describeException(ep);
        reply(pass.replies, *stream, *client, ReplyKind::ParseError,
              errorReplyLine("line-" + std::to_string(line_number),
                             info.type, info.message,
                             classifyException(ep) == ErrorClass::Fatal));
        return;
    }

    // Fast path: a verified cache hit is answered inline on the reader
    // thread and consumes no queue slot — under overload the hot set
    // keeps flowing while cold solves are shed at admission.
    Job job;
    job.key = model::requestKey(req.workload, req.platform);
    try {
        if (auto hit = eval.probe(job.key)) {
            EvalOutcome outcome;
            outcome.id = std::move(req.id);
            outcome.result.attempts = 1;
            outcome.result.value.emplace(*hit);
            outcome.cacheHit = true;
            reply(pass.replies, *stream, *client, ReplyKind::Hit,
                  outcome);
            return;
        }
    } catch (const std::exception &) {
        const ExceptionInfo info =
            describeException(std::current_exception());
        reply(pass.replies, *stream, *client, ReplyKind::Failed,
              errorReplyLine(req.id, "internal",
                             info.type + ": " + info.message, false));
        return;
    }

    job.stream = stream;
    job.client = client;
    job.bytes = line.size();
    const double budget_ms =
        req.deadlineMs > 0.0 ? req.deadlineMs : options.defaultDeadlineMs;
    if (budget_ms > 0.0)
        job.deadlineAtMs = now() + budget_ms;
    job.request = std::move(req);
    // memsense-lint: allow(no-hot-loop-alloc): reserved to maxBatch,
    // the most lines one pass reads
    pass.cold.push_back(std::move(job));
}

void
Server::endPass(ReaderPass &pass, ClientState &client)
{
    // The ledger first: the pass's lines are accepted before any of
    // its jobs is queued (and could be answered by a worker) and before
    // any of its replies is written, so a live stats() snapshot never
    // shows more replies than accepted requests.
    if (pass.lines > 0) {
        {
            std::lock_guard<std::mutex> lock(statsMu);
            counters.accepted += pass.lines;
            client.counters.accepted += pass.lines;
        }
        MS_METRIC_COUNT_N("serve.server.accepted", pass.lines);
        pass.lines = 0;
    }
    admit(pass, client);
    flush(pass.replies);
}

void
Server::admit(ReaderPass &pass, ClientState &client)
{
    std::vector<Job> &jobs = pass.cold;
    if (jobs.empty())
        return;
    pass.verdicts.assign(jobs.size(), Verdict{});
    bool any_queued = false;
    {
        // Admission control, two tiers per request, in line order: the
        // client's own quota first — a noisy neighbor is shed with
        // `quota_exceeded` before it can trip global admission for
        // everyone — then the global queue-depth and inflight-bytes
        // bounds.
        std::lock_guard<std::mutex> lock(queueMu);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            Job &job = jobs[i];
            Verdict &v = pass.verdicts[i];
            const bool over_quota =
                (options.maxQueuePerClient > 0 &&
                 client.queuedJobs >= options.maxQueuePerClient) ||
                (options.maxInflightBytesPerClient > 0 &&
                 client.queuedBytes + job.bytes >
                     options.maxInflightBytesPerClient);
            if (!hardStop && over_quota) {
                v.quota = true;
                v.depth = client.queuedJobs;
                v.bytes = client.queuedBytes;
                continue;
            }
            v.depth = queue.size();
            v.bytes = inflightBytes;
            if (hardStop || queue.size() >= options.maxQueueDepth ||
                inflightBytes + job.bytes > options.maxInflightBytes)
                continue;
            try {
                MS_FAULT_POINT("server.enqueue");
                const std::size_t job_bytes = job.bytes;
                // memsense-lint: allow(no-hot-loop-alloc): the bounded
                // admission queue is the load-shedding mechanism; its
                // depth cap (maxQueueDepth) bounds this allocation
                queue.push_back(std::move(job));
                // Accounting strictly after the push (which gives the
                // strong guarantee): a throw leaves all three ledgers
                // untouched, so drain's inflightBytes==0 MS_ENSURE
                // stays provable.
                inflightBytes += job_bytes;
                client.queuedJobs += 1;
                client.queuedBytes += job_bytes;
                v.depth = queue.size();
                v.queued = true;
                any_queued = true;
            } catch (const std::exception &) {
                // Injected enqueue fault: fall through to the shed
                // path so the request still gets exactly one reply.
            }
        }
    }
    if (any_queued)
        queueCv.notify_one();
    MS_METRIC_OBSERVE("serve.server.admit_group",
                      static_cast<double>(jobs.size()));

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Verdict &v = pass.verdicts[i];
        const Job &job = jobs[i];
        if (v.queued) {
            MS_METRIC_OBSERVE("serve.server.queue_depth",
                              static_cast<double>(v.depth));
            continue;
        }
        const EvalRequest &request = job.request;
        if (v.quota) {
            // A quota shed is the client's own backlog, not server
            // pressure: reply with the distinct type (so well-behaved
            // clients can tell "slow down" from "server full") and
            // never serve it stale — degradation is reserved for
            // capacity sheds.
            MS_METRIC_COUNT("serve.client.quota_shed");
            reply(pass.replies, *job.stream, client, ReplyKind::QuotaShed,
                  errorReplyLine(
                      request.id, "quota_exceeded",
                      strformat("client %s over quota: %zu requests / "
                                "%zu bytes already queued",
                                client.id.c_str(), v.depth, v.bytes),
                      false));
            continue;
        }
        // Shed path: degraded stale answer when both sides allow it,
        // otherwise a typed, explicitly-retryable overload error.
        MS_METRIC_COUNT("serve.server.shed");
        if (options.allowStale && request.allowStale) {
            if (auto stale = staleLookup(request)) {
                EvalOutcome outcome;
                outcome.id = request.id;
                outcome.result.attempts = 1;
                outcome.result.value.emplace(*stale);
                outcome.degraded = true;
                reply(pass.replies, *job.stream, client, ReplyKind::Stale,
                      outcome);
                continue;
            }
        }
        reply(pass.replies, *job.stream, client, ReplyKind::Shed,
              errorReplyLine(request.id, "overloaded",
                             strformat("queue full: %zu queued, %zu "
                                       "bytes in flight",
                                       v.depth, v.bytes),
                             false));
    }
    jobs.clear();
}

void
Server::workerLoop()
{
    // One reusable batch buffer and reply batch per worker: cleared,
    // never shrunk, so steady state allocates nothing per pass.
    std::vector<Job> batch;
    batch.reserve(options.maxBatch);
    ReplyBatch replies;
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(queueMu);
            queueCv.wait(lock, [this] {
                return hardStop || !queue.empty() ||
                       stopFlag.load(std::memory_order_acquire);
            });
            if (hardStop)
                return;
            if (queue.empty()) {
                if (stopFlag.load(std::memory_order_acquire))
                    return; // drained: nothing left to do
                continue;
            }
            // Cooperative linger: give a partial batch a bounded
            // window (on the injectable clock) to fill before
            // dispatching — more dedup per pass at a capped latency
            // cost. A frozen test clock lingers until the batch fills,
            // stop begins, or another worker drains the queue.
            if (options.batchLingerMs > 0.0 &&
                queue.size() < options.maxBatch) {
                const double linger_until = now() + options.batchLingerMs;
                while (!hardStop &&
                       !stopFlag.load(std::memory_order_acquire) &&
                       !queue.empty() &&
                       queue.size() < options.maxBatch &&
                       now() < linger_until)
                    queueCv.wait_for(
                        lock, std::chrono::milliseconds(options.pollMs));
                if (hardStop)
                    return;
                if (queue.empty())
                    continue;
            }
            while (!queue.empty() && batch.size() < options.maxBatch) {
                Job &job = queue.front();
                inflightBytes -= job.bytes;
                if (job.client) {
                    job.client->queuedJobs -= 1;
                    job.client->queuedBytes -= job.bytes;
                }
                // memsense-lint: allow(no-hot-loop-alloc): reserved to
                // maxBatch once per worker, outside the loop
                batch.push_back(std::move(job));
                queue.pop_front();
            }
            // An admission group wakes one worker; whatever this pass
            // left behind wakes the next.
            if (queue.empty())
                queueIdleCv.notify_all();
            else
                queueCv.notify_one();
        }
        // A single-job pass takes the pre-batching path so reply
        // text, counters, and fault-site behaviour stay bit-identical
        // with maxBatch == 1.
        if (batch.size() == 1)
            runJob(batch.front(), replies);
        else
            runBatch(batch, replies);
        flush(replies);
    }
}

void
Server::runJob(const Job &job, ReplyBatch &replies)
{
    const EvalRequest &req = job.request;
    LineStream &stream = *job.stream;
    ClientState &client = *job.client;
    // Deadline check at dequeue: a request that expired while queued
    // is answered without burning solver time on it.
    if (job.deadlineAtMs > 0.0 && now() >= job.deadlineAtMs) {
        MS_METRIC_COUNT("serve.server.deadline_exceeded");
        reply(replies, stream, client, ReplyKind::Deadline,
              errorReplyLine(req.id, "deadline_exceeded",
                             "deadline expired while queued", false));
        return;
    }
    try {
        MS_FAULT_POINT("server.solve");
        model::CancelCheck cancel;
        if (job.deadlineAtMs > 0.0) {
            const double deadline_at = job.deadlineAtMs;
            cancel = [this, deadline_at] {
                return now() >= deadline_at;
            };
        }
        EvalOutcome outcome;
        outcome.id = req.id;
        outcome.result.attempts = 1;
        outcome.result.value.emplace(
            eval.solveCancellable(req.workload, req.platform, cancel));
        staleStore(req, *outcome.result.value);
        reply(replies, stream, client, ReplyKind::Solved, outcome);
    } catch (const model::SolveCancelled &e) {
        MS_METRIC_COUNT("serve.server.deadline_exceeded");
        reply(replies, stream, client, ReplyKind::Deadline,
              errorReplyLine(req.id, "deadline_exceeded",
                             strformat("deadline expired mid-solve (%d "
                                       "iterations done)",
                                       e.iterations),
                             false));
    } catch (const std::exception &) {
        const std::exception_ptr ep = std::current_exception();
        const ExceptionInfo info = describeException(ep);
        reply(replies, stream, client, ReplyKind::Failed,
              errorReplyLine(req.id, "internal",
                             info.type + ": " + info.message,
                             classifyException(ep) == ErrorClass::Fatal));
    }
}

void
Server::runBatch(std::vector<Job> &batch, ReplyBatch &replies)
{
    // Triage at dequeue: a request that expired while queued is
    // answered immediately and never joins the evaluator batch.
    // memsense-lint: allow(no-hot-loop-alloc): per-pass scratch,
    // bounded by maxBatch and reserved before every loop below
    std::vector<std::size_t> live;
    live.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Job &job = batch[i];
        if (job.deadlineAtMs > 0.0 && now() >= job.deadlineAtMs) {
            MS_METRIC_COUNT("serve.server.deadline_exceeded");
            reply(replies, *job.stream, *job.client,
                  ReplyKind::Deadline,
                  errorReplyLine(job.request.id, "deadline_exceeded",
                                 "deadline expired while queued", false));
            continue;
        }
        // memsense-lint: allow(no-hot-loop-alloc): reserved to
        // batch.size() above
        live.push_back(i);
    }
    if (live.empty())
        return;
    if (live.size() == 1) {
        runJob(batch[live.front()], replies);
        return;
    }
    // Group the live jobs by request key so duplicates share one
    // solve, and derive each group's cancellation deadline: the group
    // is cancelled only when EVERY member's deadline has expired (a
    // member with no deadline pins the group at "never cancel"), so
    // dedup never starves the most patient requester. The groups are
    // exactly the evaluator's dedup groups.
    std::vector<EvalRequest> requests;
    std::vector<model::CancelCheck> cancels;
    std::vector<std::size_t> groupOf;
    std::vector<const model::RequestKey *> groupKey;
    std::vector<double> groupDeadlineAtMs; // 0 = never cancel
    requests.reserve(live.size());
    cancels.reserve(live.size());
    groupOf.reserve(live.size());
    groupKey.reserve(live.size());
    groupDeadlineAtMs.reserve(live.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
        const Job &job = batch[live[j]];
        // Linear group scan: a batch holds at most maxBatch entries,
        // so this beats a hash map and allocates nothing.
        std::size_t g = groupKey.size();
        for (std::size_t k = 0; k < groupKey.size(); ++k) {
            if (*groupKey[k] == job.key) {
                g = k;
                break;
            }
        }
        if (g == groupKey.size()) {
            // memsense-lint: allow(no-hot-loop-alloc): reserved above
            groupKey.push_back(&job.key);
            // memsense-lint: allow(no-hot-loop-alloc): reserved above
            groupDeadlineAtMs.push_back(job.deadlineAtMs);
        } else if (groupDeadlineAtMs[g] > 0.0) {
            groupDeadlineAtMs[g] =
                job.deadlineAtMs > 0.0
                    ? std::max(groupDeadlineAtMs[g], job.deadlineAtMs)
                    : 0.0;
        }
        // memsense-lint: allow(no-hot-loop-alloc): reserved above
        groupOf.push_back(g);
        // memsense-lint: allow(no-hot-loop-alloc): reserved above
        requests.push_back(job.request);
    }
    for (std::size_t j = 0; j < live.size(); ++j) {
        const double group_deadline = groupDeadlineAtMs[groupOf[j]];
        model::CancelCheck cancel;
        if (group_deadline > 0.0)
            cancel = [this, group_deadline] {
                return now() >= group_deadline;
            };
        // memsense-lint: allow(no-hot-loop-alloc): reserved above
        cancels.push_back(std::move(cancel));
    }
    const std::size_t deduped = live.size() - groupKey.size();
    {
        std::lock_guard<std::mutex> lock(statsMu);
        ++counters.batches;
        counters.batchedRequests += live.size();
        counters.batchDeduped += deduped;
    }
    MS_METRIC_COUNT("serve.batch.dispatched");
    MS_METRIC_OBSERVE("serve.batch.size",
                      static_cast<double>(live.size()));
    MS_METRIC_COUNT_N("serve.batch.deduped", deduped);

    std::vector<EvalOutcome> outcomes;
    try {
        // The dedicated batch fault site sits between batch assembly
        // and the evaluator call; server.solve fires here too so the
        // chaos solve scenarios cover both dispatch shapes.
        MS_FAULT_POINT("server.batch");
        MS_FAULT_POINT("server.solve");
        outcomes = eval.evaluateBatch(requests, cancels);
    } catch (const std::exception &) {
        // Whole-batch abort (e.g. an injected fault in the serial
        // probe pass): every live job still gets exactly one typed
        // reply — the ledger holds even when the evaluator gives up.
        const std::exception_ptr ep = std::current_exception();
        const ExceptionInfo info = describeException(ep);
        const bool fatal = classifyException(ep) == ErrorClass::Fatal;
        for (std::size_t idx : live) {
            const Job &job = batch[idx];
            reply(replies, *job.stream, *job.client, ReplyKind::Failed,
                  errorReplyLine(job.request.id, "internal",
                                 info.type + ": " + info.message, fatal));
        }
        return;
    }
    MS_INVARIANT(outcomes.size() == live.size(),
                 "evaluateBatch must return one outcome per request");

    // Fan replies back out. Deadlines are re-checked after the solve:
    // a request whose deadline expired while its batch was in flight
    // still gets `deadline_exceeded`, exactly like the single-job path.
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
        const Job &job = batch[live[j]];
        EvalOutcome &outcome = outcomes[j];
        const bool cancelled =
            !outcome.result.ok() && outcome.result.failure &&
            outcome.result.failure->errorType == "SolveCancelled";
        const bool expired =
            job.deadlineAtMs > 0.0 && now() >= job.deadlineAtMs;
        if (cancelled || expired) {
            MS_METRIC_COUNT("serve.server.deadline_exceeded");
            reply(replies, *job.stream, *job.client,
                  ReplyKind::Deadline,
                  errorReplyLine(job.request.id, "deadline_exceeded",
                                 cancelled ? "deadline expired mid-solve "
                                             "(batched)"
                                           : "deadline expired mid-batch",
                                 false));
            continue;
        }
        if (outcome.result.ok()) {
            if (!outcome.cacheHit)
                staleStore(job.request, *outcome.result.value);
            reply(replies, *job.stream, *job.client,
                  outcome.cacheHit ? ReplyKind::Hit : ReplyKind::Solved,
                  outcome);
            continue;
        }
        // Quarantined per-request failure: surface the typed record
        // (same shape as the batch CLI's error lines).
        reply(replies, *job.stream, *job.client, ReplyKind::Failed,
              outcome);
    }
}

void
Server::flushQueueAsDrained()
{
    std::deque<Job> leftover;
    {
        std::lock_guard<std::mutex> lock(queueMu);
        leftover.swap(queue);
        // Release per flushed job, NOT a wholesale `inflightBytes = 0`:
        // bytes of jobs a worker already dequeued were released at
        // dequeue, so zeroing here would silently hide any accounting
        // drift (and a worker mid-write is not "drained"). With the
        // per-job decrements, an empty queue provably holds zero bytes.
        for (const Job &job : leftover) {
            MS_ENSURE(inflightBytes >= job.bytes,
                      "drain would release more bytes than are in "
                      "flight");
            inflightBytes -= job.bytes;
            if (job.client) {
                job.client->queuedJobs -= 1;
                job.client->queuedBytes -= job.bytes;
            }
        }
        MS_ENSURE(inflightBytes == 0,
                  "inflight bytes must be zero once the queue is empty");
    }
    ReplyBatch replies;
    for (const Job &job : leftover) {
        MS_METRIC_COUNT("serve.server.drained");
        reply(replies, *job.stream, *job.client, ReplyKind::Drained,
              errorReplyLine(job.request.id, "overloaded",
                             "server draining", false));
    }
    flush(replies);
}

Server::ReplyBatch::Segment &
Server::ReplyBatch::segmentFor(LineStream &stream, ClientState &client)
{
    for (std::size_t i = 0; i < used; ++i)
        if (segments[i].stream == &stream)
            return segments[i];
    if (used == segments.size())
        segments.emplace_back();
    Segment &seg = segments[used++];
    seg.stream = &stream;
    seg.client = &client;
    return seg;
}

void
Server::reply(ReplyBatch &replies, LineStream &stream, ClientState &client,
              ReplyKind kind, std::string_view line)
{
    ReplyBatch::Segment &seg = replies.segmentFor(stream, client);
    // Reserve first, so the line and its newline land whole or not at
    // all.
    seg.bytes.reserve(seg.bytes.size() + line.size() + 1);
    seg.bytes.append(line);
    seg.bytes += '\n';
    ++seg.kinds[static_cast<int>(kind)];
}

void
Server::reply(ReplyBatch &replies, LineStream &stream, ClientState &client,
              ReplyKind kind, const EvalOutcome &outcome)
{
    ReplyBatch::Segment &seg = replies.segmentFor(stream, client);
    const std::size_t mark = seg.bytes.size();
    try {
        appendResultLine(seg.bytes, outcome);
        seg.bytes += '\n';
    } catch (...) {
        // No partial line stays behind; the caller answers the request
        // another way.
        seg.bytes.resize(mark);
        throw;
    }
    ++seg.kinds[static_cast<int>(kind)];
}

void
Server::flush(ReplyBatch &replies)
{
    for (std::size_t i = 0; i < replies.used; ++i) {
        ReplyBatch::Segment &seg = replies.segments[i];
        seg.delivered = false;
        if (seg.bytes.empty())
            continue;
        MS_METRIC_OBSERVE("serve.server.write_replies",
                          static_cast<double>(std::accumulate(
                              std::begin(seg.kinds), std::end(seg.kinds),
                              std::uint64_t{0})));
        try {
            seg.delivered = seg.stream->write(seg.bytes);
        } catch (...) { // memsense-lint: allow(no-bare-catch): last-ditch
            // containment — replies that cannot be written must become
            // counted write errors, never tear down the thread
            seg.delivered = false;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMu);
        for (std::size_t i = 0; i < replies.used; ++i) {
            const ReplyBatch::Segment &seg = replies.segments[i];
            ClientStats &c = seg.client->counters;
            for (int k = 0; k < static_cast<int>(ReplyKind::Count); ++k) {
                const std::uint64_t n = seg.kinds[k];
                if (n == 0)
                    continue;
                const auto kind = static_cast<ReplyKind>(k);
                switch (kind) {
                  case ReplyKind::Hit:
                    counters.cacheHits += n;
                    c.cacheHits += n;
                    break;
                  case ReplyKind::Solved:
                    counters.solved += n;
                    c.solved += n;
                    break;
                  case ReplyKind::Stale:
                    counters.staleServed += n;
                    counters.shed += n;
                    c.shed += n;
                    break;
                  case ReplyKind::Shed:
                    counters.shed += n;
                    c.shed += n;
                    break;
                  case ReplyKind::QuotaShed:
                    counters.quotaShed += n;
                    c.quotaShed += n;
                    break;
                  case ReplyKind::Deadline:
                    counters.deadlineExceeded += n;
                    break;
                  case ReplyKind::ParseError:
                    counters.parseErrors += n;
                    break;
                  case ReplyKind::Drained:
                    counters.drained += n;
                    break;
                  case ReplyKind::Failed:
                  case ReplyKind::Count:
                    break;
                }
                // The ledger: a reply on a failed write is a write
                // error, whatever it said.
                const bool ok = kind == ReplyKind::Hit ||
                                kind == ReplyKind::Solved ||
                                kind == ReplyKind::Stale;
                if (!seg.delivered) {
                    counters.writeErrors += n;
                    c.writeErrors += n;
                } else if (ok) {
                    counters.repliesOk += n;
                    c.repliesOk += n;
                } else {
                    counters.repliesError += n;
                    c.repliesError += n;
                }
            }
        }
    }
    for (std::size_t i = 0; i < replies.used; ++i) {
        ReplyBatch::Segment &seg = replies.segments[i];
        seg.stream = nullptr;
        seg.client = nullptr;
        seg.bytes.clear();
        std::fill(std::begin(seg.kinds), std::end(seg.kinds), 0u);
    }
    replies.used = 0;
}

std::optional<model::OperatingPoint>
Server::staleLookup(const EvalRequest &req) const
{
    std::lock_guard<std::mutex> lock(staleMu);
    auto it = staleCache.find(coarseRequestKey(req));
    if (it == staleCache.end())
        return std::nullopt;
    return it->second;
}

void
Server::staleStore(const EvalRequest &req,
                   const model::OperatingPoint &op) noexcept
{
    // Only staleLookup reads this cache, and only with allowStale on:
    // without it the key and the map insert are pure waste.
    if (!options.allowStale)
        return;
    // Best effort: the cache only widens what overload can still
    // answer, so a failure here (bad_alloc building the key, an
    // injected fault) must cost neither the request its one reply nor
    // the worker its thread. Callers store before replying.
    try {
        MS_FAULT_POINT("server.stale_store");
        std::string key = coarseRequestKey(req);
        std::lock_guard<std::mutex> lock(staleMu);
        // Unbounded growth guard: the coarse key space is tiny in
        // practice (3 significant digits per knob), but a hostile
        // workload stream could still inflate it — cap and
        // wholesale-reset, which only costs degraded-answer coverage,
        // never correctness.
        if (staleCache.size() >= 4096)
            staleCache.clear();
        staleCache[std::move(key)] = op;
    } catch (...) { // memsense-lint: allow(no-bare-catch): best-effort
        // cache fill; the loss is counted and the reply still goes out
        MS_METRIC_COUNT("serve.server.stale_store_failed");
    }
}

} // namespace memsense::serve
