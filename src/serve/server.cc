#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <numeric>
#include <utility>

#include "serve/json.hh"
#include "serve/request.hh"
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

/** Client records exported via stats(); see the header field comment. */
constexpr std::size_t kMaxClientRecords = 4096;

} // anonymous namespace

void
ServerOptions::validate() const
{
    requireConfig(maxConnections >= 1,
                  "server maxConnections must be >= 1");
    requireConfig(maxLineBytes >= 2, "server maxLineBytes must be >= 2");
    requireConfig(defaultDeadlineMs >= 0.0,
                  "server defaultDeadlineMs must be >= 0");
    requireConfig(pollMs >= 1, "server pollMs must be >= 1");
}

std::string
ServerStats::describe() const
{
    return strformat(
        "%llu conns (%llu shed): %llu accepted = %llu ok + %llu err + "
        "%llu write-fail%s; %llu hits, %llu deadline, %llu solved, %llu "
        "batches (%llu reqs), %llu parse errors",
        static_cast<unsigned long long>(connections),
        static_cast<unsigned long long>(connectionsShed),
        static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(repliesOk),
        static_cast<unsigned long long>(repliesError),
        static_cast<unsigned long long>(writeErrors),
        consistent() ? "" : " [LEDGER INCONSISTENT]",
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(deadlineExceeded),
        static_cast<unsigned long long>(solved),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(batchedRequests),
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
           field("solved", solved) + "," +
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
    // `shed` and `quota_shed` are always 0 (no line that was read is
    // refused) and stay for readers that sum them, such as membench's
    // serve harness.
    return "{" + field("connections", connections) + "," +
           field("connections_shed", connectionsShed) + "," +
           field("accepted", accepted) + "," +
           field("parse_errors", parseErrors) + "," +
           field("cache_hits", cacheHits) + "," + field("shed", 0) +
           "," + field("quota_shed", 0) + "," +
           field("deadline_exceeded", deadlineExceeded) + "," +
           field("solved", solved) + "," + field("batches", batches) +
           "," + field("batched_requests", batchedRequests) + "," +
           field("replies_ok", repliesOk) + "," +
           field("replies_error", repliesError) + "," +
           field("write_errors", writeErrors) + ",\"consistent\":" +
           (consistent() ? "true" : "false") +
           ",\"clients\":" + clients_json + "}";
}

Server::Server(ServerOptions opts)
    : options(std::move(opts)),
      eval(model::Solver(), EvaluatorOptions{.cache = options.cache})
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
    // Readers poll stopFlag between lines (pollMs granularity) and end
    // with the pass they are in, so each exits within one poll tick
    // plus at most kMaxPassLines answers; joining here is bounded.
    // The accept loops have returned, so no reader is added or reaped
    // past this point.
    std::lock_guard<std::mutex> lock(readerMu);
    for (Reader &reader : readers)
        reader.thread.join();
    readers.clear();
}

void
Server::reapReaders()
{
    std::lock_guard<std::mutex> lock(readerMu);
    for (auto it = readers.begin(); it != readers.end();) {
        if (it->done.load(std::memory_order_acquire)) {
            // Past `done` the thread only returns; this join waits for
            // nothing else.
            it->thread.join();
            it = readers.erase(it);
        } else {
            ++it;
        }
    }
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
        snap.clients.push_back(*client);
    return snap;
}

void
Server::acceptLoop(Transport *transport)
{
    while (!stopFlag.load(std::memory_order_acquire)) {
        reapReaders();
        std::unique_ptr<LineStream> stream;
        const Transport::Accept a =
            transport->accept(stream, options.pollMs);
        if (a == Transport::Accept::Closed)
            return;
        if (a == Transport::Accept::Idle)
            continue;
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
            stream->write(refusal);
            stream->shutdownStream();
            continue;
        }
        // ClientId: peer label + connection serial. The serial keeps
        // ids unique across fd/port reuse, so counter slices never
        // blend two distinct connections.
        auto client = std::make_shared<ClientStats>();
        const std::uint64_t serial = clientSerial.fetch_add(1) + 1;
        // memsense-lint: allow(no-hot-loop-alloc): once per connection
        client->id = stream->peer() + "#" + std::to_string(serial);
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
        Reader &reader = readers.emplace_back();
        reader.thread = std::thread(
            [this, &reader, owned = std::move(stream), client] {
                readLoop(*owned, *client);
                reader.done.store(true, std::memory_order_release);
            });
    }
}

void
Server::readLoop(LineStream &stream, ClientStats &client)
{
    // One pass is the run of lines readable without waiting, capped at
    // kMaxPassLines. Each line is answered as it is read; the pass
    // ends (replies written and counted) before the reader could block
    // for more input, so a client sending one line at a time still
    // gets each reply at once.
    ReaderPass pass;
    std::string line;
    std::size_t line_number = 0;
    while (!stopFlag.load(std::memory_order_acquire)) {
        if (pass.lines > 0 &&
            (pass.lines >= kMaxPassLines || !stream.lineReady()))
            endPass(pass, stream, client);
        const LineStream::Read r = stream.readLine(line, options.pollMs);
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
            reply(pass, ReplyKind::ParseError,
                  errorReplyLine(cap_id, "ConfigError", cap_msg, true));
            break;
        }
        bool blank = true;
        for (char c : line)
            if (c != ' ' && c != '\t' && c != '\r')
                blank = false;
        if (blank)
            continue;
        // The deadline budgets of the pass's lines start here: a later
        // line waits behind the answers to earlier ones (see the
        // header, goal 4).
        if (pass.lines == 0)
            pass.startMs = now();
        ++pass.lines;
        handleLine(pass, line, line_number);
    }
    // Drain: the lines this reader has read are answered; flush them.
    endPass(pass, stream, client);
    activeConnections.fetch_sub(1, std::memory_order_acq_rel);
}

void
Server::handleLine(ReaderPass &pass, const std::string &line,
                   std::size_t line_number)
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
        reply(pass, ReplyKind::ParseError,
              errorReplyLine("line-" + std::to_string(line_number),
                             info.type, info.message,
                             classifyException(ep) == ErrorClass::Fatal));
        return;
    }
    const double budget_ms =
        req.deadlineMs > 0.0 ? req.deadlineMs : options.defaultDeadlineMs;

    EvalOutcome outcome;
    outcome.id = std::move(req.id);
    outcome.result.attempts = 1;
    const model::RequestKey key =
        model::requestKey(req.workload, req.platform);
    try {
        if (auto hit = eval.probe(key)) {
            outcome.result.value.emplace(*hit);
            outcome.cacheHit = true;
            reply(pass, ReplyKind::Hit, outcome);
            return;
        }
    } catch (const std::exception &) {
        const ExceptionInfo info =
            describeException(std::current_exception());
        reply(pass, ReplyKind::Failed,
              errorReplyLine(outcome.id, "internal",
                             info.type + ": " + info.message, false));
        return;
    }

    if (budget_ms > 0.0 && now() >= pass.startMs + budget_ms) {
        MS_METRIC_COUNT("serve.server.deadline_exceeded");
        reply(pass, ReplyKind::Deadline,
              errorReplyLine(outcome.id, "deadline_exceeded",
                             "deadline expired before the solve", false));
        return;
    }
    ++pass.solves;
    try {
        MS_FAULT_POINT("server.solve");
        outcome.result.value.emplace(
            eval.solveMiss(key, req.workload, req.platform));
        reply(pass, ReplyKind::Solved, outcome);
    } catch (const std::exception &) {
        // The failure record memsense_eval writes for the same line:
        // the exception's type and message, one attempt.
        const std::exception_ptr ep = std::current_exception();
        const ExceptionInfo info = describeException(ep);
        measure::FailureRecord failure;
        failure.errorType = info.type;
        failure.message = info.message;
        failure.fatal = classifyException(ep) == ErrorClass::Fatal;
        failure.attempts = 1;
        outcome.result.value.reset();
        outcome.result.failure.emplace(std::move(failure));
        reply(pass, ReplyKind::Failed, outcome);
    }
}

void
Server::reply(ReaderPass &pass, ReplyKind kind, std::string_view line)
{
    // Reserve first, so the line and its newline land whole or not at
    // all.
    pass.replies.reserve(pass.replies.size() + line.size() + 1);
    pass.replies.append(line);
    pass.replies += '\n';
    ++pass.kinds[static_cast<int>(kind)];
}

void
Server::reply(ReaderPass &pass, ReplyKind kind, const EvalOutcome &outcome)
{
    const std::size_t mark = pass.replies.size();
    try {
        appendResultLine(pass.replies, outcome);
        pass.replies += '\n';
    } catch (...) {
        // No partial line stays behind; the caller answers the request
        // another way.
        pass.replies.resize(mark);
        throw;
    }
    ++pass.kinds[static_cast<int>(kind)];
}

void
Server::endPass(ReaderPass &pass, LineStream &stream, ClientStats &client)
{
    if (pass.lines == 0)
        return;
    bool delivered = false;
    MS_METRIC_OBSERVE("serve.server.write_replies",
                      static_cast<double>(std::accumulate(
                          std::begin(pass.kinds), std::end(pass.kinds),
                          std::uint64_t{0})));
    try {
        delivered = stream.write(pass.replies);
    } catch (...) { // memsense-lint: allow(no-bare-catch): last-ditch
        // containment — replies that cannot be written must become
        // counted write errors, never tear down the thread
        delivered = false;
    }
    MS_METRIC_COUNT_N("serve.server.accepted", pass.lines);
    {
        // The pass's lines and their replies land in one critical
        // section, so a live snapshot never shows more replies than
        // accepted requests.
        std::lock_guard<std::mutex> lock(statsMu);
        ClientStats &c = client;
        counters.accepted += pass.lines;
        c.accepted += pass.lines;
        if (pass.solves >= 2) {
            ++counters.batches;
            counters.batchedRequests += pass.solves;
        }
        for (int k = 0; k < static_cast<int>(ReplyKind::Count); ++k) {
            const std::uint64_t n = pass.kinds[k];
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
              case ReplyKind::Deadline:
                counters.deadlineExceeded += n;
                break;
              case ReplyKind::ParseError:
                counters.parseErrors += n;
                break;
              case ReplyKind::Failed:
              case ReplyKind::Count:
                break;
            }
            // The ledger: a reply on a failed write is a write error,
            // whatever it said.
            const bool ok =
                kind == ReplyKind::Hit || kind == ReplyKind::Solved;
            if (!delivered) {
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
    pass.lines = 0;
    pass.solves = 0;
    pass.replies.clear();
    std::fill(std::begin(pass.kinds), std::end(pass.kinds), 0u);
}

} // namespace memsense::serve
