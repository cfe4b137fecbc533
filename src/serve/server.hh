/**
 * @file
 * Fault-tolerant long-running evaluation server.
 *
 * One Server wraps one memoizing serve::Evaluator behind any number of
 * Transports (TCP, Unix-domain, stdio, in-process) and speaks the
 * JSON-lines request/reply schema of serve/request.hh, extended with
 * three serving-only error types: `overloaded` (connection limit),
 * `deadline_exceeded`, and `internal` (a failed cache probe). The
 * design goals, in priority order:
 *
 *  1. Never crash, never hang, never leak a request: every line read
 *     from an admitted connection gets exactly one reply (or one
 *     counted write failure when the peer is already gone). The
 *     ServerStats ledger makes this checkable:
 *         accepted == repliesOk + repliesError + writeErrors
 *
 *  2. One answer path. Each connection has one reader thread, and it
 *     answers every line in the pass that read it: decode, build the
 *     request key, probe the cache once, and on a miss check the
 *     deadline and solve-and-insert through the evaluator. A solve is
 *     one closed-form fixed point of about a microsecond, cheaper than
 *     handing it to another thread, so no queue, worker pool or batch
 *     stands between a line and its answer. Replies on one connection
 *     therefore come back in line order, hits, misses and errors
 *     alike, and a failed solve is rendered the way memsense_eval
 *     renders it. Overload control is per connection: a reader busy
 *     with slow solves reads no further lines, so its client's writes
 *     back up in the socket (backpressure) while other connections'
 *     readers keep answering.
 *
 *  3. Bursts, not requests, are the unit of I/O. A reader pass is the
 *     run of lines readable without waiting, at most kMaxPassLines of
 *     them; its replies are written with one write before the reader
 *     could block, and counted with the pass's lines under one statsMu
 *     acquisition. A failed write makes each of its replies a write
 *     error.
 *
 *  4. Deadlines are checked once and are injectable. A request's
 *     `deadline_ms` budget starts when its reader pass begins — on a
 *     socket or stdio stream every line of a pass is in the reader's
 *     buffer by then — so a line spends its budget waiting behind the
 *     solves of earlier lines in its pass. It is checked after the
 *     cache probe misses, before the solve; an expired one is answered
 *     `deadline_exceeded` without solving. The clock is a
 *     ServerOptions hook — tests drive deadlines deterministically
 *     with a fake clock.
 *
 *  5. Drain, don't drop, on shutdown. requestStop() stops accepting
 *     and reading; each reader answers the lines it has already read,
 *     flushes, and exits — still exactly one reply per accepted line.
 *
 * Fault sites (MS_FAULT_POINT): server.accept, server.read,
 * server.parse, server.solve (before the evaluator's solve of a miss),
 * server.write, plus the evaluator.probe/solve/insert sites
 * underneath. The chaos harness (scripts/check_chaos.sh) runs the
 * matrix of these against live traffic and asserts the ledger, clean
 * exits, and ASan silence.
 */

#ifndef MEMSENSE_SERVE_SERVER_HH
#define MEMSENSE_SERVE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/evaluator.hh"
#include "serve/transport.hh"

namespace memsense::serve
{

/** Tuning knobs of one Server. */
struct ServerOptions
{
    CacheOptions cache;        ///< the evaluator's solve cache
    int maxConnections = 64;   ///< concurrent connections (excess shed)
    std::size_t maxLineBytes = 64u << 10;    ///< per-line byte cap
    double defaultDeadlineMs = 0.0; ///< applied when a request has none
    int pollMs = 50;           ///< accept/read wakeup granularity
    /**
     * Monotonic clock in milliseconds. Deadlines read this hook, so
     * tests inject a fake clock and exercise the deadline path
     * deterministically (the same injectable-clock pattern as
     * measure::ResilienceOptions).
     */
    std::function<double()> nowMs;

    /** Validate the knobs; throws ConfigError on nonsense. */
    void validate() const;
};

/** Per-client slice of the counters, keyed by the connection's
 *  ClientId (peer label + connection serial). Exported under the
 *  `"clients"` object of --stats-json; the same numbers aggregate into
 *  the global ledger, so per-client rows always sum to <= the global
 *  row (global also counts connections whose record was dropped).
 */
struct ClientStats
{
    std::string id;                ///< "<peer>#<serial>"
    std::uint64_t accepted = 0;    ///< lines read on this connection
    std::uint64_t cacheHits = 0;   ///< answered from the cache
    std::uint64_t solved = 0;      ///< full solves replied ok
    std::uint64_t repliesOk = 0;   ///< `"ok":true` replies written
    std::uint64_t repliesError = 0; ///< `"ok":false` replies written
    std::uint64_t writeErrors = 0; ///< replies this peer never got

    /** JSON object (stable key order) for --stats-json artifacts. */
    std::string toJson() const;
};

/** Monotonic counters of one server run (see the ledger invariant). */
struct ServerStats
{
    std::uint64_t connections = 0;     ///< accepted connections
    std::uint64_t connectionsShed = 0; ///< refused at maxConnections
    std::uint64_t accepted = 0;    ///< request lines read + owed a reply
    std::uint64_t parseErrors = 0; ///< accepted but never parsed
    std::uint64_t cacheHits = 0;   ///< answered from the cache
    std::uint64_t deadlineExceeded = 0; ///< expired before the solve
    std::uint64_t solved = 0;      ///< full solves that replied ok
    std::uint64_t batches = 0;     ///< reader passes solving >= 2 misses
    std::uint64_t batchedRequests = 0; ///< misses those passes solved
    std::uint64_t repliesOk = 0;   ///< `"ok":true` replies written
    std::uint64_t repliesError = 0; ///< `"ok":false` replies written
    std::uint64_t writeErrors = 0; ///< replies the peer never got

    /** Per-client slices, in connection-accept order. */
    std::vector<ClientStats> clients;

    /** The exactly-one-reply ledger. */
    bool
    consistent() const
    {
        return accepted == repliesOk + repliesError + writeErrors;
    }

    /** One human-readable summary line. */
    std::string describe() const;

    /** JSON object (stable key order) for --stats-json artifacts. */
    std::string toJson() const;
};

/**
 * The server (see file comment). Lifecycle: construct, addTransport()
 * one or more times, start(), then stop() — which drains and joins.
 * stop() is idempotent; requestStop() only flips the flag (safe to
 * call from a signal-watching thread, NOT from a signal handler —
 * signal handlers should set an atomic the daemon's main loop polls).
 */
class Server
{
  public:
    /** Lines one reader pass answers before it flushes its replies. */
    static constexpr std::size_t kMaxPassLines = 16;

    explicit Server(ServerOptions opts = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Add a listening endpoint. Must precede start(). */
    void addTransport(std::unique_ptr<Transport> transport);

    /** Spawn one accept thread per transport. */
    void start();

    /** Begin shutdown: stop accepting and reading. */
    void requestStop();

    /** Let every reader answer what it read, then join all threads. */
    void stop();

    /** Snapshot of the counters (thread-safe, any time). */
    ServerStats stats() const;

    /** The wrapped evaluator (cache stats etc.). */
    const Evaluator &evaluator() const { return eval; }

    /** True once requestStop()/stop() began. */
    bool
    stopping() const
    {
        return stopFlag.load(std::memory_order_acquire);
    }

    /** Connections currently being read (daemon idle detection). */
    int
    activeConnectionCount() const
    {
        return activeConnections.load(std::memory_order_acquire);
    }

  private:
    /** What a reply says; it decides which counters the reply moves
     *  (see endPass). */
    enum class ReplyKind : std::uint8_t
    {
        Hit,        ///< ok: answered from the cache
        Solved,     ///< ok: full solve
        Deadline,   ///< `deadline_exceeded`
        ParseError, ///< the line never parsed
        Failed,     ///< any other error reply
        Count,
    };

    /**
     * One reader pass: the lines read without waiting for input, at
     * most kMaxPassLines of them, and their framed replies. The buffer
     * keeps its capacity across passes.
     */
    struct ReaderPass
    {
        std::size_t lines = 0;  ///< accepted lines, owed a reply each
        std::size_t solves = 0; ///< misses that reached the solver
        double startMs = 0.0;   ///< when its first line was read
        std::string replies;    ///< framed reply lines, in line order
        std::uint32_t kinds[static_cast<int>(ReplyKind::Count)] = {};
    };

    void acceptLoop(Transport *transport);
    void readLoop(LineStream &stream, ClientStats &client);
    /** Answer one line into @p pass (see file comment, goal 2). */
    void handleLine(ReaderPass &pass, const std::string &line,
                    std::size_t line_number);
    /** Write the pass's replies once, then count its lines and replies
     *  under one statsMu acquisition: per the ledger, a reply on a
     *  failed write is a write error. Empties @p pass. */
    void endPass(ReaderPass &pass, LineStream &stream,
                 ClientStats &client);
    /** Queue one reply line in @p pass (framed on the way in). */
    void reply(ReaderPass &pass, ReplyKind kind, std::string_view line);
    /** Queue resultLine(@p outcome), serialized straight into the
     *  pass. */
    void reply(ReaderPass &pass, ReplyKind kind,
               const EvalOutcome &outcome);
    double now() const;

    ServerOptions options;
    Evaluator eval;

    std::vector<std::unique_ptr<Transport>> transports;
    std::vector<std::thread> acceptThreads;
    std::mutex readerMu;
    std::vector<std::thread> readerThreads;

    std::atomic<bool> stopFlag{false};
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};
    std::atomic<int> activeConnections{0};
    std::atomic<std::uint64_t> clientSerial{0};

    mutable std::mutex statsMu;
    ServerStats counters;
    /** Per-connection counter slices in accept order, each touched
     *  only under statsMu. Bounded: past kMaxClientRecords the oldest
     *  is dropped from the export — its counters stay in the global
     *  row, and its reader keeps it alive through its shared_ptr. */
    std::vector<std::shared_ptr<ClientStats>> clientStates;
};

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_SERVER_HH
