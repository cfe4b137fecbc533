/**
 * @file
 * Fault-tolerant long-running evaluation server.
 *
 * One Server wraps one memoizing serve::Evaluator behind any number of
 * Transports (TCP, Unix-domain, stdio, in-process) and speaks the
 * JSON-lines request/reply schema of serve/request.hh, extended with
 * three serving-only error types: `overloaded`, `deadline_exceeded`,
 * and `internal` (all non-fatal except `internal` when the underlying
 * failure is). The design goals, in priority order:
 *
 *  1. Never crash, never hang, never leak a request: every line read
 *     from an admitted connection gets exactly one reply (or one
 *     counted write failure when the peer is already gone). The
 *     ServerStats ledger makes this checkable:
 *         accepted == repliesOk + repliesError + writeErrors
 *
 *  2. Degrade before collapsing. Admission control bounds both queue
 *     depth and in-flight request bytes; cache hits are answered
 *     inline on the reader thread and consume no queue slot, so under
 *     overload the server keeps serving its hot set and sheds only
 *     cold solves. With `allowStale` enabled (server opt-in AND the
 *     request not opting out) a shed request may instead be answered
 *     from a coarse-fingerprint stale cache, flagged `"degraded":true`.
 *     Per-client quotas (`maxQueuePerClient`,
 *     `maxInflightBytesPerClient`) shed a noisy neighbor with a
 *     distinct `quota_exceeded` error *before* it can trip global
 *     admission for everyone else; quota sheds are never answered
 *     stale — the client caused them, so the honest signal is the
 *     typed error.
 *
 *  2b. Batch, then solve. Workers drain up to `maxBatch` queued
 *     requests per pass (after a cooperative `batchLingerMs` wait on
 *     the injectable clock to let a batch fill) into one
 *     Evaluator::evaluateBatch call, which deduplicates identical
 *     request keys — N duplicate cold requests cost one solve and N
 *     replies. Per-request deadlines survive batching: a dedup group
 *     is cancelled only when every member's deadline has expired, and
 *     each request is re-checked after the solve so one whose deadline
 *     expired mid-batch still gets `deadline_exceeded`.
 *
 *  2c. Bursts, not requests, are the unit of I/O. A reader pass is the
 *     run of lines readable without waiting (at most `maxBatch`); its
 *     cold misses are admitted as one group (one queueMu acquisition,
 *     one wake-up, each line still decided on its own, in order) and
 *     its inline replies are flushed as one write before the reader
 *     could block. A worker flushes each pass's replies the same way.
 *     A flush counts all its replies under one statsMu acquisition; a
 *     failed write makes each of its replies a write error.
 *
 *  3. Deadlines are cooperative and injectable. A request's
 *     `deadline_ms` budget starts at admission; workers check it when
 *     dequeuing and the solver polls it between bisection iterations
 *     (model::CancelCheck), so a deadline can cut a solve mid-flight
 *     without threads being killed. The clock is a ServerOptions hook
 *     — tests drive deadlines deterministically with a fake clock.
 *
 *  4. Drain, don't drop, on shutdown. requestStop() stops accepting
 *     and reading; queued work keeps flowing to workers until
 *     `drainDeadlineMs` elapses, after which the remainder is flushed
 *     with `overloaded` ("server draining") replies — still exactly
 *     one reply per accepted request.
 *
 * Fault sites (MS_FAULT_POINT): server.accept, server.read,
 * server.parse, server.enqueue, server.batch (between batch assembly
 * and the evaluator call), server.solve, server.stale_store (with
 * allowStale on), server.write, plus the evaluator.probe/solve/insert
 * sites underneath. The chaos harness (scripts/check_chaos.sh) runs
 * the matrix of these against live traffic and asserts the ledger,
 * clean exits, and ASan silence.
 */

#ifndef MEMSENSE_SERVE_SERVER_HH
#define MEMSENSE_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/evaluator.hh"
#include "serve/transport.hh"

namespace memsense::serve
{

/** Tuning knobs of one Server. */
struct ServerOptions
{
    EvaluatorOptions eval;     ///< cache + resilience of the evaluator
    int workers = 2;           ///< solver worker threads (>= 1)
    int maxConnections = 64;   ///< concurrent connections (excess shed)
    std::size_t maxQueueDepth = 256;    ///< queued cold solves
    std::size_t maxInflightBytes = 4u << 20; ///< queued request bytes
    std::size_t maxLineBytes = 64u << 10;    ///< per-line byte cap
    /** Requests one worker pass drains into a single
     *  Evaluator::evaluateBatch call (>= 1; 1 = the pre-batching
     *  one-job-per-pass behaviour, bit-identical reply stream). */
    std::size_t maxBatch = 16;
    /** Cooperative wait (injectable clock) for a partial batch to fill
     *  before dispatching; 0 = dispatch whatever is queued. Trades a
     *  bounded latency bump for better dedup/amortization when the
     *  queue trickles. */
    double batchLingerMs = 0.0;
    /** Per-client queue-depth quota; 0 disables. A client at its quota
     *  is shed with `quota_exceeded` before global admission trips. */
    std::size_t maxQueuePerClient = 0;
    /** Per-client queued-bytes quota; 0 disables. */
    std::size_t maxInflightBytesPerClient = 0;
    double defaultDeadlineMs = 0.0; ///< applied when a request has none
    double drainDeadlineMs = 2000.0; ///< queue budget after stop
    int pollMs = 50;           ///< accept/read wakeup granularity
    /** Server-side opt-in to degraded stale answers for shed requests
     *  (each request can still opt out with `"allow_stale": false`). */
    bool allowStale = false;
    /**
     * Monotonic clock in milliseconds. Deadlines, drain timing, and
     * latency metrics all read this hook, so tests inject a fake clock
     * and exercise deadline/drain paths deterministically (the same
     * injectable-clock pattern as measure::ResilienceOptions).
     */
    std::function<double()> nowMs;

    /** Validate the knobs; throws ConfigError on nonsense. */
    void validate() const;
};

/** Per-client slice of the counters, keyed by the connection's
 *  ClientId (peer label + connection serial). Exported under the
 *  `"clients"` object of --stats-json; the same numbers aggregate into
 *  the global ledger, so per-client rows always sum to <= the global
 *  row (global also counts requests with no surviving client record).
 */
struct ClientStats
{
    std::string id;                ///< "<peer>#<serial>"
    std::uint64_t accepted = 0;    ///< lines read on this connection
    std::uint64_t cacheHits = 0;   ///< answered inline from the cache
    std::uint64_t solved = 0;      ///< full solves replied ok
    std::uint64_t shed = 0;        ///< global-admission sheds
    std::uint64_t quotaShed = 0;   ///< per-client quota sheds
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
    std::uint64_t cacheHits = 0;   ///< answered inline from the cache
    std::uint64_t staleServed = 0; ///< degraded coarse-cache answers
    std::uint64_t shed = 0;        ///< refused by admission control
    std::uint64_t quotaShed = 0;   ///< refused by a per-client quota
    std::uint64_t deadlineExceeded = 0; ///< expired before/during solve
    std::uint64_t solved = 0;      ///< full solves that replied ok
    std::uint64_t drained = 0;     ///< flushed at shutdown (overloaded)
    std::uint64_t batches = 0;     ///< multi-request worker passes
    std::uint64_t batchedRequests = 0; ///< requests dispatched in them
    std::uint64_t batchDeduped = 0; ///< requests sharing another's solve
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
    explicit Server(ServerOptions opts = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Add a listening endpoint. Must precede start(). */
    void addTransport(std::unique_ptr<Transport> transport);

    /** Spawn accept + worker threads. */
    void start();

    /** Begin shutdown: stop accepting/reading, let the queue drain. */
    void requestStop();

    /** Drain (bounded by drainDeadlineMs), join all threads. */
    void stop();

    /** Snapshot of the counters (thread-safe, any time). */
    ServerStats stats() const;

    /** The wrapped evaluator (cache stats etc.). */
    const Evaluator &evaluator() const { return eval; }

    /** Bytes currently held by queued jobs (thread-safe; tests assert
     *  the drain path returns this to exactly zero). */
    std::size_t inflightBytesNow() const;

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
    /**
     * Per-connection identity and accounting. The id ("<peer>#<serial>")
     * is derived once at accept; the live queue occupancy fields are
     * only touched under queueMu (admission, dequeue, drain) and the
     * counter slice only under statsMu, mirroring the global split.
     */
    struct ClientState
    {
        std::string id;
        std::size_t queuedJobs = 0;  ///< jobs of this client in queue
        std::size_t queuedBytes = 0; ///< their byte footprint
        ClientStats counters;        ///< statsMu-guarded slice
    };

    /** One queued cold solve, owing exactly one reply. */
    struct Job
    {
        std::shared_ptr<LineStream> stream;
        std::shared_ptr<ClientState> client;
        EvalRequest request;
        model::RequestKey key;     ///< of request, built by the reader
        std::size_t bytes = 0;     ///< admission accounting
        double deadlineAtMs = 0.0; ///< absolute, 0 = none
    };

    /** What a reply says; it decides which counters the reply moves
     *  (see flush). */
    enum class ReplyKind : std::uint8_t
    {
        Hit,        ///< ok: answered from the cache
        Solved,     ///< ok: full solve
        Stale,      ///< ok: degraded answer to a shed request
        Shed,       ///< `overloaded` from admission control
        QuotaShed,  ///< `quota_exceeded`
        Deadline,   ///< `deadline_exceeded`
        ParseError, ///< the line never parsed
        Drained,    ///< `overloaded` at shutdown
        Failed,     ///< any other error reply
        Count,
    };

    /**
     * The replies of one reader or worker pass, grouped per connection.
     * flush() writes each connection's replies with one write and
     * counts all of them under one statsMu acquisition. One thread owns
     * a batch and passes it explicitly. It holds raw pointers: every
     * pass flushes before the jobs or the connection that own its
     * streams and clients go away. Buffers keep their capacity across
     * passes.
     */
    struct ReplyBatch
    {
        struct Segment
        {
            LineStream *stream = nullptr;
            ClientState *client = nullptr; ///< the stream's connection
            std::string bytes; ///< framed reply lines
            std::uint32_t kinds[static_cast<int>(ReplyKind::Count)] = {};
            bool delivered = false;
        };
        std::vector<Segment> segments; ///< [0, used) hold replies
        std::size_t used = 0;

        /** The segment collecting @p stream's replies. */
        Segment &segmentFor(LineStream &stream, ClientState &client);
    };

    /** Admission verdict of one cold miss, with the occupancy its
     *  shed reply reports. */
    struct Verdict
    {
        bool queued = false;
        bool quota = false;     ///< shed by the client's own quota
        std::size_t depth = 0;  ///< jobs queued (the client's if quota)
        std::size_t bytes = 0;  ///< bytes queued (the client's if quota)
    };

    /** One reader pass: the lines read without waiting for input, at
     *  most maxBatch of them (see readLoop). */
    struct ReaderPass
    {
        std::size_t lines = 0;  ///< accepted lines, owed a reply each
        std::vector<Job> cold;  ///< cache misses awaiting admission
        std::vector<Verdict> verdicts; ///< admit()'s scratch, per miss
        ReplyBatch replies;
    };

    void acceptLoop(Transport *transport);
    void readLoop(std::shared_ptr<LineStream> stream,
                  std::shared_ptr<ClientState> client);
    void workerLoop();
    void handleLine(ReaderPass &pass,
                    const std::shared_ptr<LineStream> &stream,
                    const std::shared_ptr<ClientState> &client,
                    const std::string &line, std::size_t line_number);
    /** Count the pass's lines as accepted, admit its cold misses as
     *  one group, and flush its replies. */
    void endPass(ReaderPass &pass, ClientState &client);
    /** Admit one pass's cold misses as a group: each gets today's
     *  decision, in line order, under one queueMu acquisition and with
     *  one wake-up. Sheds reply into the pass; empties pass.cold. */
    void admit(ReaderPass &pass, ClientState &client);
    void runJob(const Job &job, ReplyBatch &replies);
    /** Solve a worker pass of >= 2 jobs via Evaluator::evaluateBatch
     *  (dedup + shared-group cancellation + per-request deadline
     *  recheck); single-job passes take runJob's unchanged path. */
    void runBatch(std::vector<Job> &batch, ReplyBatch &replies);
    void flushQueueAsDrained();
    /** Queue one reply line in @p replies (framed on the way in). */
    void reply(ReplyBatch &replies, LineStream &stream,
               ClientState &client, ReplyKind kind,
               std::string_view line);
    /** Queue resultLine(@p outcome), serialized straight into the
     *  batch. */
    void reply(ReplyBatch &replies, LineStream &stream,
               ClientState &client, ReplyKind kind,
               const EvalOutcome &outcome);
    /** Write every connection's replies once, then count them all
     *  under one statsMu acquisition: per the ledger, a reply on a
     *  failed write is a write error. Empties @p replies. */
    void flush(ReplyBatch &replies);
    double now() const;

    /** Coarse stale-answer cache (see allowStale). */
    std::optional<model::OperatingPoint>
    staleLookup(const EvalRequest &req) const;
    /** Remember a fresh solve for staleLookup. A no-op unless
     *  allowStale is set; best effort, so it never throws. */
    void staleStore(const EvalRequest &req,
                    const model::OperatingPoint &op) noexcept;

    ServerOptions options;
    Evaluator eval;

    std::vector<std::unique_ptr<Transport>> transports;
    std::vector<std::thread> acceptThreads;
    std::vector<std::thread> workerThreads;
    std::mutex readerMu;
    std::vector<std::thread> readerThreads;

    mutable std::mutex queueMu;
    std::condition_variable queueCv;
    std::condition_variable queueIdleCv; ///< signalled when queue empties
    std::deque<Job> queue;
    std::size_t inflightBytes = 0;
    bool hardStop = false; ///< workers must exit even with queued work

    std::atomic<bool> stopFlag{false};
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};
    std::atomic<int> activeConnections{0};
    std::atomic<std::uint64_t> clientSerial{0};

    mutable std::mutex statsMu;
    ServerStats counters;
    /** Client records in accept order (statsMu-guarded). Bounded: past
     *  kMaxClientRecords the oldest record is dropped from the export —
     *  its counters stay in the global row, and any in-flight jobs keep
     *  it alive through their shared_ptr. */
    std::vector<std::shared_ptr<ClientState>> clientStates;

    mutable std::mutex staleMu;
    std::unordered_map<std::string, model::OperatingPoint> staleCache;
};

/**
 * Coarse request key of the stale-answer cache: every numeric knob
 * quantized to 3 significant digits. Canonical across platforms and
 * libcs — negative zero renders as "0", denormals collapse to "0"
 * (their %.3g spellings are not portable), and NaN renders as "nan"
 * regardless of sign/payload — so which degraded answer a given
 * request maps to is deterministic. Exposed for fuzz tests.
 */
std::string coarseRequestKey(const EvalRequest &req);

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_SERVER_HH
