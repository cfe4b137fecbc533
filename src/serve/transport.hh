/**
 * @file
 * Pluggable line-oriented transports for the evaluation server.
 *
 * The server speaks JSON-lines over any byte stream; this file pins
 * down the two seams it needs:
 *
 *  - LineStream: one connected peer. readLine() is called by exactly
 *    one reader thread with a bounded timeout (so shutdown can always
 *    interrupt it); lineReady() tells that reader whether the next
 *    readLine() would return without waiting, which is when the server
 *    ends a burst of requests and flushes its replies. write() takes
 *    framed bytes — one or more newline-terminated reply lines — and
 *    is thread-safe: concurrent writes never interleave. Oversized
 *    lines surface as Read::TooLong instead of unbounded buffering — a
 *    hostile peer cannot make the server allocate without limit.
 *
 *  - Transport: one listening endpoint producing LineStreams. accept()
 *    also takes a timeout; shutdownTransport() wakes any blocked
 *    accept (self-pipe for sockets, condition variable in-process) so
 *    SIGTERM drains promptly instead of waiting out a poll.
 *
 * Three implementations: SocketTransport (TCP or Unix-domain, built on
 * util/socket.hh), a stdio LineStream over inherited descriptors, and
 * InProcessTransport — a mutex+condvar pipe pair that lets tests and
 * the soak suite drive the full server loop with zero kernel
 * dependencies (no ports, no files, no sandbox assumptions).
 */

#ifndef MEMSENSE_SERVE_TRANSPORT_HH
#define MEMSENSE_SERVE_TRANSPORT_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/socket.hh"

namespace memsense::serve
{

/** One connected peer, framed as lines (see file comment). */
class LineStream
{
  public:
    virtual ~LineStream() = default;

    /** Outcome of one bounded readLine() call. */
    enum class Read
    {
        Line,    ///< @p out holds one complete line (no newline)
        Idle,    ///< nothing arrived within the timeout
        Eof,     ///< peer closed cleanly (or stream was shut down)
        TooLong, ///< line exceeded the stream's byte cap (fatal)
        Error,   ///< transport failure (fatal for this stream)
    };

    /**
     * Read the next line, waiting at most @p timeout_ms. Single-reader:
     * only one thread may call readLine on a given stream.
     */
    virtual Read readLine(std::string &out, int timeout_ms) = 0;

    /**
     * True when a complete line is already buffered, so the next
     * readLine() returns it without waiting for input. Reader thread
     * only.
     */
    virtual bool lineReady() = 0;

    /**
     * Write @p framed: one or more complete lines, each ending in a
     * newline, as one contiguous write (one syscall in the common
     * case). Thread-safe; concurrent writes never interleave. Returns
     * false once the peer is unreachable; callers count, not throw.
     */
    virtual bool write(std::string_view framed) = 0;

    /** Unblock any in-flight readLine and fail future I/O. */
    virtual void shutdownStream() = 0;

    /** Peer label for logs ("tcp:4", "inproc:2", "stdio"). */
    virtual std::string peer() const = 0;
};

/** One listening endpoint. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Outcome of one bounded accept() call. */
    enum class Accept
    {
        Conn,   ///< @p out holds a new connection
        Idle,   ///< nothing arrived within the timeout
        Closed, ///< transport shut down; no more connections ever
    };

    /** Wait up to @p timeout_ms for the next connection. */
    virtual Accept accept(std::unique_ptr<LineStream> &out,
                          int timeout_ms) = 0;

    /** Stop accepting and wake any blocked accept(). */
    virtual void shutdownTransport() = 0;

    /** Endpoint label ("tcp:127.0.0.1:8321", "unix:/tmp/s", ...). */
    virtual std::string describe() const = 0;
};

/** Byte cap for one line on fd-backed streams (default 64 KiB). */
struct StreamLimits
{
    std::size_t maxLineBytes = 64u << 10;
};

/**
 * LineStream over a connected socket (one fd) or a descriptor pair
 * (stdio: read from @p read_fd, write to @p write_fd, owning neither
 * when constructed via makeStdioStream).
 */
std::unique_ptr<LineStream> makeSocketStream(net::FdHandle fd,
                                             const StreamLimits &limits,
                                             const std::string &peer_label);

/** Stdio stream over inherited, unowned descriptors (0 and 1). */
std::unique_ptr<LineStream> makeStdioStream(const StreamLimits &limits);

/**
 * One-shot transport over stdin/stdout: the first accept() yields the
 * stdio stream, later ones are Idle until shutdown. Lets the daemon
 * serve a pipe with the same answer path and deadlines as sockets.
 */
std::unique_ptr<Transport> makeStdioTransport(const StreamLimits &limits);

/** Transport over a bound socket listener (TCP or Unix-domain). */
std::unique_ptr<Transport> makeSocketTransport(net::Listener listener,
                                               const StreamLimits &limits);

// ---------------------------------------------------------------------
// In-process transport (tests, soak suite)

namespace detail
{

/** One direction of an in-process connection: a bounded-ish line
 *  queue with condvar wakeups and explicit close. */
struct LinePipe
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::string> lines;
    bool closed = false;

    /** Push each line of @p bytes under one lock (the last line needs
     *  no newline); false when the pipe is closed. */
    bool push(std::string_view bytes);
    /** True when a line is waiting to be popped. */
    bool ready();
    void close();
    /** Pop with timeout: Line / Idle / Eof semantics of LineStream. */
    LineStream::Read pop(std::string &out, int timeout_ms);
};

} // namespace detail

/** Client handle of one in-process connection (test side). */
class InProcessClient
{
  public:
    InProcessClient(std::shared_ptr<detail::LinePipe> to_server,
                    std::shared_ptr<detail::LinePipe> to_client)
        : toServer(std::move(to_server)), toClient(std::move(to_client))
    {}

    /** Send one request line to the server. */
    void send(const std::string &line) { toServer->push(line); }

    /** Close the client->server direction (server sees EOF). */
    void closeSend() { toServer->close(); }

    /** Receive the next reply line; Idle after @p timeout_ms. */
    LineStream::Read recv(std::string &out, int timeout_ms)
    {
        return toClient->pop(out, timeout_ms);
    }

    /** Wrap this handle as a LineStream (loadgen tests dial these). */
    std::unique_ptr<LineStream> asStream();

  private:
    std::shared_ptr<detail::LinePipe> toServer;
    std::shared_ptr<detail::LinePipe> toClient;
};

/**
 * In-process transport: tests call connect() to get a client handle;
 * the server's accept loop sees the matching LineStream.
 */
class InProcessTransport : public Transport
{
  public:
    InProcessTransport() = default;

    Accept accept(std::unique_ptr<LineStream> &out,
                  int timeout_ms) override;
    void shutdownTransport() override;
    std::string describe() const override { return "inproc"; }

    /** Dial one new connection; pairs with a future accept(). */
    InProcessClient connect();

  private:
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<LineStream>> pending;
    bool closed = false;
    int nextId = 0;
};

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_TRANSPORT_HH
