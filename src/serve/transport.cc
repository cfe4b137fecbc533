#include "serve/transport.hh"

#include <atomic>
#include <chrono>
#include <unistd.h>
#include <utility>

#include "util/error.hh"
#include "util/fault_injection.hh"

namespace memsense::serve
{

namespace
{

/**
 * LineStream over file descriptors. Owns read_fd (and write_fd when
 * distinct) unless constructed unowned (stdio). A shutdown pipe wakes
 * the blocked reader without racing the descriptor's close.
 */
class FdLineStream : public LineStream
{
  public:
    FdLineStream(net::FdHandle read_fd, net::FdHandle write_fd,
                 StreamLimits limits_in, std::string peer_label,
                 int raw_read_fd, int raw_write_fd)
        : ownedRead(std::move(read_fd)), ownedWrite(std::move(write_fd)),
          readFd(raw_read_fd), writeFd(raw_write_fd),
          limits(limits_in), peerLabel(std::move(peer_label)),
          wake(net::makePipe())
    {}

    Read
    readLine(std::string &out, int timeout_ms) override
    {
        out.clear();
        for (;;) {
            // Serve a complete line already buffered before touching
            // the descriptor again. The byte cap applies to complete
            // lines too — a hostile line that fits in one read chunk
            // must not bypass it. Lines are consumed by advancing
            // `head`, so a read chunk of many lines is not shifted
            // down once per line.
            const std::size_t nl = buffer.find('\n', head);
            if (nl != std::string::npos) {
                if (nl - head > limits.maxLineBytes) {
                    head = nl + 1;
                    return Read::TooLong;
                }
                out.assign(buffer, head, nl - head);
                if (!out.empty() && out.back() == '\r')
                    out.pop_back();
                head = nl + 1;
                return Read::Line;
            }
            buffer.erase(0, head);
            head = 0;
            if (buffer.size() > limits.maxLineBytes) {
                buffer.clear();
                return Read::TooLong;
            }
            if (down.load(std::memory_order_acquire))
                return Read::Eof;

            const net::IoWait w = net::waitReadable2(
                readFd, wake.readEnd.get(), timeout_ms);
            if (down.load(std::memory_order_acquire))
                return Read::Eof;
            if (w == net::IoWait::Timeout)
                return Read::Idle;
            if (w == net::IoWait::Hangup)
                return drainTail(out);

            char chunk[4096];
            long n;
            try {
                MS_FAULT_POINT("server.read");
                n = net::readSome(readFd, chunk, sizeof(chunk));
            } catch (const std::exception &) {
                return Read::Error;
            }
            if (n == 0)
                return drainTail(out);
            if (n > 0)
                buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

    bool
    lineReady() override
    {
        return buffer.find('\n', head) != std::string::npos;
    }

    bool
    write(std::string_view framed) override
    {
        std::lock_guard<std::mutex> lock(writeMu);
        if (down.load(std::memory_order_acquire))
            return false;
        // One contiguous buffer per call: interleaving-safe under the
        // lock and exactly one write syscall in the common case.
        try {
            MS_FAULT_POINT("server.write");
            return net::writeAll(writeFd, framed.data(), framed.size());
        } catch (const std::exception &) {
            return false;
        }
    }

    void
    shutdownStream() override
    {
        down.store(true, std::memory_order_release);
        net::pokePipe(wake.writeEnd.get());
    }

    std::string peer() const override { return peerLabel; }

  private:
    /** EOF with a final unterminated line still counts as that line. */
    Read
    drainTail(std::string &out)
    {
        buffer.erase(0, head);
        head = 0;
        if (buffer.empty())
            return Read::Eof;
        out = std::move(buffer);
        buffer.clear();
        if (!out.empty() && out.back() == '\r')
            out.pop_back();
        return Read::Line;
    }

    net::FdHandle ownedRead;  ///< may be empty (stdio is unowned)
    net::FdHandle ownedWrite; ///< distinct write end, when owned
    int readFd;
    int writeFd;
    StreamLimits limits;
    std::string peerLabel;
    std::string buffer;
    std::size_t head = 0; ///< bytes of `buffer` already returned
    std::mutex writeMu;
    std::atomic<bool> down{false};
    net::PipePair wake;
};

/** LineStream over an in-process pipe pair (server side). */
class InProcessStream : public LineStream
{
  public:
    InProcessStream(std::shared_ptr<detail::LinePipe> in,
                    std::shared_ptr<detail::LinePipe> out,
                    std::string peer_label)
        : fromPeer(std::move(in)), toPeer(std::move(out)),
          peerLabel(std::move(peer_label))
    {}

    ~InProcessStream() override
    {
        // Closing both pipes on teardown is the in-process analogue of
        // close(fd): a client blocked in recv() sees Eof, not a hang.
        fromPeer->close();
        toPeer->close();
    }

    Read
    readLine(std::string &out, int timeout_ms) override
    {
        try {
            MS_FAULT_POINT("server.read");
        } catch (const std::exception &) {
            return Read::Error;
        }
        return fromPeer->pop(out, timeout_ms);
    }

    bool lineReady() override { return fromPeer->ready(); }

    bool
    write(std::string_view framed) override
    {
        std::lock_guard<std::mutex> lock(writeMu);
        try {
            MS_FAULT_POINT("server.write");
        } catch (const std::exception &) {
            return false;
        }
        return toPeer->push(framed);
    }

    void
    shutdownStream() override
    {
        fromPeer->close();
        toPeer->close();
    }

    std::string peer() const override { return peerLabel; }

  private:
    std::shared_ptr<detail::LinePipe> fromPeer;
    std::shared_ptr<detail::LinePipe> toPeer;
    std::string peerLabel;
    std::mutex writeMu;
};

/** Transport over a bound listener with self-pipe shutdown. */
class SocketTransport : public Transport
{
  public:
    SocketTransport(net::Listener listener_in, StreamLimits limits_in)
        : listener(std::move(listener_in)), limits(limits_in),
          wake(net::makePipe())
    {}

    ~SocketTransport() override
    {
        if (!listener.unixPath.empty())
            ::unlink(listener.unixPath.c_str());
    }

    Accept
    accept(std::unique_ptr<LineStream> &out, int timeout_ms) override
    {
        if (down.load(std::memory_order_acquire))
            return Accept::Closed;
        try {
            MS_FAULT_POINT("server.accept");
        } catch (const std::exception &) {
            return Accept::Idle; // injected accept fault: drop the beat
        }
        const net::IoWait w = net::waitReadable2(
            listener.fd.get(), wake.readEnd.get(), timeout_ms);
        if (down.load(std::memory_order_acquire))
            return Accept::Closed;
        if (w == net::IoWait::Timeout)
            return Accept::Idle;
        if (w == net::IoWait::Hangup)
            return Accept::Closed;
        net::FdHandle conn = net::acceptOn(listener.fd.get());
        if (!conn.valid())
            return Accept::Idle;
        const int id = ++acceptCount;
        const std::string label =
            (listener.unixPath.empty() ? "tcp:" : "unix:") +
            std::to_string(id);
        out = makeSocketStream(std::move(conn), limits, label);
        return Accept::Conn;
    }

    void
    shutdownTransport() override
    {
        down.store(true, std::memory_order_release);
        net::pokePipe(wake.writeEnd.get());
    }

    std::string describe() const override { return listener.address; }

  private:
    net::Listener listener;
    StreamLimits limits;
    net::PipePair wake;
    std::atomic<bool> down{false};
    int acceptCount = 0; ///< accessed only by the accept thread
};

} // anonymous namespace

namespace detail
{

bool
LinePipe::push(std::string_view bytes)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closed)
            return false;
        while (!bytes.empty()) {
            const std::size_t nl = bytes.find('\n');
            const std::size_t len =
                nl == std::string_view::npos ? bytes.size() : nl;
            // memsense-lint: allow(no-hot-loop-alloc): each line is a
            // message handed over to the peer
            lines.emplace_back(bytes.substr(0, len));
            bytes.remove_prefix(
                nl == std::string_view::npos ? len : len + 1);
        }
    }
    cv.notify_one();
    return true;
}

bool
LinePipe::ready()
{
    std::lock_guard<std::mutex> lock(mu);
    return !lines.empty();
}

void
LinePipe::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
    }
    cv.notify_all();
}

LineStream::Read
LinePipe::pop(std::string &out, int timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                [this] { return closed || !lines.empty(); });
    if (!lines.empty()) {
        out = std::move(lines.front());
        lines.pop_front();
        return LineStream::Read::Line;
    }
    return closed ? LineStream::Read::Eof : LineStream::Read::Idle;
}

} // namespace detail

std::unique_ptr<LineStream>
makeSocketStream(net::FdHandle fd, const StreamLimits &limits,
                 const std::string &peer_label)
{
    const int raw = fd.get();
    return std::make_unique<FdLineStream>(std::move(fd), net::FdHandle(),
                                          limits, peer_label, raw, raw);
}

std::unique_ptr<LineStream>
makeStdioStream(const StreamLimits &limits)
{
    // Unowned descriptors: never close stdin/stdout on stream teardown.
    return std::make_unique<FdLineStream>(net::FdHandle(), net::FdHandle(),
                                          limits, "stdio", 0, 1);
}

std::unique_ptr<Transport>
makeSocketTransport(net::Listener listener, const StreamLimits &limits)
{
    return std::make_unique<SocketTransport>(std::move(listener), limits);
}

namespace
{

/** One-shot stdin/stdout transport (see header). */
class StdioTransport : public Transport
{
  public:
    explicit StdioTransport(StreamLimits limits_in)
        : limits(limits_in)
    {}

    Accept
    accept(std::unique_ptr<LineStream> &out, int timeout_ms) override
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!handedOut) {
            handedOut = true;
            out = makeStdioStream(limits);
            return Accept::Conn;
        }
        cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return closed; });
        return closed ? Accept::Closed : Accept::Idle;
    }

    void
    shutdownTransport() override
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        cv.notify_all();
    }

    std::string describe() const override { return "stdio"; }

  private:
    StreamLimits limits;
    std::mutex mu;
    std::condition_variable cv;
    bool handedOut = false;
    bool closed = false;
};

} // anonymous namespace

std::unique_ptr<Transport>
makeStdioTransport(const StreamLimits &limits)
{
    return std::make_unique<StdioTransport>(limits);
}

Transport::Accept
InProcessTransport::accept(std::unique_ptr<LineStream> &out,
                           int timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                [this] { return closed || !pending.empty(); });
    if (!pending.empty()) {
        out = std::move(pending.front());
        pending.pop_front();
        return Accept::Conn;
    }
    return closed ? Accept::Closed : Accept::Idle;
}

void
InProcessTransport::shutdownTransport()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
    }
    cv.notify_all();
}

InProcessClient
InProcessTransport::connect()
{
    auto to_server = std::make_shared<detail::LinePipe>();
    auto to_client = std::make_shared<detail::LinePipe>();
    int id;
    {
        std::lock_guard<std::mutex> lock(mu);
        requireConfig(!closed, "in-process transport already shut down");
        id = ++nextId;
        pending.push_back(std::make_unique<InProcessStream>(
            to_server, to_client, "inproc:" + std::to_string(id)));
    }
    cv.notify_one();
    return InProcessClient(std::move(to_server), std::move(to_client));
}

namespace
{

/** Client-side LineStream over an in-process connection (loadgen). */
class InProcessClientStream : public LineStream
{
  public:
    InProcessClientStream(std::shared_ptr<detail::LinePipe> to_server,
                          std::shared_ptr<detail::LinePipe> to_client)
        : toServer(std::move(to_server)), toClient(std::move(to_client))
    {}

    Read
    readLine(std::string &out, int timeout_ms) override
    {
        return toClient->pop(out, timeout_ms);
    }

    bool lineReady() override { return toClient->ready(); }

    bool
    write(std::string_view framed) override
    {
        return toServer->push(framed);
    }

    void
    shutdownStream() override
    {
        toServer->close();
        toClient->close();
    }

    std::string peer() const override { return "inproc-client"; }

  private:
    std::shared_ptr<detail::LinePipe> toServer;
    std::shared_ptr<detail::LinePipe> toClient;
};

} // anonymous namespace

std::unique_ptr<LineStream>
InProcessClient::asStream()
{
    return std::make_unique<InProcessClientStream>(toServer, toClient);
}

} // namespace memsense::serve
