#include "serve/server.hh"

#include <cerrno>
#include <cstring>
#include <deque>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/serveobs.hh"
#include "support/logging.hh"
#include "support/shm.hh"

namespace draco::serve {

namespace {

/**
 * Staged-output cap per connection. A client that stops reading
 * while replies accumulate beyond this is treated as dead (the
 * connection is torn down, output discarded) so one stalled peer
 * cannot pin unbounded memory.
 */
constexpr size_t kMaxOutputBytes = 16u << 20;

/**
 * After stop(), draining connections get this long to accept their
 * remaining replies before undeliverable output is dropped; keeps
 * shutdown bounded when a client never reads.
 */
constexpr unsigned kDrainGraceMs = 5000;

ServerOptions
unixOnly(std::string path)
{
    ServerOptions options;
    options.socketPath = std::move(path);
    return options;
}

/**
 * Recycled Pendings a loop keeps, and the most requests one may hold
 * and still be kept: a burst of large batches frees its Pendings
 * instead of pinning up to kMaxBatchRequests records in each.
 */
constexpr size_t kSparePendings = 128;
constexpr size_t kRecycledRequests = 128;

/**
 * A SlotBell frame as it crosses the socket: the little-endian length
 * prefix 1, then the type byte. Both ends ring with it, so a ring
 * encodes nothing.
 */
constexpr uint8_t kSlotBellFrame[5] = {
    1, 0, 0, 0, static_cast<uint8_t>(wire::MsgType::SlotBell)};

/** The Loop whose thread this is, or null off the loop threads. */
thread_local const void *tCurrentLoop = nullptr;

/** @return The word at @p offset of a check slot mapped at @p base. */
template <typename T>
std::atomic_ref<T>
slotWord(uint8_t *base, size_t offset)
{
    return support::sharedWord<T>(base + offset);
}

} // namespace

/**
 * A connection's check slot, daemon side; loop-thread-only. The client
 * may rewrite any byte of `map` at any time, so nothing in it is read
 * twice: the request sequence number is compared with `seq`, the
 * length is read once and bounded, and only `copy` is decoded. Its
 * doorbells are SlotBell frames on the connection's own socket, so
 * the slot holds no fd the client shares.
 */
struct SocketServer::Slot {
    support::SharedMapping map;
    uint64_t seq = 0;             ///< Request sequence number last taken.
    uint64_t activeNs = 0;        ///< Last batch answered or in flight.
    bool rang = false;            ///< The last reply rang a sleeping client.
    bool busy = false;            ///< A slot batch is in flight.
    bool spinning = false;        ///< In the loop's spin set.
    std::vector<uint8_t> copy;    ///< Private copy of the request.
    std::vector<uint8_t> reply;   ///< The reply payload, reused.

    /**
     * Flag the daemon asleep on this slot, unless a request came in
     * meanwhile. The mirror of the client's publish: the flag is
     * stored before the sequence number is read again, both seq_cst,
     * so either the client sees the flag and rings, or this sees its
     * request.
     *
     * @return true when the slot may leave the spin set.
     */
    bool
    park()
    {
        uint8_t *base = map.data();
        slotWord<uint32_t>(base, wire::kSlotDaemonSleeping).store(1);
        if (slotWord<uint64_t>(base, wire::kSlotRequestSeq).load() == seq)
            return true;
        slotWord<uint32_t>(base, wire::kSlotDaemonSleeping)
            .store(0, std::memory_order_relaxed);
        return false;
    }
};

/** One accepted connection; loop-thread-only after adoption. */
struct SocketServer::Conn {
    int fd = -1;
    ConnState state = ConnState::Open;
    bool tcp = false; ///< Accepted on the TCP listener: never a slot.
    std::unique_ptr<Slot> slot; ///< The check slot, once opened.

    wire::FrameParser parser;     ///< Incremental inbound frame decode.
    std::vector<uint8_t> outBuf;  ///< Staged framed output.
    size_t outPos = 0;            ///< Bytes of outBuf already written.

    /**
     * CheckBatch submissions whose reply has not been pumped from the
     * loop inbox yet. Only the owning loop thread reads or writes it,
     * and the conn cannot be reaped while it is non-zero — which is
     * exactly what keeps the Conn* inside queued replies valid.
     */
    uint32_t inflight = 0;

    uint32_t epollMask = 0;       ///< Currently registered interest.
    bool discardOutput = false;   ///< Write side dead; drop replies.
    bool pumpTouched = false;     ///< Dedup flag while pumping replies.

    /** Accepted on the metrics listener: speaks HTTP, not frames. */
    bool http = false;
    std::string httpBuf;          ///< Buffered HTTP request head.

    /**
     * Latency-pipeline state (only populated when the server owns an
     * obs::ServeObs). lastReadNs is the admission stamp: one clock
     * read per readInput() call, shared by every frame parsed out of
     * that read. The cumulative queued/sent byte counters pair with
     * marks to detect when a given reply's last byte hit the socket —
     * they keep counting across outBuf compaction, unlike outPos.
     */
    uint64_t lastReadNs = 0;
    uint64_t outQueuedBytes = 0;  ///< Bytes ever appended to outBuf.
    uint64_t outSentBytes = 0;    ///< Bytes ever accepted by send().

    /** A reply awaiting its flush stamp. */
    struct FlushMark {
        uint64_t target; ///< outQueuedBytes after this reply landed.
        obs::StageRecord rec;
    };
    std::deque<FlushMark> marks; ///< FIFO, targets ascending.
};

/**
 * One CheckBatch from decode to reply. The loop decodes the frame
 * straight into `request`, the drain writes verdicts into
 * `reply.resps`, and the completion hands the whole object back to
 * the owning loop, where pumpReplies() frames `reply` into the
 * connection's outBuf or the check slot. Each loop recycles its own
 * (Loop::takePending), so the vectors keep their capacity and a warm
 * batch allocates nothing.
 */
struct SocketServer::Pending {
    Conn *conn = nullptr;
    wire::CheckBatch request;
    wire::CheckBatchReply reply;
    Batch batch;
    obs::StageRecord rec; ///< Valid when hasRec.
    bool hasRec = false;
    bool viaSlot = false; ///< Came from, and replies to, the check slot.
};

/** One event-loop thread and everything it owns. */
struct SocketServer::Loop {
    Loop()
    {
        spare.reserve(kSparePendings);
        local.reserve(1);
    }

    /**
     * The completion of a batch submitted on this loop; runs on
     * whichever thread completed it. This loop's own thread (it ran
     * the drain or shed the batch inside submitBatch) lists it in
     * `local`, with no lock and no wakeup. A shard worker pushes it to
     * the inbox and wakes the loop when the push made the inbox
     * non-empty: the loop swaps the whole inbox under the mutex, so a
     * non-empty inbox already has a wakeup pending. The eventfd is
     * signalled under the mutex so the loop cannot pump this entry,
     * finish draining, and be destroyed between the push and the
     * wakeup write. Either way the push is the completer's last touch
     * of @p pending: a shard worker must not read or write it after
     * that, since the loop may recycle it for its next batch at once.
     */
    void
    complete(Pending *pending)
    {
        if (tCurrentLoop == this) {
            local.push_back(pending);
            return;
        }
        std::lock_guard<std::mutex> lock(mutex);
        const bool wasEmpty = inbox.empty();
        inbox.push_back(pending);
        if (wasEmpty)
            wake.signal();
    }

    /** @return A Pending for the next batch, recycled when one waits. */
    Pending *
    takePending()
    {
        if (spare.empty())
            return new Pending;
        Pending *pending = spare.back().release();
        spare.pop_back();
        return pending;
    }

    /** Keep @p pending for a later batch, or free it past the bounds. */
    void
    recycle(Pending *pending)
    {
        std::unique_ptr<Pending> owned(pending);
        if (spare.size() < kSparePendings &&
            owned->request.reqs.capacity() <= kRecycledRequests &&
            owned->reply.resps.capacity() <= kRecycledRequests)
            spare.push_back(std::move(owned));
    }

    support::Epoll epoll;
    support::EventFd wake;
    std::thread thread;
    size_t index = 0; ///< This loop's slot in the ServeObs hub.

    std::mutex mutex; ///< Guards inbox and pendingAdopt.
    /** Batches a shard worker completed for this loop. */
    std::vector<Pending *> inbox;
    std::vector<std::unique_ptr<Conn>> pendingAdopt; ///< From accept.

    /*
     * The rest is loop-thread-only. `local` holds batches this thread
     * completed itself; pumpReplies() takes them after the inbox, and
     * every path that submits a batch pumps before it submits the next,
     * so `local` holds at most that one. The inbox swaps with
     * `pumping`, which is cleared and kept, so no vector here loses its
     * capacity and no completion allocates.
     */
    std::vector<Pending *> local;
    std::vector<Pending *> pumping;
    std::vector<std::unique_ptr<Pending>> spare; ///< Recycled Pendings.
    std::vector<Conn *> touched;

    /** Slot connections polled between epoll_waits (spinSlots()). */
    std::vector<Conn *> spinning;

    std::list<std::unique_ptr<Conn>> conns; ///< Loop-thread-only.
};

// ---- SocketServer ----

SocketServer::SocketServer(CheckService &service, ServerOptions options)
    : _service(service), _options(std::move(options))
{
    if (_options.eventThreads == 0)
        _options.eventThreads = 1;
}

SocketServer::SocketServer(CheckService &service, std::string socketPath)
    : SocketServer(service, unixOnly(std::move(socketPath)))
{
}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start()
{
    if (_options.socketPath.empty() && _options.tcpAddress.empty()) {
        warn("dracod: no listen endpoint configured");
        return false;
    }
    if (!_options.socketPath.empty()) {
        _unixListenFd =
            listenEndpoint(Endpoint::unix_(_options.socketPath));
        if (_unixListenFd < 0)
            return false;
        support::setNonBlocking(_unixListenFd);
    }
    if (!_options.tcpAddress.empty()) {
        std::optional<Endpoint> ep =
            Endpoint::parseTcp(_options.tcpAddress);
        int fd = ep ? listenEndpoint(*ep) : -1;
        if (fd < 0) {
            if (!ep)
                warn("dracod: bad TCP listen address: %s",
                     _options.tcpAddress.c_str());
            if (_unixListenFd >= 0) {
                ::close(_unixListenFd);
                _unixListenFd = -1;
                ::unlink(_options.socketPath.c_str());
            }
            return false;
        }
        _tcpListenFd = fd;
        support::setNonBlocking(_tcpListenFd);
        _tcpPort = tcpLocalPort(_tcpListenFd);
    }
    if (!_options.metricsAddress.empty()) {
        std::optional<Endpoint> ep =
            Endpoint::parseTcp(_options.metricsAddress);
        int fd = ep ? listenEndpoint(*ep) : -1;
        if (fd < 0) {
            if (!ep)
                warn("dracod: bad metrics listen address: %s",
                     _options.metricsAddress.c_str());
            if (_unixListenFd >= 0) {
                ::close(_unixListenFd);
                _unixListenFd = -1;
                ::unlink(_options.socketPath.c_str());
            }
            if (_tcpListenFd >= 0) {
                ::close(_tcpListenFd);
                _tcpListenFd = -1;
            }
            return false;
        }
        _metricsListenFd = fd;
        support::setNonBlocking(_metricsListenFd);
        _metricsPort = tcpLocalPort(_metricsListenFd);

        obs::ServeObsOptions obsOptions;
        obsOptions.loops = _options.eventThreads;
        obsOptions.shards = _service.shards();
        obsOptions.slowUs = _options.slowUs;
        _obs = std::make_unique<obs::ServeObs>(obsOptions);
    }

    for (unsigned i = 0; i < _options.eventThreads; ++i)
        _loops.push_back(std::make_unique<Loop>());
    // All listeners live in loop 0's epoll set; accepted connections
    // spread round-robin over the pool through adoption queues.
    if (_unixListenFd >= 0)
        _loops[0]->epoll.add(_unixListenFd, EPOLLIN, &_unixTag);
    if (_tcpListenFd >= 0)
        _loops[0]->epoll.add(_tcpListenFd, EPOLLIN, &_tcpTag);
    if (_metricsListenFd >= 0)
        _loops[0]->epoll.add(_metricsListenFd, EPOLLIN, &_metricsTag);
    for (size_t i = 0; i < _loops.size(); ++i) {
        Loop &loop = *_loops[i];
        loop.index = i;
        loop.epoll.add(loop.wake.fd(), EPOLLIN, &loop);
        loop.thread = std::thread([this, i] { loopMain(i); });
    }
    return true;
}

void
SocketServer::loopMain(size_t index)
{
    ScopedLogContext logContext("dracod/loop");
    Loop &loop = *_loops[index];
    tCurrentLoop = &loop;
    std::vector<epoll_event> events;
    std::vector<uint8_t> chunk(64 * 1024);
    bool listenersLive = (index == 0);
    bool stopping = false;
    std::chrono::steady_clock::time_point stopSeen{};

    // Transition into the draining state once _stop becomes visible.
    // Called both before and after the epoll wait: the wake eventfd
    // coalesces, so a stop signal can be drained away by the same
    // iteration that was woken for an earlier reason — only a check on
    // both sides of the blocking point cannot miss it.
    auto observeStop = [&] {
        if (stopping || !_stop.load())
            return;
        stopping = true;
        stopSeen = std::chrono::steady_clock::now();
        if (listenersLive) {
            if (_unixListenFd >= 0)
                loop.epoll.del(_unixListenFd);
            if (_tcpListenFd >= 0)
                loop.epoll.del(_tcpListenFd);
            if (_metricsListenFd >= 0)
                loop.epoll.del(_metricsListenFd);
            listenersLive = false;
        }
        beginStopDrain(loop);
    };

    for (;;) {
        observeStop();
        // While stopping, poll with a timeout so the drain grace can
        // expire even if no fd ever becomes ready again. A slot being
        // spun on keeps the wait from blocking at all: the loop looks
        // at its fds between spin rounds.
        int n = loop.epoll.wait(events, !loop.spinning.empty() ? 0
                                            : stopping          ? 50
                                                                : -1);
        observeStop();

        for (int i = 0; i < n; ++i) {
            void *cookie = events[i].data.ptr;
            uint32_t ev = events[i].events;
            if (cookie == &loop) {
                loop.wake.drain();
                continue;
            }
            if (cookie == &_unixTag || cookie == &_tcpTag ||
                cookie == &_metricsTag) {
                if (!stopping) {
                    if (cookie == &_metricsTag)
                        acceptReady(_metricsListenFd, true, true);
                    else
                        acceptReady(cookie == &_unixTag ? _unixListenFd
                                                        : _tcpListenFd,
                                    cookie == &_tcpTag);
                }
                continue;
            }
            // Conns are destroyed only in reapConnections(), after
            // this dispatch loop, so the cookie is always alive here.
            Conn *conn = static_cast<Conn *>(cookie);
            if (ev & EPOLLOUT)
                flushOutput(loop, conn);
            if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
                if (conn->state == ConnState::Open)
                    readInput(loop, conn, chunk);
                else if (ev & (EPOLLHUP | EPOLLERR))
                    // A draining peer that hung up can never take the
                    // replies it is owed; stop waiting on them.
                    beginDrain(loop, conn, true);
            }
        }

        adoptPending(loop, stopping);
        pumpReplies(loop);
        spinSlots(loop);

        if (stopping &&
            std::chrono::steady_clock::now() - stopSeen >
                std::chrono::milliseconds(kDrainGraceMs)) {
            for (auto &conn : loop.conns)
                if (conn->outPos < conn->outBuf.size())
                    beginDrain(loop, conn.get(), true);
        }

        reapConnections(loop);

        if (stopping && loop.conns.empty()) {
            std::lock_guard<std::mutex> lock(loop.mutex);
            if (loop.pendingAdopt.empty() && loop.inbox.empty())
                break;
        }
    }
}

void
SocketServer::acceptReady(int listenFd, bool tcp, bool http)
{
    for (;;) {
        int fd = ::accept4(listenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                warn("dracod: accept(): %s", std::strerror(errno));
            break;
        }
        if (tcp)
            setNoDelay(fd);
        uint64_t seq = _accepted.fetch_add(1);
        _active.fetch_add(1);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->tcp = tcp;
        conn->http = http;
        Loop &target = *_loops[seq % _loops.size()];
        {
            std::lock_guard<std::mutex> lock(target.mutex);
            target.pendingAdopt.push_back(std::move(conn));
            target.wake.signal();
        }
    }
}

void
SocketServer::adoptPending(Loop &loop, bool stopping)
{
    std::vector<std::unique_ptr<Conn>> adopt;
    {
        std::lock_guard<std::mutex> lock(loop.mutex);
        adopt.swap(loop.pendingAdopt);
    }
    for (auto &owned : adopt) {
        Conn *conn = owned.get();
        conn->epollMask = EPOLLIN | EPOLLRDHUP;
        if (!loop.epoll.add(conn->fd, conn->epollMask, conn)) {
            warn("dracod: epoll add for new connection failed");
            ::close(conn->fd);
            _reaped.fetch_add(1);
            _active.fetch_sub(1);
            continue;
        }
        loop.conns.push_back(std::move(owned));
        if (stopping)
            beginDrain(loop, conn, false);
    }
}

void
SocketServer::pumpReplies(Loop &loop)
{
    // The workers' completions go first. A batch this loop drained
    // itself claimed an idle shard, after every earlier batch of that
    // shard had completed, so its reply belongs after theirs.
    {
        std::lock_guard<std::mutex> lock(loop.mutex);
        loop.inbox.swap(loop.pumping);
    }
    for (Pending *pending : loop.pumping) {
        answer(loop, *pending);
        loop.recycle(pending);
    }
    loop.pumping.clear();
    pumpLocal(loop);
}

void
SocketServer::pumpLocal(Loop &loop)
{
    for (Pending *pending : loop.local) {
        answer(loop, *pending);
        loop.recycle(pending);
    }
    loop.local.clear();
    for (Conn *conn : loop.touched) {
        conn->pumpTouched = false;
        flushOutput(loop, conn);
    }
    loop.touched.clear();
}

void
SocketServer::answer(Loop &loop, const Pending &pending)
{
    Conn *conn = pending.conn;
    conn->inflight--;
    if (pending.viaSlot && !conn->discardOutput) {
        replyToSlot(loop, conn, pending.reply);
        if (pending.hasRec && _obs) {
            // Flushed: the reply is in the slot, visible to the
            // client's next load of the reply sequence number.
            obs::StageRecord rec = pending.rec;
            rec.flushedNs = obs::nowNs();
            _obs->commit(loop.index, rec);
        }
        return;
    }
    if (!conn->pumpTouched) {
        conn->pumpTouched = true;
        loop.touched.push_back(conn);
    }
    if (conn->discardOutput) {
        if (pending.hasRec && _obs)
            _obs->recordDropped(loop.index, 1);
        return;
    }
    const size_t start = wire::beginFrame(conn->outBuf);
    wire::encode(conn->outBuf, pending.reply);
    wire::endFrame(conn->outBuf, start);
    if (conn->outBuf.size() - conn->outPos > kMaxOutputBytes) {
        logWarnEvery("serve.backlog", 1000,
                     "dracod: connection output backlog over %zu "
                     "bytes, dropping connection",
                     kMaxOutputBytes);
        if (pending.hasRec && _obs)
            _obs->recordDropped(loop.index, 1);
        beginDrain(loop, conn, true);
        return;
    }
    conn->outQueuedBytes += conn->outBuf.size() - start;
    if (pending.hasRec && _obs)
        conn->marks.push_back(
            Conn::FlushMark{conn->outQueuedBytes, pending.rec});
}

void
SocketServer::readInput(Loop &loop, Conn *conn,
                        std::vector<uint8_t> &chunk)
{
    if (conn->http) {
        readHttp(loop, conn, chunk);
        return;
    }
    // One admission stamp per readiness callback: every frame parsed
    // out of this read shares it, reusing the single clock read.
    if (_obs)
        conn->lastReadNs = obs::nowNs();
    while (conn->state == ConnState::Open) {
        ssize_t r = ::read(conn->fd, chunk.data(), chunk.size());
        if (r > 0) {
            conn->parser.append(chunk.data(), static_cast<size_t>(r));
            const bool ok = parseFrames(loop, conn);
            // The last frame of this read may have drained on the
            // loop: answer it now, before the next read submits a
            // batch that could complete ahead of it, and before every
            // other ready connection has been parsed and checked.
            pumpReplies(loop);
            if (!ok) {
                beginDrain(loop, conn, false);
                break;
            }
            if (static_cast<size_t>(r) < chunk.size())
                break; // Short read: the socket is drained.
            continue;
        }
        if (r == 0) {
            // EOF or client half-close: stop reading, but in-flight
            // batches still complete and their replies still flush.
            beginDrain(loop, conn, false);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        beginDrain(loop, conn, true);
        break;
    }
    if (!conn->discardOutput && conn->outPos < conn->outBuf.size())
        flushOutput(loop, conn);
}

void
SocketServer::readHttp(Loop &loop, Conn *conn,
                       std::vector<uint8_t> &chunk)
{
    // HTTP/1.0, one request per connection: buffer until the header
    // terminator, answer, then drain (flush + reap). Scrapers open a
    // fresh connection per scrape, which keeps this path trivial.
    constexpr size_t kMaxHttpHead = 16u << 10;
    while (conn->state == ConnState::Open) {
        ssize_t r = ::read(conn->fd, chunk.data(), chunk.size());
        if (r > 0) {
            conn->httpBuf.append(reinterpret_cast<char *>(chunk.data()),
                                 static_cast<size_t>(r));
            if (conn->httpBuf.size() > kMaxHttpHead) {
                beginDrain(loop, conn, true);
                break;
            }
            if (conn->httpBuf.find("\r\n\r\n") != std::string::npos ||
                conn->httpBuf.find("\n\n") != std::string::npos) {
                handleHttp(loop, conn);
                break;
            }
            if (static_cast<size_t>(r) < chunk.size())
                break;
            continue;
        }
        if (r == 0) {
            beginDrain(loop, conn, false);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        beginDrain(loop, conn, true);
        break;
    }
    if (!conn->discardOutput && conn->outPos < conn->outBuf.size())
        flushOutput(loop, conn);
}

void
SocketServer::handleHttp(Loop &loop, Conn *conn)
{
    // Parse "<METHOD> <target> ..." off the request line.
    std::string method;
    std::string target;
    {
        const std::string &head = conn->httpBuf;
        size_t eol = head.find_first_of("\r\n");
        std::string line = head.substr(0, eol);
        size_t sp1 = line.find(' ');
        if (sp1 != std::string::npos) {
            method = line.substr(0, sp1);
            size_t sp2 = line.find(' ', sp1 + 1);
            target = line.substr(sp1 + 1, sp2 == std::string::npos
                                              ? std::string::npos
                                              : sp2 - sp1 - 1);
        }
        size_t query = target.find('?');
        if (query != std::string::npos)
            target.resize(query);
    }

    std::string response;
    if (method != "GET") {
        response = obs::httpResponse(405, "text/plain",
                                     "method not allowed\n");
    } else if (target == "/healthz") {
        response = obs::httpResponse(200, "text/plain", "ok\n");
    } else if (target == "/metrics") {
        response = obs::httpResponse(
            200, "text/plain; version=0.0.4",
            _obs->renderPrometheus(liveMetrics()));
    } else if (target == "/statz") {
        response = obs::httpResponse(200, "application/json",
                                     liveMetrics().toJson(true));
    } else if (target == "/slowz") {
        response = obs::httpResponse(200, "application/json",
                                     _obs->slowzJson());
    } else {
        response = obs::httpResponse(404, "text/plain",
                                     "not found\n");
    }

    conn->outBuf.insert(conn->outBuf.end(), response.begin(),
                        response.end());
    conn->outQueuedBytes += response.size();
    conn->httpBuf.clear();
    // Answer sent: close the read side and let the normal drain state
    // machine flush the response and reap the connection.
    beginDrain(loop, conn, false);
}

MetricRegistry
SocketServer::liveMetrics() const
{
    MetricRegistry registry;
    _service.exportMetrics(registry, "serve.live");
    registry.setCounter("serve.live.connections.accepted",
                        _accepted.load());
    registry.setCounter("serve.live.connections.reaped",
                        _reaped.load());
    registry.setGauge("serve.live.connections.active",
                      _active.load());
    registry.setCounter("serve.live.connections.slots_opened",
                        _slotsOpened.load());
    registry.setGauge("serve.live.connections.slots_active",
                      _slotsActive.load());
    return registry;
}

bool
SocketServer::parseFrames(Loop &loop, Conn *conn)
{
    std::span<const uint8_t> payload;
    for (;;) {
        switch (conn->parser.next(payload)) {
          case wire::FrameParser::Result::Need:
            return true;
          case wire::FrameParser::Result::Corrupt:
            logWarnEvery("serve.oversize", 1000,
                         "dracod: oversized frame length, closing "
                         "connection");
            return false;
          case wire::FrameParser::Result::Frame:
            if (!handleFrame(loop, conn, payload))
                return false;
            if (conn->state != ConnState::Open)
                return true; // handleFrame began a drain itself.
            break;
        }
    }
}

void
SocketServer::sendControl(Loop &loop, Conn *conn,
                          std::span<const uint8_t> payload)
{
    if (conn->discardOutput)
        return;
    if (conn->outBuf.size() - conn->outPos + payload.size() + 4 >
        kMaxOutputBytes) {
        logWarnEvery("serve.backlog", 1000,
                     "dracod: connection output backlog over %zu "
                     "bytes, dropping connection",
                     kMaxOutputBytes);
        beginDrain(loop, conn, true);
        return;
    }
    const size_t before = conn->outBuf.size();
    if (!wire::appendFrame(conn->outBuf, payload))
        warn("dracod: oversized control reply dropped");
    conn->outQueuedBytes += conn->outBuf.size() - before;
}

bool
SocketServer::handleFrame(Loop &loop, Conn *conn,
                          std::span<const uint8_t> payload)
{
    std::vector<uint8_t> reply;
    switch (wire::peekType(payload)) {
      case wire::MsgType::Hello: {
        wire::Hello msg;
        if (!wire::decode(payload, msg))
            return false;
        wire::HelloReply r;
        r.version = wire::kProtocolVersion;
        r.shards = _service.shards();
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        // A peer of another version would have its later frames parsed
        // under this version's layout: tell it ours, then hang up.
        return msg.version == wire::kProtocolVersion;
      }
      case wire::MsgType::CreateTenant: {
        wire::CreateTenant msg;
        if (!wire::decode(payload, msg))
            return false;
        wire::CreateTenantReply r;
        std::optional<seccomp::Profile> profile =
            builtinProfileByName(msg.profile);
        if (!profile) {
            r.error = "unknown profile: " + msg.profile;
        } else {
            TenantOptions opts;
            if (msg.filterCopies > 0)
                opts.filterCopies = msg.filterCopies;
            if (msg.maxInFlight > 0)
                opts.maxInFlight = msg.maxInFlight;
            r.tenantId =
                _service.createTenant(msg.name, *profile, opts);
            if (r.tenantId == kInvalidTenant)
                r.error = "tenant table full or service stopping";
        }
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        return true;
      }
      case wire::MsgType::CheckBatch:
        return submitCheckBatch(loop, conn, payload, false);
      case wire::MsgType::SlotOpen:
        if (payload.size() != 1)
            return false;
        openSlot(loop, conn);
        return true;
      case wire::MsgType::SlotBell:
        if (payload.size() != 1 || !conn->slot)
            return false;
        // Back into the spin set; a bell without a request parks the
        // slot again after one round.
        if (!conn->slot->spinning) {
            slotWord<uint32_t>(conn->slot->map.data(),
                               wire::kSlotDaemonSleeping)
                .store(0, std::memory_order_relaxed);
            conn->slot->spinning = true;
            loop.spinning.push_back(conn);
        }
        return true;
      case wire::MsgType::TenantStatsReq: {
        wire::TenantStatsReq msg;
        if (!wire::decode(payload, msg))
            return false;
        wire::TenantStatsReply r;
        r.ok = _service.tenantStats(msg.tenantId, r.stats);
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        return true;
      }
      case wire::MsgType::EvictTenant: {
        wire::EvictTenant msg;
        if (!wire::decode(payload, msg))
            return false;
        wire::EvictTenantReply r;
        r.ok = _service.evictTenant(msg.tenantId);
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        return true;
      }
      case wire::MsgType::UpdateProfile: {
        wire::UpdateProfile msg;
        if (!wire::decode(payload, msg))
            return false;
        wire::UpdateProfileReply r;
        std::optional<seccomp::Profile> profile =
            builtinProfileByName(msg.profile);
        if (!profile) {
            r.error = "unknown profile: " + msg.profile;
        } else {
            // Blocks this loop thread until the owning shard worker
            // publishes the epoch — control ops ride the same FIFO as
            // checks (cf. TenantStatsReq), and that shared queue
            // position is exactly what makes the swap boundary
            // deterministic for everything this client pipelined
            // before the UpdateProfile frame.
            r.ok = _service.swapProfile(msg.tenantId, *profile,
                                        &r.epoch);
            if (!r.ok)
                r.error = "unknown, evicted, or stopping tenant";
        }
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        return true;
      }
      case wire::MsgType::ServiceStatsReq: {
        if (payload.size() != 1)
            return false;
        wire::ServiceStatsReply r;
        _service.serviceStats(r.stats);
        wire::encode(reply, r);
        sendControl(loop, conn, reply);
        return true;
      }
      case wire::MsgType::Shutdown: {
        wire::encodeShutdownReply(reply);
        sendControl(loop, conn, reply);
        requestStop();
        return false;
      }
      default:
        logWarnEvery("serve.frametype", 1000,
                     "dracod: unexpected frame type %u, closing "
                     "connection",
                     static_cast<unsigned>(wire::peekType(payload)));
        return false;
    }
}

bool
SocketServer::submitCheckBatch(Loop &loop, Conn *conn,
                               std::span<const uint8_t> payload,
                               bool viaSlot)
{
    // The reply is produced by whichever thread drains the batch:
    // this loop for a lone batch on an idle shard, else the shard
    // worker. The loop keeps decoding further frames, so one
    // connection can pipeline many batches.
    Pending *pending = loop.takePending();
    wire::CheckBatch &request = pending->request;
    if (!wire::decode(payload, request)) {
        loop.recycle(pending);
        return false;
    }
    const auto count = static_cast<uint32_t>(request.reqs.size());
    pending->reply.batchId = request.batchId;
    pending->reply.resps.resize(count);
    if (count == 0) {
        if (viaSlot) {
            replyToSlot(loop, conn, pending->reply);
        } else {
            std::vector<uint8_t> reply;
            wire::encode(reply, pending->reply);
            sendControl(loop, conn, reply);
        }
        loop.recycle(pending);
        return true;
    }
    pending->conn = conn;
    pending->viaSlot = viaSlot;
    conn->inflight++;
    if (viaSlot)
        conn->slot->busy = true;
    pending->hasRec = _obs != nullptr;
    if (pending->hasRec) {
        pending->rec = obs::StageRecord{};
        pending->rec.admitNs = conn->lastReadNs;
        pending->rec.parseNs = obs::nowNs();
        pending->rec.batchId = request.batchId;
        pending->rec.tenant = request.tenantId;
    }
    // Two pointers: std::function holds them inline. The completion
    // must not touch Conn state, whichever thread runs it: the loop
    // alone decrements inflight while it pumps the reply, which also
    // keeps the conn alive until then.
    Loop *owner = &loop;
    pending->batch.onComplete(
        [owner, pending] { owner->complete(pending); });
    // A lone batch — a slot's, or a frame with nothing buffered
    // behind it — may run on this loop when its shard is idle,
    // skipping the queue handoff and both wakeups. Frames with more
    // behind them queue, so a pipelined burst still spreads over
    // the shard workers while the loop keeps parsing.
    const DrainOn drainOn = viaSlot || conn->parser.buffered() == 0
        ? DrainOn::CallerIfIdle : DrainOn::Worker;
    _service.submitBatch(request.tenantId, request.reqs.data(), count,
                         pending->reply.resps.data(), pending->batch,
                         pending->hasRec ? &pending->rec : nullptr,
                         drainOn);
    return true;
}

void
SocketServer::openSlot(Loop &loop, Conn *conn)
{
    // The memfd rides on the reply's first byte, so that reply is sent
    // here, not staged behind other output: only a Unix connection with
    // nothing else owed gets a slot. Any failure (EMFILE at the fd
    // limit, say) refuses it, and the connection stays on the socket.
    std::unique_ptr<Slot> slot;
    int memfd = -1;
    if (!conn->tcp && !conn->slot && conn->outPos == conn->outBuf.size()) {
        memfd = support::createSealedMemfd("dracod-slot", wire::kSlotBytes);
        if (memfd < 0)
            logWarnEvery("serve.slot", 1000,
                         "dracod: check slot refused: memfd: %s",
                         std::strerror(errno));
    }
    if (memfd >= 0) {
        slot = std::make_unique<Slot>();
        if (!slot->map.map(memfd, wire::kSlotBytes))
            slot.reset();
    }
    wire::SlotOpenReply r;
    r.ok = slot != nullptr;
    std::vector<uint8_t> reply;
    wire::encode(reply, r);
    if (!slot) {
        if (memfd >= 0)
            ::close(memfd);
        sendControl(loop, conn, reply);
        return;
    }
    std::vector<uint8_t> frame;
    wire::appendFrame(frame, reply);
    const ssize_t sent =
        support::sendWithFds(conn->fd, frame, std::span(&memfd, 1));
    ::close(memfd); // The mapping keeps the memory.
    if (sent <= 0) {
        beginDrain(loop, conn, true);
        return;
    }
    conn->outBuf.insert(conn->outBuf.end(), frame.begin() + sent,
                        frame.end());
    conn->outQueuedBytes += frame.size();
    conn->outSentBytes += static_cast<uint64_t>(sent);
    updateInterest(loop, conn);
    // The first request follows at once: start out spinning.
    slot->activeNs = obs::nowNs();
    slot->spinning = true;
    loop.spinning.push_back(conn);
    conn->slot = std::move(slot);
    _slotsOpened.fetch_add(1);
    _slotsActive.fetch_add(1);
}

void
SocketServer::spinSlots(Loop &loop)
{
    // Round after round over the spin set, for at most one window
    // before the caller's epoll_wait(…, 0) looks at the other fds. A
    // slot idle for a whole window parks and leaves the set.
    const uint64_t start = obs::nowNs();
    for (uint64_t now = start; !loop.spinning.empty();) {
        bool answered = false;
        for (size_t i = 0; i < loop.spinning.size();) {
            Conn *conn = loop.spinning[i];
            Slot &slot = *conn->slot;
            bool keep = conn->state == ConnState::Open;
            if (keep && slot.busy) {
                // Queued to a shard worker: the window restarts every
                // round until the reply lands.
                slot.activeNs = now;
            } else if (keep) {
                // A batch drained here is answered before the next
                // slot is read, without the inbox mutex, and the clock
                // read after it stamps both this slot and the next.
                if (takeSlotBatch(loop, conn, now)) {
                    pumpLocal(loop);
                    now = obs::nowNs();
                    slot.activeNs = now;
                    answered = true;
                } else if (slot.rang ||
                           now >= slot.activeNs + wire::kSlotSpinNs) {
                    // A client that had to be rung is not back within
                    // the window either.
                    keep = !slot.park();
                }
            }
            if (keep) {
                ++i;
                continue;
            }
            slot.spinning = false;
            loop.spinning[i] = loop.spinning.back();
            loop.spinning.pop_back();
        }
        pumpReplies(loop);
        // A round that answered a batch read the clock after it and
        // goes straight on; an idle one reads it and pauses.
        if (!answered) {
            now = obs::nowNs();
            support::cpuRelax();
        }
        if (now - start >= wire::kSlotSpinNs)
            return;
    }
}

bool
SocketServer::takeSlotBatch(Loop &loop, Conn *conn, uint64_t now)
{
    Slot &slot = *conn->slot;
    uint8_t *base = slot.map.data();
    const uint64_t seq = slotWord<uint64_t>(base, wire::kSlotRequestSeq)
                             .load(std::memory_order_acquire);
    if (seq == slot.seq)
        return false;
    slot.seq = seq;
    conn->lastReadNs = now;
    // The length is read once and bounded before it sizes anything;
    // the payload is copied out once and only the copy is decoded.
    const uint32_t len = slotWord<uint32_t>(base, wire::kSlotRequestLen)
                             .load(std::memory_order_relaxed);
    if (len <= wire::kSlotRequestBytes) {
        // Ask for every line the batch needs before touching any: the
        // request's, which the copy then takes without a miss apiece,
        // and, for writing, the reply lines its verdicts will fill.
        // Their transfers overlap the copy and the check.
        const size_t count =
            len > wire::kCheckBatchHeaderBytes
                ? (len - wire::kCheckBatchHeaderBytes) /
                      wire::kRequestRecordBytes
                : 0;
        support::prefetchLines(base + wire::kSlotRequestOffset, len);
        support::prefetchLinesForWrite(
            base + wire::kSlotReplyOffset,
            std::min(wire::kSlotReplyBytes,
                     wire::kCheckBatchReplyHeaderBytes +
                         count * wire::kVerdictRecordBytes));
        slot.copy.resize(len);
        support::copyFromShared(slot.copy.data(),
                                base + wire::kSlotRequestOffset, len);
    }
    if (len > wire::kSlotRequestBytes ||
        wire::peekType(slot.copy) != wire::MsgType::CheckBatch ||
        !submitCheckBatch(loop, conn, slot.copy, true)) {
        logWarnEvery("serve.slotreq", 1000,
                     "dracod: malformed check slot request, closing "
                     "connection");
        beginDrain(loop, conn, false);
    }
    return true;
}

void
SocketServer::replyToSlot(Loop &loop, Conn *conn,
                          const wire::CheckBatchReply &reply)
{
    Slot &slot = *conn->slot;
    uint8_t *base = slot.map.data();
    slot.reply.clear();
    wire::encode(slot.reply, reply);
    support::copyToShared(base + wire::kSlotReplyOffset, slot.reply.data(),
                          slot.reply.size());
    slotWord<uint32_t>(base, wire::kSlotReplyLen)
        .store(static_cast<uint32_t>(slot.reply.size()),
               std::memory_order_relaxed);
    // Publish, then ring only a client that flagged itself asleep (it
    // stores its flag before it reads this number again). The bell is
    // output like any other, so a client that stops reading fills only
    // its own backlog.
    slotWord<uint64_t>(base, wire::kSlotReplySeq).store(slot.seq);
    slot.busy = false;
    slot.rang =
        slotWord<uint32_t>(base, wire::kSlotClientSleeping).load() != 0;
    if (slot.rang) {
        sendControl(loop, conn, std::span(kSlotBellFrame).subspan(4));
        flushOutput(loop, conn);
    }
}

void
SocketServer::flushOutput(Loop &loop, Conn *conn)
{
    if (conn->discardOutput)
        return;
    while (conn->outPos < conn->outBuf.size()) {
        ssize_t w = ::send(conn->fd, conn->outBuf.data() + conn->outPos,
                           conn->outBuf.size() - conn->outPos,
                           MSG_NOSIGNAL);
        if (w > 0) {
            conn->outPos += static_cast<size_t>(w);
            conn->outSentBytes += static_cast<uint64_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // A failed write kills the whole connection, reader included:
        // the peer can never see the replies it is owed, so decoding
        // further requests for it would only leak work.
        beginDrain(loop, conn, true);
        return;
    }
    commitFlushed(loop, conn);
    if (conn->outPos == conn->outBuf.size()) {
        conn->outBuf.clear();
        conn->outPos = 0;
    } else if (conn->outPos >= (64u << 10)) {
        conn->outBuf.erase(conn->outBuf.begin(),
                           conn->outBuf.begin() +
                               static_cast<ptrdiff_t>(conn->outPos));
        conn->outPos = 0;
    }
    updateInterest(loop, conn);
}

/**
 * Stamp and commit every flush mark whose reply bytes have fully hit
 * the socket. Cumulative byte counters make this immune to outBuf
 * compaction, and the clock is read at most once per call.
 */
void
SocketServer::commitFlushed(Loop &loop, Conn *conn)
{
    if (!_obs || conn->marks.empty())
        return;
    uint64_t now = 0;
    while (!conn->marks.empty() &&
           conn->marks.front().target <= conn->outSentBytes) {
        if (now == 0)
            now = obs::nowNs();
        obs::StageRecord rec = conn->marks.front().rec;
        conn->marks.pop_front();
        rec.flushedNs = now;
        _obs->commit(loop.index, rec);
    }
}

/** Discard marks whose replies will never flush (connection died). */
void
SocketServer::dropMarks(Loop &loop, Conn *conn)
{
    if (!_obs || conn->marks.empty())
        return;
    _obs->recordDropped(loop.index, conn->marks.size());
    conn->marks.clear();
}

void
SocketServer::beginDrain(Loop &loop, Conn *conn, bool discardOutput)
{
    if (discardOutput && !conn->discardOutput) {
        conn->discardOutput = true;
        conn->outBuf.clear();
        conn->outPos = 0;
        dropMarks(loop, conn);
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (conn->state == ConnState::Open) {
        // A draining connection takes no more slot requests (spinSlots
        // drops it and a bell is no longer read); a batch in flight
        // still gets its reply.
        conn->state = ConnState::Draining;
        if (!conn->discardOutput)
            ::shutdown(conn->fd, SHUT_RD);
    }
    updateInterest(loop, conn);
}

void
SocketServer::updateInterest(Loop &loop, Conn *conn)
{
    uint32_t mask = 0;
    if (conn->state == ConnState::Open)
        mask |= EPOLLIN | EPOLLRDHUP;
    if (!conn->discardOutput && conn->outPos < conn->outBuf.size())
        mask |= EPOLLOUT;
    if (mask != conn->epollMask) {
        conn->epollMask = mask;
        loop.epoll.mod(conn->fd, mask, conn);
    }
}

void
SocketServer::beginStopDrain(Loop &loop)
{
    for (auto &conn : loop.conns)
        if (conn->state == ConnState::Open)
            beginDrain(loop, conn.get(), false);
}

void
SocketServer::reapConnections(Loop &loop)
{
    for (auto it = loop.conns.begin(); it != loop.conns.end();) {
        Conn *conn = it->get();
        bool flushed = conn->discardOutput ||
                       conn->outPos == conn->outBuf.size();
        if (conn->state == ConnState::Draining &&
            conn->inflight == 0 && flushed) {
            dropMarks(loop, conn); // Leftovers can never flush now.
            loop.epoll.del(conn->fd);
            ::close(conn->fd);
            if (conn->slot) {
                if (conn->slot->spinning)
                    std::erase(loop.spinning, conn);
                _slotsActive.fetch_sub(1);
            }
            _reaped.fetch_add(1);
            _active.fetch_sub(1);
            it = loop.conns.erase(it);
        } else {
            ++it;
        }
    }
}

void
SocketServer::requestStop()
{
    bool already;
    {
        std::lock_guard<std::mutex> lock(_waitMutex);
        already = _stop.exchange(true);
    }
    if (already)
        return;
    _waitCv.notify_all();
    for (auto &loop : _loops)
        loop->wake.signal();
}

void
SocketServer::wait()
{
    {
        std::unique_lock<std::mutex> lock(_waitMutex);
        _waitCv.wait(lock, [this] { return _stop.load(); });
    }
    stop();
}

void
SocketServer::stop()
{
    requestStop();
    if (_stopped.exchange(true))
        return;
    for (auto &loop : _loops)
        if (loop->thread.joinable())
            loop->thread.join();
    // A connection accepted in the instant before loop 0 observed the
    // stop can land in the adoption queue of a loop that had already
    // drained and exited — nobody will ever adopt it. Reap those here
    // (threads are joined, so the queues are ours), or the fds leak
    // and their clients block forever on a Hello reply.
    for (auto &loop : _loops) {
        for (auto &conn : loop->pendingAdopt) {
            ::close(conn->fd);
            _reaped.fetch_add(1);
            _active.fetch_sub(1);
        }
        loop->pendingAdopt.clear();
    }
    _loops.clear();
    if (_unixListenFd >= 0) {
        ::close(_unixListenFd);
        _unixListenFd = -1;
    }
    if (_tcpListenFd >= 0) {
        ::close(_tcpListenFd);
        _tcpListenFd = -1;
    }
    if (_metricsListenFd >= 0) {
        ::close(_metricsListenFd);
        _metricsListenFd = -1;
    }
    if (!_options.socketPath.empty())
        ::unlink(_options.socketPath.c_str());
}

// ---- SocketClient ----

/** The client's side of its check slot. */
struct SocketClient::Slot {
    /** Takes the memfd of a SlotOpenReply. */
    explicit Slot(int fd) : memfd(fd) {}
    ~Slot() { ::close(memfd); }

    Slot(const Slot &) = delete;
    Slot &operator=(const Slot &) = delete;

    int memfd;
    support::SharedMapping map;
    uint64_t seq = 0;     ///< Last request sequence number published.
    uint64_t replyNs = 0; ///< When the last reply was read.
};

SocketClient::SocketClient(int fd, bool unixSocket)
    : _fd(fd), _unix(unixSocket)
{
}

std::unique_ptr<SocketClient>
SocketClient::connectTo(const Endpoint &endpoint)
{
    int fd = draco::serve::connectEndpoint(endpoint);
    if (fd < 0)
        return nullptr;
    auto client = std::unique_ptr<SocketClient>(
        new SocketClient(fd, endpoint.kind == Endpoint::Kind::Unix));
    wire::encode(client->request(), wire::Hello{});
    std::span<const uint8_t> reply;
    wire::HelloReply hello;
    if (!client->roundTrip(reply) || !wire::decode(reply, hello) ||
        hello.version != wire::kProtocolVersion) {
        warn("dracoload: handshake with %s failed",
             endpoint.describe().c_str());
        return nullptr;
    }
    client->_serverShards = hello.shards;
    return client;
}

std::unique_ptr<SocketClient>
SocketClient::connect(const std::string &socketPath)
{
    return connectTo(Endpoint::unix_(socketPath));
}

std::unique_ptr<SocketClient>
SocketClient::connectTcp(const std::string &hostPort)
{
    std::optional<Endpoint> ep = Endpoint::parseTcp(hostPort);
    if (!ep) {
        warn("dracoload: bad TCP address: %s", hostPort.c_str());
        return nullptr;
    }
    return connectTo(*ep);
}

SocketClient::~SocketClient()
{
    if (_fd >= 0)
        ::close(_fd);
}

std::vector<uint8_t> &
SocketClient::request()
{
    _out.clear();
    return _out;
}

std::span<uint8_t>
SocketClient::slotMemory() const
{
    if (!_slot)
        return {};
    return {_slot->map.data(), _slot->map.size()};
}

int
SocketClient::slotMemfd() const
{
    return _slot ? _slot->memfd : -1;
}

bool
SocketClient::roundTrip(std::span<const uint8_t> &reply,
                        std::vector<int> *fds)
{
    if (!wire::writeFrame(_fd, _out))
        return false;
    // Lock-step: the next frame on the wire is the reply, after any
    // stale SlotBell. One read normally takes all of it; read again
    // only while it is partial. (A plain read closes any fds a peer
    // attached.)
    for (;;) {
        switch (_parser.next(reply)) {
          case wire::FrameParser::Result::Frame:
            if (_slot && wire::peekType(reply) == wire::MsgType::SlotBell)
                continue;
            return true;
          case wire::FrameParser::Result::Corrupt:
            return false;
          case wire::FrameParser::Result::Need:
            break;
        }
        uint8_t chunk[16 << 10];
        const ssize_t n =
            fds ? support::recvWithFds(_fd, chunk, sizeof(chunk), *fds)
                : ::read(_fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        _parser.append(chunk, static_cast<size_t>(n));
    }
}

bool
SocketClient::openSlot()
{
    _slotTried = true;
    wire::encodeSlotOpen(request());
    std::span<const uint8_t> reply;
    std::vector<int> fds;
    wire::SlotOpenReply r;
    const bool ok = roundTrip(reply, &fds) && wire::decode(reply, r);
    if (ok && r.ok && fds.size() == 1) {
        auto slot = std::make_unique<Slot>(fds[0]);
        if (slot->map.map(slot->memfd, wire::kSlotBytes))
            _slot = std::move(slot);
        return true;
    }
    for (int fd : fds)
        ::close(fd);
    return ok;
}

bool
SocketClient::slotRoundTrip(std::span<const uint8_t> &reply)
{
    Slot &slot = *_slot;
    uint8_t *base = slot.map.data();
    if (_out.size() > wire::kSlotRequestBytes)
        return false;
    support::copyToShared(base + wire::kSlotRequestOffset, _out.data(),
                          _out.size());
    slotWord<uint32_t>(base, wire::kSlotRequestLen)
        .store(static_cast<uint32_t>(_out.size()),
               std::memory_order_relaxed);
    // Publish, then ring only a daemon that flagged itself asleep (it
    // stores its flag before it reads this number again). A paced
    // request that had to ring sleeps at once, since a parked loop
    // answers only after a wakeup; one that came straight back spins,
    // and a reply it catches spinning keeps the daemon spinning too.
    // One clock read serves the pacing test and the spin deadline.
    const uint64_t now = obs::nowNs();
    const bool paced = now - slot.replyNs >= wire::kSlotSpinNs;
    const uint64_t seq = ++slot.seq;
    slotWord<uint64_t>(base, wire::kSlotRequestSeq).store(seq);
    const bool ring =
        slotWord<uint32_t>(base, wire::kSlotDaemonSleeping).load() != 0;
    if (ring && !ringDaemon())
        return false;
    if (!awaitSlotReply(seq, !(ring && paced), now))
        return false;
    slot.replyNs = obs::nowNs();
    const uint32_t len = slotWord<uint32_t>(base, wire::kSlotReplyLen)
                             .load(std::memory_order_relaxed);
    if (len > wire::kSlotReplyBytes)
        return false;
    _in.resize(len);
    support::copyFromShared(_in.data(), base + wire::kSlotReplyOffset, len);
    reply = _in;
    return true;
}

bool
SocketClient::ringDaemon()
{
    for (size_t sent = 0; sent < sizeof(kSlotBellFrame);) {
        const ssize_t n = ::send(_fd, kSlotBellFrame + sent,
                                 sizeof(kSlotBellFrame) - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
SocketClient::awaitSlotReply(uint64_t seq, bool spin, uint64_t startNs)
{
    Slot &slot = *_slot;
    auto replySeq = slotWord<uint64_t>(slot.map.data(), wire::kSlotReplySeq);
    auto sleeping =
        slotWord<uint32_t>(slot.map.data(), wire::kSlotClientSleeping);
    for (unsigned i = 1; spin; ++i) {
        if (replySeq.load(std::memory_order_acquire) == seq)
            return true;
        if (i % 64 == 0 && obs::nowNs() - startNs >= wire::kSlotSpinNs)
            break;
        support::cpuRelax();
    }
    // Sleep on the socket: the daemon rings it with a SlotBell, and a
    // daemon that stops or dies hangs it up.
    for (;;) {
        sleeping.store(1);
        if (replySeq.load() == seq) {
            sleeping.store(0, std::memory_order_relaxed);
            return true;
        }
        pollfd pfd{_fd, POLLIN, 0};
        const int n = ::poll(&pfd, 1, -1);
        sleeping.store(0, std::memory_order_relaxed);
        if (n < 0 && errno != EINTR)
            return false;
        if (n > 0 && !takeBells())
            return false;
        if (replySeq.load(std::memory_order_acquire) == seq)
            return true;
    }
}

bool
SocketClient::takeBells()
{
    uint8_t chunk[256];
    const ssize_t n = ::recv(_fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR))
        return false;
    if (n > 0)
        _parser.append(chunk, static_cast<size_t>(n));
    // While a slot batch is out the daemon sends nothing but bells.
    std::span<const uint8_t> frame;
    for (;;) {
        switch (_parser.next(frame)) {
          case wire::FrameParser::Result::Need:
            return true;
          case wire::FrameParser::Result::Corrupt:
            return false;
          case wire::FrameParser::Result::Frame:
            if (wire::peekType(frame) != wire::MsgType::SlotBell)
                return false;
            break;
        }
    }
}

TenantId
SocketClient::createTenant(const std::string &name,
                           const std::string &profileName,
                           const TenantOptions &options)
{
    wire::CreateTenant msg;
    msg.name = name;
    msg.profile = profileName;
    msg.maxInFlight = options.maxInFlight;
    msg.filterCopies = static_cast<uint8_t>(options.filterCopies);
    wire::encode(request(), msg);
    std::span<const uint8_t> reply;
    wire::CreateTenantReply r;
    if (!roundTrip(reply) || !wire::decode(reply, r)) {
        warn("dracoload: CreateTenant transport failure");
        return kInvalidTenant;
    }
    if (r.tenantId == kInvalidTenant && !r.error.empty())
        warn("dracoload: CreateTenant '%s': %s", name.c_str(),
             r.error.c_str());
    return r.tenantId;
}

bool
SocketClient::checkBatch(TenantId id, const os::SyscallRequest *reqs,
                         uint32_t count, CheckResponse *resps)
{
    if (_unix && !_slotTried && !openSlot())
        return false;
    const uint64_t batchId = _nextBatchId++;
    wire::encodeCheckBatch(request(), batchId, id, {reqs, count});
    std::span<const uint8_t> reply;
    uint64_t replyId = 0;
    return (_slot ? slotRoundTrip(reply) : roundTrip(reply)) &&
           wire::decodeCheckBatchReply(reply, replyId, {resps, count}) &&
           replyId == batchId;
}

bool
SocketClient::tenantStats(TenantId id, TenantStats &out)
{
    wire::TenantStatsReq msg;
    msg.tenantId = id;
    wire::encode(request(), msg);
    std::span<const uint8_t> reply;
    wire::TenantStatsReply r;
    if (!roundTrip(reply) || !wire::decode(reply, r) || !r.ok)
        return false;
    out = r.stats;
    return true;
}

bool
SocketClient::evictTenant(TenantId id)
{
    wire::EvictTenant msg;
    msg.tenantId = id;
    wire::encode(request(), msg);
    std::span<const uint8_t> reply;
    wire::EvictTenantReply r;
    return roundTrip(reply) && wire::decode(reply, r) && r.ok;
}

bool
SocketClient::updateProfile(TenantId id, const std::string &profileName,
                            uint64_t *epochOut)
{
    wire::UpdateProfile msg;
    msg.tenantId = id;
    msg.profile = profileName;
    wire::encode(request(), msg);
    std::span<const uint8_t> reply;
    wire::UpdateProfileReply r;
    if (!roundTrip(reply) || !wire::decode(reply, r))
        return false;
    if (!r.ok && !r.error.empty())
        warn("dracoload: UpdateProfile tenant %u -> '%s': %s", id,
             profileName.c_str(), r.error.c_str());
    if (r.ok && epochOut)
        *epochOut = r.epoch;
    return r.ok;
}

bool
SocketClient::serviceStats(ServiceStatsSnapshot &out)
{
    wire::encodeServiceStatsReq(request());
    std::span<const uint8_t> reply;
    wire::ServiceStatsReply r;
    if (!roundTrip(reply) || !wire::decode(reply, r))
        return false;
    out = r.stats;
    return true;
}

bool
SocketClient::shutdownServer()
{
    wire::encodeShutdown(request());
    std::span<const uint8_t> reply;
    return roundTrip(reply) &&
           wire::peekType(reply) == wire::MsgType::ShutdownReply;
}

} // namespace draco::serve
