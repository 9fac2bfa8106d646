/**
 * @file
 * The dracod socket frontend.
 *
 * SocketServer exposes a CheckService over stream sockets — a
 * Unix-domain path, a TCP host:port, or both at once — speaking the
 * serve/wire protocol. Unlike the original thread-per-connection
 * design, the frontend is an epoll event loop: a small fixed pool of
 * loop threads owns all connections, every fd is non-blocking, and
 * each connection carries its own incremental frame parser and staged
 * output buffer. Control messages answer inline on the loop thread.
 * A CheckBatch decodes from the parser's buffer straight into its
 * pending batch's request array. Each loop recycles its pending
 * batches, vectors and all, so a warm batch allocates nothing. One
 * that arrives alone — nothing buffered behind it on its connection —
 * while its shard is idle is checked on the loop thread itself
 * (CheckService::submitBatch with DrainOn::CallerIfIdle), which is
 * what a lock-step client always sends; its completion goes on a list
 * only that loop touches, with no lock and no wakeup. Every other
 * CheckBatch queues to its shard worker, whose completion hands the
 * pending batch to the owning loop through a per-loop MPSC inbox
 * (under a mutex, woken by an eventfd). The loop pumps both after
 * every read, the inbox first, and frames each reply straight into
 * the connection's output buffer: a batch it checked itself is
 * answered before the loop reads on or turns to the next ready
 * connection. One connection can pipeline many batches, and
 * thousands of connections cost threads only in the fixed pool.
 *
 * A Unix connection also gets a shared-memory check slot at its first
 * CheckBatch (SlotOpen; layout in serve/wire.hh; DESIGN §11): a sealed
 * memfd that then carries its CheckBatch payloads and replies, while
 * the socket carries control ops, liveness and the SlotBell frames
 * that wake a sleeping peer. The daemon keeps no fd the client shares;
 * it sends its bells as non-blocking output. The loop polls a slot
 * for kSlotSpinNs after its last request or reply, with
 * epoll_wait(…, 0) between rounds, and parks it sooner when the reply
 * had to ring a sleeping client. A slot batch takes the socket batch's
 * path, except that its payload is copied once out of the slot before
 * decoding, after a prefetch of its lines and, for writing, of the
 * reply lines it will need, and its reply is written into the slot; a
 * bad payload drains that connection only. TCP connections and
 * pipelined raw frames stay on the socket.
 *
 * Connection teardown is a state machine, not a join: Open →
 * Draining → reaped. A client disconnect (EOF or half-close) stops
 * reading but keeps the connection until in-flight batches complete
 * and their replies flush; a write failure kills the whole connection
 * (reader included) immediately, discarding undeliverable output; a
 * reaped connection releases its fd and memory eagerly, so
 * long-running daemons do not leak per-disconnect resources. Server
 * stop drains every connection the same way (with a bounded grace for
 * clients that stop reading), then joins the loop pool.
 *
 * SocketClient is the lock-step counterpart: one outstanding request
 * at a time, so the next frame on the wire is always the awaited
 * reply. Every op encodes its request into one reused buffer, sends it
 * with writeFrame() (length prefix and payload in one call), and reads
 * the reply through its own FrameParser — normally in one read; a
 * CheckBatch is encoded straight from the caller's request array and
 * its verdicts decode straight into the caller's response array.
 * Over a Unix socket its CheckBatch round trips cross the check slot
 * instead: it spins on the reply for kSlotSpinNs, or not at all for a
 * paced request that had to ring, then sleeps in poll() on the socket,
 * where a daemon that stops or dies hangs up. Pipelined load bypasses
 * it and sends raw frames on its socket (see loadgen::runPipelined in
 * serve/loadgen.hh).
 */

#ifndef DRACO_SERVE_SERVER_HH
#define DRACO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/service.hh"
#include "serve/transport.hh"
#include "serve/wire.hh"
#include "support/epoll.hh"

namespace draco::obs {
class ServeObs;
} // namespace draco::obs

namespace draco::serve {

/** Frontend configuration for one SocketServer. */
struct ServerOptions {
    /** Unix-domain socket path; "" disables the Unix listener. */
    std::string socketPath;

    /** TCP "host:port" to listen on; "" disables the TCP listener. */
    std::string tcpAddress;

    /** Event-loop threads; connections spread round-robin. */
    unsigned eventThreads = 2;

    /**
     * TCP "host:port" for the observability endpoint ("" disables).
     * When set, the server owns an obs::ServeObs: every CheckBatch is
     * latency-stamped through the pipeline, and HTTP/1.0 GETs on this
     * listener serve /metrics (Prometheus text), /healthz, /statz
     * (the same service metrics as JSON), and /slowz (the
     * slow-request ring).
     */
    std::string metricsAddress;

    /**
     * Slow-request capture threshold in microseconds; batches whose
     * admit→flush latency meets it land in the /slowz ring. 0 disables
     * capture (the ring stays empty). Only meaningful with
     * metricsAddress set.
     */
    uint32_t slowUs = 0;
};

/**
 * Wire-protocol server for one CheckService (see file comment).
 */
class SocketServer
{
  public:
    /**
     * @param service Backing service (not owned, must outlive this).
     * @param options Listener endpoints and event-loop knobs; at
     *        least one of socketPath / tcpAddress must be set.
     */
    SocketServer(CheckService &service, ServerOptions options);

    /** Unix-socket-only convenience constructor. */
    SocketServer(CheckService &service, std::string socketPath);

    /** Calls stop(). */
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind the configured listeners and start the event-loop pool.
     *
     * @return false (with a warning) when no listener could be bound.
     */
    bool start();

    /** Block until a Shutdown frame or requestStop() stops the server. */
    void wait();

    /** Begin shutdown from any thread; idempotent. */
    void requestStop();

    /** Stop, drain connections, and join the pool; idempotent. */
    void stop();

    /** @return true once shutdown has begun. */
    bool stopRequested() const { return _stop.load(); }

    /** @return Connections accepted over the server's lifetime. */
    uint64_t connectionsAccepted() const { return _accepted.load(); }

    /** @return Connections fully torn down (fd closed, state freed). */
    uint64_t connectionsReaped() const { return _reaped.load(); }

    /** @return Connections currently alive (accepted − reaped). */
    uint32_t activeConnections() const { return _active.load(); }

    /** @return Check slots opened over the server's lifetime. */
    uint64_t slotsOpened() const { return _slotsOpened.load(); }

    /** @return Check slots of connections not yet reaped. */
    uint32_t activeSlots() const { return _slotsActive.load(); }

    /**
     * @return The bound TCP port (useful with a ":0" tcpAddress), or
     *         0 when no TCP listener is configured.
     */
    uint16_t tcpPort() const { return _tcpPort; }

    /**
     * @return The bound observability port (useful with ":0"), or 0
     *         when no metricsAddress is configured.
     */
    uint16_t metricsPort() const { return _metricsPort; }

    /**
     * @return The observability hub, or nullptr when metricsAddress
     *         is not configured. It lives as long as the server, so it
     *         stays readable after stop().
     */
    obs::ServeObs *serveObs() const { return _obs.get(); }

    const std::string &socketPath() const
    {
        return _options.socketPath;
    }

    const ServerOptions &options() const { return _options; }

  private:
    /** Connection lifecycle (loop-thread-only). */
    enum class ConnState : uint8_t {
        Open,     ///< Reading frames, writing replies.
        Draining, ///< Read side closed; flush in-flight, then reap.
    };

    /*
     * Conn is one accepted connection; Slot is its check slot, once
     * opened; Pending is one CheckBatch from decode to reply; Loop is
     * one event-loop thread plus its epoll set, eventfd, MPSC inbox of
     * Pendings the shard workers completed, list of Pendings it
     * completed itself, recycled Pendings, adoption queue of freshly
     * accepted connections, and spin set of slot connections. After
     * adoption every Conn field is owned by its loop thread; batch
     * completions never touch a Conn, whichever thread runs them —
     * completed batches travel through the loop's inbox or its own
     * list, and the conn pointer they carry stays valid because a
     * connection is only reaped once its in-flight count (decremented
     * exclusively by the loop while pumping them) reaches zero. All
     * four are defined in server.cc.
     */
    struct Conn;
    struct Slot;
    struct Pending;
    struct Loop;

    void loopMain(size_t index);
    void acceptReady(int listenFd, bool tcp, bool http = false);
    void adoptPending(Loop &loop, bool stopping);
    void pumpReplies(Loop &loop);
    void pumpLocal(Loop &loop);
    void answer(Loop &loop, const Pending &pending);
    void readInput(Loop &loop, Conn *conn, std::vector<uint8_t> &chunk);
    void readHttp(Loop &loop, Conn *conn, std::vector<uint8_t> &chunk);
    void handleHttp(Loop &loop, Conn *conn);
    /**
     * The one registry the metrics listener serves: the service's
     * export under `serve.live` plus the connection counters.
     * /metrics renders it as Prometheus text, /statz as JSON.
     */
    MetricRegistry liveMetrics() const;
    bool parseFrames(Loop &loop, Conn *conn);
    bool handleFrame(Loop &loop, Conn *conn,
                     std::span<const uint8_t> payload);
    bool submitCheckBatch(Loop &loop, Conn *conn,
                          std::span<const uint8_t> payload, bool viaSlot);
    void openSlot(Loop &loop, Conn *conn);
    void spinSlots(Loop &loop);
    bool takeSlotBatch(Loop &loop, Conn *conn, uint64_t now);
    void replyToSlot(Loop &loop, Conn *conn,
                     const wire::CheckBatchReply &reply);
    void flushOutput(Loop &loop, Conn *conn);
    void commitFlushed(Loop &loop, Conn *conn);
    void dropMarks(Loop &loop, Conn *conn);
    void beginDrain(Loop &loop, Conn *conn, bool discardOutput);
    void updateInterest(Loop &loop, Conn *conn);
    void beginStopDrain(Loop &loop);
    void reapConnections(Loop &loop);
    void sendControl(Loop &loop, Conn *conn,
                     std::span<const uint8_t> payload);

    CheckService &_service;
    ServerOptions _options;

    int _unixListenFd = -1;
    int _tcpListenFd = -1;
    int _metricsListenFd = -1;
    uint16_t _tcpPort = 0;
    uint16_t _metricsPort = 0;
    int _unixTag = 0; ///< epoll cookie identity for the Unix listener.
    int _tcpTag = 0;  ///< epoll cookie identity for the TCP listener.
    int _metricsTag = 0; ///< epoll cookie for the metrics listener.

    /** Observability hub; non-null iff metricsAddress is configured. */
    std::unique_ptr<obs::ServeObs> _obs;

    std::vector<std::unique_ptr<Loop>> _loops;

    std::atomic<bool> _stop{false};
    std::atomic<bool> _stopped{false};
    std::atomic<uint64_t> _accepted{0};
    std::atomic<uint64_t> _reaped{0};
    std::atomic<uint32_t> _active{0};
    std::atomic<uint64_t> _slotsOpened{0};
    std::atomic<uint32_t> _slotsActive{0};

    std::mutex _waitMutex;
    std::condition_variable _waitCv;
};

/**
 * Lock-step wire-protocol client (see file comment).
 */
class SocketClient final : public Client
{
  public:
    /**
     * Connect to the Unix socket @p socketPath and exchange Hello.
     *
     * @return nullptr (with a warning) on connect/handshake failure.
     */
    static std::unique_ptr<SocketClient>
    connect(const std::string &socketPath);

    /**
     * Connect to the TCP endpoint "host:port" and exchange Hello.
     *
     * @return nullptr (with a warning) on connect/handshake failure.
     */
    static std::unique_ptr<SocketClient>
    connectTcp(const std::string &hostPort);

    /** Connect to @p endpoint and exchange Hello. */
    static std::unique_ptr<SocketClient>
    connectTo(const Endpoint &endpoint);

    ~SocketClient() override;

    SocketClient(const SocketClient &) = delete;
    SocketClient &operator=(const SocketClient &) = delete;

    TenantId createTenant(const std::string &name,
                          const std::string &profileName,
                          const TenantOptions &options = {}) override;

    bool checkBatch(TenantId id, const os::SyscallRequest *reqs,
                    uint32_t count, CheckResponse *resps) override;

    bool tenantStats(TenantId id, TenantStats &out) override;

    bool evictTenant(TenantId id) override;

    bool updateProfile(TenantId id, const std::string &profileName,
                       uint64_t *epochOut = nullptr) override;

    bool serviceStats(ServiceStatsSnapshot &out) override;

    /** Ask the daemon to shut down. @return false on transport error. */
    bool shutdownServer();

    /** @return Shard count the server reported at Hello. */
    uint32_t serverShards() const { return _serverShards; }

    /** @return The connected socket fd (open-loop raw-frame access). */
    int fd() const { return _fd; }

    /**
     * The check slot as this client maps it, for tests that write it
     * as a hostile peer would; empty until a CheckBatch opened it.
     */
    std::span<uint8_t> slotMemory() const;

    /** The check slot's memfd, or -1 until a CheckBatch opened it. */
    int slotMemfd() const;

  private:
    struct Slot;

    SocketClient(int fd, bool unixSocket);

    /**
     * Clear the request buffer.
     *
     * @return The buffer to encode the request payload into.
     */
    std::vector<uint8_t> &request();

    /**
     * Send the request as one frame in one call, and point @p reply at
     * the next frame read back (valid until the next round trip). With
     * @p fds, fds that arrive with it are appended there.
     */
    bool roundTrip(std::span<const uint8_t> &reply,
                   std::vector<int> *fds = nullptr);

    /**
     * Ask for a check slot (a Unix connection's first CheckBatch).
     *
     * @return false on transport failure; a refusal keeps the socket.
     */
    bool openSlot();

    /** roundTrip() through the check slot. */
    bool slotRoundTrip(std::span<const uint8_t> &reply);

    /** Send the daemon a SlotBell. @return false on a send failure. */
    bool ringDaemon();

    /**
     * Wait for the reply numbered @p seq, spinning first when @p spin
     * until kSlotSpinNs after @p startNs; false if the daemon hung up.
     */
    bool awaitSlotReply(uint64_t seq, bool spin, uint64_t startNs);

    /**
     * Read what the socket holds and consume its SlotBell frames.
     *
     * @return false on a hangup, an error or any other frame.
     */
    bool takeBells();

    int _fd;
    bool _unix;            ///< Unix socket: CheckBatch opens a slot.
    bool _slotTried = false;
    uint32_t _serverShards = 0;
    uint64_t _nextBatchId = 1;
    std::vector<uint8_t> _out;  ///< The request payload, reused.
    std::vector<uint8_t> _in;   ///< Private copy of a slot reply.
    wire::FrameParser _parser;  ///< Reply frames.
    std::unique_ptr<Slot> _slot;
};

} // namespace draco::serve

#endif // DRACO_SERVE_SERVER_HH
