/**
 * @file
 * dracod connection-scale soak: p99 latency and shed rate versus
 * concurrent connection count, through the real epoll frontend.
 *
 * The bench exercises the full wire path: a SocketServer listening on
 * TCP 127.0.0.1:0 with its fixed event-loop pool, and a sweep of
 * {64, 256, 1024} concurrent client connections pipelining
 * CheckBatch frames open-loop (a bounded per-connection window, no
 * lock-stepping). 16 tenants are shared round-robin across the
 * connections, so tenant admission caps and shard queue bounds apply
 * exactly as they would to that many containers.
 *
 * A small fixed pool of driver threads owns the client side — each
 * thread polls its share of connections with epoll and drains replies
 * with non-blocking reads — so neither side of the soak spawns
 * per-connection threads: the whole experiment runs thousands of
 * sockets on a handful of threads, which is the point of the event
 * loop.
 *
 * For each sweep cell the table reports wall QPS, batch-latency
 * p50/p99 (send-to-verdict, µs), and the shed rate (Overloaded
 * verdicts / total). After every cell the clients disconnect and the
 * bench waits for the server to reap every connection — a leak check
 * riding along with the latency curve.
 *
 * JSON artifact: `sweep.c<conns>.{latency_us.p50,latency_us.p99,
 * shed_rate,wall_qps,connections,reaped}` plus
 * `figure.max_connections` (CI asserts ≥ 1000) and
 * `figure.server_threads` (event loops + shards: the server-side
 * thread bound, independent of connection count). Latency and QPS are
 * measured, so this artifact is not byte-stable across runs.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>

#include "common.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "support/epoll.hh"

using namespace draco;
using namespace draco::bench;
namespace wire = draco::serve::wire;

namespace {

constexpr unsigned kTenants = 16;
constexpr uint32_t kBatchReqs = 16;  ///< Requests per CheckBatch frame.
constexpr uint32_t kWindow = 4;      ///< Outstanding batches per conn.
constexpr unsigned kDrivers = 4;     ///< Client-side poll threads.

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Per-tenant request streams, shared by every sweep cell. */
std::vector<std::vector<os::SyscallRequest>>
makeTraffic()
{
    const auto &apps = benchWorkloads();
    const size_t perTenant =
        std::max<size_t>(kBatchReqs, benchCalls() / kTenants);
    std::vector<std::vector<os::SyscallRequest>> out(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        const workload::AppModel &app = *apps[t % apps.size()];
        workload::TraceGenerator gen(app,
                                     splitSeed(workloadSeed(app), t));
        workload::Trace trace = gen.generate(perTenant);
        out[t].reserve(trace.size());
        for (const workload::TraceEvent &ev : trace)
            out[t].push_back(ev.req);
    }
    return out;
}

/** One soak connection: a pipelined window of CheckBatch frames. */
struct SoakConn {
    std::unique_ptr<serve::SocketClient> client;
    unsigned tenant = 0;
    serve::TenantId tenantId = serve::kInvalidTenant;
    wire::FrameParser parser;
    /** batchId → send time of in-flight batches. */
    std::unordered_map<uint64_t, std::chrono::steady_clock::time_point>
        inflight;
    uint64_t sent = 0;    ///< Batches sent so far.
    uint64_t done = 0;    ///< Batches answered so far.
    uint64_t quota = 0;   ///< Batches this connection must complete.
    size_t cursor = 0;    ///< Position in the tenant's stream.
    bool dead = false;
};

struct CellResult {
    QuantileSketch latencyUs;
    uint64_t responses = 0;
    uint64_t shedResponses = 0;
    uint64_t batches = 0;
    double wallSeconds = 0.0;
    uint64_t reaped = 0;
};

/** Driver-thread accumulator, merged after the join. */
struct DriverStats {
    QuantileSketch latencyUs;
    uint64_t responses = 0;
    uint64_t shedResponses = 0;
    uint64_t batches = 0;
    uint64_t deadConns = 0;
};

/** Send one batch on @p conn; false on transport failure. */
bool
sendBatch(SoakConn &conn,
          const std::vector<os::SyscallRequest> &stream,
          uint64_t batchId)
{
    if (conn.cursor + kBatchReqs > stream.size())
        conn.cursor = 0;
    std::vector<uint8_t> payload;
    wire::encodeCheckBatch(payload, batchId, conn.tenantId,
                           {stream.data() + conn.cursor, kBatchReqs});
    conn.cursor += kBatchReqs;
    conn.inflight.emplace(batchId, std::chrono::steady_clock::now());
    ++conn.sent;
    return wire::writeFrame(conn.client->fd(), payload);
}

/**
 * Drain whatever replies are available on @p conn without blocking.
 *
 * @return false when the connection died.
 */
bool
drainReplies(SoakConn &conn, DriverStats &stats)
{
    uint8_t chunk[16 * 1024];
    for (;;) {
        ssize_t r = ::recv(conn.client->fd(), chunk, sizeof(chunk),
                           MSG_DONTWAIT);
        if (r == 0)
            return false;
        if (r < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            return false;
        }
        conn.parser.append(chunk, static_cast<size_t>(r));
        std::span<const uint8_t> payload;
        for (;;) {
            auto res = conn.parser.next(payload);
            if (res == wire::FrameParser::Result::Need)
                break;
            if (res == wire::FrameParser::Result::Corrupt)
                return false;
            wire::CheckBatchReply reply;
            if (!wire::decode(payload, reply))
                return false;
            auto it = conn.inflight.find(reply.batchId);
            if (it == conn.inflight.end())
                return false;
            stats.latencyUs.add(elapsedSeconds(it->second) * 1e6);
            conn.inflight.erase(it);
            ++conn.done;
            ++stats.batches;
            for (const serve::CheckResponse &resp : reply.resps) {
                ++stats.responses;
                if (resp.status == serve::CheckStatus::Overloaded)
                    ++stats.shedResponses;
            }
        }
        if (r < static_cast<ssize_t>(sizeof(chunk)))
            return true;
    }
}

CellResult
runCell(serve::SocketServer &server, serve::CheckService &service,
        const std::vector<std::vector<os::SyscallRequest>> &traffic,
        const std::vector<serve::TenantId> &ids, size_t conns)
{
    const std::string address =
        "127.0.0.1:" + std::to_string(server.tcpPort());
    const uint64_t reapedBefore = server.connectionsReaped();

    // Dial every connection up front; the soak measures steady state,
    // not connection setup.
    std::vector<SoakConn> pool(conns);
    const uint64_t quota = std::max<uint64_t>(
        2, benchCalls() / (conns * kBatchReqs));
    for (size_t c = 0; c < conns; ++c) {
        SoakConn &conn = pool[c];
        conn.client = serve::SocketClient::connectTcp(address);
        if (!conn.client)
            fatal("serve_scale: connect %zu/%zu failed", c, conns);
        conn.tenant = static_cast<unsigned>(c % kTenants);
        conn.tenantId = ids[conn.tenant];
        conn.quota = quota;
        // Spread each tenant's connections across its stream so they
        // do not all replay the same prefix.
        const size_t stream = traffic[conn.tenant].size();
        const size_t span =
            stream > kBatchReqs ? stream - kBatchReqs : 1;
        conn.cursor = (c / kTenants) * kBatchReqs * quota % span;
    }

    std::vector<DriverStats> stats(kDrivers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(kDrivers);
    for (unsigned d = 0; d < kDrivers; ++d) {
        drivers.emplace_back([&, d] {
            // This driver owns connections d, d+kDrivers, ... — no
            // sharing, so no locks. Replies are polled with epoll and
            // drained non-blocking; sends are small bounded windows on
            // a blocking fd, which the kernel buffers absorb.
            support::Epoll epoll;
            std::vector<SoakConn *> mine;
            for (size_t c = d; c < pool.size(); c += kDrivers)
                mine.push_back(&pool[c]);
            for (SoakConn *conn : mine)
                epoll.add(conn->client->fd(), EPOLLIN, conn);
            std::vector<epoll_event> events;
            for (;;) {
                bool busy = false;
                for (SoakConn *conn : mine) {
                    if (conn->dead)
                        continue;
                    if (!drainReplies(*conn, stats[d])) {
                        conn->dead = true;
                        ++stats[d].deadConns;
                        continue;
                    }
                    while (conn->sent < conn->quota &&
                           conn->inflight.size() < kWindow) {
                        busy = true;
                        // batchIds need only be unique per connection.
                        if (!sendBatch(*conn, traffic[conn->tenant],
                                       conn->sent + 1)) {
                            conn->dead = true;
                            ++stats[d].deadConns;
                            break;
                        }
                    }
                }
                bool pending = false;
                for (SoakConn *conn : mine)
                    if (!conn->dead && conn->done < conn->quota)
                        pending = true;
                if (!pending)
                    break;
                if (!busy)
                    epoll.wait(events, 10);
            }
        });
    }
    for (std::thread &driver : drivers)
        driver.join();

    CellResult cell;
    cell.wallSeconds = elapsedSeconds(t0);
    uint64_t dead = 0;
    for (DriverStats &s : stats) {
        cell.latencyUs.merge(s.latencyUs);
        cell.responses += s.responses;
        cell.shedResponses += s.shedResponses;
        cell.batches += s.batches;
        dead += s.deadConns;
    }
    if (dead > 0)
        fatal("serve_scale: %llu connections died mid-soak",
              static_cast<unsigned long long>(dead));

    // Disconnect everything and wait for the server to reap each
    // connection: the leak check. The service must still be healthy.
    for (SoakConn &conn : pool)
        conn.client.reset();
    const auto reapStart = std::chrono::steady_clock::now();
    while (server.activeConnections() != 0) {
        if (elapsedSeconds(reapStart) > 30.0)
            fatal("serve_scale: %u connections still alive %.0fs after "
                  "disconnect",
                  server.activeConnections(),
                  elapsedSeconds(reapStart));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    cell.reaped = server.connectionsReaped() - reapedBefore;
    if (cell.reaped < conns)
        fatal("serve_scale: reaped %llu of %zu connections",
              static_cast<unsigned long long>(cell.reaped), conns);
    if (service.shards() == 0)
        fatal("serve_scale: service lost its shards");
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("serve_scale", argc, argv);

    // Both ends of every connection live in this process, so a 1024-
    // connection cell needs >2048 fds; CI runners default to 1024.
    support::raiseFdLimit(16384);

    const auto traffic = makeTraffic();

    serve::ServiceOptions serviceOptions;
    serviceOptions.shards = 2;
    serviceOptions.queueCapacity = 4096;
    serviceOptions.maxBatch = 64;
    serve::CheckService service(serviceOptions);

    serve::ServerOptions serverOptions;
    serverOptions.tcpAddress = "127.0.0.1:0";
    serverOptions.eventThreads = 2;
    serve::SocketServer server(service, serverOptions);
    if (!server.start())
        fatal("serve_scale: server start failed");

    static const seccomp::Profile profile =
        seccomp::dockerDefaultProfile();
    std::vector<serve::TenantId> ids(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        ids[t] = service.createTenant("t" + std::to_string(t), profile);
        if (ids[t] == serve::kInvalidTenant)
            fatal("serve_scale: createTenant failed");
    }

    const std::vector<size_t> connCounts = {64, 256, 1024};
    TextTable table("dracod connection scale (TCP, " +
                    std::to_string(kTenants) + " tenants, window " +
                    std::to_string(kWindow) + ")");
    table.setHeader({"conns", "batches", "wall_qps", "p50_us", "p99_us",
                     "shed_rate", "reaped"});

    size_t maxConns = 0;
    for (size_t conns : connCounts) {
        CellResult cell = runCell(server, service, traffic, ids, conns);
        maxConns = std::max(maxConns, conns);
        const double qps =
            cell.wallSeconds > 0.0
                ? static_cast<double>(cell.responses) / cell.wallSeconds
                : 0.0;
        const double shedRate =
            cell.responses > 0
                ? static_cast<double>(cell.shedResponses) /
                      static_cast<double>(cell.responses)
                : 0.0;
        table.addRow({std::to_string(conns),
                      std::to_string(cell.batches),
                      TextTable::num(qps, 0),
                      TextTable::num(cell.latencyUs.quantile(0.50), 1),
                      TextTable::num(cell.latencyUs.quantile(0.99), 1),
                      TextTable::num(shedRate, 4),
                      std::to_string(cell.reaped)});

        MetricRegistry &registry = report.registry();
        const std::string prefix = "sweep.c" + std::to_string(conns);
        registry.setCounter(MetricRegistry::join(prefix, "connections"),
                            conns);
        registry.setCounter(MetricRegistry::join(prefix, "batches"),
                            cell.batches);
        registry.setCounter(MetricRegistry::join(prefix, "responses"),
                            cell.responses);
        registry.setCounter(MetricRegistry::join(prefix, "reaped"),
                            cell.reaped);
        registry.setGauge(MetricRegistry::join(prefix, "wall_qps"), qps);
        registry.setGauge(
            MetricRegistry::join(prefix, "wall_seconds"),
            cell.wallSeconds);
        registry.setGauge(MetricRegistry::join(prefix, "shed_rate"),
                          shedRate);
        registry.setGauge(
            MetricRegistry::join(prefix, "latency_us.p50"),
            cell.latencyUs.quantile(0.50));
        registry.setGauge(
            MetricRegistry::join(prefix, "latency_us.p99"),
            cell.latencyUs.quantile(0.99));
    }
    table.print();

    MetricRegistry &registry = report.registry();
    registry.setCounter("figure.max_connections", maxConns);
    registry.setCounter("figure.server_threads",
                        serverOptions.eventThreads +
                            serviceOptions.shards);
    registry.setCounter("figure.driver_threads", kDrivers);

    server.stop();
    service.stop();
    return 0;
}
