/**
 * @file
 * dracod connection-scale soak: p99 latency and shed rate versus
 * concurrent connection count, through the real epoll frontend.
 *
 * A SocketServer listens on TCP 127.0.0.1:0 with its fixed event-loop
 * pool, and a sweep of {64, 256, 1024} concurrent client connections
 * pipelines CheckBatch frames open-loop, a window of 4 per connection.
 * 16 tenants are shared round-robin across the connections, so tenant
 * admission caps and shard queue bounds apply exactly as they would to
 * that many containers. The client side is loadgen's pipelined driver
 * on 4 threads, so neither side spawns per-connection threads:
 * thousands of sockets run on a handful of threads, which is the
 * point of the event loop.
 *
 * Per cell the table reports wall QPS, batch latency p50/p99
 * (send-to-verdict, µs) and the shed rate (Overloaded verdicts /
 * total). After every cell the clients disconnect and the bench waits
 * for the server to reap every connection: a leak check riding along
 * with the latency curve.
 *
 * JSON artifact: `sweep.c<conns>.{latency_us.p50,latency_us.p99,
 * shed_rate,wall_qps,connections,reaped}` plus
 * `figure.max_connections` (CI asserts ≥ 1000) and
 * `figure.server_threads` (event loops + shards: the server-side
 * thread bound, independent of connection count). Latency and QPS are
 * measured, so this artifact is not byte-stable across runs.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/epoll.hh"

using namespace draco;
using namespace draco::bench;
namespace loadgen = draco::serve::loadgen;

namespace {

constexpr unsigned kTenants = 16;
constexpr uint32_t kBatchReqs = 16;  ///< Requests per CheckBatch frame.
constexpr uint32_t kWindow = 4;      ///< Outstanding batches per conn.
constexpr unsigned kDrivers = 4;     ///< Client-side poll threads.

struct CellResult {
    loadgen::Tally total; ///< Every tenant's, merged.
    double wallSeconds = 0.0;
    uint64_t reaped = 0;
};

/** One sweep cell over @p tenants (fresh tallies: taken by value). */
CellResult
runCell(serve::SocketServer &server, serve::CheckService &service,
        std::vector<loadgen::TenantLoad> tenants, size_t conns)
{
    const std::string address =
        "127.0.0.1:" + std::to_string(server.tcpPort());
    const uint64_t reapedBefore = server.connectionsReaped();

    // Dial every connection up front; the soak measures steady state,
    // not connection setup.
    std::vector<std::unique_ptr<serve::SocketClient>> clients(conns);
    std::vector<loadgen::PipelinedConn> pipes(conns);
    const uint64_t quota = std::max<uint64_t>(
        2, benchCalls() / (conns * kBatchReqs));
    for (size_t c = 0; c < conns; ++c) {
        clients[c] = serve::SocketClient::connectTcp(address);
        if (!clients[c])
            fatal("serve_scale: connect %zu/%zu failed", c, conns);
        pipes[c].fd = clients[c]->fd();
        // Connection c sends `quota` batches of tenant c mod kTenants,
        // wrapping at the end of the stream. Each of a tenant's
        // connections starts at its own offset, so they do not all
        // replay the same prefix.
        const size_t tenant = c % kTenants;
        const size_t stream = tenants[tenant].reqs.size();
        const size_t span =
            stream > kBatchReqs ? stream - kBatchReqs : 1;
        size_t cursor = (c / kTenants) * kBatchReqs * quota % span;
        for (uint64_t q = 0; q < quota; ++q) {
            if (cursor + kBatchReqs > stream)
                cursor = 0;
            pipes[c].plan.push_back({tenant, cursor, kBatchReqs});
            cursor += kBatchReqs;
        }
    }

    loadgen::Pipeline pipeline;
    pipeline.window = kWindow;
    pipeline.threads = kDrivers;
    const auto t0 = std::chrono::steady_clock::now();
    const size_t dead = loadgen::runPipelined(tenants, pipes, pipeline);
    CellResult cell;
    cell.wallSeconds = secondsSince(t0);
    if (dead > 0)
        fatal("serve_scale: %zu connections died mid-soak", dead);
    for (const loadgen::TenantLoad &tenant : tenants)
        cell.total.merge(tenant.tally);

    // Disconnect everything and wait for the server to reap each
    // connection: the leak check. The service must still be healthy.
    clients.clear();
    const auto reapStart = std::chrono::steady_clock::now();
    while (server.activeConnections() != 0) {
        if (secondsSince(reapStart) > 30.0)
            fatal("serve_scale: %u connections still alive %.0fs after "
                  "disconnect",
                  server.activeConnections(), secondsSince(reapStart));
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

    std::vector<loadgen::TenantLoad> tenants = tenantTraffic(
        kTenants, std::max<size_t>(kBatchReqs, benchCalls() / kTenants));

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

    serve::LocalClient setup(service);
    if (loadgen::createTenants(setup, tenants, "docker-default"))
        fatal("serve_scale: createTenant failed");

    const std::vector<size_t> connCounts = {64, 256, 1024};
    TextTable table("dracod connection scale (TCP, " +
                    std::to_string(kTenants) + " tenants, window " +
                    std::to_string(kWindow) + ")");
    table.setHeader({"conns", "batches", "wall_qps", "p50_us", "p99_us",
                     "shed_rate", "reaped"});

    size_t maxConns = 0;
    for (size_t conns : connCounts) {
        const CellResult cell = runCell(server, service, tenants, conns);
        const QuantileSketch &latency = cell.total.batchUs;
        const uint64_t responses = cell.total.answered();
        maxConns = std::max(maxConns, conns);
        const double qps = cell.wallSeconds > 0.0
                               ? static_cast<double>(responses) /
                                     cell.wallSeconds
                               : 0.0;
        const double shedRate =
            responses > 0 ? static_cast<double>(cell.total.shed) /
                                static_cast<double>(responses)
                          : 0.0;
        table.addRow({std::to_string(conns),
                      std::to_string(latency.count()),
                      TextTable::num(qps, 0),
                      TextTable::num(latency.quantile(0.50), 1),
                      TextTable::num(latency.quantile(0.99), 1),
                      TextTable::num(shedRate, 4),
                      std::to_string(cell.reaped)});

        MetricRegistry &registry = report.registry();
        const std::string prefix = "sweep.c" + std::to_string(conns);
        registry.setCounter(prefix + ".connections", conns);
        registry.setCounter(prefix + ".batches", latency.count());
        registry.setCounter(prefix + ".responses", responses);
        registry.setCounter(prefix + ".reaped", cell.reaped);
        registry.setGauge(prefix + ".wall_qps", qps);
        registry.setGauge(prefix + ".wall_seconds", cell.wallSeconds);
        registry.setGauge(prefix + ".shed_rate", shedRate);
        registry.setGauge(prefix + ".latency_us.p50",
                          latency.quantile(0.50));
        registry.setGauge(prefix + ".latency_us.p99",
                          latency.quantile(0.99));
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
