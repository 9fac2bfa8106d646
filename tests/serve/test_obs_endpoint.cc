/**
 * @file
 * The dracod observability endpoint, end to end: a SocketServer with
 * --metrics-listen bound answers /healthz, /metrics, /statz, and
 * /slowz over plain HTTP/1.0 while check traffic flows on the wire
 * protocol; the scrape body carries the stage-latency families with
 * shard labels; the slow ring fills when the threshold is 1us; and —
 * the load-bearing invariant — per-tenant verdict fingerprints are
 * byte-identical with the pipeline on or off.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/serveobs.hh"
#include "os/syscalls.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace draco::serve {
namespace {

os::SyscallRequest
request(uint16_t sid, uint64_t arg0 = 0)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = 0x1000;
    req.args[0] = arg0;
    return req;
}

/** Deterministic allow/deny/unknown mix, order varied by @p seed. */
std::vector<os::SyscallRequest>
trafficMix(uint64_t seed, size_t n)
{
    std::vector<os::SyscallRequest> reqs;
    reqs.reserve(n);
    uint64_t x = seed * 2654435761u + 1;
    for (size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        switch ((x >> 33) % 3) {
          case 0:
            reqs.push_back(request(os::sc::read, x % 8));
            break;
          case 1:
            reqs.push_back(request(os::sc::write, (x >> 8) % 3));
            break;
          default:
            reqs.push_back(request(os::sc::openat));
            break;
        }
    }
    return reqs;
}

std::string
socketPath(const char *tag)
{
    return "/tmp/draco_test_" + std::to_string(getpid()) + "_" + tag +
           ".sock";
}

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close(fd);
        return "";
    }
    std::string reqText = "GET " + target + " HTTP/1.0\r\n\r\n";
    size_t sent = 0;
    while (sent < reqText.size()) {
        ssize_t w = write(fd, reqText.data() + sent,
                          reqText.size() - sent);
        if (w <= 0)
            break;
        sent += static_cast<size_t>(w);
    }
    std::string reply;
    char buf[4096];
    ssize_t r;
    while ((r = read(fd, buf, sizeof buf)) > 0)
        reply.append(buf, static_cast<size_t>(r));
    close(fd);
    return reply;
}

template <typename Cond>
bool
eventually(Cond cond)
{
    for (int i = 0; i < 1000; ++i) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
}

/**
 * Run the standard mix through a server (obs on or off) and return
 * the per-tenant (allowed, denied) fingerprint.
 */
std::vector<std::pair<uint64_t, uint64_t>>
runTraffic(const char *tag, bool obs, uint32_t slowUs = 0)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);

    ServerOptions serverOptions;
    serverOptions.socketPath = socketPath(tag);
    if (obs) {
        serverOptions.metricsAddress = "127.0.0.1:0";
        serverOptions.slowUs = slowUs;
    }
    SocketServer server(service, serverOptions);
    EXPECT_TRUE(server.start());
    EXPECT_EQ(server.serveObs() != nullptr, obs);

    auto client = SocketClient::connect(serverOptions.socketPath);
    EXPECT_NE(client, nullptr);

    std::vector<std::pair<uint64_t, uint64_t>> fingerprint;
    constexpr unsigned kTenants = 4;
    constexpr uint32_t kBatch = 32;
    for (unsigned t = 0; t < kTenants; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        TenantId id = client->createTenant(name, "docker-default");
        EXPECT_NE(id, kInvalidTenant);
        const auto reqs = trafficMix(t + 1, 256);
        std::vector<CheckResponse> resps(kBatch);
        for (size_t pos = 0; pos < reqs.size(); pos += kBatch)
            EXPECT_TRUE(client->checkBatch(id, reqs.data() + pos,
                                           kBatch, resps.data()));
        TenantStats stats;
        EXPECT_TRUE(client->tenantStats(id, stats));
        fingerprint.emplace_back(stats.allowed, stats.denied);
    }
    server.stop();
    service.stop();
    return fingerprint;
}

TEST(ObsEndpoint, HealthzMetricsStatzSlowzAnswerOverHttp)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);

    ServerOptions serverOptions;
    serverOptions.socketPath = socketPath("obsep");
    serverOptions.metricsAddress = "127.0.0.1:0";
    serverOptions.slowUs = 1; // everything is "slow": ring must fill
    SocketServer server(service, serverOptions);
    ASSERT_TRUE(server.start());
    ASSERT_NE(server.metricsPort(), 0);
    ASSERT_NE(server.serveObs(), nullptr);

    auto client = SocketClient::connect(serverOptions.socketPath);
    ASSERT_NE(client, nullptr);
    TenantId id = client->createTenant("t0", "docker-default");
    ASSERT_NE(id, kInvalidTenant);
    const auto reqs = trafficMix(3, 128);
    std::vector<CheckResponse> resps(32);
    for (size_t pos = 0; pos < reqs.size(); pos += 32)
        ASSERT_TRUE(
            client->checkBatch(id, reqs.data() + pos, 32,
                               resps.data()));

    // The flush commit races the client's reply read by a hair; wait
    // for all four batches to land in the hub.
    ASSERT_TRUE(eventually(
        [&] { return server.serveObs()->committed() >= 4; }));

    const uint16_t port = server.metricsPort();

    std::string healthz = httpGet(port, "/healthz");
    EXPECT_NE(healthz.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(healthz.find("ok"), std::string::npos);

    std::string metrics = httpGet(port, "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    // Native stage families with shard labels, live service counters,
    // and connection gauges all present.
    EXPECT_NE(metrics.find("draco_serve_stage_latency_us{shard=\"0\","
                           "stage=\"total\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(metrics.find("draco_serve_stage_latency_us_hist_bucket"),
              std::string::npos);
    EXPECT_NE(metrics.find("draco_serve_live_checks 128"),
              std::string::npos);
    EXPECT_NE(metrics.find("draco_serve_live_connections_active"),
              std::string::npos);
    EXPECT_NE(metrics.find("draco_serve_obs_records_total"),
              std::string::npos);

    std::string statz = httpGet(port, "/statz");
    EXPECT_NE(statz.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(statz.find("application/json"), std::string::npos);
    EXPECT_NE(statz.find("tenants"), std::string::npos);

    std::string slowz = httpGet(port, "/slowz");
    EXPECT_NE(slowz.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(slowz.find("\"threshold_us\": 1"), std::string::npos);
    EXPECT_NE(slowz.find("\"batch\": 32"), std::string::npos);
    EXPECT_NE(slowz.find("total_us"), std::string::npos);

    std::string missing = httpGet(port, "/nosuch");
    EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

    server.stop();
    service.stop();
}

TEST(ObsEndpoint, MetricsQueryStringAndSlowzEmptyWhenDisarmed)
{
    ServiceOptions options;
    CheckService service(options);
    ServerOptions serverOptions;
    serverOptions.socketPath = socketPath("obsq");
    serverOptions.metricsAddress = "127.0.0.1:0";
    // slowUs stays 0: endpoint up, ring disarmed.
    SocketServer server(service, serverOptions);
    ASSERT_TRUE(server.start());

    std::string metrics =
        httpGet(server.metricsPort(), "/metrics?format=text");
    EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);

    std::string slowz = httpGet(server.metricsPort(), "/slowz");
    EXPECT_NE(slowz.find("\"total_slow\": 0"), std::string::npos);
    EXPECT_NE(slowz.find("\"records\": []"), std::string::npos);

    server.stop();
    service.stop();
}

TEST(ObsEndpoint, VerdictFingerprintIdenticalWithObsOnOrOff)
{
    const auto off = runTraffic("fpoff", false);
    const auto on = runTraffic("fpon", true, /*slowUs=*/1);
    EXPECT_EQ(off, on);
    ASSERT_EQ(off.size(), 4u);
    for (const auto &[allowed, denied] : off)
        EXPECT_EQ(allowed + denied, 256u);
}

} // namespace
} // namespace draco::serve
