/**
 * @file
 * SocketServer lifecycle tests: the regressions behind the event-loop
 * rewrite. Shutdown under pipelined load must terminate (the old
 * design could lose the writer wakeup and hang); connect/disconnect
 * churn must return the process to its fd baseline (connections were
 * leaked until shutdown); a peer that vanishes with replies in flight
 * must be reaped, not left a zombie; a half-closed client must still
 * receive every in-flight reply; and the per-tenant verdict
 * fingerprint must be identical over TCP and the Unix socket.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"
#include "serve/wire.hh"

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

/** A per-test Unix socket path that parallel test runs cannot share. */
std::string
socketPath(const char *tag)
{
    return "/tmp/draco_test_" + std::to_string(getpid()) + "_" + tag +
           ".sock";
}

size_t
openFdCount()
{
    DIR *dir = opendir("/proc/self/fd");
    if (dir == nullptr)
        return 0;
    size_t n = 0;
    while (readdir(dir) != nullptr)
        ++n;
    closedir(dir);
    return n;
}

/** Spin until @p cond holds or ~5s pass. @return cond's final value. */
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
 * The lost-wakeup regression: stopping the server while clients have
 * batches in flight must neither hang nor crash, every iteration.
 * Repeated because the original race (a reply enqueued between the
 * writer's last queue check and its shutdown check) was timing-
 * dependent; under TSan this is also the teardown-ordering stress.
 */
TEST(SocketServer, ShutdownUnderPipelinedLoadTerminates)
{
    const std::string path = socketPath("shutload");
    const auto reqs = trafficMix(1, 64);

    for (int round = 0; round < 8; ++round) {
        CheckService service;
        SocketServer server(service, path);
        ASSERT_TRUE(server.start());

        constexpr unsigned kClients = 4;
        std::atomic<uint64_t> answered{0};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                auto client = SocketClient::connect(path);
                if (!client)
                    return;
                TenantId id = client->createTenant(
                    "t" + std::to_string(c), "docker-default");
                if (id == kInvalidTenant)
                    return;
                std::vector<CheckResponse> resps(reqs.size());
                // Hammer until the server goes away under us.
                while (client->checkBatch(
                    id, reqs.data(), static_cast<uint32_t>(reqs.size()),
                    resps.data())) {
                    answered.fetch_add(reqs.size());
                }
            });
        }

        // Let the load build, then yank the server mid-flight.
        while (answered.load() < reqs.size())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        server.requestStop();
        server.stop();
        for (std::thread &client : clients)
            client.join();

        EXPECT_EQ(server.activeConnections(), 0u) << "round " << round;
        EXPECT_EQ(server.connectionsAccepted(),
                  server.connectionsReaped())
            << "round " << round;
        service.stop();
    }
}

/**
 * The connection-leak regression: churning connections must free each
 * one at disconnect, not park it until server shutdown. Both the
 * server's own accounting and the process fd table must return to
 * baseline while the server keeps running.
 */
TEST(SocketServer, ConnectionChurnReturnsToTheFdBaseline)
{
    const std::string path = socketPath("churn");
    CheckService service;
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    // One throwaway connection first so any lazily created fds
    // (tenant state, logging) do not pollute the baseline.
    { auto warm = SocketClient::connect(path); ASSERT_NE(warm, nullptr); }
    ASSERT_TRUE(eventually(
        [&] { return server.activeConnections() == 0; }));
    const size_t fdBaseline = openFdCount();
    const uint64_t reapedBaseline = server.connectionsReaped();

    constexpr int kChurn = 50;
    const auto reqs = trafficMix(2, 16);
    for (int i = 0; i < kChurn; ++i) {
        auto client = SocketClient::connect(path);
        ASSERT_NE(client, nullptr);
        if (i % 2 == 0) {
            // Half the churn does real work before vanishing.
            TenantId id = client->createTenant("churn", "docker-default");
            ASSERT_NE(id, kInvalidTenant);
            std::vector<CheckResponse> resps(reqs.size());
            ASSERT_TRUE(client->checkBatch(
                id, reqs.data(), static_cast<uint32_t>(reqs.size()),
                resps.data()));
        }
    }

    ASSERT_TRUE(eventually(
        [&] { return server.activeConnections() == 0; }))
        << server.activeConnections() << " connections never reaped";
    EXPECT_EQ(server.connectionsReaped() - reapedBaseline,
              static_cast<uint64_t>(kChurn));
    // The fd table is back where it started: nothing leaked. Exact
    // equality, not slack — every churned fd must be gone.
    EXPECT_EQ(openFdCount(), fdBaseline);
    server.stop();
    service.stop();
}

/**
 * The zombie-connection regression: a peer that disappears while its
 * replies are still being produced (so the server's write fails or
 * its read sees a reset) must be fully reaped, never left half-dead
 * with a closed writer and a live reader.
 */
TEST(SocketServer, VanishingPeerWithRepliesInFlightIsReaped)
{
    const std::string path = socketPath("vanish");
    CheckService service;
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    auto admin = SocketClient::connect(path);
    ASSERT_NE(admin, nullptr);
    TenantId id = admin->createTenant("vanish", "docker-default");
    ASSERT_NE(id, kInvalidTenant);

    const auto reqs = trafficMix(3, 256);
    for (int i = 0; i < 10; ++i) {
        auto victim = SocketClient::connect(path);
        ASSERT_NE(victim, nullptr);
        // Pipeline several batches raw, then slam the socket shut
        // without reading a single reply.
        for (uint64_t b = 1; b <= 4; ++b) {
            wire::CheckBatch msg;
            msg.batchId = b;
            msg.tenantId = id;
            msg.reqs = reqs;
            std::vector<uint8_t> payload;
            wire::encode(payload, msg);
            ASSERT_TRUE(wire::writeFrame(victim->fd(), payload));
        }
        victim.reset(); // close(2) with ~16k response bytes in flight
    }

    ASSERT_TRUE(eventually(
        [&] { return server.activeConnections() == 1; }))
        << server.activeConnections()
        << " connections alive (want only the admin client)";

    // The server is still healthy for the surviving connection.
    std::vector<CheckResponse> resps(reqs.size());
    EXPECT_TRUE(admin->checkBatch(id, reqs.data(),
                                  static_cast<uint32_t>(reqs.size()),
                                  resps.data()));
    server.stop();
    service.stop();
}

/**
 * Half-close drain: a client that shuts down its write side after
 * pipelining batches must still receive every reply, then a clean
 * EOF once the server reaps the drained connection.
 */
TEST(SocketServer, HalfClosedClientReceivesInFlightReplies)
{
    const std::string path = socketPath("halfclose");
    CheckService service;
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    auto admin = SocketClient::connect(path);
    ASSERT_NE(admin, nullptr);
    TenantId id = admin->createTenant("half", "docker-default");
    ASSERT_NE(id, kInvalidTenant);

    auto client = SocketClient::connect(path);
    ASSERT_NE(client, nullptr);
    const auto reqs = trafficMix(4, 32);
    constexpr uint64_t kBatches = 8;
    for (uint64_t b = 1; b <= kBatches; ++b) {
        wire::CheckBatch msg;
        msg.batchId = b;
        msg.tenantId = id;
        msg.reqs = reqs;
        std::vector<uint8_t> payload;
        wire::encode(payload, msg);
        ASSERT_TRUE(wire::writeFrame(client->fd(), payload));
    }
    ASSERT_EQ(shutdown(client->fd(), SHUT_WR), 0);

    // Every pipelined batch still answers, in some order.
    uint64_t seen = 0;
    for (uint64_t b = 1; b <= kBatches; ++b) {
        std::vector<uint8_t> payload;
        ASSERT_TRUE(wire::readFrame(client->fd(), payload))
            << "reply " << b << " never arrived";
        wire::CheckBatchReply reply;
        ASSERT_TRUE(wire::decode(payload, reply));
        ASSERT_EQ(reply.resps.size(), reqs.size());
        ASSERT_GE(reply.batchId, 1u);
        ASSERT_LE(reply.batchId, kBatches);
        seen |= 1ULL << reply.batchId;
    }
    EXPECT_EQ(seen, ((1ULL << kBatches) - 1) << 1);

    // ...then EOF: the server drained and reaped the connection.
    std::vector<uint8_t> payload;
    EXPECT_FALSE(wire::readFrame(client->fd(), payload));
    ASSERT_TRUE(eventually(
        [&] { return server.activeConnections() == 1; }));
    server.stop();
    service.stop();
}

/** A Shutdown frame stops the whole server, unblocking wait(). */
TEST(SocketServer, ShutdownFrameStopsTheServer)
{
    const std::string path = socketPath("shutframe");
    CheckService service;
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());
    EXPECT_FALSE(server.stopRequested());

    std::thread waiter([&] { server.wait(); });
    auto client = SocketClient::connect(path);
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->shutdownServer());
    waiter.join(); // hangs here if the frame did not stop the server
    EXPECT_TRUE(server.stopRequested());
    server.stop();
    service.stop();
}

/**
 * Transport equivalence: the per-tenant verdict fingerprint (allowed,
 * denied counts) must be byte-identical whether batches travel over
 * the Unix socket or TCP — the transport must never reorder, drop, or
 * duplicate a tenant's requests.
 */
TEST(SocketServer, TcpAndUnixVerdictFingerprintsMatch)
{
    constexpr unsigned kTenants = 4;
    constexpr size_t kReqs = 512;

    // fingerprints[transport][tenant] = (allowed, denied)
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> fingerprints;
    for (int transport = 0; transport < 2; ++transport) {
        CheckService service;
        ServerOptions options;
        if (transport == 0)
            options.socketPath = socketPath("fingerprint");
        else
            options.tcpAddress = "127.0.0.1:0";
        SocketServer server(service, options);
        ASSERT_TRUE(server.start());

        auto client =
            transport == 0
                ? SocketClient::connect(options.socketPath)
                : SocketClient::connectTcp(
                      "127.0.0.1:" + std::to_string(server.tcpPort()));
        ASSERT_NE(client, nullptr);

        std::vector<std::pair<uint64_t, uint64_t>> verdicts;
        for (unsigned t = 0; t < kTenants; ++t) {
            TenantId id = client->createTenant("t" + std::to_string(t),
                                               "docker-default");
            ASSERT_NE(id, kInvalidTenant);
            const auto reqs = trafficMix(100 + t, kReqs);
            std::vector<CheckResponse> resps(kReqs);
            ASSERT_TRUE(client->checkBatch(
                id, reqs.data(), static_cast<uint32_t>(kReqs),
                resps.data()));
            TenantStats stats;
            ASSERT_TRUE(client->tenantStats(id, stats));
            EXPECT_EQ(stats.allowed + stats.denied, kReqs);
            verdicts.emplace_back(stats.allowed, stats.denied);
        }
        fingerprints.push_back(std::move(verdicts));
        server.stop();
        service.stop();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

/**
 * The control-plane stats op over the socket: a capped service's
 * lifecycle gauges arrive at the client intact.
 */
TEST(SocketServer, ServiceStatsOverTheSocket)
{
    ServiceOptions serviceOptions;
    serviceOptions.maxResidentTenants = 1;
    CheckService service(serviceOptions);
    const std::string path = socketPath("svcstats");
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    auto client = SocketClient::connect(path);
    ASSERT_NE(client, nullptr);
    TenantId a = client->createTenant("a", "docker-default");
    TenantId b = client->createTenant("b", "docker-default");
    ASSERT_NE(a, kInvalidTenant);
    ASSERT_NE(b, kInvalidTenant);
    // Touching both under a cap of 1 forces one eviction.
    const auto reqs = trafficMix(1, 32);
    std::vector<CheckResponse> resps(reqs.size());
    ASSERT_TRUE(client->checkBatch(
        a, reqs.data(), static_cast<uint32_t>(reqs.size()),
        resps.data()));
    ASSERT_TRUE(client->checkBatch(
        b, reqs.data(), static_cast<uint32_t>(reqs.size()),
        resps.data()));

    ServiceStatsSnapshot stats;
    ASSERT_TRUE(client->serviceStats(stats));
    EXPECT_EQ(stats.tenants, 2u);
    EXPECT_EQ(stats.resident, 1u);
    EXPECT_EQ(stats.snapshotted, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.dedupPolicies, 1u);
    EXPECT_EQ(stats.dedupHits, 1u);
    EXPECT_GT(stats.storeBytes, 0u);
    EXPECT_EQ(stats.checks, 2 * reqs.size());
    server.stop();
    service.stop();
}

/**
 * The handshake version guard: a peer answering Hello with any other
 * protocol version is refused at connect, before a single request is
 * sent. A fake server speaking the raw wire protocol stands in for an
 * older dracod; the same fake at the current version must connect, so
 * the refusal is the version check and not a broken fake.
 */
TEST(SocketServer, HandshakeRefusesAnotherProtocolVersion)
{
    const std::string path = socketPath("version");
    for (uint32_t version : {wire::kProtocolVersion - 1,
                             wire::kProtocolVersion}) {
        int listenFd = listenEndpoint(Endpoint::unix_(path));
        ASSERT_GE(listenFd, 0);
        std::thread peer([listenFd, version] {
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return;
            std::vector<uint8_t> payload;
            wire::Hello hello;
            if (wire::readFrame(fd, payload) &&
                wire::decode(payload, hello)) {
                wire::HelloReply reply;
                reply.version = version;
                reply.shards = 1;
                payload.clear();
                wire::encode(payload, reply);
                wire::writeFrame(fd, payload);
            }
            ::close(fd);
        });
        auto client = SocketClient::connect(path);
        // Unblocks the peer's accept() should the connect itself fail.
        ::shutdown(listenFd, SHUT_RDWR);
        peer.join();
        ::close(listenFd);
        ::unlink(path.c_str());
        if (version == wire::kProtocolVersion)
            EXPECT_NE(client, nullptr);
        else
            EXPECT_EQ(client, nullptr) << "accepted version " << version;
    }
}

/** Both listeners at once: one service, either doorway. */
TEST(SocketServer, ServesUnixAndTcpSimultaneously)
{
    CheckService service;
    ServerOptions options;
    options.socketPath = socketPath("dual");
    options.tcpAddress = "127.0.0.1:0";
    SocketServer server(service, options);
    ASSERT_TRUE(server.start());
    ASSERT_NE(server.tcpPort(), 0);

    auto unixClient = SocketClient::connect(options.socketPath);
    auto tcpClient = SocketClient::connectTcp(
        "127.0.0.1:" + std::to_string(server.tcpPort()));
    ASSERT_NE(unixClient, nullptr);
    ASSERT_NE(tcpClient, nullptr);

    // Same tenant namespace: create over Unix, check over TCP.
    TenantId id = unixClient->createTenant("dual", "docker-default");
    ASSERT_NE(id, kInvalidTenant);
    const auto reqs = trafficMix(5, 64);
    std::vector<CheckResponse> resps(reqs.size());
    EXPECT_TRUE(tcpClient->checkBatch(
        id, reqs.data(), static_cast<uint32_t>(reqs.size()),
        resps.data()));
    server.stop();
    service.stop();
}

} // namespace
} // namespace draco::serve
