/**
 * @file
 * SocketServer lifecycle tests: the regressions behind the event-loop
 * rewrite. Shutdown under pipelined load must terminate (the old
 * design could lose the writer wakeup and hang); connect/disconnect
 * churn must return the process to its fd baseline (connections were
 * leaked until shutdown); a peer that vanishes with replies in flight
 * must be reaped, not left a zombie; a half-closed client must still
 * receive every in-flight reply; and the per-tenant verdict
 * fingerprint must be identical over TCP and the Unix socket. The
 * lone-frame tests pin where a batch drains: a lock-step client's
 * batches on the event loop, a pipelined burst on the shard worker,
 * with identical verdicts and per-tenant FIFO order either way, also
 * with loops contending for shards while profiles swap and requests
 * use every seccomp_data field. Both ends guard the protocol version:
 * the client refuses a server of another version and the server
 * hangs up on a client of another version; and the client reassembles
 * a reply however the peer splits its writes.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/software.hh"
#include "os/syscalls.hh"
#include "seccomp/filter_builder.hh"
#include "seccomp/profile.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"
#include "serve/wire.hh"
#include "support/metrics.hh"

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

/** Write all of @p bytes to @p fd in as few sends as the kernel takes. */
bool
sendAll(int fd, const std::vector<uint8_t> &bytes)
{
    size_t pos = 0;
    while (pos < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + pos, bytes.size() - pos,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pos += static_cast<size_t>(n);
    }
    return true;
}

/** Append one framed CheckBatch for @p id to @p stream. */
void
appendCheckBatch(std::vector<uint8_t> &stream, uint64_t batchId,
                 TenantId id, const std::vector<os::SyscallRequest> &reqs)
{
    const size_t start = wire::beginFrame(stream);
    wire::encodeCheckBatch(stream, batchId, id, reqs);
    ASSERT_TRUE(wire::endFrame(stream, start));
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

/**
 * The server's side of the version guard: a peer whose Hello names
 * another version is told this server's version, then hung up on, so
 * a CheckBatch it sends under its own layout is never parsed under
 * this one. The frame after the Hello here is a valid current-version
 * batch for a live tenant, so only the refusal keeps it unserved.
 */
TEST(SocketServer, RefusesAHelloOfAnotherVersion)
{
    const std::string path = socketPath("oldhello");
    CheckService service;
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());
    auto admin = SocketClient::connect(path);
    ASSERT_NE(admin, nullptr);
    TenantId id = admin->createTenant("old", "docker-default");
    ASSERT_NE(id, kInvalidTenant);

    int fd = connectEndpoint(Endpoint::unix_(path));
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> stream;
    wire::Hello hello;
    hello.version = wire::kProtocolVersion - 1;
    size_t start = wire::beginFrame(stream);
    wire::encode(stream, hello);
    ASSERT_TRUE(wire::endFrame(stream, start));
    appendCheckBatch(stream, 1, id, trafficMix(9, 32));
    ASSERT_TRUE(sendAll(fd, stream));

    std::vector<uint8_t> payload;
    ASSERT_TRUE(wire::readFrame(fd, payload));
    wire::HelloReply reply;
    ASSERT_TRUE(wire::decode(payload, reply));
    EXPECT_EQ(reply.version, wire::kProtocolVersion);
    uint8_t byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0) << "expected EOF after HelloReply";
    ::close(fd);

    ASSERT_TRUE(eventually(
        [&] { return server.activeConnections() == 1; }));
    EXPECT_EQ(service.totalChecks(), 0u);
    server.stop();
    service.stop();
}

/**
 * The client reads a reply however the peer splits it: one byte per
 * write, or the length prefix and the payload in separate writes. A
 * fake server answers Hello, then each CheckBatch with verdicts derived
 * from its requests; the client must return them exactly, and must
 * fail a reply that echoes the wrong batchId or carries the wrong
 * verdict count.
 */
TEST(SocketClient, ReassemblesRepliesSplitAcrossWrites)
{
    enum class Mode { ByteAtATime, HeaderThenPayload, WrongId, WrongCount };
    const Mode modes[] = {Mode::ByteAtATime, Mode::HeaderThenPayload,
                          Mode::WrongId, Mode::WrongCount};
    auto verdictFor = [](const os::SyscallRequest &req) {
        CheckResponse resp;
        resp.status = req.sid % 2 ? CheckStatus::Denied
                                  : CheckStatus::Allowed;
        resp.path = static_cast<uint8_t>(req.sid % 4);
        resp.epoch = req.args[0] + 1;
        resp.retryAfterUs = static_cast<uint32_t>(req.pc);
        return resp;
    };

    const std::string path = socketPath("split");
    int listenFd = listenEndpoint(Endpoint::unix_(path));
    ASSERT_GE(listenFd, 0);
    std::thread peer([&] {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::vector<uint8_t> payload;
        std::vector<uint8_t> frame;
        if (wire::readFrame(fd, payload)) {
            wire::HelloReply hello;
            hello.shards = 1;
            size_t start = wire::beginFrame(frame);
            wire::encode(frame, hello);
            wire::endFrame(frame, start);
            sendAll(fd, frame);
        }
        for (Mode mode : modes) {
            wire::CheckBatch batch;
            if (!wire::readFrame(fd, payload) ||
                !wire::decode(payload, batch))
                break;
            wire::CheckBatchReply reply;
            reply.batchId = batch.batchId + (mode == Mode::WrongId);
            for (const os::SyscallRequest &req : batch.reqs)
                reply.resps.push_back(verdictFor(req));
            if (mode == Mode::WrongCount)
                reply.resps.pop_back();
            frame.clear();
            size_t start = wire::beginFrame(frame);
            wire::encode(frame, reply);
            wire::endFrame(frame, start);
            if (mode == Mode::ByteAtATime) {
                for (uint8_t byte : frame) {
                    if (!sendAll(fd, {byte}))
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(20));
                }
            } else {
                sendAll(fd, {frame.begin(), frame.begin() + 4});
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                sendAll(fd, {frame.begin() + 4, frame.end()});
            }
        }
        ::close(fd);
    });

    // No ASSERT until the peer has joined.
    auto client = SocketClient::connect(path);
    EXPECT_NE(client, nullptr);
    std::vector<os::SyscallRequest> reqs = trafficMix(11, 24);
    for (size_t i = 0; i < reqs.size(); ++i)
        reqs[i].pc = 0x1000 + i;
    if (client) {
        for (Mode mode : modes) {
            std::vector<CheckResponse> resps(reqs.size());
            const bool ok = client->checkBatch(
                7, reqs.data(), static_cast<uint32_t>(reqs.size()),
                resps.data());
            if (mode == Mode::WrongId || mode == Mode::WrongCount) {
                EXPECT_FALSE(ok) << "mode " << static_cast<int>(mode);
                continue;
            }
            EXPECT_TRUE(ok) << "mode " << static_cast<int>(mode);
            for (size_t i = 0; ok && i < reqs.size(); ++i) {
                const CheckResponse want = verdictFor(reqs[i]);
                EXPECT_EQ(resps[i].status, want.status) << i;
                EXPECT_EQ(resps[i].path, want.path) << i;
                EXPECT_EQ(resps[i].epoch, want.epoch) << i;
                EXPECT_EQ(resps[i].retryAfterUs, want.retryAfterUs) << i;
            }
        }
    }
    client.reset();
    // Unblocks the peer's accept() should the connect itself fail.
    ::shutdown(listenFd, SHUT_RDWR);
    peer.join();
    ::close(listenFd);
    ::unlink(path.c_str());
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

/**
 * A lock-step client sends one frame at a time, so every CheckBatch
 * arrives alone on an idle shard and runs on the event loop that read
 * it: no queue handoff, no worker wakeup.
 */
TEST(SocketServer, LockStepBatchesDrainOnTheLoop)
{
    const std::string path = socketPath("lockstep");
    ServiceOptions serviceOptions;
    serviceOptions.shards = 2;
    CheckService service(serviceOptions);
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    auto client = SocketClient::connect(path);
    ASSERT_NE(client, nullptr);
    TenantId a = client->createTenant("a", "docker-default");
    TenantId b = client->createTenant("b", "docker-default");
    ASSERT_NE(a, kInvalidTenant);
    ASSERT_NE(b, kInvalidTenant);
    constexpr uint64_t kBatches = 20;
    const auto reqs = trafficMix(6, 32);
    std::vector<CheckResponse> resps(reqs.size());
    for (uint64_t i = 0; i < kBatches; ++i)
        ASSERT_TRUE(client->checkBatch(
            i % 2 ? a : b, reqs.data(),
            static_cast<uint32_t>(reqs.size()), resps.data()));

    client.reset();
    server.stop();
    service.stop();
    MetricRegistry registry;
    service.exportMetrics(registry);
    EXPECT_EQ(registry.counterValue("serve.drains"), kBatches);
    EXPECT_EQ(registry.counterValue("serve.drains_inline"), kBatches);
    EXPECT_EQ(registry.counterValue("serve.shards.s0.drains_inline"),
              kBatches / 2);
}

/**
 * Eight CheckBatch frames in one send: each but the last has bytes
 * behind it, so they queue to the shard worker while the loop keeps
 * parsing. The replies come back in order with the verdicts a
 * lock-step client gets for the same batches.
 */
TEST(SocketServer, PipelinedBurstQueuesToTheWorkerInOrder)
{
    const std::string path = socketPath("burst");
    ServiceOptions serviceOptions;
    serviceOptions.shards = 2;
    CheckService service(serviceOptions);
    SocketServer server(service, path);
    ASSERT_TRUE(server.start());

    auto client = SocketClient::connect(path);
    ASSERT_NE(client, nullptr);
    TenantId lock = client->createTenant("lock", "docker-default");
    TenantId pipe = client->createTenant("pipe", "docker-default");
    ASSERT_NE(lock, kInvalidTenant);
    ASSERT_NE(pipe, kInvalidTenant);

    constexpr uint64_t kBatches = 8;
    std::vector<std::vector<os::SyscallRequest>> batches;
    std::vector<std::vector<CheckResponse>> lockStep;
    for (uint64_t b = 0; b < kBatches; ++b) {
        batches.push_back(trafficMix(200 + b, 32));
        lockStep.emplace_back(batches.back().size());
        ASSERT_TRUE(client->checkBatch(
            lock, batches.back().data(),
            static_cast<uint32_t>(batches.back().size()),
            lockStep.back().data()));
    }

    MetricRegistry before;
    service.exportMetrics(before);
    std::vector<uint8_t> stream;
    for (uint64_t b = 0; b < kBatches; ++b)
        appendCheckBatch(stream, b + 1, pipe, batches[b]);
    ASSERT_TRUE(sendAll(client->fd(), stream));
    for (uint64_t b = 0; b < kBatches; ++b) {
        std::vector<uint8_t> payload;
        ASSERT_TRUE(wire::readFrame(client->fd(), payload));
        wire::CheckBatchReply reply;
        ASSERT_TRUE(wire::decode(payload, reply));
        ASSERT_EQ(reply.batchId, b + 1) << "reply out of order";
        ASSERT_EQ(reply.resps.size(), lockStep[b].size());
        for (size_t i = 0; i < reply.resps.size(); ++i) {
            EXPECT_EQ(reply.resps[i].status, lockStep[b][i].status)
                << "batch " << b << " request " << i;
            EXPECT_EQ(reply.resps[i].epoch, 1u);
        }
    }
    MetricRegistry after;
    service.exportMetrics(after);
    const uint64_t drains = after.counterValue("serve.drains") -
                            before.counterValue("serve.drains");
    const uint64_t inlineDrains =
        after.counterValue("serve.drains_inline") -
        before.counterValue("serve.drains_inline");
    EXPECT_GE(drains - inlineDrains, 1u)
        << "no batch of the burst drained on the worker";
    EXPECT_LE(inlineDrains, 1u) << "only the last frame arrives alone";

    client.reset();
    server.stop();
    service.stop();
}

/**
 * Contention: 2 event loops, 4 lock-step and 2 pipelining connections
 * on 4 tenants over 2 shards, so loops race each other and the workers
 * for the same shards, while a control connection hot-swaps profiles.
 * Every verdict must match the reference interpreter under the
 * profile its epoch names, each connection must see each tenant's
 * replies in FIFO order, and stop() with traffic in flight must reap
 * every connection. Runs under TSan in CI.
 */
TEST(SocketServer, ContendedLoopsAndSwapsMatchPerEpochReference)
{
    constexpr unsigned kTenants = 4;
    constexpr unsigned kSwaps = 40;
    constexpr unsigned kBurst = 8; ///< Two frames per tenant.
    const std::vector<std::string> profiles = {
        "docker-default", "gvisor", "firecracker", "insecure"};

    // Requests on which the builtin profiles disagree.
    std::vector<os::SyscallRequest> pool;
    const uint16_t sids[] = {os::sc::read,   os::sc::write,
                             os::sc::openat, os::sc::socket,
                             os::sc::clone,  os::sc::execve,
                             os::sc::kill,   os::sc::ioctl,
                             os::sc::personality, os::sc::futex,
                             os::sc::mmap,   os::sc::fcntl};
    const uint64_t args[] = {0, 1, 2, 8, 0x11, 0xffffffffULL};
    for (uint16_t sid : sids)
        for (uint64_t arg : args)
            pool.push_back(request(sid, arg));
    // ...and requests that use every seccomp_data field, so a transport
    // that lost any of them would serve a verdict the reference
    // disagrees with: every argument position set (gvisor checks
    // socket's args 0-2 and mmap's args 2-3), the same with each high
    // word set (filters compare each 32-bit half), and the largest pc.
    // sids[0] is read, syscall number 0.
    const std::array<uint64_t, os::kMaxSyscallArgs> fullArgs[] = {
        {2, 1, 6, 0x22, 7, 9}, {1, 3, 5, 0x22, 0x11, 0x40}};
    for (uint16_t sid : sids) {
        for (const auto &full : fullArgs) {
            os::SyscallRequest req = request(sid);
            req.args = full;
            pool.push_back(req);
            for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i)
                req.args[i] |= static_cast<uint64_t>(i + 1) << 32;
            pool.push_back(req);
            req.args = full;
            req.pc = UINT64_MAX;
            pool.push_back(req);
        }
    }

    std::vector<std::vector<bool>> reference(profiles.size());
    for (size_t p = 0; p < profiles.size(); ++p) {
        auto policy = core::CompiledPolicy::compile(
            *builtinProfileByName(profiles[p]));
        for (const os::SyscallRequest &req : pool) {
            const os::SeccompData data = req.toSeccompData();
            uint32_t action =
                static_cast<uint32_t>(os::SeccompAction::Allow);
            for (const seccomp::BpfProgram &program :
                 policy->filter.programs())
                action = seccomp::mostRestrictiveAction(
                    action, program.runInterpreted(data).action);
            reference[p].push_back(os::rawActionAllows(action));
        }
    }
    ASSERT_NE(reference[0], reference[1]);
    ASSERT_NE(reference[0], reference[2]);

    const std::string path = socketPath("contend");
    ServiceOptions serviceOptions;
    serviceOptions.shards = 2;
    CheckService service(serviceOptions);
    ServerOptions serverOptions;
    serverOptions.socketPath = path;
    serverOptions.eventThreads = 2;
    SocketServer server(service, serverOptions);
    ASSERT_TRUE(server.start());

    auto control = SocketClient::connect(path);
    ASSERT_NE(control, nullptr);
    std::vector<TenantId> ids;
    for (unsigned t = 0; t < kTenants; ++t) {
        ids.push_back(control->createTenant("t" + std::to_string(t),
                                            profiles[0]));
        ASSERT_NE(ids.back(), kInvalidTenant);
    }

    // epoch -> profile index, per tenant, written by the control
    // thread and read after every thread has joined.
    std::vector<std::map<uint64_t, size_t>> epochProfile(kTenants);
    for (unsigned t = 0; t < kTenants; ++t)
        epochProfile[t][1] = 0;

    /** One reply as a connection saw it, in arrival order. */
    struct Seen {
        unsigned tenant;
        uint64_t batchId;
        size_t first; ///< Pool index of the batch's first request.
        std::vector<CheckResponse> resps;
    };
    constexpr unsigned kConns = 6;
    std::vector<std::vector<Seen>> seen(kConns);
    std::vector<std::string> errors(kConns);
    std::atomic<uint64_t> replies{0};
    const uint32_t kBatch = 8;

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c] {
            auto client = SocketClient::connect(path);
            if (!client) {
                errors[c] = "connect failed";
                return;
            }
            uint64_t x = 0x9E3779B97F4A7C15ULL * (c + 1);
            auto nextFirst = [&] {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                return static_cast<size_t>((x >> 33) % pool.size());
            };
            auto batchOf = [&](size_t first) {
                std::vector<os::SyscallRequest> reqs;
                for (uint32_t i = 0; i < kBatch; ++i)
                    reqs.push_back(pool[(first + i) % pool.size()]);
                return reqs;
            };
            for (uint64_t round = 0;; ++round) {
                if (c < 4) {
                    // Lock-step on tenant c: one frame at a time.
                    const size_t first = nextFirst();
                    const auto reqs = batchOf(first);
                    std::vector<CheckResponse> resps(kBatch);
                    if (!client->checkBatch(ids[c], reqs.data(), kBatch,
                                            resps.data()))
                        return;
                    seen[c].push_back({c, round, first, resps});
                    replies.fetch_add(1);
                    continue;
                }
                // Pipelining: a burst of two frames per tenant in one
                // send, then every reply.
                std::vector<uint8_t> stream;
                std::map<uint64_t, std::pair<unsigned, size_t>> sent;
                for (unsigned k = 0; k < kBurst; ++k) {
                    const unsigned t = (k + c) % kTenants;
                    const uint64_t batchId = round * kBurst + k + 1;
                    const size_t first = nextFirst();
                    appendCheckBatch(stream, batchId, ids[t],
                                     batchOf(first));
                    sent[batchId] = {t, first};
                }
                if (!sendAll(client->fd(), stream))
                    return;
                for (unsigned k = 0; k < kBurst; ++k) {
                    std::vector<uint8_t> payload;
                    if (!wire::readFrame(client->fd(), payload))
                        return;
                    wire::CheckBatchReply reply;
                    auto it = sent.end();
                    if (wire::decode(payload, reply))
                        it = sent.find(reply.batchId);
                    if (it == sent.end() ||
                        reply.resps.size() != kBatch) {
                        errors[c] = "undecodable or unknown reply";
                        return;
                    }
                    seen[c].push_back({it->second.first, reply.batchId,
                                       it->second.second, reply.resps});
                    replies.fetch_add(1);
                }
            }
        });
    }

    // Swap tenants round-robin through the profiles under the load.
    // No ASSERT until the threads have joined.
    EXPECT_TRUE(eventually([&] { return replies.load() >= 50; }));
    for (unsigned i = 0; i < kSwaps; ++i) {
        const unsigned t = i % kTenants;
        const size_t p = (i / kTenants + 1) % profiles.size();
        uint64_t epoch = 0;
        if (!control->updateProfile(ids[t], profiles[p], &epoch)) {
            ADD_FAILURE() << "swap " << i << " failed";
            break;
        }
        EXPECT_TRUE(epochProfile[t].emplace(epoch, p).second);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    const uint64_t target = replies.load() + 100;
    EXPECT_TRUE(eventually([&] { return replies.load() >= target; }));

    // Stop with every connection still sending.
    control.reset();
    server.stop();
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(server.activeConnections(), 0u);
    EXPECT_EQ(server.connectionsAccepted(), server.connectionsReaped());
    service.stop();

    uint64_t checked = 0;
    uint64_t swapped = 0;
    for (unsigned c = 0; c < kConns; ++c) {
        EXPECT_EQ(errors[c], "") << "connection " << c;
        std::vector<uint64_t> lastBatch(kTenants, 0);
        std::vector<uint64_t> lastEpoch(kTenants, 0);
        for (const Seen &s : seen[c]) {
            // FIFO per tenant: a connection's batches for one tenant
            // come back in the order it sent them, under epochs that
            // never go back.
            if (c >= 4) {
                EXPECT_GT(s.batchId, lastBatch[s.tenant])
                    << "connection " << c << " tenant " << s.tenant;
                lastBatch[s.tenant] = s.batchId;
            }
            for (uint32_t i = 0; i < kBatch; ++i) {
                const CheckResponse &resp = s.resps[i];
                ASSERT_TRUE(resp.status == CheckStatus::Allowed ||
                            resp.status == CheckStatus::Denied)
                    << checkStatusName(resp.status);
                ASSERT_GE(resp.epoch, lastEpoch[s.tenant]);
                lastEpoch[s.tenant] = resp.epoch;
                auto it = epochProfile[s.tenant].find(resp.epoch);
                ASSERT_NE(it, epochProfile[s.tenant].end())
                    << "verdict under unpublished epoch " << resp.epoch;
                const size_t req = (s.first + i) % pool.size();
                ASSERT_EQ(resp.status == CheckStatus::Allowed,
                          reference[it->second][req])
                    << "tenant " << s.tenant << " epoch " << resp.epoch
                    << " request " << req;
                ++checked;
                if (resp.epoch > 1)
                    ++swapped;
            }
        }
    }
    EXPECT_GT(checked, 0u);
    EXPECT_GT(swapped, 0u) << "no verdict was served after a swap";
}

} // namespace
} // namespace draco::serve
