/**
 * @file
 * Warm serving batches allocate nothing. This binary replaces the
 * global operator new with one that counts every call, then drives a
 * SocketServer in-process: after a warm-up, lock-step batches over a
 * check slot and lone frames over TCP must not call it once, on
 * either end. dracod recycles each batch's state per event loop and
 * holds its completion callback inline; the client reuses its
 * request and reply buffers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "os/syscalls.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace {

std::atomic<uint64_t> gAllocations{0};

void *
countedAlloc(size_t n, size_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align > alignof(std::max_align_t)
        ? std::aligned_alloc(align, (n + align - 1) / align * align)
        : std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace draco::serve {
namespace {

/** An allow/deny mix of 32 requests, as a lock-step client sends. */
std::vector<os::SyscallRequest>
batchOf32()
{
    std::vector<os::SyscallRequest> reqs(32);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].pc = 0x1000 + 16 * (i % 4);
        reqs[i].sid = i % 3 == 0   ? os::sc::read
                      : i % 3 == 1 ? os::sc::write
                                   : os::sc::openat;
        reqs[i].args[0] = i % 5;
    }
    return reqs;
}

/**
 * @return Operator-new calls made by @p n batches of @p client after
 *         a warm-up of 1000, or UINT64_MAX when a batch failed or its
 *         verdicts changed.
 */
uint64_t
allocationsOver(SocketClient &client, TenantId id, int n)
{
    const std::vector<os::SyscallRequest> reqs = batchOf32();
    std::vector<CheckResponse> want(reqs.size());
    std::vector<CheckResponse> resps(reqs.size());
    if (!client.checkBatch(id, reqs.data(), 32, want.data()))
        return UINT64_MAX;
    for (int i = 0; i < 1000; ++i)
        if (!client.checkBatch(id, reqs.data(), 32, resps.data()))
            return UINT64_MAX;
    const uint64_t before = gAllocations.load();
    bool same = true;
    for (int i = 0; i < n; ++i) {
        if (!client.checkBatch(id, reqs.data(), 32, resps.data()))
            return UINT64_MAX;
        for (size_t r = 0; r < resps.size(); ++r)
            same &= resps[r].status == want[r].status;
    }
    const uint64_t made = gAllocations.load() - before;
    return same ? made : UINT64_MAX;
}

/**
 * 10 000 lock-step batches over a check slot, then 10 000 lone frames
 * over TCP, each after a warm-up: no operator new in the whole
 * process, daemon and client both.
 */
TEST(ServeAlloc, WarmBatchesAllocateNothing)
{
    const std::string path =
        "/tmp/draco_test_" + std::to_string(getpid()) + "_alloc.sock";
    CheckService service;
    ServerOptions options;
    options.socketPath = path;
    options.tcpAddress = "127.0.0.1:0";
    SocketServer server(service, options);
    ASSERT_TRUE(server.start());

    auto slotClient = SocketClient::connect(path);
    ASSERT_NE(slotClient, nullptr);
    const TenantId a = slotClient->createTenant("a", "docker-default");
    ASSERT_NE(a, kInvalidTenant);
    auto tcpClient = SocketClient::connectTcp(
        "127.0.0.1:" + std::to_string(server.tcpPort()));
    ASSERT_NE(tcpClient, nullptr);
    const TenantId b = tcpClient->createTenant("b", "docker-default");
    ASSERT_NE(b, kInvalidTenant);

    EXPECT_EQ(allocationsOver(*slotClient, a, 10000), 0u)
        << "slot batches";
    EXPECT_FALSE(slotClient->slotMemory().empty());
    EXPECT_EQ(allocationsOver(*tcpClient, b, 10000), 0u)
        << "TCP frames";

    slotClient.reset();
    tcpClient.reset();
    server.stop();
    service.stop();
}

} // namespace
} // namespace draco::serve
