/**
 * @file
 * CheckService unit tests: tenant lifecycle, verdict correctness, FIFO
 * stats snapshots, eviction semantics, shutdown draining, and the
 * determinism contract — per-tenant verdict counts identical at every
 * shard count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "support/metrics.hh"

namespace draco::serve {
namespace {

os::SyscallRequest
request(uint16_t sid, uint64_t arg0 = 0, uint64_t pc = 0x1000)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = pc;
    req.args[0] = arg0;
    return req;
}

/** read: allowed unconditionally; write: allowed only to fd 1. */
seccomp::Profile
testProfile()
{
    seccomp::Profile profile("serve-test");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    return profile;
}

/**
 * A deterministic request mix exercising allow, tuple-allow, tuple-deny
 * and unknown-syscall paths; @p seed varies the order per tenant.
 */
std::vector<os::SyscallRequest>
trafficMix(uint64_t seed, size_t n)
{
    std::vector<os::SyscallRequest> reqs;
    reqs.reserve(n);
    uint64_t x = seed * 2654435761u + 1;
    for (size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        switch ((x >> 33) % 4) {
          case 0:
            reqs.push_back(request(os::sc::read, x % 8));
            break;
          case 1:
            reqs.push_back(request(os::sc::write, 1));
            break;
          case 2:
            reqs.push_back(request(os::sc::write, 2)); // denied tuple
            break;
          default:
            reqs.push_back(request(os::sc::openat)); // not in profile
            break;
        }
    }
    return reqs;
}

TEST(CheckService, ChecksVerdictsAgainstTheProfile)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);
    TenantId id = service.createTenant("a", testProfile());
    ASSERT_NE(id, kInvalidTenant);

    EXPECT_EQ(service.check(id, request(os::sc::read)).status,
              CheckStatus::Allowed);
    EXPECT_EQ(service.check(id, request(os::sc::write, 1)).status,
              CheckStatus::Allowed);
    EXPECT_EQ(service.check(id, request(os::sc::write, 2)).status,
              CheckStatus::Denied);
    EXPECT_EQ(service.check(id, request(os::sc::openat)).status,
              CheckStatus::Denied);
    EXPECT_EQ(service.totalChecks(), 4u);
}

TEST(CheckService, CreateTenantIsIdempotentByName)
{
    CheckService service;
    TenantId a = service.createTenant("a", testProfile());
    TenantId b = service.createTenant("b", testProfile());
    EXPECT_NE(a, kInvalidTenant);
    EXPECT_NE(b, kInvalidTenant);
    EXPECT_NE(a, b);
    EXPECT_EQ(service.createTenant("a", testProfile()), a);
    EXPECT_EQ(service.findTenant("b"), b);
    EXPECT_EQ(service.findTenant("nope"), kInvalidTenant);
}

TEST(CheckService, TenantTableCapacityIsEnforced)
{
    ServiceOptions options;
    options.maxTenants = 2;
    CheckService service(options);
    EXPECT_NE(service.createTenant("a", testProfile()), kInvalidTenant);
    EXPECT_NE(service.createTenant("b", testProfile()), kInvalidTenant);
    EXPECT_EQ(service.createTenant("c", testProfile()), kInvalidTenant);
}

TEST(CheckService, UnknownTenantRejectsImmediately)
{
    CheckService service;
    CheckResponse resp = service.check(42, request(os::sc::read));
    EXPECT_EQ(resp.status, CheckStatus::UnknownTenant);
}

TEST(CheckService, SubmitBatchFillsEveryResponseSlot)
{
    CheckService service;
    TenantId id = service.createTenant("a", testProfile());
    std::vector<os::SyscallRequest> reqs = trafficMix(1, 256);
    std::vector<CheckResponse> resps(reqs.size());
    Batch batch;
    service.submitBatch(id, reqs.data(),
                        static_cast<uint32_t>(reqs.size()),
                        resps.data(), batch);
    batch.wait();
    for (const CheckResponse &resp : resps)
        EXPECT_TRUE(resp.status == CheckStatus::Allowed ||
                    resp.status == CheckStatus::Denied);
}

TEST(CheckService, EmptySubmitCompletesImmediately)
{
    CheckService service;
    TenantId id = service.createTenant("a", testProfile());
    Batch batch;
    service.submitBatch(id, nullptr, 0, nullptr, batch);
    EXPECT_TRUE(batch.done());
}

TEST(CheckService, TenantStatsSnapshotIsFifoExact)
{
    CheckService service;
    TenantId id = service.createTenant("a", testProfile());
    std::vector<os::SyscallRequest> reqs = trafficMix(2, 100);
    std::vector<CheckResponse> resps(reqs.size());
    Batch batch;
    service.submitBatch(id, reqs.data(),
                        static_cast<uint32_t>(reqs.size()),
                        resps.data(), batch);

    // The Stats op is enqueued behind the check batch on the same
    // shard, so the snapshot sees exactly those 100 requests even
    // though we never waited for the batch ourselves.
    TenantStats stats;
    ASSERT_TRUE(service.tenantStats(id, stats));
    EXPECT_EQ(stats.allowed + stats.denied, 100u);
    EXPECT_EQ(stats.check.checks, 100u);
    EXPECT_EQ(stats.rejects, 0u);
    EXPECT_EQ(stats.name, "a");
    EXPECT_FALSE(stats.evicted);
    EXPECT_TRUE(batch.done());
}

TEST(CheckService, VerdictCountsIdenticalAtEveryShardCount)
{
    constexpr unsigned kTenants = 8;
    constexpr size_t kClientBatch = 32;
    std::vector<std::vector<os::SyscallRequest>> traffic;
    for (unsigned t = 0; t < kTenants; ++t)
        traffic.push_back(trafficMix(100 + t, 400));

    // Neither the shard count nor the drain size may move a verdict:
    // at maxBatch 64 a worker may drain two 32-request submits per
    // wakeup, at maxBatch 1 only one.
    std::vector<std::pair<uint64_t, uint64_t>> baseline;
    for (uint32_t maxBatch : {1u, 64u}) {
        for (unsigned shards : {1u, 2u, 4u}) {
            ServiceOptions options;
            options.shards = shards;
            options.maxBatch = maxBatch;
            CheckService service(options);
            std::vector<TenantId> ids;
            for (unsigned t = 0; t < kTenants; ++t)
                ids.push_back(service.createTenant(
                    "t" + std::to_string(t), testProfile()));

            std::vector<std::vector<CheckResponse>> resps(kTenants);
            std::vector<std::unique_ptr<Batch>> batches;
            for (unsigned t = 0; t < kTenants; ++t) {
                resps[t].resize(traffic[t].size());
                batches.push_back(std::make_unique<Batch>());
            }
            // Interleave the tenants' client batches, as concurrent
            // connections would.
            for (size_t pos = 0; pos < traffic[0].size();
                 pos += kClientBatch) {
                for (unsigned t = 0; t < kTenants; ++t) {
                    const uint32_t n = static_cast<uint32_t>(std::min(
                        kClientBatch, traffic[t].size() - pos));
                    service.submitBatch(ids[t], traffic[t].data() + pos,
                                        n, resps[t].data() + pos,
                                        *batches[t]);
                }
            }
            for (auto &batch : batches)
                batch->wait();

            std::vector<std::pair<uint64_t, uint64_t>> verdicts;
            for (unsigned t = 0; t < kTenants; ++t) {
                TenantStats stats;
                ASSERT_TRUE(service.tenantStats(ids[t], stats));
                verdicts.emplace_back(stats.allowed, stats.denied);
                EXPECT_EQ(stats.allowed + stats.denied,
                          traffic[t].size());
            }
            if (baseline.empty())
                baseline = verdicts;
            else
                EXPECT_EQ(verdicts, baseline)
                    << shards << " shards, maxBatch " << maxBatch;
            EXPECT_EQ(service.totalRejects(), 0u);
        }
    }
}

TEST(CheckService, EvictedTenantRejectsNewWorkButReportsStats)
{
    CheckService service;
    TenantId id = service.createTenant("a", testProfile());
    EXPECT_EQ(service.check(id, request(os::sc::read)).status,
              CheckStatus::Allowed);

    ASSERT_TRUE(service.evictTenant(id));
    EXPECT_FALSE(service.evictTenant(id)); // already evicted
    EXPECT_EQ(service.check(id, request(os::sc::read)).status,
              CheckStatus::UnknownTenant);

    TenantStats stats;
    ASSERT_TRUE(service.tenantStats(id, stats));
    EXPECT_TRUE(stats.evicted);
    EXPECT_EQ(stats.allowed, 1u);

    // The name is free for reuse; the new tenant gets a fresh id.
    TenantId fresh = service.createTenant("a", testProfile());
    EXPECT_NE(fresh, kInvalidTenant);
    EXPECT_NE(fresh, id);
}

TEST(CheckService, StopDrainsThenRejectsWithShuttingDown)
{
    CheckService service;
    TenantId id = service.createTenant("a", testProfile());
    std::vector<os::SyscallRequest> reqs = trafficMix(3, 200);
    std::vector<CheckResponse> resps(reqs.size());
    Batch batch;
    service.submitBatch(id, reqs.data(),
                        static_cast<uint32_t>(reqs.size()),
                        resps.data(), batch);
    service.stop();
    EXPECT_TRUE(batch.done());
    // Everything accepted before stop() drained to a real verdict.
    for (const CheckResponse &resp : resps)
        EXPECT_TRUE(resp.status == CheckStatus::Allowed ||
                    resp.status == CheckStatus::Denied);

    CheckResponse late = service.check(id, request(os::sc::read));
    EXPECT_EQ(late.status, CheckStatus::ShuttingDown);
    EXPECT_EQ(service.createTenant("late", testProfile()),
              kInvalidTenant);
}

TEST(CheckService, LocalClientRoundTrips)
{
    CheckService service;
    LocalClient client(service);
    TenantId id = client.createTenant("a", "docker-default");
    ASSERT_NE(id, kInvalidTenant);
    EXPECT_EQ(client.createTenant("bad", "no-such-profile"),
              kInvalidTenant);

    os::SyscallRequest req = request(os::sc::read);
    CheckResponse resp;
    ASSERT_TRUE(client.checkBatch(id, &req, 1, &resp));
    EXPECT_EQ(resp.status, CheckStatus::Allowed);

    TenantStats stats;
    ASSERT_TRUE(client.tenantStats(id, stats));
    EXPECT_EQ(stats.allowed, 1u);
    EXPECT_TRUE(client.evictTenant(id));
}

TEST(CheckService, ExportMetricsMatchesCounters)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);
    TenantId id = service.createTenant("a", testProfile());
    for (int i = 0; i < 10; ++i)
        service.check(id, request(os::sc::read));
    service.stop();

    MetricRegistry registry;
    service.exportMetrics(registry);
    EXPECT_EQ(registry.counterValue("serve.checks"), 10u);
    EXPECT_EQ(registry.counterValue("serve.shard_count"), 2u);
    EXPECT_EQ(registry.counterValue("serve.rejects.total"), 0u);
    EXPECT_EQ(registry.counterValue("serve.tenants.count"), 1u);
    EXPECT_EQ(registry.counterValue("serve.tenants.a.allowed"), 10u);
    EXPECT_TRUE(registry.has("serve.batch_size"));
    EXPECT_TRUE(registry.has("serve.shards.s1.peak_depth"));
}

} // namespace
} // namespace draco::serve
