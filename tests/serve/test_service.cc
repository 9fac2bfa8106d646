/**
 * @file
 * CheckService unit tests: tenant lifecycle, verdict correctness, FIFO
 * stats snapshots, eviction semantics, shutdown draining, drains run by
 * blocking callers, and the determinism contract — per-tenant verdict
 * counts identical at every shard count, whichever thread drains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
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

/** @return The export's block for tenant @p id: `serve.tenants.t<id>`. */
std::string
tenantBlock(TenantId id)
{
    std::string block = "serve.tenants.t";
    block += std::to_string(id);
    return block;
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

    // Neither the shard count, the drain size nor the draining thread
    // may move a verdict: at maxBatch 64 a worker may drain two
    // 32-request submits per wakeup, at maxBatch 1 only one, and with
    // CallerIfIdle this thread runs every submit that finds its shard
    // idle.
    std::vector<std::pair<uint64_t, uint64_t>> baseline;
    for (DrainOn drainOn : {DrainOn::Worker, DrainOn::CallerIfIdle}) {
        for (uint32_t maxBatch : {1u, 64u}) {
            for (unsigned shards : {1u, 2u, 4u}) {
                ServiceOptions options;
                options.shards = shards;
                options.maxBatch = maxBatch;
                CheckService service(options);
                std::vector<TenantId> ids;
                for (unsigned t = 0; t < kTenants; ++t) {
                    std::string name = "t";
                    name += std::to_string(t);
                    ids.push_back(service.createTenant(name, testProfile()));
                }

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
                                            *batches[t], nullptr, drainOn);
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
                        << shards << " shards, maxBatch " << maxBatch
                        << ", caller drains "
                        << (drainOn == DrainOn::CallerIfIdle);
                EXPECT_EQ(service.totalRejects(), 0u);
            }
        }
    }
}

/**
 * check() and LocalClient::checkBatch block on the verdict, so on an
 * idle shard they run the drain themselves; asynchronous submits keep
 * queueing to the worker. Inline drains still count as drains.
 */
TEST(CheckService, BlockingCallersDrainIdleShardsThemselves)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);
    TenantId a = service.createTenant("a", testProfile());
    TenantId b = service.createTenant("b", testProfile());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(service.check(i % 2 ? a : b, request(os::sc::read))
                      .status,
                  CheckStatus::Allowed);
    LocalClient client(service);
    std::vector<os::SyscallRequest> reqs = trafficMix(4, 32);
    std::vector<CheckResponse> resps(reqs.size());
    ASSERT_TRUE(client.checkBatch(a, reqs.data(),
                                  static_cast<uint32_t>(reqs.size()),
                                  resps.data()));

    MetricRegistry live;
    service.exportMetrics(live);
    EXPECT_EQ(live.counterValue("serve.drains"), 7u);
    EXPECT_EQ(live.counterValue("serve.drains_inline"), 7u);
    EXPECT_EQ(live.runningStat("serve.batch_size").count(), 7u);

    // An asynchronous submit queues even though the shard is idle.
    Batch batch;
    service.submitBatch(a, reqs.data(), static_cast<uint32_t>(reqs.size()),
                        resps.data(), batch);
    batch.wait();
    service.stop();

    MetricRegistry registry;
    service.exportMetrics(registry);
    EXPECT_EQ(registry.counterValue("serve.checks"), 6u + 32u + 32u);
    EXPECT_EQ(registry.counterValue("serve.drains"), 8u);
    EXPECT_EQ(registry.counterValue("serve.drains_inline"), 7u);
    EXPECT_EQ(registry.counterValue("serve.shards.s0.drains_inline") +
                  registry.counterValue("serve.shards.s1.drains_inline"),
              7u);
    EXPECT_EQ(registry.counterValue("serve.shards.s0.drains"),
              registry.counterValue("serve.shards.s0.drains_inline") + 1);
}

/**
 * stop() under blocking callers that run their own drains: it must
 * wait out every drain in progress, so the teardown that follows never
 * races a caller still inside a tenant's checker (TSan in CI), and
 * every request resolves to a verdict or ShuttingDown.
 */
TEST(CheckService, StopWaitsOutCallerDrains)
{
    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);
    constexpr unsigned kThreads = 4;
    std::vector<TenantId> ids;
    for (unsigned t = 0; t < kThreads; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        ids.push_back(service.createTenant(name, testProfile()));
    }

    std::atomic<uint64_t> started{0};
    std::vector<uint64_t> verdicts(kThreads, 0);
    std::vector<uint64_t> other(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            LocalClient client(service);
            std::vector<os::SyscallRequest> reqs = trafficMix(10 + t, 16);
            std::vector<CheckResponse> resps(reqs.size());
            for (;;) {
                client.checkBatch(ids[t], reqs.data(),
                                  static_cast<uint32_t>(reqs.size()),
                                  resps.data());
                started.fetch_add(1);
                bool shutDown = false;
                for (const CheckResponse &resp : resps) {
                    if (resp.status == CheckStatus::Allowed ||
                        resp.status == CheckStatus::Denied)
                        ++verdicts[t];
                    else if (resp.status == CheckStatus::ShuttingDown)
                        shutDown = true;
                    else
                        ++other[t];
                }
                if (shutDown)
                    return;
            }
        });
    }
    while (started.load() < 64)
        std::this_thread::yield();
    service.stop();
    for (std::thread &thread : threads)
        thread.join();

    uint64_t answered = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        answered += verdicts[t];
        EXPECT_EQ(other[t], 0u) << "thread " << t;
    }
    EXPECT_EQ(service.totalChecks(), answered);
    MetricRegistry registry;
    service.exportMetrics(registry);
    EXPECT_GT(registry.counterValue("serve.drains_inline"), 0u);
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
    EXPECT_EQ(stats.check.checks, 1u);

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
    const std::string tp = tenantBlock(id);
    EXPECT_EQ(registry.textValue(tp + ".name"), "a");
    EXPECT_EQ(registry.counterValue(tp + ".allowed"), 10u);
    EXPECT_TRUE(registry.has("serve.batch_size"));
    EXPECT_TRUE(registry.has("serve.shards.s1.peak_depth"));
}

/**
 * Each shard's `resident` gauge counts the tenants holding a checker
 * on it, so the gauges sum to `lifecycle.resident` with a resident cap
 * and without one. Without a cap every live tenant is resident, from
 * its creation until an admin eviction.
 */
TEST(CheckService, ShardResidentGaugesSumToTheServiceCount)
{
    for (uint32_t cap : {0u, 2u}) {
        ServiceOptions options;
        options.shards = 2;
        options.maxResidentTenants = cap;
        CheckService service(options);
        std::vector<TenantId> ids;
        for (int i = 0; i < 4; ++i) {
            ids.push_back(
                service.createTenant("r" + std::to_string(i), testProfile()));
            service.check(ids.back(), request(os::sc::read));
        }
        auto gauges = [&](uint32_t want) {
            MetricRegistry registry;
            service.exportMetrics(registry, "serve.live");
            const double s0 =
                registry.gaugeValue("serve.live.shards.s0.resident");
            const double s1 =
                registry.gaugeValue("serve.live.shards.s1.resident");
            EXPECT_EQ(registry.counterValue("serve.live.lifecycle.resident"),
                      want) << "cap " << cap;
            EXPECT_EQ(s0 + s1, want) << "cap " << cap;
            EXPECT_EQ(s0, s1) << "cap " << cap;
        };
        gauges(cap ? cap : 4);
        if (cap == 0) {
            // Tenant 2 is shard 1's; shard 0 keeps both of its own.
            EXPECT_TRUE(service.evictTenant(ids[1]));
            MetricRegistry registry;
            service.exportMetrics(registry, "serve.live");
            EXPECT_EQ(registry.gaugeValue("serve.live.shards.s0.resident"),
                      2.0);
            EXPECT_EQ(registry.gaugeValue("serve.live.shards.s1.resident"),
                      1.0);
            EXPECT_EQ(service.residentTenants(), 3u);
        }
        service.stop();
    }
}

/**
 * A new tenant serves epoch 1, so the highest epoch any tenant reached
 * reads 1 on a fresh fleet, and 2 after one swap.
 */
TEST(CheckService, MaxEpochCountsTheFirstInstall)
{
    CheckService service;
    ServiceStatsSnapshot stats;
    service.serviceStats(stats);
    EXPECT_EQ(stats.maxEpoch, 0u) << "no tenant yet";
    TenantId id = service.createTenant("e", testProfile());
    service.serviceStats(stats);
    EXPECT_EQ(stats.maxEpoch, 1u);
    MetricRegistry registry;
    service.exportMetrics(registry, "serve.live");
    EXPECT_EQ(registry.counterValue("serve.live.policy.max_epoch"), 1u);
    seccomp::Profile next = testProfile();
    next.allow(os::sc::openat);
    EXPECT_TRUE(service.swapProfile(id, next));
    service.serviceStats(stats);
    EXPECT_EQ(stats.maxEpoch, 2u);
    service.stop();
}

/**
 * stop() drops every checker, and each tenant's check counters must
 * outlive it, with or without a resident cap: tenantStats() and the
 * exit export (dracod --json) read them after stop().
 */
TEST(CheckService, TenantStatsSurviveStop)
{
    for (uint32_t cap : {0u, 1u}) {
        ServiceOptions options;
        options.maxResidentTenants = cap;
        CheckService service(options);
        TenantId id = service.createTenant("a", testProfile());
        for (int i = 0; i < 10; ++i)
            ASSERT_EQ(service.check(id, request(os::sc::read)).status,
                      CheckStatus::Allowed);
        service.stop();

        TenantStats stats;
        ASSERT_TRUE(service.tenantStats(id, stats));
        EXPECT_EQ(stats.check.checks, 10u) << "cap " << cap;
        EXPECT_EQ(stats.allowed, 10u) << "cap " << cap;
        EXPECT_EQ(stats.denied, 0u) << "cap " << cap;

        MetricRegistry registry;
        service.exportMetrics(registry);
        EXPECT_EQ(registry.counterValue(tenantBlock(id) + ".check.checks"),
                  10u)
            << "cap " << cap;
    }
}

/**
 * Tenant names are client input: names that sanitize to an export
 * leaf (`count`) or to each other (`count`, `Count`) still export one
 * block each, keyed by id, with the name kept as text.
 */
TEST(CheckService, ExportKeysTenantBlocksById)
{
    CheckService service;
    const std::vector<std::string> names = {"count", "Count", "a"};
    std::vector<TenantId> ids;
    for (const std::string &name : names) {
        ids.push_back(service.createTenant(name, testProfile()));
        ASSERT_NE(ids.back(), kInvalidTenant);
        ASSERT_EQ(service.check(ids.back(), request(os::sc::write, 2))
                      .status,
                  CheckStatus::Denied);
    }
    service.stop();

    MetricRegistry registry;
    service.exportMetrics(registry);
    EXPECT_EQ(registry.counterValue("serve.tenants.count"), 3u);
    EXPECT_EQ(registry.counterValue("serve.tenants.exported"), 3u);
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string tp = tenantBlock(ids[i]);
        EXPECT_EQ(registry.textValue(tp + ".name"), names[i]);
        EXPECT_EQ(registry.counterValue(tp + ".denied"), 1u);
    }
}

/**
 * exportMetrics() is scrape-safe: a scraper thread exports in a loop
 * while two clients check (one queueing to the workers, one draining
 * inline) across tenants that a resident cap keeps evicting and
 * restoring. Runs under TSan in CI. Tenant blocks wait for stop().
 */
TEST(CheckService, ExportMetricsUnderLiveTraffic)
{
    constexpr unsigned kTenants = 8;
    constexpr unsigned kRounds = 200;
    constexpr uint32_t kBatch = 16;
    ServiceOptions options;
    options.shards = 2;
    options.maxResidentTenants = 2;
    CheckService service(options);
    std::vector<TenantId> ids;
    for (unsigned t = 0; t < kTenants; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        ids.push_back(service.createTenant(name, testProfile()));
    }

    std::atomic<bool> done{false};
    std::atomic<uint64_t> scrapes{0};
    std::thread scraper([&] {
        uint64_t lastChecks = 0;
        while (!done.load()) {
            MetricRegistry registry;
            service.exportMetrics(registry);
            const uint64_t checks = registry.counterValue("serve.checks");
            EXPECT_GE(checks, lastChecks);
            EXPECT_EQ(registry.counterValue("serve.tenants.exported"), 0u);
            lastChecks = checks;
            scrapes.fetch_add(1);
        }
    });

    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 2; ++c) {
        clients.emplace_back([&, c] {
            std::vector<os::SyscallRequest> reqs = trafficMix(c, kBatch);
            std::vector<CheckResponse> resps(kBatch);
            while (scrapes.load() == 0)
                std::this_thread::yield(); // scrape under the traffic
            for (unsigned r = 0; r < kRounds; ++r) {
                // Each client cycles its own half of the tenants,
                // which spans both shards.
                const TenantId id =
                    ids[c * kTenants / 2 + r % (kTenants / 2)];
                Batch batch;
                service.submitBatch(id, reqs.data(), kBatch, resps.data(),
                                    batch, nullptr,
                                    c ? DrainOn::CallerIfIdle
                                      : DrainOn::Worker);
                batch.wait();
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    done.store(true);
    scraper.join();
    service.stop();

    MetricRegistry registry;
    service.exportMetrics(registry);
    const uint64_t total = 2ull * kRounds * kBatch;
    EXPECT_EQ(registry.counterValue("serve.checks"), total);
    EXPECT_EQ(registry.counterValue("serve.tenants.exported"), kTenants);
    uint64_t tenantChecks = 0;
    for (TenantId id : ids)
        tenantChecks +=
            registry.counterValue(tenantBlock(id) + ".check.checks");
    EXPECT_EQ(tenantChecks, total);
    EXPECT_GT(registry.counterValue("serve.lifecycle.evictions"), 0u);
}

} // namespace
} // namespace draco::serve
