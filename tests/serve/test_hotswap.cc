/**
 * @file
 * Live policy hot-swap tests: the swap boundary is exact (old policy
 * up to the swap point, new policy after), the VAT restarts cold under
 * the new epoch while lifetime counters carry over (also when the swap
 * finds the tenant evicted), a snapshot taken under a retired epoch
 * fails closed to the new policy (also when a later swap brings its
 * policy back, in a slot or an injected store), concurrent swap
 * storms stay consistent with per-epoch reference evaluation (this
 * file runs under the TSan CI job), verdict streams are shard-count
 * invariant with swaps in flight, and UpdateProfile works end to end
 * over the wire.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/software.hh"
#include "lifecycle/store.hh"
#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "serve/server.hh"
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

/** write allowed only to fd 1 (plus unconditional read). */
seccomp::Profile
profileFd1()
{
    seccomp::Profile profile("hotswap-fd1");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    return profile;
}

/** write allowed to fds 1 and 2. */
seccomp::Profile
profileFd12()
{
    seccomp::Profile profile("hotswap-fd12");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::write, {2, 0, 0, 0, 0, 0});
    return profile;
}

/** read only: every write denied. */
seccomp::Profile
profileReadOnly()
{
    seccomp::Profile profile("hotswap-ro");
    profile.allow(os::sc::read);
    return profile;
}

TEST(HotSwap, SwapChangesVerdictsAtTheBoundary)
{
    CheckService service;
    TenantId id = service.createTenant("t", profileFd1());
    ASSERT_NE(id, kInvalidTenant);

    CheckResponse before = service.check(id, request(os::sc::write, 1));
    EXPECT_EQ(before.status, CheckStatus::Allowed);
    EXPECT_EQ(before.epoch, 1u);

    uint64_t epoch = 0;
    ASSERT_TRUE(service.swapProfile(id, profileReadOnly(), &epoch));
    EXPECT_EQ(epoch, 2u);

    // swapProfile returns only after the owning worker published the
    // new epoch, so the very next check is already under it.
    CheckResponse after = service.check(id, request(os::sc::write, 1));
    EXPECT_EQ(after.status, CheckStatus::Denied);
    EXPECT_EQ(after.epoch, 2u);
    CheckResponse read = service.check(id, request(os::sc::read));
    EXPECT_EQ(read.status, CheckStatus::Allowed);

    TenantStats stats;
    ASSERT_TRUE(service.tenantStats(id, stats));
    EXPECT_EQ(stats.epoch, 2u);
    EXPECT_EQ(stats.swaps, 1u);
    EXPECT_EQ(stats.allowed, 2u);
    EXPECT_EQ(stats.denied, 1u);

    ServiceStatsSnapshot svc;
    service.serviceStats(svc);
    EXPECT_EQ(svc.policySwaps, 1u);
    EXPECT_EQ(svc.policySwapFailures, 0u);
    EXPECT_EQ(svc.maxEpoch, 2u);
}

TEST(HotSwap, SwapInvalidatesTheVatButKeepsLifetimeCounters)
{
    CheckService service;
    TenantId id = service.createTenant("t", profileFd1());
    ASSERT_NE(id, kInvalidTenant);

    // Warm the VAT: the first argument-checked write runs the filter
    // and inserts; repeats hit the cached verdict.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(service.check(id, request(os::sc::write, 1)).status,
                  CheckStatus::Allowed);
    TenantStats warm;
    ASSERT_TRUE(service.tenantStats(id, warm));
    EXPECT_EQ(warm.check.vatHits, 3u);
    const uint64_t warmRuns = warm.check.filterRuns;

    // Swap to a profile that still allows write(1): the verdict is
    // unchanged, but the namespace is new — the next check must run
    // the filter again instead of trusting a retired epoch's cache.
    ASSERT_TRUE(service.swapProfile(id, profileFd12()));
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(service.check(id, request(os::sc::write, 1)).status,
                  CheckStatus::Allowed);

    TenantStats after;
    ASSERT_TRUE(service.tenantStats(id, after));
    EXPECT_EQ(after.check.filterRuns, warmRuns + 1)
        << "post-swap check did not re-run the filter: stale VAT";
    EXPECT_EQ(after.check.vatHits, 4u);
    // Lifetime counters survived the swap (cumulative, not reset).
    EXPECT_EQ(after.check.checks, warm.check.checks + 2);
}

TEST(HotSwap, EvictedSwapKeepsCountersLikeAResidentSwap)
{
    // The same checks, eviction and swap run through a capped service,
    // where the swap finds the tenant snapshotted, and an uncapped
    // one, where it finds the tenant resident. Both must report the
    // same counters: the resident cap is not visible in TenantStats.
    ServiceOptions cappedOptions;
    cappedOptions.shards = 1;
    cappedOptions.maxResidentTenants = 1;
    CheckService capped(cappedOptions);
    CheckService uncapped;

    std::vector<TenantStats> stats;
    for (CheckService *service : {&capped, &uncapped}) {
        TenantId id = service->createTenant("t", profileFd1());
        TenantId other = service->createTenant("other", profileFd1());
        ASSERT_NE(id, kInvalidTenant);
        ASSERT_NE(other, kInvalidTenant);
        for (int i = 0; i < 3; ++i)
            service->check(id, request(os::sc::write, 1));
        service->check(id, request(os::sc::write, 2));
        service->check(id, request(os::sc::read));
        // Under the cap this evicts "t" to a snapshot.
        service->check(other, request(os::sc::read));
        ASSERT_TRUE(service->swapProfile(id, profileFd12()));
        for (int i = 0; i < 2; ++i) {
            service->check(id, request(os::sc::write, 1));
            service->check(id, request(os::sc::write, 2));
        }
        stats.emplace_back();
        ASSERT_TRUE(service->tenantStats(id, stats.back()));
    }

    ServiceStatsSnapshot svc;
    capped.serviceStats(svc);
    EXPECT_EQ(svc.staleSnapshotDiscards, 1u)
        << "the swap did not find the tenant snapshotted";

    const TenantStats &c = stats[0];
    const TenantStats &u = stats[1];
    EXPECT_EQ(c.check.checks, u.check.checks);
    EXPECT_EQ(c.check.sptAllowAll, u.check.sptAllowAll);
    EXPECT_EQ(c.check.vatHits, u.check.vatHits);
    EXPECT_EQ(c.check.filterRuns, u.check.filterRuns);
    EXPECT_EQ(c.check.denials, u.check.denials);
    EXPECT_EQ(c.check.filterInsns, u.check.filterInsns);
    EXPECT_EQ(c.check.vatInsertions, u.check.vatInsertions);
    EXPECT_EQ(c.allowed, u.allowed);
    EXPECT_EQ(c.denied, u.denied);
    EXPECT_EQ(c.check.checks, 9u);
    for (const TenantStats &s : stats)
        EXPECT_EQ(s.check.checks, s.allowed + s.denied);
}

/** Every TenantStats field a resident cap must not change. */
void
expectSameStats(const TenantStats &a, const TenantStats &b)
{
    EXPECT_EQ(a.check.checks, b.check.checks);
    EXPECT_EQ(a.check.sptAllowAll, b.check.sptAllowAll);
    EXPECT_EQ(a.check.vatHits, b.check.vatHits);
    EXPECT_EQ(a.check.filterRuns, b.check.filterRuns);
    EXPECT_EQ(a.check.denials, b.check.denials);
    EXPECT_EQ(a.check.filterInsns, b.check.filterInsns);
    EXPECT_EQ(a.check.vatInsertions, b.check.vatInsertions);
    EXPECT_EQ(a.allowed, b.allowed);
    EXPECT_EQ(a.denied, b.denied);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.swaps, b.swaps);
}

TEST(HotSwap, SwapAwayAndBackWhileSnapshottedStartsCold)
{
    // A→B→A while the tenant sits snapshotted: the snapshot's policy
    // is the current one again, but its VAT belongs to epoch 1, and a
    // resident tenant's swaps would have rebuilt the VAT cold twice.
    // The capped services (image in the slot, `.dtss` in an injected
    // store) must report what the uncapped one does.
    ServiceOptions slots;
    slots.shards = 1;
    slots.maxResidentTenants = 1;
    ServiceOptions stored = slots;
    lifecycle::MemorySnapshotStore store;
    stored.snapshotStore = &store;
    CheckService withSlots(slots);
    CheckService withStore(stored);
    CheckService uncapped;

    std::vector<TenantStats> stats;
    for (CheckService *service : {&withSlots, &withStore, &uncapped}) {
        TenantId id = service->createTenant("t", profileFd1());
        TenantId other = service->createTenant("other", profileFd1());
        ASSERT_NE(id, kInvalidTenant);
        ASSERT_NE(other, kInvalidTenant);
        for (int i = 0; i < 3; ++i)
            service->check(id, request(os::sc::write, 1));
        // Under the cap this evicts "t" with a warm write(1) table.
        service->check(other, request(os::sc::read));
        ASSERT_TRUE(service->swapProfile(id, profileFd12()));
        ASSERT_TRUE(service->swapProfile(id, profileFd1()));
        for (int i = 0; i < 2; ++i)
            EXPECT_EQ(service->check(id, request(os::sc::write, 1)).status,
                      CheckStatus::Allowed);
        stats.emplace_back();
        ASSERT_TRUE(service->tenantStats(id, stats.back()));
    }

    for (CheckService *capped : {&withSlots, &withStore}) {
        // "t" evicted once and discarded; its return evicted "other".
        ServiceStatsSnapshot svc;
        capped->serviceStats(svc);
        EXPECT_EQ(svc.evictions, 2u);
        EXPECT_EQ(svc.staleSnapshotDiscards, 1u);
        EXPECT_EQ(svc.restores, 0u) << "a retired epoch's VAT restored";
        EXPECT_EQ(svc.restoreFailures, 0u);
        EXPECT_EQ(svc.snapshotted, 1u);
    }
    EXPECT_EQ(store.keys(), std::vector<std::string>{"other"})
        << "the stale .dtss was not taken out of the store";

    // Epoch 3 starts cold: its first write(1) runs the filter again.
    EXPECT_EQ(stats[2].check.filterRuns, 2u);
    EXPECT_EQ(stats[2].check.vatHits, 3u);
    expectSameStats(stats[0], stats[2]);
    expectSameStats(stats[1], stats[2]);
}

TEST(HotSwap, SwapFailsClosedOnUnknownOrEvictedTenants)
{
    CheckService service;
    TenantId id = service.createTenant("t", profileFd1());
    ASSERT_NE(id, kInvalidTenant);
    EXPECT_FALSE(service.swapProfile(id + 100, profileReadOnly()));
    ASSERT_TRUE(service.evictTenant(id));
    EXPECT_FALSE(service.swapProfile(id, profileReadOnly()));

    ServiceStatsSnapshot svc;
    service.serviceStats(svc);
    EXPECT_EQ(svc.policySwaps, 0u);
    EXPECT_EQ(svc.policySwapFailures, 2u);
}

TEST(HotSwap, StaleSnapshotIsDiscardedAndFailsClosedToTheNewEpoch)
{
    ServiceOptions options;
    options.shards = 1;
    options.maxResidentTenants = 2;
    lifecycle::MemorySnapshotStore store;
    options.snapshotStore = &store;
    CheckService service(options);

    TenantId victim = service.createTenant("victim", profileFd1());
    ASSERT_NE(victim, kInvalidTenant);
    std::vector<TenantId> fillers;
    for (int i = 0; i < 2; ++i)
        fillers.push_back(service.createTenant(
            "filler-" + std::to_string(i), profileFd1()));

    // Warm the victim's VAT, then touch the fillers so the victim is
    // coldest and gets evicted with a .dtss taken under epoch 1.
    EXPECT_EQ(service.check(victim, request(os::sc::write, 1)).status,
              CheckStatus::Allowed);
    for (TenantId f : fillers)
        EXPECT_EQ(service.check(f, request(os::sc::read)).status,
                  CheckStatus::Allowed);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(store.get("victim", bytes)) << "victim not snapshotted";

    // Swap the evicted-but-snapshotted victim: the epoch advances but
    // the stale snapshot stays in the store until the next access.
    uint64_t epoch = 0;
    ASSERT_TRUE(service.swapProfile(victim, profileReadOnly(), &epoch));
    EXPECT_EQ(epoch, 2u);
    ASSERT_TRUE(store.get("victim", bytes));

    // Restore must fail closed to the NEW policy: the epoch-1 cache
    // would answer Allowed for write(1); the rebuilt epoch-2 checker
    // answers Denied. A wrong verdict here is the bug this subsystem
    // exists to prevent.
    CheckResponse resp = service.check(victim, request(os::sc::write, 1));
    EXPECT_EQ(resp.status, CheckStatus::Denied);
    EXPECT_EQ(resp.epoch, 2u);

    ServiceStatsSnapshot svc;
    service.serviceStats(svc);
    EXPECT_EQ(svc.staleSnapshotDiscards, 1u);
    EXPECT_EQ(svc.restores, 0u) << "stale snapshot was restored";
    EXPECT_EQ(svc.restoreFailures, 0u)
        << "stale is not corrupt: it must not count as a failure";

    MetricRegistry registry;
    service.exportMetrics(registry, "serve");
    EXPECT_EQ(
        registry.counterValue("serve.policy.stale_snapshot_discards"),
        1u);
    EXPECT_EQ(registry.counterValue("serve.policy.swaps"), 1u);
}

/**
 * Concurrent swap storm: swapper threads rotate profiles under live
 * checker traffic. Every response carries its admission epoch; each
 * swapper records which profile produced which epoch, so afterwards
 * every single verdict can be re-derived from a per-profile reference
 * checker — "old policy up to the swap point, new policy after" with
 * no mixed batches. Runs under TSan in CI.
 */
TEST(HotSwap, SwapStormMatchesPerEpochReferenceEvaluation)
{
    constexpr int kTenants = 4;
    constexpr int kSwappers = 3;
    constexpr int kSwapsEach = 40;
    constexpr int kChecksPerTenant = 2000;

    const std::vector<seccomp::Profile> profiles = {
        profileFd1(), profileFd12(), profileReadOnly()};

    ServiceOptions options;
    options.shards = 2;
    CheckService service(options);
    std::vector<TenantId> ids;
    for (int t = 0; t < kTenants; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        ids.push_back(service.createTenant(name, profiles[0]));
        ASSERT_NE(ids.back(), kInvalidTenant);
    }

    // epoch -> profile index, per tenant. Epoch 1 is the creation
    // profile; every later epoch is recorded by exactly one swapper.
    std::vector<std::map<uint64_t, size_t>> epochProfile(kTenants);
    std::vector<std::mutex> epochMutex(kTenants);
    for (int t = 0; t < kTenants; ++t)
        epochProfile[t][1] = 0;

    struct Observed {
        uint64_t epoch;
        uint64_t arg0;
        bool allowed;
    };
    std::vector<std::vector<Observed>> observed(kTenants);

    std::vector<std::thread> checkers;
    for (int t = 0; t < kTenants; ++t) {
        checkers.emplace_back([&, t] {
            observed[t].reserve(kChecksPerTenant);
            uint64_t x = 0x9E3779B97F4A7C15ULL + t;
            for (int i = 0; i < kChecksPerTenant; ++i) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                const uint64_t fd = (x >> 33) % 3; // 0, 1, 2
                CheckResponse resp =
                    service.check(ids[t], request(os::sc::write, fd));
                ASSERT_TRUE(resp.status == CheckStatus::Allowed ||
                            resp.status == CheckStatus::Denied);
                observed[t].push_back(
                    {resp.epoch, fd,
                     resp.status == CheckStatus::Allowed});
            }
        });
    }

    std::vector<std::thread> swappers;
    for (int s = 0; s < kSwappers; ++s) {
        swappers.emplace_back([&, s] {
            for (int i = 0; i < kSwapsEach; ++i) {
                const int t = (s + i) % kTenants;
                const size_t p = (s * kSwapsEach + i) % profiles.size();
                uint64_t epoch = 0;
                ASSERT_TRUE(
                    service.swapProfile(ids[t], profiles[p], &epoch));
                std::lock_guard<std::mutex> lock(epochMutex[t]);
                ASSERT_TRUE(epochProfile[t].emplace(epoch, p).second)
                    << "epoch " << epoch << " published twice";
            }
        });
    }
    for (std::thread &thread : swappers)
        thread.join();
    for (std::thread &thread : checkers)
        thread.join();

    // Reference checkers: verdicts are a pure function of (policy,
    // request), so one warm checker per profile re-derives them all.
    std::vector<std::unique_ptr<core::DracoSoftwareChecker>> reference;
    for (const seccomp::Profile &profile : profiles)
        reference.push_back(std::make_unique<core::DracoSoftwareChecker>(
            core::CompiledPolicy::compile(profile), 1));

    for (int t = 0; t < kTenants; ++t) {
        uint64_t last = 0;
        for (const Observed &o : observed[t]) {
            // Epochs move monotonically within one blocking stream.
            ASSERT_GE(o.epoch, last);
            last = o.epoch;
            auto it = epochProfile[t].find(o.epoch);
            ASSERT_NE(it, epochProfile[t].end())
                << "verdict under unpublished epoch " << o.epoch;
            const bool expect =
                reference[it->second]
                    ->check(request(os::sc::write, o.arg0))
                    .allowed;
            ASSERT_EQ(o.allowed, expect)
                << "tenant " << t << " epoch " << o.epoch << " write("
                << o.arg0 << ")";
        }
        TenantStats stats;
        ASSERT_TRUE(service.tenantStats(ids[t], stats));
        ASSERT_EQ(stats.epoch, epochProfile[t].rbegin()->first);
    }

    ServiceStatsSnapshot svc;
    service.serviceStats(svc);
    EXPECT_EQ(svc.policySwaps,
              static_cast<uint64_t>(kSwappers) * kSwapsEach);
    EXPECT_EQ(svc.policySwapFailures, 0u);
}

/**
 * Shard-count invariance with swaps in flight: the same per-tenant
 * stream with swaps at the same batch positions produces a
 * byte-identical verdict sequence and identical server-side stats on
 * 1-shard and 2-shard services.
 */
TEST(HotSwap, VerdictStreamIsShardCountInvariantUnderSwaps)
{
    constexpr int kTenants = 4;
    constexpr int kChecks = 600;
    constexpr int kSwapEvery = 97;

    const std::vector<seccomp::Profile> profiles = {
        profileFd1(), profileFd12(), profileReadOnly()};

    auto run = [&](unsigned shards) {
        ServiceOptions options;
        options.shards = shards;
        CheckService service(options);
        std::vector<TenantId> ids;
        for (int t = 0; t < kTenants; ++t) {
            std::string name = "t";
            name += std::to_string(t);
            ids.push_back(service.createTenant(name, profiles[0]));
        }

        // One thread per tenant: concurrent across tenants, blocking
        // (ordered) within each — the dracoload closed loop in
        // miniature.
        std::vector<std::vector<uint8_t>> verdicts(kTenants);
        std::vector<std::thread> threads;
        for (int t = 0; t < kTenants; ++t) {
            threads.emplace_back([&, t] {
                uint64_t x = 42 + t;
                size_t cursor = t; // stagger rotations per tenant
                for (int i = 0; i < kChecks; ++i) {
                    x = x * 6364136223846793005ULL +
                        1442695040888963407ULL;
                    CheckResponse resp = service.check(
                        ids[t],
                        request(os::sc::write, (x >> 33) % 3));
                    verdicts[t].push_back(
                        static_cast<uint8_t>(resp.status));
                    verdicts[t].push_back(
                        static_cast<uint8_t>(resp.epoch));
                    if ((i + 1) % kSwapEvery == 0) {
                        ASSERT_TRUE(service.swapProfile(
                            ids[t],
                            profiles[++cursor % profiles.size()]));
                    }
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        // Append the server-side per-tenant counters: they must be as
        // deterministic as the verdicts (vatHits included — the swap
        // invalidation point is part of the contract).
        for (int t = 0; t < kTenants; ++t) {
            TenantStats stats;
            EXPECT_TRUE(service.tenantStats(ids[t], stats));
            for (uint64_t v :
                 {stats.check.checks, stats.check.vatHits,
                  stats.check.filterRuns, stats.allowed, stats.denied,
                  stats.epoch, stats.swaps})
                verdicts[t].push_back(static_cast<uint8_t>(v & 0xFF));
        }
        return verdicts;
    };

    EXPECT_EQ(run(1), run(2));
}

TEST(HotSwap, UpdateProfileOverTheSocket)
{
    CheckService service;
    ServerOptions options;
    options.socketPath = "/tmp/draco_hotswap_" +
                         std::to_string(getpid()) + ".sock";
    SocketServer server(service, options);
    ASSERT_TRUE(server.start());

    auto client = SocketClient::connect(options.socketPath);
    ASSERT_NE(client, nullptr);
    TenantId id = client->createTenant("t", "docker-default");
    ASSERT_NE(id, kInvalidTenant);

    os::SyscallRequest req = request(os::sc::read);
    CheckResponse resp;
    ASSERT_TRUE(client->checkBatch(id, &req, 1, &resp));
    EXPECT_EQ(resp.status, CheckStatus::Allowed);
    EXPECT_EQ(resp.epoch, 1u);

    // Unknown profile and unknown tenant both fail without bumping
    // the tenant's epoch.
    EXPECT_FALSE(client->updateProfile(id, "no-such-profile"));
    EXPECT_FALSE(client->updateProfile(id + 7, "gvisor"));

    uint64_t epoch = 0;
    ASSERT_TRUE(client->updateProfile(id, "gvisor", &epoch));
    EXPECT_EQ(epoch, 2u);

    ASSERT_TRUE(client->checkBatch(id, &req, 1, &resp));
    EXPECT_EQ(resp.status, CheckStatus::Allowed);
    EXPECT_EQ(resp.epoch, 2u);

    TenantStats stats;
    ASSERT_TRUE(client->tenantStats(id, stats));
    EXPECT_EQ(stats.epoch, 2u);
    EXPECT_EQ(stats.swaps, 1u);

    ServiceStatsSnapshot svc;
    ASSERT_TRUE(client->serviceStats(svc));
    EXPECT_EQ(svc.policySwaps, 1u);
    EXPECT_EQ(svc.policySwapFailures, 1u); // the unknown-tenant swap
    EXPECT_EQ(svc.maxEpoch, 2u);

    server.stop();
    service.stop();
    unlink(options.socketPath.c_str());
}

} // namespace
} // namespace draco::serve
