/**
 * @file
 * Serve-layer lifecycle tests: capped services return verdicts
 * identical to all-resident ones, eviction/restore round-trips keep
 * per-tenant counters (VAT images in the slots and `.dtss` in an
 * injected store alike, swaps included), every snapshot-corruption
 * flavour fails closed over an in-memory store and over real files
 * (fresh rebuild + error metric, never a wrong verdict, counters
 * kept), another tenant's intact file included, the resident list
 * evicts coldest first, and the lifecycle gauges show up in stats and
 * metrics.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "lifecycle/snapshot.hh"
#include "lifecycle/store.hh"
#include "os/syscalls.hh"
#include "seccomp/profile.hh"
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

/** Allow/tuple-allow/tuple-deny/unknown mix, order varied by seed. */
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

TEST(ServeLifecycle, CappedVerdictsMatchAllResident)
{
    constexpr size_t kTenants = 24;
    constexpr size_t kRounds = 6;
    constexpr size_t kPerRound = 16;

    ServiceOptions capped;
    capped.shards = 2;
    capped.maxResidentTenants = 4;
    ServiceOptions uncapped;
    uncapped.shards = 2;

    CheckService a(capped);
    CheckService b(uncapped);
    for (size_t t = 0; t < kTenants; ++t) {
        std::string name = "tenant-" + std::to_string(t);
        ASSERT_EQ(a.createTenant(name, testProfile()),
                  b.createTenant(name, testProfile()));
    }

    // Round-robin rounds so every tenant is evicted and restored
    // several times in the capped service.
    for (size_t round = 0; round < kRounds; ++round) {
        for (size_t t = 0; t < kTenants; ++t) {
            TenantId id = static_cast<TenantId>(t + 1);
            for (const os::SyscallRequest &req :
                 trafficMix(round * kTenants + t, kPerRound)) {
                CheckResponse ra = a.check(id, req);
                CheckResponse rb = b.check(id, req);
                ASSERT_EQ(static_cast<int>(ra.status),
                          static_cast<int>(rb.status));
                ASSERT_EQ(ra.path, rb.path);
            }
        }
        // Cap enforced after every synchronous check.
        EXPECT_LE(a.residentTenants(), 4u);
    }

    ServiceStatsSnapshot stats;
    a.serviceStats(stats);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.restores, 0u);
    EXPECT_EQ(stats.restoreFailures, 0u);
    EXPECT_EQ(stats.resident + stats.snapshotted, kTenants);
    // Summed over the two shards' own stores and counters: every
    // snapshot written and not yet read back is still stored.
    EXPECT_EQ(stats.storeBytes,
              stats.snapshotBytesWritten - stats.snapshotBytesRead);
    EXPECT_EQ(stats.snapshotted, stats.evictions - stats.restores);
    // All 24 tenants share one semantic profile.
    EXPECT_EQ(stats.dedupPolicies, 1u);
    EXPECT_EQ(stats.dedupHits, kTenants - 1);

    // Per-tenant lifetime counters survive the evict/restore cycles:
    // both services saw identical traffic, so identical stats.
    for (size_t t = 0; t < kTenants; ++t) {
        TenantId id = static_cast<TenantId>(t + 1);
        TenantStats sa, sb;
        ASSERT_TRUE(a.tenantStats(id, sa));
        ASSERT_TRUE(b.tenantStats(id, sb));
        EXPECT_EQ(sa.check.checks, sb.check.checks);
        EXPECT_EQ(sa.check.vatHits, sb.check.vatHits);
        EXPECT_EQ(sa.allowed, sb.allowed);
        EXPECT_EQ(sa.denied, sb.denied);
    }
}

/** testProfile() plus write to fd 2: the other side of every swap. */
seccomp::Profile
swappedProfile()
{
    seccomp::Profile profile("serve-test-fd12");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::write, {2, 0, 0, 0, 0, 0});
    return profile;
}

TEST(ServeLifecycle, ImagesDtssAndAllResidentReportEqualStats)
{
    // The same rounds of checks and swaps through three services: one
    // keeping VAT images in its tenant slots, one putting `.dtss` into
    // an injected store, one never evicting. Swaps land on resident
    // and on snapshotted tenants alike, and swap tenants back to their
    // first profile. Verdicts, paths and every TenantStats field must
    // agree.
    constexpr size_t kTenants = 12;
    constexpr size_t kRounds = 8;
    ServiceOptions images;
    images.shards = 2;
    images.maxResidentTenants = 4;
    ServiceOptions dtss = images;
    lifecycle::MemorySnapshotStore store;
    dtss.snapshotStore = &store;
    ServiceOptions resident;
    resident.shards = 2;
    CheckService a(images);
    CheckService b(dtss);
    CheckService c(resident);
    CheckService *services[] = {&a, &b, &c};
    for (CheckService *service : services)
        for (size_t t = 0; t < kTenants; ++t)
            ASSERT_NE(service->createTenant("tenant-" + std::to_string(t),
                                            testProfile()),
                      kInvalidTenant);

    for (size_t round = 0; round < kRounds; ++round) {
        for (size_t t = 0; t < kTenants; ++t) {
            TenantId id = static_cast<TenantId>(t + 1);
            if ((t + round) % 5 == 0) {
                const bool back = (round / 5 + t) % 2 == 0;
                for (CheckService *service : services)
                    ASSERT_TRUE(service->swapProfile(
                        id, back ? testProfile() : swappedProfile()));
            }
            for (const os::SyscallRequest &req :
                 trafficMix(round * kTenants + t, 12)) {
                CheckResponse ra = a.check(id, req);
                CheckResponse rb = b.check(id, req);
                CheckResponse rc = c.check(id, req);
                ASSERT_EQ(static_cast<int>(ra.status),
                          static_cast<int>(rc.status));
                ASSERT_EQ(static_cast<int>(rb.status),
                          static_cast<int>(rc.status));
                ASSERT_EQ(ra.path, rc.path);
                ASSERT_EQ(rb.path, rc.path);
                ASSERT_EQ(ra.epoch, rc.epoch);
                ASSERT_EQ(rb.epoch, rc.epoch);
            }
        }
    }

    for (CheckService *capped : {&a, &b}) {
        ServiceStatsSnapshot stats;
        capped->serviceStats(stats);
        EXPECT_GT(stats.restores, 0u);
        EXPECT_GT(stats.staleSnapshotDiscards, 0u);
        EXPECT_EQ(stats.restoreFailures, 0u);
        // Each eviction was restored, discarded stale, or still waits.
        EXPECT_EQ(stats.snapshotted, stats.evictions - stats.restores -
                                         stats.staleSnapshotDiscards);
    }
    ServiceStatsSnapshot imageStats, dtssStats;
    a.serviceStats(imageStats);
    b.serviceStats(dtssStats);
    EXPECT_EQ(imageStats.evictions, dtssStats.evictions);
    EXPECT_EQ(imageStats.restores, dtssStats.restores);
    EXPECT_LT(imageStats.snapshotBytesWritten,
              dtssStats.snapshotBytesWritten);

    for (size_t t = 0; t < kTenants; ++t) {
        SCOPED_TRACE("tenant " + std::to_string(t));
        TenantId id = static_cast<TenantId>(t + 1);
        TenantStats s[3];
        for (size_t i = 0; i < 3; ++i)
            ASSERT_TRUE(services[i]->tenantStats(id, s[i]));
        for (size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(s[i].check.checks, s[2].check.checks);
            EXPECT_EQ(s[i].check.sptAllowAll, s[2].check.sptAllowAll);
            EXPECT_EQ(s[i].check.vatHits, s[2].check.vatHits);
            EXPECT_EQ(s[i].check.filterRuns, s[2].check.filterRuns);
            EXPECT_EQ(s[i].check.denials, s[2].check.denials);
            EXPECT_EQ(s[i].check.filterInsns, s[2].check.filterInsns);
            EXPECT_EQ(s[i].check.vatInsertions, s[2].check.vatInsertions);
            EXPECT_EQ(s[i].allowed, s[2].allowed);
            EXPECT_EQ(s[i].denied, s[2].denied);
            EXPECT_EQ(s[i].epoch, s[2].epoch);
            EXPECT_EQ(s[i].swaps, s[2].swaps);
        }
        EXPECT_GT(s[2].check.vatHits, 0u);
    }
}

/**
 * Fixture driving a single-shard capped service against an injected
 * store so tests can corrupt snapshots between accesses. Each case runs
 * once per backend (forEachStore()): a MemorySnapshotStore, and a
 * DirSnapshotStore in a fresh temp directory, whose `.dtss` files the
 * service writes and reads back.
 */
class CorruptionTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        service.reset();
        std::filesystem::remove_all(dir);
    }

    /** Run @p scenario on a fresh service over each store backend. */
    void
    forEachStore(const std::function<void()> &scenario)
    {
        ASSERT_TRUE(files.ok());
        lifecycle::SnapshotStore *backends[] = {&memory, &files};
        for (lifecycle::SnapshotStore *backend : backends) {
            SCOPED_TRACE(backend->kind());
            store = backend;
            ServiceOptions options;
            options.shards = 1;
            options.maxResidentTenants = 2;
            options.snapshotStore = store;
            service = std::make_unique<CheckService>(options);
            victim = service->createTenant("victim", testProfile());
            ASSERT_NE(victim, kInvalidTenant);
            fillers.clear();
            for (int i = 0; i < 2; ++i) {
                TenantId id = service->createTenant(
                    "filler-" + std::to_string(i), testProfile());
                ASSERT_NE(id, kInvalidTenant);
                fillers.push_back(id);
            }
            scenario();
            service.reset();
        }
    }

    /** Touch the fillers so the victim becomes coldest and evicts. */
    void
    evictVictim()
    {
        ASSERT_EQ(service->check(victim, request(os::sc::read)).status,
                  CheckStatus::Allowed);
        for (TenantId id : fillers)
            ASSERT_EQ(service->check(id, request(os::sc::read)).status,
                      CheckStatus::Allowed);
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(store->get("victim", bytes))
            << "victim was not snapshotted";
    }

    /** Rewrite the victim's stored snapshot through @p mutate. */
    void
    corrupt(const std::function<void(std::vector<uint8_t> &)> &mutate)
    {
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(store->get("victim", bytes));
        mutate(bytes);
        ASSERT_TRUE(store->put("victim", bytes));
    }

    /**
     * The fail-closed contract: the next access after corruption gets
     * correct verdicts from a fresh rebuild and bumps the failure
     * counter — the snapshot is only a cache.
     */
    void
    expectFailClosed(uint64_t expectFailures)
    {
        EXPECT_EQ(service->check(victim, request(os::sc::read)).status,
                  CheckStatus::Allowed);
        EXPECT_EQ(
            service->check(victim, request(os::sc::write, 1)).status,
            CheckStatus::Allowed);
        EXPECT_EQ(
            service->check(victim, request(os::sc::write, 2)).status,
            CheckStatus::Denied);
        ServiceStatsSnapshot stats;
        service->serviceStats(stats);
        EXPECT_EQ(stats.restoreFailures, expectFailures);
        // The check counters survive every outcome: they come from the
        // live checker at eviction, not from the snapshot bytes.
        TenantStats tenant;
        ASSERT_TRUE(service->tenantStats(victim, tenant));
        EXPECT_EQ(tenant.check.checks, tenant.allowed + tenant.denied);
        EXPECT_EQ(tenant.allowed, 3u);
        EXPECT_EQ(tenant.denied, 1u);
    }

    /** @return A fresh temp directory path for the file-backed store. */
    static std::filesystem::path
    freshDir()
    {
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("draco-corruption-test-" + std::to_string(::getpid()));
        std::filesystem::remove_all(path);
        return path;
    }

    const std::filesystem::path dir = freshDir();
    lifecycle::MemorySnapshotStore memory;
    lifecycle::DirSnapshotStore files{dir.string()};
    lifecycle::SnapshotStore *store = nullptr;
    std::unique_ptr<CheckService> service;
    TenantId victim = kInvalidTenant;
    std::vector<TenantId> fillers;
};

TEST_F(CorruptionTest, TruncatedSnapshotFailsClosed)
{
    forEachStore([&] {
        evictVictim();
        corrupt([](std::vector<uint8_t> &b) { b.resize(b.size() / 2); });
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, CrcFlipFailsClosed)
{
    forEachStore([&] {
        evictVictim();
        // Flip one bit in the middle of the file.
        corrupt([](std::vector<uint8_t> &b) { b[b.size() / 2] ^= 0x10; });
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, BadMagicFailsClosed)
{
    forEachStore([&] {
        evictVictim();
        corrupt([](std::vector<uint8_t> &b) { b[0] ^= 1; });
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, VersionSkewFailsClosed)
{
    forEachStore([&] {
        evictVictim();
        corrupt([](std::vector<uint8_t> &b) {
            b[8] = static_cast<uint8_t>(lifecycle::kSnapshotVersion + 1);
        });
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, AnotherTenantsSnapshotFailsClosed)
{
    forEachStore([&] {
        // At a cap of 2 the third tenant touched evicts the first, so
        // filler-0 is snapshotted while the victim is resident.
        for (TenantId id : {fillers[0], fillers[1], victim})
            ASSERT_EQ(service->check(id, request(os::sc::read)).status,
                      CheckStatus::Allowed);
        std::vector<uint8_t> filler;
        ASSERT_TRUE(store->get("filler-0", filler));
        for (TenantId id : fillers)
            ASSERT_EQ(service->check(id, request(os::sc::read)).status,
                      CheckStatus::Allowed);
        // The victim's snapshot becomes filler-0's: intact and of the
        // same policy, but it names another tenant.
        corrupt([&](std::vector<uint8_t> &b) { b = filler; });
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, VanishedSnapshotFailsClosed)
{
    forEachStore([&] {
        evictVictim();
        ASSERT_TRUE(store->remove("victim"));
        expectFailClosed(1);
    });
}

TEST_F(CorruptionTest, IntactSnapshotRestoresCleanly)
{
    forEachStore([&] {
        evictVictim();
        expectFailClosed(0); // No corruption: restore, no failure counted.
        ServiceStatsSnapshot stats;
        service->serviceStats(stats);
        EXPECT_EQ(stats.restores, 1u);
    });
}

TEST_F(CorruptionTest, AdminEvictDropsTheSnapshot)
{
    forEachStore([&] {
        evictVictim();
        ServiceStatsSnapshot stats;
        service->serviceStats(stats);
        EXPECT_EQ(stats.snapshotted, 1u);

        EXPECT_TRUE(service->evictTenant(victim));
        service->serviceStats(stats);
        EXPECT_EQ(stats.snapshotted, 0u);
        std::vector<uint8_t> bytes;
        EXPECT_FALSE(store->get("victim", bytes));
        EXPECT_EQ(service->check(victim, request(os::sc::read)).status,
                  CheckStatus::UnknownTenant);
    });
}

/**
 * One shard with a resident cap of 3 that evicts into an injected
 * store, so a test reads which tenants the cap evicted: store.keys()
 * names every snapshotted tenant.
 */
class ResidentListTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        options.shards = 1;
        options.maxResidentTenants = 3;
        options.snapshotStore = &store;
        service = std::make_unique<CheckService>(options);
        for (const char *name : {"a", "b", "c", "d", "e", "f"})
            ASSERT_NE(service->createTenant(name, testProfile()),
                      kInvalidTenant);
    }

    /** Check one request for tenant @p name. */
    void
    touch(const std::string &name)
    {
        TenantId id = service->findTenant(name);
        ASSERT_EQ(service->check(id, request(os::sc::read)).status,
                  CheckStatus::Allowed);
    }

    ServiceOptions options;
    lifecycle::MemorySnapshotStore store;
    std::unique_ptr<CheckService> service;
};

using Names = std::vector<std::string>;

TEST_F(ResidentListTest, CapEvictsTheColdestFirst)
{
    for (const char *name : {"a", "b", "c"})
        touch(name);
    EXPECT_EQ(store.keys(), Names{});
    touch("a"); // a is hottest again; b is coldest.
    touch("d");
    EXPECT_EQ(store.keys(), Names{"b"});
    touch("e");
    EXPECT_EQ(store.keys(), (Names{"b", "c"}));
    EXPECT_EQ(service->residentTenants(), 3u);
}

TEST_F(ResidentListTest, RetouchingTheHottestKeepsTheVictims)
{
    for (const char *name : {"a", "b", "c", "c", "c"})
        touch(name);
    touch("d");
    EXPECT_EQ(store.keys(), Names{"a"});
    touch("e");
    EXPECT_EQ(store.keys(), (Names{"a", "b"}));
}

TEST_F(ResidentListTest, AdminEvictUnlinksInPlace)
{
    for (const char *name : {"a", "b", "c"})
        touch(name);
    // Out of the middle of the list: a and c keep their order.
    ASSERT_TRUE(service->evictTenant(service->findTenant("b")));
    EXPECT_EQ(service->residentTenants(), 2u);
    touch("d");
    EXPECT_EQ(store.keys(), Names{});
    touch("e");
    EXPECT_EQ(store.keys(), Names{"a"});
    touch("f");
    EXPECT_EQ(store.keys(), (Names{"a", "c"}));
    EXPECT_EQ(service->residentTenants(), 3u);
}

TEST(ServeLifecycle, AdminEvictDropsASlotSnapshot)
{
    // No injected store: evicted tenants keep their bytes in their
    // own slots, and storeBytes sums the shard's slots.
    ServiceOptions options;
    options.maxResidentTenants = 1;
    CheckService service(options);
    TenantId a = service.createTenant("a", testProfile());
    TenantId b = service.createTenant("b", testProfile());
    TenantId c = service.createTenant("c", testProfile());
    ASSERT_EQ(service.check(a, request(os::sc::write, 1)).status,
              CheckStatus::Allowed);
    ASSERT_EQ(service.check(b, request(os::sc::read)).status,
              CheckStatus::Allowed); // evicts a
    ServiceStatsSnapshot stats;
    service.serviceStats(stats);
    const uint64_t aBytes = stats.snapshotBytesWritten;
    ASSERT_GT(aBytes, 0u);
    ASSERT_EQ(service.check(c, request(os::sc::read)).status,
              CheckStatus::Allowed); // evicts b
    service.serviceStats(stats);
    EXPECT_EQ(stats.snapshotted, 2u);
    EXPECT_EQ(stats.storeBytes, stats.snapshotBytesWritten);
    const uint64_t before = stats.storeBytes;

    ASSERT_TRUE(service.evictTenant(a));
    service.serviceStats(stats);
    EXPECT_EQ(stats.snapshotted, 1u);
    EXPECT_EQ(stats.storeBytes, before - aBytes);
    EXPECT_EQ(stats.snapshotBytesRead, 0u);

    // b still restores from its slot.
    ASSERT_EQ(service.check(b, request(os::sc::read)).status,
              CheckStatus::Allowed);
    service.serviceStats(stats);
    EXPECT_EQ(stats.restores, 1u);
    EXPECT_EQ(stats.restoreFailures, 0u);
}

TEST(ServeLifecycle, MetricsExportLifecycleBlock)
{
    ServiceOptions options;
    options.maxResidentTenants = 1;
    CheckService service(options);
    TenantId a = service.createTenant("a", testProfile());
    TenantId b = service.createTenant("b", testProfile());
    ASSERT_EQ(service.check(a, request(os::sc::read)).status,
              CheckStatus::Allowed);
    ASSERT_EQ(service.check(b, request(os::sc::read)).status,
              CheckStatus::Allowed); // evicts a

    MetricRegistry registry;
    service.exportMetrics(registry, "serve");
    EXPECT_EQ(registry.counterValue("serve.lifecycle.enabled"), 1u);
    EXPECT_EQ(registry.counterValue("serve.lifecycle.resident_cap"), 1u);
    EXPECT_EQ(registry.counterValue("serve.lifecycle.resident"), 1u);
    EXPECT_EQ(registry.counterValue("serve.lifecycle.snapshotted"), 1u);
    EXPECT_EQ(registry.counterValue("serve.lifecycle.evictions"), 1u);
    EXPECT_EQ(registry.counterValue("serve.lifecycle.dedup.policies"),
              1u);
    EXPECT_EQ(registry.textValue("serve.lifecycle.store_kind"),
              "memory");
    EXPECT_GT(registry.counterValue("serve.lifecycle.store_bytes"), 0u);
    EXPECT_EQ(registry.gaugeValue("serve.lifecycle.dedup.ratio"), 2.0);
}

TEST(ServeLifecycle, InjectedStoreIsSharedByEveryShardAndCountedOnce)
{
    lifecycle::MemorySnapshotStore store;
    ServiceOptions options;
    options.shards = 2;
    options.maxResidentTenants = 2; // one resident tenant per shard
    options.snapshotStore = &store;
    CheckService service(options);
    // Tenants alternate shards: a, c on shard 0; b, d on shard 1.
    for (const char *name : {"a", "b", "c", "d"}) {
        TenantId id = service.createTenant(name, testProfile());
        ASSERT_EQ(service.check(id, request(os::sc::read)).status,
                  CheckStatus::Allowed);
    }

    // Each shard evicted its first tenant into the one injected store.
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
    ServiceStatsSnapshot stats;
    service.serviceStats(stats);
    EXPECT_EQ(stats.snapshotted, 2u);
    EXPECT_EQ(stats.storeBytes, store.totalBytes());
    EXPECT_EQ(stats.storeBytes, stats.snapshotBytesWritten);
    MetricRegistry registry;
    service.exportMetrics(registry, "serve");
    EXPECT_EQ(registry.counterValue("serve.lifecycle.store_bytes"),
              store.totalBytes());
}

TEST(ServeLifecycle, UncappedServiceExportsDisabledLifecycle)
{
    CheckService service;
    service.createTenant("a", testProfile());
    MetricRegistry registry;
    service.exportMetrics(registry, "serve");
    EXPECT_EQ(registry.counterValue("serve.lifecycle.enabled"), 0u);
}

} // namespace
} // namespace draco::serve
