/**
 * @file
 * Tests for the software implementation of Draco.
 */

#include <gtest/gtest.h>

#include "core/software.hh"
#include "seccomp/profile_gen.hh"
#include "seccomp/profiles_builtin.hh"
#include "support/random.hh"
#include "workload/generator.hh"

namespace draco::core {
namespace {

os::SyscallRequest
request(uint16_t sid, std::array<uint64_t, 6> args = {})
{
    os::SyscallRequest req;
    req.sid = sid;
    req.args = args;
    req.pc = 0x400400;
    return req;
}

seccomp::Profile
readProfile()
{
    seccomp::Profile p("p");
    p.allowTuple(os::sc::read, {3, 0, 64, 0, 0, 0});
    p.allow(os::sc::getpid);
    return p;
}

TEST(DracoSw, IdOnlyPathAllowsImmediately)
{
    DracoSoftwareChecker draco(readProfile());
    auto out = draco.check(request(os::sc::getpid));
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.path, SwPath::SptAllowAll);
    EXPECT_EQ(out.vatProbes, 0u);
    EXPECT_EQ(out.filterInsns, 0u);
}

TEST(DracoSw, FirstArgCheckRunsFilterThenCaches)
{
    DracoSoftwareChecker draco(readProfile());
    auto first = draco.check(request(os::sc::read, {3, 0x1000, 64}));
    EXPECT_TRUE(first.allowed);
    EXPECT_EQ(first.path, SwPath::FilterAllowed);
    EXPECT_GT(first.filterInsns, 0u);
    EXPECT_TRUE(first.vatInserted);

    auto second = draco.check(request(os::sc::read, {3, 0x2000, 64}));
    EXPECT_TRUE(second.allowed);
    EXPECT_EQ(second.path, SwPath::VatHit);
    EXPECT_EQ(second.filterInsns, 0u);
    EXPECT_FALSE(second.vatInserted);
    EXPECT_EQ(second.vatProbes, 2u);
    EXPECT_EQ(second.hashedBytes, 16u); // fd + count, 8B each
}

TEST(DracoSw, DisallowedArgsDenied)
{
    DracoSoftwareChecker draco(readProfile());
    auto out = draco.check(request(os::sc::read, {4, 0, 64}));
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.path, SwPath::FilterDenied);
    EXPECT_FALSE(out.vatInserted);
    // Denied sets are never cached: the deny repeats.
    auto again = draco.check(request(os::sc::read, {4, 0, 64}));
    EXPECT_EQ(again.path, SwPath::FilterDenied);
}

TEST(DracoSw, DisallowedSyscallDenied)
{
    DracoSoftwareChecker draco(readProfile());
    auto out = draco.check(request(os::sc::write, {1, 0, 8}));
    EXPECT_FALSE(out.allowed);
    EXPECT_GT(out.filterInsns, 0u);
}

TEST(DracoSw, SidPastTheSptTakesTheFilterPath)
{
    DracoSoftwareChecker draco(readProfile());
    auto out = draco.check(request(65535, {3, 0, 64}));
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.path, SwPath::FilterDenied);
    EXPECT_GT(out.filterInsns, 0u);
    EXPECT_EQ(out.vatProbes, 0u);
}

TEST(DracoSw, CompiledPolicyLaysOutSptAndVat)
{
    auto policy = CompiledPolicy::compile(seccomp::gvisorProfile());
    DracoSoftwareChecker draco(policy);
    ASSERT_EQ(policy->spt.size(), size_t{policy->specs.rbegin()->first} + 1);
    size_t valid = 0;
    for (size_t sid = 0; sid < policy->spt.size(); ++sid) {
        const SptEntry *entry = policy->sptEntry(static_cast<uint16_t>(sid));
        auto it = policy->specs.find(static_cast<uint16_t>(sid));
        if (it == policy->specs.end()) {
            EXPECT_EQ(entry, nullptr) << sid;
            continue;
        }
        ASSERT_NE(entry, nullptr) << sid;
        ++valid;
        EXPECT_EQ(entry->bitmask, it->second.bitmask) << sid;
        // The SPT names each table by its position in the checker's VAT.
        EXPECT_EQ(entry->vatTable,
                  draco.vat().tableIndex(static_cast<uint16_t>(sid)))
            << sid;
    }
    EXPECT_EQ(valid, policy->specs.size());
    EXPECT_EQ(policy->argSpecs.size(), draco.vat().tableCount());
    for (size_t k = 0; k < policy->argSpecs.size(); ++k) {
        EXPECT_TRUE(policy->argSpecs[k].checksArguments());
        if (k > 0) {
            EXPECT_LT(policy->argSpecs[k - 1].sid, policy->argSpecs[k].sid);
        }
    }
}

TEST(DracoSw, StatsAccumulate)
{
    DracoSoftwareChecker draco(readProfile());
    draco.check(request(os::sc::getpid));
    draco.check(request(os::sc::read, {3, 0, 64}));
    draco.check(request(os::sc::read, {3, 0, 64}));
    draco.check(request(os::sc::write));
    const auto &s = draco.stats();
    EXPECT_EQ(s.checks, 4u);
    EXPECT_EQ(s.sptAllowAll, 1u);
    EXPECT_EQ(s.vatHits, 1u);
    EXPECT_EQ(s.filterRuns, 2u);
    EXPECT_EQ(s.denials, 1u);
    EXPECT_EQ(s.vatInsertions, 1u);
}

TEST(DracoSw, TwoFilterCopiesDoubleInsns)
{
    DracoSoftwareChecker one(readProfile(), 1);
    DracoSoftwareChecker two(readProfile(), 2);
    auto o1 = one.check(request(os::sc::read, {3, 0, 64}));
    auto o2 = two.check(request(os::sc::read, {3, 0, 64}));
    EXPECT_EQ(o2.filterInsns, 2 * o1.filterInsns);
    EXPECT_TRUE(o2.allowed);
}

TEST(DracoSw, CacheHitAvoidsRepeatFilterCost)
{
    DracoSoftwareChecker draco(readProfile());
    draco.check(request(os::sc::read, {3, 0, 64}));
    uint64_t insnsAfterFirst = draco.stats().filterInsns;
    for (int i = 0; i < 100; ++i)
        draco.check(request(os::sc::read, {3, 0, 64}));
    EXPECT_EQ(draco.stats().filterInsns, insnsAfterFirst);
}

TEST(DracoSw, PointerVariationStaysCached)
{
    DracoSoftwareChecker draco(readProfile());
    draco.check(request(os::sc::read, {3, 0x1111, 64}));
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        auto out =
            draco.check(request(os::sc::read, {3, rng.next(), 64}));
        EXPECT_EQ(out.path, SwPath::VatHit);
    }
}

TEST(DracoSw, DockerDefaultMostlyIdOnly)
{
    DracoSoftwareChecker draco(seccomp::dockerDefaultProfile());
    auto out = draco.check(request(os::sc::read, {3, 0, 64}));
    EXPECT_EQ(out.path, SwPath::SptAllowAll);
    out = draco.check(request(os::sc::personality, {0xffffffff}));
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.path, SwPath::FilterAllowed); // first time
    out = draco.check(request(os::sc::personality, {0xffffffff}));
    EXPECT_EQ(out.path, SwPath::VatHit);
}

/**
 * The paper's core correctness claim (§V): caching is sound because
 * filters are stateless. Draco's decision must equal the profile's on
 * arbitrary request streams.
 */
class SwEquivalenceTest : public testing::TestWithParam<const char *>
{
};

TEST_P(SwEquivalenceTest, MatchesProfileOnWorkloadTraces)
{
    const auto *app = workload::workloadByName(GetParam());
    ASSERT_NE(app, nullptr);

    // A deliberately partial profile so both allow and deny paths are
    // exercised: record only half the trace, then check all of it.
    workload::TraceGenerator profGen(*app, 99);
    seccomp::ProfileRecorder recorder;
    for (int i = 0; i < 2000; ++i)
        recorder.record(profGen.next().req);
    seccomp::Profile profile = recorder.makeComplete(app->name);

    DracoSoftwareChecker draco(profile);
    workload::TraceGenerator gen(*app, 1234);
    for (int i = 0; i < 8000; ++i) {
        os::SyscallRequest req = gen.next().req;
        EXPECT_EQ(draco.check(req).allowed, profile.allows(req))
            << "sid " << req.sid;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SwEquivalenceTest,
                         testing::Values("httpd", "elasticsearch",
                                         "redis", "unixbench-syscall",
                                         "mq-ipc"));

TEST(DracoSw, RandomFuzzEquivalence)
{
    seccomp::Profile profile = seccomp::gvisorProfile();
    DracoSoftwareChecker draco(profile);
    Rng rng(555);
    for (int i = 0; i < 20000; ++i) {
        os::SyscallRequest req;
        req.sid = static_cast<uint16_t>(rng.nextBelow(440));
        for (auto &arg : req.args)
            arg = rng.chance(0.7) ? rng.nextBelow(32) : rng.next();
        EXPECT_EQ(draco.check(req).allowed, profile.allows(req))
            << "sid " << req.sid << " iter " << i;
    }
}

} // namespace
} // namespace draco::core
