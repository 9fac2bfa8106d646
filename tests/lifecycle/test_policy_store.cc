/**
 * @file
 * PolicyStore tests: content-addressed interning dedups semantically
 * identical profiles regardless of name, and distinguishes real
 * semantic differences (rules, deny value, dispatch shape), even
 * between profiles crafted to share a content key.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "lifecycle/policy_store.hh"
#include "os/syscalls.hh"
#include "seccomp/profile.hh"

namespace draco::lifecycle {
namespace {

seccomp::Profile
profileNamed(const std::string &name)
{
    seccomp::Profile profile(name);
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    return profile;
}

TEST(PolicyStore, NameDoesNotAffectContentKey)
{
    EXPECT_EQ(profileContentKey(profileNamed("tenant-000001"),
                                seccomp::DispatchShape::Linear),
              profileContentKey(profileNamed("tenant-999999"),
                                seccomp::DispatchShape::Linear));
}

TEST(PolicyStore, SemanticsDoAffectContentKey)
{
    seccomp::Profile base = profileNamed("p");
    uint64_t baseKey =
        profileContentKey(base, seccomp::DispatchShape::Linear);

    seccomp::Profile extra = profileNamed("p");
    extra.allow(os::sc::close);
    EXPECT_NE(profileContentKey(extra, seccomp::DispatchShape::Linear),
              baseKey);

    EXPECT_NE(profileContentKey(base, seccomp::DispatchShape::BinaryTree),
              baseKey);
}

TEST(PolicyStore, InternDedupsIdenticalContent)
{
    PolicyStore store;
    auto a = store.intern(profileNamed("tenant-000001"));
    auto b = store.intern(profileNamed("tenant-999999"));
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(a->programKey, b->programKey);
}

TEST(PolicyStore, InternSeparatesDistinctContent)
{
    PolicyStore store;
    auto a = store.intern(profileNamed("p"));
    seccomp::Profile other = profileNamed("p");
    other.allow(os::sc::close);
    auto b = store.intern(other);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.hits(), 0u);
}

TEST(PolicyStore, CollidingKeysDoNotShareAPolicy)
{
    // CRC-64 is linear: XOR-ing this difference into the close tuple
    // leaves the content key unchanged. The key alone must not decide
    // dedup, or B's tenant would run A's policy.
    const seccomp::ArgVector tupleA{1, 2, 0, 0, 0, 0};
    const seccomp::ArgVector tupleB{1 ^ 0x0100000000000000ULL,
                                    2 ^ 0x9336EAA9EBE1F042ULL, 0, 0, 0, 0};
    seccomp::Profile a("a");
    a.allow(os::sc::read);
    a.allowTuple(os::sc::close, tupleA);
    seccomp::Profile b("b");
    b.allow(os::sc::read);
    b.allowTuple(os::sc::close, tupleB);
    ASSERT_EQ(profileContentKey(a, seccomp::DispatchShape::Linear),
              profileContentKey(b, seccomp::DispatchShape::Linear));

    PolicyStore store;
    auto policyA = store.intern(a);
    auto policyB = store.intern(b);
    EXPECT_NE(policyA.get(), policyB.get());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.hits(), 0u);

    auto closeWith = [](const seccomp::ArgVector &tuple) {
        os::SyscallRequest req;
        req.sid = os::sc::close;
        std::copy(tuple.begin(), tuple.end(), req.args.begin());
        return req;
    };
    core::DracoSoftwareChecker checkerB(policyB);
    EXPECT_TRUE(checkerB.check(closeWith(tupleB)).allowed);
    EXPECT_FALSE(checkerB.check(closeWith(tupleA)).allowed);

    // A byte-identical profile still dedups onto its own entry.
    seccomp::Profile again("again");
    again.allow(os::sc::read);
    again.allowTuple(os::sc::close, tupleB);
    EXPECT_EQ(store.intern(again).get(), policyB.get());
    EXPECT_EQ(store.hits(), 1u);
}

TEST(PolicyStore, ExportMetrics)
{
    PolicyStore store;
    store.intern(profileNamed("a"));
    store.intern(profileNamed("b"));
    MetricRegistry registry;
    store.exportMetrics(registry, "dedup");
    EXPECT_EQ(registry.counterValue("dedup.policies"), 1u);
    EXPECT_EQ(registry.counterValue("dedup.hits"), 1u);
}

} // namespace
} // namespace draco::lifecycle
