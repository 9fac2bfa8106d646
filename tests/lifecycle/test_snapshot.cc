/**
 * @file
 * Snapshot codec tests. `.dtss`: a restored checker continues as if
 * never snapshotted, every flipped bit, truncation and trailing byte
 * fails (never Stale), bad magic and version skew (a real version-1
 * file) are rejected, another tenant's file fails, another policy's is
 * Stale and touches nothing, inspection reports the tenant and its
 * tables, and the bytes are pinned. VAT image: encode∘apply∘encode is a
 * fixed point, a restored VAT continues exactly as one never evicted
 * (insert pressure included), the bytes are pinned, and every flipped
 * bit, truncation or trailing byte fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/software.hh"
#include "hash/crc64.hh"
#include "lifecycle/snapshot.hh"
#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "seccomp/profiles_builtin.hh"
#include "workload/appmodel.hh"
#include "workload/generator.hh"

namespace draco::lifecycle {
namespace {

seccomp::Profile
testProfile()
{
    seccomp::Profile profile("dtss-test");
    profile.allow(os::sc::read);
    profile.allowTuple(os::sc::write, {1, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::write, {2, 0, 0, 0, 0, 0});
    profile.allowTuple(os::sc::ioctl, {3, 0x5401, 0, 0, 0, 0});
    return profile;
}

os::SyscallRequest
request(uint16_t sid, uint64_t arg0 = 0, uint64_t arg1 = 0)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = 0x1000;
    req.args[0] = arg0;
    req.args[1] = arg1;
    return req;
}

/** Traffic that fills VAT tables (and re-hits them). */
std::vector<os::SyscallRequest>
warmup(size_t n)
{
    std::vector<os::SyscallRequest> reqs;
    for (size_t i = 0; i < n; ++i) {
        reqs.push_back(request(os::sc::read));
        reqs.push_back(request(os::sc::write, 1 + i % 2));
        reqs.push_back(request(os::sc::ioctl, 3, 0x5401));
        reqs.push_back(request(os::sc::write, 7)); // denied
    }
    return reqs;
}

/** A warmed-up checker plus its snapshot bytes. */
struct Snapshotted {
    std::shared_ptr<const core::CompiledPolicy> policy;
    std::unique_ptr<core::DracoSoftwareChecker> checker;
    std::vector<uint8_t> bytes;
};

Snapshotted
makeSnapshot()
{
    Snapshotted s;
    s.policy = core::CompiledPolicy::compile(testProfile());
    s.checker = std::make_unique<core::DracoSoftwareChecker>(s.policy);
    for (const os::SyscallRequest &req : warmup(16))
        s.checker->check(req);
    s.bytes = encodeSnapshot("tenant-a", *s.checker, 1);
    return s;
}

/** @return The occupied slots across @p vat's tables. */
size_t
occupiedSlots(const core::Vat &vat)
{
    size_t slots = 0;
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        slots += cuckoo.size();
    });
    return slots;
}

TEST(Snapshot, RestoreContinuesBitExactly)
{
    Snapshotted s = makeSnapshot();

    core::DracoSoftwareChecker restored(s.policy);
    std::string error;
    ASSERT_TRUE(restoreSnapshot(s.bytes, "tenant-a",
                                s.policy->programKey, 1, restored,
                                &error))
        << error;
    EXPECT_EQ(restored.vat().evictions(), s.checker->vat().evictions());
    EXPECT_EQ(occupiedSlots(restored.vat()), occupiedSlots(s.checker->vat()));
    // The counters are the caller's: the file does not carry them.
    restored.restoreStats(s.checker->stats());

    // Continuation traffic takes identical paths on both checkers —
    // including VAT hits, which prove the cached sets survived.
    size_t vatHits = 0;
    for (const os::SyscallRequest &req : warmup(8)) {
        core::SwCheckOutcome a = s.checker->check(req);
        core::SwCheckOutcome b = restored.check(req);
        EXPECT_EQ(a.allowed, b.allowed);
        EXPECT_EQ(static_cast<int>(a.path), static_cast<int>(b.path));
        vatHits += a.path == core::SwPath::VatHit;
    }
    EXPECT_GT(vatHits, 0u) << "no cached set was exercised";
    EXPECT_EQ(restored.stats().checks, s.checker->stats().checks);
    EXPECT_EQ(restored.stats().vatHits, s.checker->stats().vatHits);
    EXPECT_EQ(restored.stats().vatInsertions,
              s.checker->stats().vatInsertions);
    EXPECT_EQ(encodeSnapshot("tenant-a", restored, 1),
              encodeSnapshot("tenant-a", *s.checker, 1));
}

TEST(Snapshot, EncodeIsDeterministic)
{
    Snapshotted s = makeSnapshot();
    EXPECT_EQ(s.bytes, encodeSnapshot("tenant-a", *s.checker, 1));
}

TEST(Snapshot, DenseTablesEncodeWithinTheirBound)
{
    // The encoder sizes its buffer from the table occupancies before
    // it writes a byte: a table of many long keys must still encode,
    // round-trip, and re-encode to the same bytes.
    seccomp::Profile profile("dtss-dense");
    for (uint64_t fd = 0; fd < 128; ++fd)
        profile.allowTuple(os::sc::sendto,
                           {fd, 0x7f0000001000 + fd, 0x10000 + fd,
                            0x123456789 + fd, 0, 0});
    auto policy = core::CompiledPolicy::compile(profile);
    core::DracoSoftwareChecker checker(policy, 1);
    for (uint64_t fd = 0; fd < 128; ++fd) {
        os::SyscallRequest req = request(os::sc::sendto, fd,
                                         0x7f0000001000 + fd);
        req.args[2] = 0x10000 + fd;
        req.args[3] = 0x123456789 + fd;
        ASSERT_TRUE(checker.check(req).allowed);
    }
    std::vector<uint8_t> bytes = encodeSnapshot("dense", checker, 1);
    SnapshotInfo info;
    std::string error;
    ASSERT_TRUE(inspectSnapshot(bytes, info, &error)) << error;
    ASSERT_EQ(info.tables.size(), 1u);
    EXPECT_GT(info.tables[0].slots, 64u);

    core::DracoSoftwareChecker restored(policy, 1);
    ASSERT_EQ(applySnapshot(bytes, "dense", policy->programKey,
                            restored.mutableVat(), &error),
              RestoreOutcome::Restored)
        << error;
    EXPECT_EQ(encodeSnapshot("dense", restored, 1), bytes);
}

/**
 * @p bad, a damaged copy of @p s's file, fails inspection (what
 * lifecycletool verify runs) and restores as Failed even when the
 * restorer expects another policy: a decoder that reached the key
 * would answer Stale, so Failed shows the damage was caught first.
 */
void
expectCaught(const Snapshotted &s, const std::vector<uint8_t> &bad)
{
    SnapshotInfo info;
    std::string error;
    EXPECT_FALSE(inspectSnapshot(bad, info, &error));
    core::DracoSoftwareChecker restored(s.policy);
    EXPECT_EQ(applySnapshot(bad, "tenant-a", s.policy->programKey ^ 1,
                            restored.mutableVat(), &error),
              RestoreOutcome::Failed);
}

TEST(Snapshot, TruncationIsRejectedAtEveryLength)
{
    Snapshotted s = makeSnapshot();
    for (size_t len = 0; len < s.bytes.size(); ++len) {
        SCOPED_TRACE("prefix of " + std::to_string(len) + " bytes");
        expectCaught(s, std::vector<uint8_t>(
                            s.bytes.begin(),
                            s.bytes.begin() + static_cast<ptrdiff_t>(len)));
    }
}

TEST(Snapshot, EveryFlippedBitIsCaught)
{
    Snapshotted s = makeSnapshot();
    for (size_t bit = 0; bit < s.bytes.size() * 8; ++bit) {
        SCOPED_TRACE("flipped bit " + std::to_string(bit));
        std::vector<uint8_t> bad = s.bytes;
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        expectCaught(s, bad);
    }
}

TEST(Snapshot, TrailingGarbageIsRejected)
{
    Snapshotted s = makeSnapshot();
    s.bytes.push_back(0);
    expectCaught(s, s.bytes);
}

TEST(Snapshot, BadMagicIsRejected)
{
    Snapshotted s = makeSnapshot();
    s.bytes[0] = 'x';
    SnapshotInfo info;
    std::string error;
    EXPECT_FALSE(inspectSnapshot(s.bytes, info, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, VersionSkewIsRejected)
{
    // A version-1 file as the block-framed codec wrote it: tenant-a on
    // testProfile() after one write to fd 1. The magic did not change,
    // so it reads as version skew.
    const std::vector<uint8_t> v1 = {
        0x64, 0x74, 0x73, 0x73, 0x2d, 0x76, 0x31, 0x0a, 0x01, 0x00, 0x01,
        0x1b, 0x00, 0x00, 0x00, 0x08, 0x74, 0x65, 0x6e, 0x61, 0x6e, 0x74,
        0x2d, 0x61, 0xc6, 0x33, 0x80, 0x6b, 0xd0, 0x84, 0xbc, 0x93, 0x01,
        0x01, 0x00, 0x00, 0x01, 0x00, 0x0f, 0x01, 0x00, 0x02, 0x2d, 0x72,
        0xe5, 0xe3, 0x4e, 0x06, 0xe2, 0xa8, 0x02, 0x23, 0x00, 0x00, 0x00,
        0x01, 0xff, 0x00, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01,
        0x00, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x10, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x7f, 0x8d, 0x4b, 0x5f, 0x20, 0xce, 0xf8, 0x14, 0x02,
        0x10, 0x00, 0x00, 0x00, 0x10, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3a, 0x24,
        0x89, 0x83, 0xbf, 0x13, 0x0f, 0x18, 0x03, 0x01, 0x00, 0x00, 0x00,
        0x02, 0x59, 0x0c, 0xfb, 0x18, 0x1c, 0x82, 0x03, 0xac,
    };
    Snapshotted s = makeSnapshot();
    std::vector<uint8_t> next = s.bytes;
    next[8] = static_cast<uint8_t>(kSnapshotVersion + 1);
    for (const auto &[bytes, version] :
         {std::pair{v1, 1}, std::pair{next, kSnapshotVersion + 1}}) {
        SCOPED_TRACE("version " + std::to_string(version));
        SnapshotInfo info;
        std::string error;
        EXPECT_FALSE(inspectSnapshot(bytes, info, &error));
        EXPECT_NE(error.find("version " + std::to_string(version)),
                  std::string::npos)
            << error;
        core::DracoSoftwareChecker restored(s.policy);
        EXPECT_EQ(applySnapshot(bytes, "tenant-a", s.policy->programKey,
                                restored.mutableVat(), &error),
                  RestoreOutcome::Failed);
    }
}

TEST(Snapshot, RestoreContractMismatchesFail)
{
    Snapshotted s = makeSnapshot();
    std::string error;
    {
        // Another tenant's file of the same policy.
        core::DracoSoftwareChecker restored(s.policy);
        EXPECT_EQ(applySnapshot(s.bytes, "tenant-b", s.policy->programKey,
                                restored.mutableVat(), &error),
                  RestoreOutcome::Failed);
        EXPECT_NE(error.find("tenant-a"), std::string::npos) << error;
    }
    {
        // A checker compiled from a profile with no argument tables:
        // with a forged key the body still does not fit its VAT.
        seccomp::Profile other("other");
        other.allow(os::sc::read);
        auto otherPolicy = core::CompiledPolicy::compile(other);
        core::DracoSoftwareChecker restored(otherPolicy);
        EXPECT_EQ(applySnapshot(s.bytes, "tenant-a", s.policy->programKey,
                                restored.mutableVat(), &error),
                  RestoreOutcome::Failed);
        EXPECT_FALSE(restoreSnapshot(s.bytes, "tenant-a",
                                     s.policy->programKey, 1, restored,
                                     &error));
    }
}

TEST(Snapshot, RestoreOutcomeReportsAStalePolicy)
{
    Snapshotted s = makeSnapshot();
    const uint64_t otherKey = s.policy->programKey ^ 1;
    core::DracoSoftwareChecker fresh(s.policy);
    const std::vector<uint8_t> freshImage = encodeVatImage(fresh.vat());
    // Another policy's snapshot is stale whatever tenant it names, and
    // it places nothing.
    for (const char *tenant : {"tenant-a", "tenant-b"}) {
        SCOPED_TRACE(tenant);
        core::DracoSoftwareChecker restored(s.policy);
        std::string error;
        EXPECT_EQ(applySnapshot(s.bytes, tenant, otherKey,
                                restored.mutableVat(), &error),
                  RestoreOutcome::Stale);
        EXPECT_NE(error.find("policy"), std::string::npos) << error;
        EXPECT_EQ(encodeVatImage(restored.vat()), freshImage)
            << "a stale snapshot touched the VAT";
        // The yes/no form answers no.
        EXPECT_FALSE(restoreSnapshot(s.bytes, tenant, otherKey, 1,
                                     restored, &error));
    }
    // The snapshot's own policy restores it.
    core::DracoSoftwareChecker restored(s.policy);
    std::string error;
    EXPECT_EQ(applySnapshot(s.bytes, "tenant-a", s.policy->programKey,
                            restored.mutableVat(), &error),
              RestoreOutcome::Restored)
        << error;
}

TEST(Snapshot, InspectReportsTheTenant)
{
    Snapshotted s = makeSnapshot();
    SnapshotInfo info;
    std::string error;
    ASSERT_TRUE(inspectSnapshot(s.bytes, info, &error)) << error;
    EXPECT_EQ(info.tenant, "tenant-a");
    EXPECT_EQ(info.policyKey, s.policy->programKey);
    EXPECT_EQ(info.bytes, s.bytes.size());
    EXPECT_EQ(info.vatEvictions, s.checker->vat().evictions());
    // write and ioctl check arguments; read is ID-only (no table).
    ASSERT_EQ(info.tables.size(), s.checker->vat().tableCount());
    EXPECT_EQ(info.tables.size(), 2u);
    uint64_t slots = 0;
    uint64_t hits = 0;
    for (const SnapshotTableInfo &table : info.tables) {
        slots += table.slots;
        hits += table.stats.hits;
    }
    EXPECT_EQ(slots, occupiedSlots(s.checker->vat()));
    EXPECT_EQ(hits, s.checker->stats().vatHits);
}

/**
 * Warm-up traffic for a builtin profile: a fixed seeded app stream,
 * plus one request per tuple or value the profile's argument rules
 * whitelist, so every profile ends with occupied VAT slots.
 */
std::vector<os::SyscallRequest>
goldenStream(const seccomp::Profile &profile)
{
    std::vector<os::SyscallRequest> reqs;
    for (const workload::AppModel &app : workload::macroWorkloads()) {
        workload::TraceGenerator gen(app, 20201017);
        for (int i = 0; i < 400; ++i)
            reqs.push_back(gen.next().req);
    }
    for (const auto &[sid, rule] : profile.rules()) {
        for (const seccomp::ArgVector &tuple : rule.tuples) {
            os::SyscallRequest req = request(sid);
            std::copy(tuple.begin(), tuple.end(), req.args.begin());
            reqs.push_back(req);
        }
        size_t widest = 0;
        for (const auto &[arg, values] : rule.perArg)
            widest = std::max(widest, values.size());
        for (size_t i = 0; i < widest; ++i) {
            os::SyscallRequest req = request(sid);
            for (const auto &[arg, values] : rule.perArg)
                req.args[arg] = values[i % values.size()];
            reqs.push_back(req);
        }
    }
    return reqs;
}

TEST(Snapshot, GoldenBytesArePinned)
{
    // CRC-64 (ECMA) of each version-2 encoding, pinned when the format
    // was frozen: a codec rewrite must leave every byte where it was.
    struct Golden {
        seccomp::Profile profile;
        uint64_t crc;
        size_t bytes;
    };
    const Golden goldens[] = {
        {seccomp::dockerDefaultProfile(), 0xb2b86ef2c423e0cbULL, 130},
        {seccomp::gvisorProfile(), 0xe4e00a7889427032ULL, 1715},
        {seccomp::firecrackerProfile(), 0x976e203148f24431ULL, 153},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(golden.profile.name());
        auto policy = core::CompiledPolicy::compile(golden.profile);
        core::DracoSoftwareChecker checker(policy);
        for (const os::SyscallRequest &req : goldenStream(golden.profile))
            checker.check(req);
        ASSERT_GT(occupiedSlots(checker.vat()), 0u);
        std::vector<uint8_t> bytes =
            encodeSnapshot("golden-tenant", checker, 1);

        uint64_t crc = crc64Ecma().compute(bytes.data(), bytes.size());
        EXPECT_EQ(crc, golden.crc);
        EXPECT_EQ(bytes.size(), golden.bytes);
        // The file is the VAT image's body behind its header: the two
        // end alike up to their own CRCs.
        const std::vector<uint8_t> image = encodeVatImage(checker.vat());
        ASSERT_GT(bytes.size(), image.size());
        EXPECT_TRUE(std::equal(image.begin(), image.end() - 8,
                               bytes.end() -
                                   static_cast<ptrdiff_t>(image.size())));

        core::DracoSoftwareChecker restored(policy);
        std::string error;
        ASSERT_TRUE(restoreSnapshot(bytes, "golden-tenant",
                                    policy->programKey, 1, restored,
                                    &error))
            << error;
        EXPECT_EQ(encodeSnapshot("golden-tenant", restored, 1), bytes);
    }
}

TEST(VatImage, EncodeApplyEncodeIsAFixedPoint)
{
    for (const seccomp::Profile &profile :
         {seccomp::dockerDefaultProfile(), seccomp::gvisorProfile(),
          seccomp::firecrackerProfile()}) {
        SCOPED_TRACE(profile.name());
        auto policy = core::CompiledPolicy::compile(profile);
        core::DracoSoftwareChecker cold(policy);
        core::DracoSoftwareChecker warm(policy);
        for (const os::SyscallRequest &req : goldenStream(profile))
            warm.check(req);
        ASSERT_GT(occupiedSlots(warm.vat()), 0u);
        for (const core::DracoSoftwareChecker *checker : {&cold, &warm}) {
            const std::vector<uint8_t> image =
                encodeVatImage(checker->vat());
            core::DracoSoftwareChecker restored(policy);
            std::string error;
            ASSERT_EQ(applyVatImage(image, restored.mutableVat(), &error),
                      RestoreOutcome::Restored)
                << error;
            EXPECT_EQ(encodeVatImage(restored.vat()), image);
            EXPECT_EQ(occupiedSlots(restored.vat()),
                      occupiedSlots(checker->vat()));
            EXPECT_EQ(restored.vat().evictions(),
                      checker->vat().evictions());
        }
    }
}

TEST(VatImage, RestoredCheckerContinuesLikeOneNeverEvicted)
{
    for (const seccomp::Profile &profile :
         {testProfile(), seccomp::gvisorProfile()}) {
        SCOPED_TRACE(profile.name());
        auto policy = core::CompiledPolicy::compile(profile);
        std::vector<os::SyscallRequest> stream = goldenStream(profile);
        for (const os::SyscallRequest &req : warmup(8))
            stream.push_back(req);
        // Warm on the first half; evict to an image; replay the second
        // half on the restored checker and on the one never evicted.
        const size_t half = stream.size() / 2;
        core::DracoSoftwareChecker kept(policy);
        for (size_t i = 0; i < half; ++i)
            kept.check(stream[i]);
        core::DracoSoftwareChecker restored(policy);
        std::string error;
        ASSERT_EQ(applyVatImage(encodeVatImage(kept.vat()),
                                restored.mutableVat(), &error),
                  RestoreOutcome::Restored)
            << error;
        // The counters are the caller's: an image does not carry them.
        restored.restoreStats(kept.stats());
        size_t vatHits = 0;
        for (size_t i = half; i < stream.size(); ++i) {
            core::SwCheckOutcome a = kept.check(stream[i]);
            core::SwCheckOutcome b = restored.check(stream[i]);
            ASSERT_EQ(a.allowed, b.allowed) << "request " << i;
            ASSERT_EQ(static_cast<int>(a.path), static_cast<int>(b.path))
                << "request " << i;
            vatHits += a.path == core::SwPath::VatHit;
        }
        EXPECT_GT(vatHits, 0u) << "no cached set was exercised";
        EXPECT_EQ(restored.stats().vatHits, kept.stats().vatHits);
        EXPECT_EQ(restored.stats().vatInsertions,
                  kept.stats().vatInsertions);
        EXPECT_EQ(restored.vat().evictions(), kept.vat().evictions());
        EXPECT_EQ(encodeVatImage(restored.vat()),
                  encodeVatImage(kept.vat()));
    }
}

TEST(VatImage, InsertPressureContinuesIdentically)
{
    // A capacity-4 table under 200 distinct keys: displacement chains
    // and evictions after the restore must match the never-evicted
    // table's exactly, which only a slot-exact placement gives.
    constexpr uint64_t kMask = 0xffULL << 16 | 0xfULL;
    auto key = [](uint64_t i) {
        seccomp::ArgVector args{};
        args[0] = i;
        args[2] = 1;
        return core::ArgKey(kMask, args);
    };
    core::Vat kept;
    kept.configure(0, kMask, 2);
    for (uint64_t i = 0; i < 100; ++i)
        kept.insert(0, key(i));
    ASSERT_GT(kept.evictions(), 0u);

    core::Vat restored;
    restored.configure(0, kMask, 2);
    std::string error;
    ASSERT_EQ(applyVatImage(encodeVatImage(kept), restored, &error),
              RestoreOutcome::Restored)
        << error;
    for (uint64_t i = 100; i < 200; ++i) {
        ASSERT_EQ(kept.insert(0, key(i)), restored.insert(0, key(i)))
            << "insert " << i;
        ASSERT_EQ(kept.evictions(), restored.evictions());
    }
    for (uint64_t i = 0; i < 200; ++i) {
        EXPECT_EQ(kept.lookup(0, key(i)).has_value(),
                  restored.lookup(0, key(i)).has_value());
    }
    EXPECT_EQ(encodeVatImage(restored), encodeVatImage(kept));
}

TEST(VatImage, GoldenBytesArePinned)
{
    // Size and CRC-64 (ECMA) of each whole image, pinned before the
    // `.dtss` codec was rebuilt on the image's body writer: that rewrite
    // must leave every image byte where it was.
    struct Golden {
        seccomp::Profile profile;
        uint64_t crc;
        size_t bytes;
    };
    const Golden goldens[] = {
        {seccomp::dockerDefaultProfile(), 0xfdaa90c6a6a8d0d0ULL, 98},
        {seccomp::gvisorProfile(), 0x02796877f2eefa36ULL, 1683},
        {seccomp::firecrackerProfile(), 0x282fe533988b574dULL, 121},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(golden.profile.name());
        auto policy = core::CompiledPolicy::compile(golden.profile);
        core::DracoSoftwareChecker checker(policy);
        for (const os::SyscallRequest &req : goldenStream(golden.profile))
            checker.check(req);
        ASSERT_GT(occupiedSlots(checker.vat()), 0u);
        const std::vector<uint8_t> image = encodeVatImage(checker.vat());
        EXPECT_EQ(image.size(), golden.bytes);
        EXPECT_EQ(crc64Ecma().compute(image.data(), image.size()),
                  golden.crc);
    }
}

TEST(VatImage, EveryFlippedBitTruncationAndTrailingByteFails)
{
    Snapshotted s = makeSnapshot();
    const std::vector<uint8_t> image = encodeVatImage(s.checker->vat());
    ASSERT_GT(occupiedSlots(s.checker->vat()), 0u);
    auto outcome = [&](const std::vector<uint8_t> &bytes) {
        core::DracoSoftwareChecker restored(s.policy, 1);
        std::string error;
        RestoreOutcome result =
            applyVatImage(bytes, restored.mutableVat(), &error);
        EXPECT_EQ(error.empty(), result == RestoreOutcome::Restored);
        return result;
    };
    ASSERT_EQ(outcome(image), RestoreOutcome::Restored);
    for (size_t bit = 0; bit < image.size() * 8; ++bit) {
        std::vector<uint8_t> bad = image;
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_EQ(outcome(bad), RestoreOutcome::Failed)
            << "flipped bit " << bit;
    }
    for (size_t len = 0; len < image.size(); ++len) {
        std::vector<uint8_t> cut(image.begin(),
                                 image.begin() +
                                     static_cast<ptrdiff_t>(len));
        EXPECT_EQ(outcome(cut), RestoreOutcome::Failed)
            << "prefix of " << len << " bytes";
    }
    std::vector<uint8_t> longer = image;
    longer.push_back(0);
    EXPECT_EQ(outcome(longer), RestoreOutcome::Failed);
}

} // namespace
} // namespace draco::lifecycle
