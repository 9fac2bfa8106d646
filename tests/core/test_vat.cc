/**
 * @file
 * Tests for the Validated Argument Table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/vat.hh"
#include "hash/crc64.hh"
#include "support/random.hh"

namespace draco::core {
namespace {

ArgKey
keyOf(uint64_t bitmask, uint64_t a0, uint64_t a2 = 0)
{
    seccomp::ArgVector args{};
    args[0] = a0;
    args[2] = a2;
    return ArgKey(bitmask, args);
}

constexpr uint64_t kReadMask = 0xffULL << 16 | 0xfULL; // fd + count

TEST(Vat, ConfigureAndLookupMiss)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    EXPECT_TRUE(vat.configured(0));
    EXPECT_FALSE(vat.configured(1));
    EXPECT_EQ(vat.bitmask(0), kReadMask);
    EXPECT_FALSE(vat.lookup(0, keyOf(kReadMask, 3, 64)).has_value());
}

TEST(Vat, InsertThenHit)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(vat.setCount(0), 1u);
}

TEST(Vat, HitTokenHashMatchesCrc)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->token.hash, vatHash(hit->token.way, key));
    // The token is the diffused CRC of the key's way (see vatHash).
    uint64_t ecma = crc64Ecma().compute(key.data(), key.size());
    uint64_t notEcma = crc64NotEcma().compute(key.data(), key.size());
    if (hit->token.way == CuckooWay::H1)
        EXPECT_EQ(hit->token.hash, mix64(ecma));
    else
        EXPECT_EQ(hit->token.hash, mix64(notEcma));
}

TEST(Vat, SlotContentsReadsByLocation)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 5, 128);
    vat.insert(0, key);
    auto hit = vat.lookup(0, key);
    ASSERT_TRUE(hit);
    auto contents = vat.slotContents(0, hit->token);
    ASSERT_TRUE(contents.has_value());
    EXPECT_EQ(*contents, key);
}

TEST(Vat, SlotContentsEmptyWhenUnoccupied)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    EXPECT_FALSE(
        vat.slotContents(0, VatToken{CuckooWay::H1, 12345}).has_value());
}

TEST(Vat, EntryAddressesDistinctAndAligned)
{
    Vat vat;
    vat.configure(0, kReadMask, 8);
    uint64_t a1 = vat.entryAddress(0, VatToken{CuckooWay::H1, 0});
    uint64_t a2 = vat.entryAddress(0, VatToken{CuckooWay::H1, 1});
    uint64_t a3 = vat.entryAddress(0, VatToken{CuckooWay::H2, 0});
    EXPECT_NE(a1, a2);
    EXPECT_NE(a1, a3);
    EXPECT_NE(a2, a3);
}

TEST(Vat, AddressStableForSameToken)
{
    Vat vat;
    vat.configure(7, kReadMask, 8);
    VatToken token{CuckooWay::H2, 98765};
    EXPECT_EQ(vat.entryAddress(7, token), vat.entryAddress(7, token));
}

TEST(Vat, TablesHaveDistinctAddressRegions)
{
    Vat vat;
    vat.configure(0, kReadMask, 64);
    vat.configure(1, kReadMask, 64);
    uint64_t last0 = vat.entryAddress(0, VatToken{CuckooWay::H2, 63});
    uint64_t first1 = vat.entryAddress(1, VatToken{CuckooWay::H1, 0});
    EXPECT_NE(last0 / 4096, first1 / 4096);
}

TEST(Vat, EraseRemovesEntry)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    EXPECT_TRUE(vat.erase(0, key));
    EXPECT_FALSE(vat.lookup(0, key).has_value());
    EXPECT_FALSE(vat.erase(0, key));
}

TEST(Vat, OverProvisionedTwoX)
{
    // §VII-A: table capacity is at least twice the estimated set count,
    // so inserting all estimated sets keeps the table at or below the
    // cuckoo threshold — insert-pressure evictions stay (near) zero.
    Vat vat;
    vat.configure(0, kReadMask, 100);
    for (uint64_t i = 0; i < 100; ++i)
        vat.insert(0, keyOf(kReadMask, i, i * 8));
    EXPECT_LE(vat.evictions(), 1u);
    EXPECT_GE(vat.setCount(0), 99u);
}

TEST(Vat, PressureEvictsExactlyOneAtATime)
{
    Vat vat;
    vat.configure(0, kReadMask, 2); // tiny: capacity 4
    uint64_t inserted = 0;
    for (uint64_t i = 0; i < 200; ++i) {
        vat.insert(0, keyOf(kReadMask, i, 1));
        ++inserted;
        EXPECT_EQ(vat.setCount(0), inserted - vat.evictions());
    }
    EXPECT_GT(vat.evictions(), 0u);
    EXPECT_LE(vat.setCount(0), 4u);
}

TEST(Vat, FootprintBytesReasonable)
{
    Vat vat;
    // read-like: 12 checked bytes -> 16B key + 8B metadata = 24B/entry.
    vat.configure(0, kReadMask, 8);
    // buckets = 8 per way, 16 entries total.
    EXPECT_EQ(vat.footprintBytes(), 16u * 24u);
}

TEST(Vat, FootprintScalesWithTables)
{
    Vat vat;
    vat.configure(0, kReadMask, 8);
    size_t one = vat.footprintBytes();
    vat.configure(1, kReadMask, 8);
    EXPECT_EQ(vat.footprintBytes(), 2 * one);
    EXPECT_EQ(vat.tableCount(), 2u);
}

TEST(Vat, FootprintIsTheSameBeforeAndAfterTheFirstInsert)
{
    Vat vat;
    vat.configure(0, kReadMask, 8);
    vat.configure(5, kReadMask, 3);
    size_t before = vat.footprintBytes();
    vat.insert(5, keyOf(kReadMask, 3, 64));
    EXPECT_EQ(vat.footprintBytes(), before);
    EXPECT_EQ(vat.setCount(5), 1u);
    EXPECT_EQ(vat.setCount(0), 0u);
}

TEST(Vat, OutOfOrderConfigureEnumeratesAscending)
{
    Vat vat;
    vat.configure(40, kReadMask, 4);
    vat.configure(7, kReadMask, 4);
    vat.configure(300, kReadMask, 4);
    vat.configure(12, kReadMask, 4);
    std::vector<uint16_t> order;
    vat.forEachTable([&](uint16_t sid, uint64_t,
                         const CuckooTable<ArgKey> &) {
        order.push_back(sid);
    });
    EXPECT_EQ(order, (std::vector<uint16_t>{7, 12, 40, 300}));
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(vat.tableIndex(order[i]), i);
    EXPECT_EQ(vat.tableIndex(8), Vat::kNoTable);
    EXPECT_EQ(vat.tableIndex(301), Vat::kNoTable);
    EXPECT_EQ(vat.tableIndex(65535), Vat::kNoTable);

    // Each sid still resolves to its own table after the reordering.
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(40, key);
    EXPECT_TRUE(vat.lookup(40, key));
    EXPECT_FALSE(vat.lookup(12, key));
    EXPECT_FALSE(vat.lookup(300, key));

    // Configuring a sid again resets just that table.
    vat.insert(300, key);
    vat.configure(40, kReadMask, 16);
    EXPECT_FALSE(vat.lookup(40, key));
    EXPECT_EQ(vat.buckets(40), 16u);
    EXPECT_TRUE(vat.lookup(300, key));
    EXPECT_EQ(vat.tableCount(), 4u);
}

TEST(Vat, DistinctSidsIsolated)
{
    Vat vat;
    vat.configure(0, kReadMask, 4);
    vat.configure(1, kReadMask, 4);
    ArgKey key = keyOf(kReadMask, 3, 64);
    vat.insert(0, key);
    EXPECT_TRUE(vat.lookup(0, key));
    EXPECT_FALSE(vat.lookup(1, key));
}

TEST(Vat, RandomizedInsertLookupProperty)
{
    // Inserting only up to half the estimated capacity: everything
    // must be findable (no threshold effects at 25% load).
    Vat vat;
    vat.configure(0, kReadMask, 256);
    Rng rng(77);
    std::vector<ArgKey> keys;
    for (int i = 0; i < 128; ++i) {
        ArgKey key = keyOf(kReadMask, rng.nextBelow(1 << 20),
                           rng.nextBelow(1 << 16));
        vat.insert(0, key);
        keys.push_back(key);
    }
    EXPECT_EQ(vat.evictions(), 0u);
    for (const auto &key : keys)
        EXPECT_TRUE(vat.lookup(0, key).has_value());
}

TEST(VatDeathTest, ConfigureWithoutBitmaskIsFatal)
{
    Vat vat;
    EXPECT_EXIT(vat.configure(0, 0, 4), testing::ExitedWithCode(1), "");
}

TEST(VatDeathTest, InsertUnconfiguredPanics)
{
    Vat vat;
    EXPECT_DEATH(vat.insert(3, keyOf(kReadMask, 1, 2)), "");
}

} // namespace
} // namespace draco::core
