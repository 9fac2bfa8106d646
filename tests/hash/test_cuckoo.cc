/**
 * @file
 * Unit and property tests for the 2-ary cuckoo table.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hash/crc64.hh"
#include "hash/cuckoo.hh"
#include "support/random.hh"

namespace draco {
namespace {

CuckooTable<uint64_t>
makeTable(size_t buckets, unsigned maxDisp = 16)
{
    // Diffused CRCs, exactly as the VAT indexes (see mix64).
    return CuckooTable<uint64_t>(
        buckets,
        [](const uint64_t &k) {
            return mix64(crc64Ecma().compute(&k, 8));
        },
        [](const uint64_t &k) {
            return mix64(crc64NotEcma().compute(&k, 8));
        },
        maxDisp);
}

TEST(Cuckoo, InsertThenLookup)
{
    auto t = makeTable(8);
    EXPECT_EQ(t.insert(42), CuckooInsert::Inserted);
    EXPECT_TRUE(t.contains(42));
    EXPECT_FALSE(t.contains(43));
    EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, DoubleInsertReportsPresent)
{
    auto t = makeTable(8);
    EXPECT_EQ(t.insert(7), CuckooInsert::Inserted);
    EXPECT_EQ(t.insert(7), CuckooInsert::AlreadyPresent);
    EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, EraseRemoves)
{
    auto t = makeTable(8);
    t.insert(1);
    t.insert(2);
    EXPECT_TRUE(t.erase(1));
    EXPECT_FALSE(t.contains(1));
    EXPECT_TRUE(t.contains(2));
    EXPECT_FALSE(t.erase(1));
    EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, ClearEmptiesTable)
{
    auto t = makeTable(8);
    for (uint64_t k = 0; k < 10; ++k)
        t.insert(k);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    for (uint64_t k = 0; k < 10; ++k)
        EXPECT_FALSE(t.contains(k));
}

TEST(Cuckoo, LookupReportsWayAndHash)
{
    auto t = makeTable(16);
    t.insert(99);
    auto found = t.lookup(99);
    ASSERT_TRUE(found.has_value());
    uint64_t k = 99;
    if (found->way == CuckooWay::H1)
        EXPECT_EQ(found->hash, mix64(crc64Ecma().compute(&k, 8)));
    else
        EXPECT_EQ(found->hash, mix64(crc64NotEcma().compute(&k, 8)));
    EXPECT_EQ(found->index, found->hash % t.buckets());
}

TEST(Cuckoo, AtReadsByLocation)
{
    auto t = makeTable(16);
    t.insert(1234);
    auto found = t.lookup(1234);
    ASSERT_TRUE(found);
    const uint64_t *stored = t.at(found->way, found->hash);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(*stored, 1234u);
}

TEST(Cuckoo, AtOnEmptySlotIsNull)
{
    auto t = makeTable(16);
    EXPECT_EQ(t.at(CuckooWay::H1, 3), nullptr);
}

TEST(Cuckoo, UntouchedTableIsEmptyEverywhere)
{
    auto t = makeTable(8);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.buckets(), 8u);
    EXPECT_EQ(t.capacity(), 16u);
    for (uint64_t i = 0; i < t.buckets(); ++i) {
        EXPECT_EQ(t.at(CuckooWay::H1, i), nullptr);
        EXPECT_EQ(t.at(CuckooWay::H2, i), nullptr);
    }
    unsigned slots = 0;
    t.forEachSlot([&](CuckooWay, uint64_t, const uint64_t &) { ++slots; });
    EXPECT_EQ(slots, 0u);
}

TEST(Cuckoo, LookupOnEmptyTableCountsButDoesNotHash)
{
    unsigned hashes = 0;
    auto counting = [&hashes](const uint64_t &k) {
        ++hashes;
        return k;
    };
    CuckooTable<uint64_t> t(8, counting, counting);
    EXPECT_FALSE(t.lookup(5).has_value());
    EXPECT_EQ(t.stats().lookups, 1u);
    EXPECT_EQ(t.stats().hits, 0u);
    EXPECT_EQ(hashes, 0u);

    // Once a key is stored, lookups hash again.
    t.insert(5);
    hashes = 0;
    EXPECT_TRUE(t.lookup(5).has_value());
    EXPECT_GT(hashes, 0u);
    EXPECT_EQ(t.stats().lookups, 2u);
    EXPECT_EQ(t.stats().hits, 1u);
}

TEST(Cuckoo, FirstWriteAllocatesSlots)
{
    auto placed = makeTable(8);
    EXPECT_TRUE(placed.placeAt(CuckooWay::H2, 7, 42));
    EXPECT_EQ(placed.size(), 1u);
    ASSERT_NE(placed.at(CuckooWay::H2, 7), nullptr);
    EXPECT_EQ(*placed.at(CuckooWay::H2, 7), 42u);
    EXPECT_EQ(placed.at(CuckooWay::H1, 7), nullptr);
    EXPECT_FALSE(placed.placeAt(CuckooWay::H2, 7, 43));
    EXPECT_FALSE(makeTable(8).placeAt(CuckooWay::H1, 8, 1));

    auto inserted = makeTable(8);
    EXPECT_EQ(inserted.insert(42), CuckooInsert::Inserted);
    EXPECT_TRUE(inserted.contains(42));
    EXPECT_EQ(inserted.size(), 1u);
}

TEST(Cuckoo, DisplacementKeepsAllKeysFindable)
{
    // Fill to half capacity; every non-evicted key must remain findable
    // even after displacement chains.
    auto t = makeTable(64);
    std::set<uint64_t> live;
    Rng rng(5);
    for (int i = 0; i < 64; ++i) {
        uint64_t k = rng.next();
        uint64_t victim = 0;
        if (t.insert(k, &victim) == CuckooInsert::EvictedVictim)
            live.erase(victim);
        live.insert(k);
    }
    for (uint64_t k : live)
        EXPECT_TRUE(t.contains(k)) << k;
}

TEST(Cuckoo, OverfillEvictsExactlyOnePerFailure)
{
    auto t = makeTable(4, 8); // capacity 8
    std::set<uint64_t> inserted;
    uint64_t evictions = 0;
    Rng rng(11);
    for (int i = 0; i < 64; ++i) {
        uint64_t k = rng.next();
        uint64_t victim = 0;
        auto r = t.insert(k, &victim);
        inserted.insert(k);
        if (r == CuckooInsert::EvictedVictim) {
            ++evictions;
            inserted.erase(victim);
        }
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(t.stats().evictions, evictions);
    EXPECT_LE(t.size(), t.capacity());
    // Size accounting: inserted-minus-evicted equals table size.
    EXPECT_EQ(t.size(), inserted.size());
    for (uint64_t k : inserted)
        EXPECT_TRUE(t.contains(k));
}

TEST(Cuckoo, CapacityNeverExceeded)
{
    auto t = makeTable(4);
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        t.insert(rng.next());
    EXPECT_LE(t.size(), t.capacity());
    EXPECT_EQ(t.capacity(), 8u);
}

TEST(Cuckoo, StatsCountersAdvance)
{
    auto t = makeTable(8);
    t.insert(1);
    t.contains(1);
    t.contains(2);
    const auto &s = t.stats();
    EXPECT_GE(s.lookups, 2u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_GE(s.hits, 1u);
}

TEST(Cuckoo, InsertDoesNotCountLookups)
{
    // Regression: insert()'s internal presence probe used to run through
    // contains(), inflating the lookup/hit counters with traffic the
    // caller never issued (and skewing the VAT hit rate).
    auto t = makeTable(8);
    EXPECT_EQ(t.insert(1), CuckooInsert::Inserted);
    EXPECT_EQ(t.insert(1), CuckooInsert::AlreadyPresent);
    EXPECT_EQ(t.insert(2), CuckooInsert::Inserted);
    EXPECT_EQ(t.stats().lookups, 0u);
    EXPECT_EQ(t.stats().hits, 0u);
    EXPECT_EQ(t.stats().insertions, 2u);

    // Externally observed traffic still counts.
    EXPECT_TRUE(t.contains(1));
    EXPECT_FALSE(t.contains(3));
    EXPECT_EQ(t.stats().lookups, 2u);
    EXPECT_EQ(t.stats().hits, 1u);
}

TEST(Cuckoo, EvictionAfterExactlyMaxDisplacements)
{
    // Regression: the displacement loop used to run max_displacements+1
    // swaps before giving up. Degenerate hashes (everything maps to
    // bucket 0 of both ways, capacity 2) make the chain length exact:
    // a third insert must swap precisely kMaxDisp times, then evict.
    constexpr unsigned kMaxDisp = 5;
    CuckooTable<uint64_t> t(
        1, [](const uint64_t &) { return uint64_t{0}; },
        [](const uint64_t &) { return uint64_t{0}; }, kMaxDisp);

    EXPECT_EQ(t.insert(10), CuckooInsert::Inserted);
    EXPECT_EQ(t.insert(20), CuckooInsert::Inserted);
    EXPECT_EQ(t.stats().displacements, 0u);

    uint64_t victim = 0;
    EXPECT_EQ(t.insert(30, &victim), CuckooInsert::EvictedVictim);
    EXPECT_EQ(t.stats().displacements, kMaxDisp);
    EXPECT_EQ(t.stats().evictions, 1u);
    EXPECT_EQ(t.size(), 2u);

    // The chain alternates ways each swap, so with an odd bound the
    // victim is deterministic: 10→way0, 20→way1, then the pending key
    // cycles 30,10,20,30,10 and ends holding 20.
    EXPECT_EQ(victim, 20u);
    EXPECT_TRUE(t.contains(10));
    EXPECT_TRUE(t.contains(30));
    EXPECT_FALSE(t.contains(20));
}

TEST(Cuckoo, ExportMetricsMatchesStats)
{
    auto t = makeTable(8);
    t.insert(1);
    t.insert(2);
    t.contains(1);
    t.contains(9);

    MetricRegistry registry;
    t.exportMetrics(registry, "cuckoo");
    EXPECT_EQ(registry.counterValue("cuckoo.lookups"), 2u);
    EXPECT_EQ(registry.counterValue("cuckoo.hits"), 1u);
    EXPECT_EQ(registry.counterValue("cuckoo.insertions"), 2u);
    EXPECT_EQ(registry.counterValue("cuckoo.displacements"),
              t.stats().displacements);
    EXPECT_EQ(registry.counterValue("cuckoo.evictions"), 0u);
    EXPECT_EQ(registry.counterValue("cuckoo.size"), 2u);
    EXPECT_EQ(registry.counterValue("cuckoo.capacity"), 16u);
    EXPECT_DOUBLE_EQ(registry.gaugeValue("cuckoo.hit_rate"), 0.5);
}

TEST(Cuckoo, ForEachVisitsAllKeys)
{
    auto t = makeTable(16);
    std::set<uint64_t> expect = {3, 5, 8, 13, 21};
    for (uint64_t k : expect)
        t.insert(k);
    std::set<uint64_t> seen;
    t.forEach([&](const uint64_t &k) { seen.insert(k); });
    EXPECT_EQ(seen, expect);
}

/** Randomized differential test against std::set. */
TEST(Cuckoo, PropertyMatchesReferenceSetWithoutEviction)
{
    auto t = makeTable(512);
    std::set<uint64_t> ref;
    Rng rng(17);
    for (int op = 0; op < 4000; ++op) {
        uint64_t k = rng.nextBelow(600);
        switch (rng.nextBelow(3)) {
          case 0: {
            auto r = t.insert(k);
            ASSERT_NE(r, CuckooInsert::EvictedVictim);
            ref.insert(k);
            break;
          }
          case 1:
            EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
            break;
          default:
            EXPECT_EQ(t.contains(k), ref.count(k) > 0) << k;
        }
        ASSERT_EQ(t.size(), ref.size());
    }
}

class CuckooLoadTest : public testing::TestWithParam<size_t>
{
};

TEST_P(CuckooLoadTest, HalfLoadEvictionsAreRare)
{
    // The VAT over-provisions 2× (§VII-A), which puts the table at the
    // 2-ary cuckoo load threshold when full: insertion failures are
    // legitimate there — that is exactly why the paper specifies the
    // evict-one-entry fallback — but they must stay rare.
    size_t buckets = GetParam();
    auto t = makeTable(buckets);
    Rng rng(buckets);
    for (size_t i = 0; i < buckets; ++i) // 50% of 2×buckets capacity
        t.insert(rng.next());
    EXPECT_LE(t.stats().evictions, std::max<size_t>(1, buckets / 50));
}

TEST_P(CuckooLoadTest, QuarterLoadInsertsWithoutEviction)
{
    // Well below the threshold, the displacement bound is never hit.
    size_t buckets = GetParam();
    auto t = makeTable(buckets, 32);
    Rng rng(buckets * 31 + 7);
    for (size_t i = 0; i < buckets / 2; ++i)
        ASSERT_NE(t.insert(rng.next()), CuckooInsert::EvictedVictim);
    EXPECT_EQ(t.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CuckooLoadTest,
                         testing::Values(8, 16, 64, 256, 1024, 4096));

} // namespace
} // namespace draco
