/**
 * @file
 * Unit tests for the little-endian binary primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "support/binio.hh"

namespace draco::binio {
namespace {

TEST(Binio, InPlaceStoresMatchAppendedBytes)
{
    const uint32_t v32 = 0x89abcdefu;
    const uint64_t v64 = 0x0123456789abcdefull;

    std::vector<uint8_t> appended;
    putU32(appended, v32);
    putU64(appended, v64);

    std::vector<uint8_t> stored(12, 0xff);
    storeLe<uint32_t>(stored.data(), v32);
    storeLe<uint64_t>(stored.data() + 4, v64);
    EXPECT_EQ(stored, appended);
    EXPECT_EQ(stored[0], 0xef); // least significant byte first
    EXPECT_EQ(stored[11], 0x01);

    EXPECT_EQ(loadLe<uint32_t>(stored.data()), v32);
    EXPECT_EQ(loadLe<uint64_t>(stored.data() + 4), v64);
    size_t pos = 0;
    uint32_t took32 = 0;
    uint64_t took64 = 0;
    ASSERT_TRUE(takeU32(stored, pos, took32));
    ASSERT_TRUE(takeU64(stored, pos, took64));
    EXPECT_EQ(took32, v32);
    EXPECT_EQ(took64, v64);
}

TEST(Binio, StoreWritesOnlyItsWidth)
{
    uint8_t buf[6] = {0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa};
    storeLe<uint32_t>(buf + 1, 0x10000u);
    EXPECT_EQ(buf[0], 0xaa);
    EXPECT_EQ(buf[1], 0x00);
    EXPECT_EQ(buf[2], 0x00);
    EXPECT_EQ(buf[3], 0x01);
    EXPECT_EQ(buf[4], 0x00);
    EXPECT_EQ(buf[5], 0xaa);
    EXPECT_EQ(loadLe<uint16_t>(buf + 3), 0x0001u);
}

TEST(Binio, StoreVarintMatchesPutVarint)
{
    const uint64_t values[] = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000,
                               0xffffffffull, UINT64_MAX};
    for (uint64_t v : values) {
        std::vector<uint8_t> appended;
        putVarint(appended, v);
        uint8_t buf[kMaxVarintBytes + 1];
        std::fill(std::begin(buf), std::end(buf), 0xaa);
        uint8_t *end = storeVarint(buf, v);
        ASSERT_LE(static_cast<size_t>(end - buf), kMaxVarintBytes);
        EXPECT_EQ(std::vector<uint8_t>(buf, end), appended) << v;
        EXPECT_EQ(*end, 0xaa) << "wrote past the varint of " << v;
        size_t pos = 0;
        uint64_t took = 0;
        ASSERT_TRUE(takeVarint(appended, pos, took));
        EXPECT_EQ(took, v);
    }
}

} // namespace
} // namespace draco::binio
