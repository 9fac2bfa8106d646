/**
 * @file
 * Unit tests for the FIFO Ring: order across wrap-around and across
 * growth while wrapped, capacity kept after draining, and an element
 * released when it is popped.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "support/ring.hh"

namespace draco {
namespace {

std::vector<int>
drain(Ring<int> &ring)
{
    std::vector<int> out;
    while (!ring.empty()) {
        out.push_back(ring.front());
        ring.pop_front();
    }
    return out;
}

TEST(Ring, FifoOrderAcrossWrapAround)
{
    Ring<int> ring;
    for (int i = 0; i < 6; ++i)
        ring.push_back(i);
    const size_t capacity = ring.capacity();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
    }
    // The next pushes run past the end of the array and wrap to 0.
    for (int i = 6; i < 12; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.capacity(), capacity);
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(drain(ring), (std::vector<int>{4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(Ring, GrowingWhileWrappedKeepsOrder)
{
    Ring<int> ring;
    ring.push_back(0);
    const size_t capacity = ring.capacity();
    ring.pop_front();
    // Fill to capacity with the head mid-array, then push once more.
    for (int i = 1; i <= static_cast<int>(capacity) + 1; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.capacity(), 2 * capacity);
    std::vector<int> want;
    for (int i = 1; i <= static_cast<int>(capacity) + 1; ++i)
        want.push_back(i);
    EXPECT_EQ(drain(ring), want);
}

TEST(Ring, CapacityIsKeptAfterDraining)
{
    Ring<int> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    const size_t capacity = ring.capacity();
    EXPECT_GE(capacity, 100u);
    drain(ring);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), capacity);
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.capacity(), capacity);
}

TEST(Ring, PopReleasesTheElement)
{
    Ring<std::shared_ptr<int>> ring;
    auto owned = std::make_shared<int>(7);
    std::weak_ptr<int> watch = owned;
    ring.push_back(std::move(owned));
    ring.push_back(std::make_shared<int>(8));
    EXPECT_FALSE(watch.expired());
    ring.pop_front();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(*ring.front(), 8);
}

} // namespace
} // namespace draco
