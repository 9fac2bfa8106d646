/**
 * @file
 * A growable FIFO ring buffer that keeps its capacity.
 *
 * std::deque allocates and frees a node every few elements as a queue
 * slides forward, so a producer/consumer pair pays the allocator on
 * the hot path. Ring holds its elements in one power-of-two array:
 * push_back() doubles it when full and nothing ever shrinks it, so a
 * queue with a bounded population stops allocating once it has seen
 * its peak. pop_front() resets the vacated slot to a default value, so
 * whatever the element owns (a shared_ptr, say) is released at pop,
 * not when the slot is next overwritten.
 */

#ifndef DRACO_SUPPORT_RING_HH
#define DRACO_SUPPORT_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace draco {

/** FIFO ring of default-constructible @p T (see file comment). */
template <typename T>
class Ring
{
  public:
    bool empty() const { return _size == 0; }

    size_t size() const { return _size; }

    /** @return Slots allocated; 0 until the first push_back(). */
    size_t capacity() const { return _slots.size(); }

    /** @return The oldest element (ring must be non-empty). */
    T &front() { return _slots[_head]; }

    /** Append @p value, doubling the array when it is full. */
    void
    push_back(T value)
    {
        if (_size == _slots.size())
            grow();
        _slots[(_head + _size) & (_slots.size() - 1)] = std::move(value);
        ++_size;
    }

    /** Drop the oldest element, resetting its slot. */
    void
    pop_front()
    {
        _slots[_head] = T{};
        _head = (_head + 1) & (_slots.size() - 1);
        --_size;
    }

  private:
    /** Double the array, unwrapping the live run to start at 0. */
    void
    grow()
    {
        std::vector<T> slots(_slots.empty() ? 8 : 2 * _slots.size());
        for (size_t i = 0; i < _size; ++i)
            slots[i] = std::move(_slots[(_head + i) & (_slots.size() - 1)]);
        _slots = std::move(slots);
        _head = 0;
    }

    std::vector<T> _slots; ///< Power-of-two size, or empty.
    size_t _head = 0;      ///< Index of front().
    size_t _size = 0;
};

} // namespace draco

#endif // DRACO_SUPPORT_RING_HH
