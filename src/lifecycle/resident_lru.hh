/**
 * @file
 * O(1) LRU order over a shard's resident tenants.
 *
 * Each shard worker owns one ResidentLru (single writer, no locks):
 * every processed check touches the tenant to the hot end, and the
 * post-drain cap enforcement pops coldest() until the shard is back
 * under its resident budget. Ids, not pointers, so the structure is
 * oblivious to tenant lifetime.
 */

#ifndef DRACO_LIFECYCLE_RESIDENT_LRU_HH
#define DRACO_LIFECYCLE_RESIDENT_LRU_HH

#include <cstdint>
#include <list>
#include <unordered_map>

namespace draco::lifecycle {

/** Intrusive-free LRU list of tenant ids (see file comment). */
class ResidentLru
{
  public:
    /**
     * Mark @p id most-recently-used (inserting it when absent). A
     * tracked id's node is re-linked in place, so a repeat touch
     * allocates nothing.
     */
    void
    touch(uint32_t id)
    {
        auto [it, inserted] = _where.try_emplace(id);
        if (inserted)
            it->second = _order.insert(_order.end(), id);
        else
            _order.splice(_order.end(), _order, it->second);
    }

    /** Remove @p id. @return false when it was not tracked. */
    bool
    erase(uint32_t id)
    {
        auto it = _where.find(id);
        if (it == _where.end())
            return false;
        _order.erase(it->second);
        _where.erase(it);
        return true;
    }

    /** @return true when @p id is tracked. */
    bool contains(uint32_t id) const { return _where.count(id) != 0; }

    /** @return The least-recently-used id (0 when empty). */
    uint32_t coldest() const { return _order.empty() ? 0 : _order.front(); }

    /** @return Tracked id count. */
    size_t size() const { return _where.size(); }

    bool empty() const { return _where.empty(); }

  private:
    std::list<uint32_t> _order; ///< front = coldest, back = hottest.
    std::unordered_map<uint32_t, std::list<uint32_t>::iterator> _where;
};

} // namespace draco::lifecycle

#endif // DRACO_LIFECYCLE_RESIDENT_LRU_HH
