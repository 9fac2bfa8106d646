/**
 * @file
 * Generic 2-ary cuckoo hash set.
 *
 * The VAT (§V-B, §VII-A) stores each system call's validated argument sets
 * in a two-way cuckoo hash table so that a lookup costs exactly two probes
 * that can proceed in parallel, and collisions resolve gracefully via
 * displacement. On insert, if the displacement chain exceeds a threshold,
 * one entry is evicted to make room (the paper's "OS makes room by
 * evicting one entry").
 */

#ifndef DRACO_HASH_CUCKOO_HH
#define DRACO_HASH_CUCKOO_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace draco {

/** Identifies which of the two hash functions located an entry. */
enum class CuckooWay : uint8_t {
    H1 = 0,
    H2 = 1,
};

/** Outcome of a cuckoo insertion. */
enum class CuckooInsert {
    Inserted,       ///< Key stored in an empty slot.
    AlreadyPresent, ///< Key was already in the table.
    EvictedVictim,  ///< Key stored, but another key was evicted for room.
};

/** Statistics describing a table's dynamic behaviour. */
struct CuckooStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t displacements = 0;
    uint64_t evictions = 0;
};

/**
 * Fixed-capacity two-way cuckoo hash set.
 *
 * @tparam Key Stored key type (must be equality comparable).
 *
 * Each way holds `buckets` slots; a key lives either at `h1(key) %
 * buckets` in way 0 or `h2(key) % buckets` in way 1. The two hash values
 * are supplied by caller-provided functions so the owner (the VAT) can use
 * CRC-64 ECMA / ¬ECMA over the masked argument bytes.
 *
 * Both ways share one slot vector (way 1 follows way 0), allocated on
 * the first insert() or placeAt(): most of a process's per-syscall
 * tables are never written (Fig. 15), so an untouched table costs
 * no slot memory and a lookup on an empty table misses without
 * hashing. buckets() and capacity() report the configured geometry
 * either way.
 */
template <typename Key>
class CuckooTable
{
  public:
    using HashFn = std::function<uint64_t(const Key &)>;

    /** Result of a successful lookup. */
    struct Found {
        CuckooWay way;   ///< Which hash function located the key.
        uint64_t hash;   ///< The raw hash value from that function.
        uint64_t index;  ///< Slot index within the way.
    };

    /**
     * @param buckets Number of slots per way (total capacity 2×buckets).
     * @param h1 First hash function.
     * @param h2 Second hash function.
     * @param max_displacements Displacement-chain bound before eviction.
     */
    CuckooTable(size_t buckets, HashFn h1, HashFn h2,
                unsigned max_displacements = 16)
        : _h1(std::move(h1)), _h2(std::move(h2)),
          _maxDisplacements(max_displacements), _buckets(buckets)
    {
        if (buckets == 0)
            fatal("CuckooTable: bucket count must be > 0");
    }

    /**
     * Probe both ways for @p key.
     *
     * @return Location info on hit, std::nullopt on miss.
     */
    std::optional<Found>
    lookup(const Key &key) const
    {
        ++_stats.lookups;
        if (_size == 0)
            return std::nullopt;
        auto found = probe(key);
        if (found)
            ++_stats.hits;
        return found;
    }

    /** @return true if @p key is present. */
    bool contains(const Key &key) const { return lookup(key).has_value(); }

    /**
     * Insert @p key, displacing residents along the cuckoo chain as
     * needed. If the chain exceeds the displacement bound, the key at the
     * end of the chain is evicted.
     *
     * @param key Key to insert.
     * @param evicted Receives the evicted key when the result is
     *                EvictedVictim (may be nullptr if uninteresting).
     */
    CuckooInsert
    insert(const Key &key, Key *evicted = nullptr)
    {
        // Internal presence probe: does not touch the lookup/hit
        // counters, which account externally observed traffic only.
        if (_size != 0 && probe(key))
            return CuckooInsert::AlreadyPresent;

        ++_stats.insertions;
        allocateSlots();

        // Prefer a free slot in either way before displacing anyone.
        for (unsigned w = 0; w < 2; ++w) {
            uint64_t hv = w == 0 ? _h1(key) : _h2(key);
            Slot &slot = slotAt(w, hv % _buckets);
            if (!slot.occupied) {
                slot.occupied = true;
                slot.key = key;
                ++_size;
                return CuckooInsert::Inserted;
            }
        }

        Key pending = key;
        unsigned way = 0;
        for (unsigned step = 0; step < _maxDisplacements; ++step) {
            uint64_t hv = way == 0 ? _h1(pending) : _h2(pending);
            Slot &slot = slotAt(way, hv % _buckets);
            if (!slot.occupied) {
                slot.occupied = true;
                slot.key = pending;
                ++_size;
                return CuckooInsert::Inserted;
            }
            std::swap(slot.key, pending);
            ++_stats.displacements;
            way ^= 1;
        }
        // Chain bound exceeded: the pending key is the victim.
        ++_stats.evictions;
        if (evicted)
            *evicted = pending;
        return CuckooInsert::EvictedVictim;
    }

    /**
     * Remove @p key.
     *
     * @return true if the key was present and removed.
     */
    bool
    erase(const Key &key)
    {
        auto found = lookup(key);
        if (!found)
            return false;
        Slot &slot = slotAt(static_cast<unsigned>(found->way), found->index);
        slot.occupied = false;
        slot.key = Key{};
        --_size;
        return true;
    }

    /** Remove every key. */
    void
    clear()
    {
        for (Slot &slot : _slots)
            slot = Slot{};
        _size = 0;
    }

    /**
     * Read one slot by location — the hardware preload path addresses
     * the table by (way, index) rather than by key.
     *
     * @return The occupant key, or nullptr when the slot is empty.
     */
    const Key *
    at(CuckooWay way, uint64_t index) const
    {
        if (_slots.empty())
            return nullptr;
        const Slot &slot =
            slotAt(static_cast<unsigned>(way), index % _buckets);
        return slot.occupied ? &slot.key : nullptr;
    }

    /** Invoke @p fn on every stored key. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : _slots)
            if (slot.occupied)
                fn(slot.key);
    }

    /**
     * Invoke @p fn(way, index, key) on every occupied slot, way-major
     * then index order — the deterministic enumeration snapshot
     * encoders serialize. An empty table is not scanned.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        if (_size == 0)
            return;
        for (size_t s = 0; s < _slots.size(); ++s)
            if (_slots[s].occupied)
                fn(static_cast<CuckooWay>(s / _buckets),
                   static_cast<uint64_t>(s % _buckets), _slots[s].key);
    }

    /**
     * Place @p key at the exact slot (@p way, @p index) — snapshot
     * restore reproduces a table's layout verbatim rather than
     * replaying the insertion history, so post-restore displacement
     * and eviction behaviour is identical to never having snapshotted.
     *
     * @return false (table untouched) when @p index is out of range or
     *         the slot is already occupied.
     */
    bool
    placeAt(CuckooWay way, uint64_t index, const Key &key)
    {
        if (index >= _buckets)
            return false;
        allocateSlots();
        Slot &slot = slotAt(static_cast<unsigned>(way), index);
        if (slot.occupied)
            return false;
        slot.occupied = true;
        slot.key = key;
        ++_size;
        return true;
    }

    /** Replace the behaviour counters (snapshot restore). */
    void restoreStats(const CuckooStats &stats) { _stats = stats; }

    /** @return Number of stored keys. */
    size_t size() const { return _size; }

    /** @return Slots per way. */
    size_t buckets() const { return _buckets; }

    /** @return Total slot capacity (2 × buckets). */
    size_t capacity() const { return 2 * buckets(); }

    /** @return Dynamic behaviour counters. */
    const CuckooStats &stats() const { return _stats; }

    /** Export counters and occupancy under @p prefix. */
    void
    exportMetrics(MetricRegistry &registry,
                  const std::string &prefix) const
    {
        auto name = [&](const char *metric) {
            return MetricRegistry::join(prefix, metric);
        };
        registry.setCounter(name("lookups"), _stats.lookups);
        registry.setCounter(name("hits"), _stats.hits);
        registry.setCounter(name("insertions"), _stats.insertions);
        registry.setCounter(name("displacements"),
                            _stats.displacements);
        registry.setCounter(name("evictions"), _stats.evictions);
        registry.setCounter(name("size"), _size);
        registry.setCounter(name("capacity"), capacity());
        registry.setGauge(name("hit_rate"),
                          _stats.lookups
                              ? static_cast<double>(_stats.hits) /
                                  static_cast<double>(_stats.lookups)
                              : 0.0);
    }

  private:
    struct Slot {
        bool occupied = false;
        Key key{};
    };

    /** Allocate both ways' slots on first write. */
    void
    allocateSlots()
    {
        if (_slots.empty())
            _slots.resize(2 * _buckets);
    }

    Slot &
    slotAt(unsigned way, uint64_t index)
    {
        return _slots[way * _buckets + index];
    }

    const Slot &
    slotAt(unsigned way, uint64_t index) const
    {
        return _slots[way * _buckets + index];
    }

    /**
     * Stat-free presence probe shared by lookup() and insert(); the
     * caller guarantees the table holds at least one key.
     */
    std::optional<Found>
    probe(const Key &key) const
    {
        uint64_t hv1 = _h1(key);
        uint64_t idx1 = hv1 % _buckets;
        const Slot &s1 = slotAt(0, idx1);
        if (s1.occupied && s1.key == key)
            return Found{CuckooWay::H1, hv1, idx1};
        uint64_t hv2 = _h2(key);
        uint64_t idx2 = hv2 % _buckets;
        const Slot &s2 = slotAt(1, idx2);
        if (s2.occupied && s2.key == key)
            return Found{CuckooWay::H2, hv2, idx2};
        return std::nullopt;
    }

    HashFn _h1;
    HashFn _h2;
    unsigned _maxDisplacements;
    size_t _buckets;
    std::vector<Slot> _slots; ///< Way 0 then way 1; empty until written.
    size_t _size = 0;
    mutable CuckooStats _stats;
};

} // namespace draco

#endif // DRACO_HASH_CUCKOO_HH
