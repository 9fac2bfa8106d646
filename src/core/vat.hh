/**
 * @file
 * The Validated Argument Table (VAT), §V-B and §VII-A.
 *
 * The VAT is a per-process software structure: one two-way cuckoo hash
 * table per allowed system call, holding the argument sets that have
 * been validated by the Seccomp filter. Lookups hash the Argument-
 * Bitmask-selected bytes with CRC-64 ECMA (way 0) and CRC-64 ¬ECMA
 * (way 1) and probe both ways; both implementations of Draco consult
 * it. Tables are sized at twice the estimated argument-set count, and a
 * bounded displacement chain on insert evicts one entry when full.
 *
 * The VAT holds no addresses: the hardware model's HwProcessContext
 * assigns the ones its SLB preload reads by location (§VI-B).
 *
 * Tables live in one vector in ascending sid order with a dense
 * sid → position index beside it, so resolving a sid costs one load
 * and the checker's SPT can name a table by its position (the paper's
 * SPT Base field). A table's slots are allocated on its first insert.
 * Its two hashers are empty functor types (VatHasher), so a table
 * stores no hash state and a probe calls vatHash() directly.
 */

#ifndef DRACO_CORE_VAT_HH
#define DRACO_CORE_VAT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/checkspec.hh"
#include "hash/cuckoo.hh"
#include "obs/tracer.hh"

namespace draco::core {

/** Locates a validated entry inside one VAT table. */
struct VatToken {
    CuckooWay way = CuckooWay::H1; ///< Which hash function found it.
    uint64_t hash = 0;             ///< That function's raw hash value.

    bool operator==(const VatToken &other) const
    {
        return way == other.way && hash == other.hash;
    }
};

/** Result of a VAT lookup. */
struct VatHit {
    VatToken token; ///< Location of the matching entry.
};

/** @return CRC-64 over the key bytes for @p way. */
uint64_t vatHash(CuckooWay way, const ArgKey &key);

/** Stateless cuckoo hasher for one VAT way: vatHash(Way, key). */
template <CuckooWay Way>
struct VatHasher {
    uint64_t operator()(const ArgKey &key) const { return vatHash(Way, key); }
};

/** One per-syscall VAT table: the two ways hash with distinct types. */
using VatCuckoo = CuckooTable<ArgKey, VatHasher<CuckooWay::H1>,
                              VatHasher<CuckooWay::H2>>;

/**
 * Per-process Validated Argument Table.
 */
class Vat
{
  public:
    /** Position of a table in the ascending-sid table list. */
    using TableIndex = uint32_t;

    /** TableIndex of an unconfigured sid. */
    static constexpr TableIndex kNoTable = UINT32_MAX;

    Vat() = default;

    /**
     * Create (or reset) the table for @p sid.
     *
     * @param sid System call ID.
     * @param bitmask Argument Bitmask; must be nonzero (ID-only syscalls
     *        have no VAT table).
     * @param estimated_sets Estimated distinct argument sets; the table
     *        is over-provisioned to twice this (rounded up to a power
     *        of two per way).
     */
    void configure(uint16_t sid, uint64_t bitmask, size_t estimated_sets);

    /**
     * Configure one table per entry of @p specs, which must be
     * argument-checking and in ascending sid order — on an empty Vat,
     * specs[k]'s table lands at TableIndex k.
     */
    void configure(const std::vector<CheckSpec> &specs);

    /** @return Position of @p sid's table, or kNoTable. */
    TableIndex
    tableIndex(uint16_t sid) const
    {
        return sid < _index.size() ? _index[sid] : kNoTable;
    }

    /** @return true when @p sid has a configured table. */
    bool configured(uint16_t sid) const;

    /** @return The Argument Bitmask for @p sid (0 if unconfigured). */
    uint64_t bitmask(uint16_t sid) const;

    /**
     * Probe both ways for the argument key.
     *
     * @return Hit info, or nullopt when the set has not been validated.
     */
    std::optional<VatHit> lookup(uint16_t sid, const ArgKey &key) const;

    /** lookup() on the table at position @p table (must be valid). */
    std::optional<VatHit> lookupAt(TableIndex table,
                                   const ArgKey &key) const;

    /**
     * Record a freshly validated argument set.
     *
     * @return true if an existing victim was evicted to make room.
     */
    bool insert(uint16_t sid, const ArgKey &key);

    /** insert() into the table at position @p table (must be valid). */
    bool insertAt(TableIndex table, const ArgKey &key);

    /** Remove one validated set (used by tests and eviction studies). */
    bool erase(uint16_t sid, const ArgKey &key);

    /**
     * Read the entry a token points at, whatever it currently holds —
     * the hardware preload path (§VI-B step 4) fetches by location, not
     * by key.
     *
     * @return The stored key, or nullopt when the slot is empty.
     */
    std::optional<ArgKey> slotContents(uint16_t sid,
                                       const VatToken &token) const;

    /** @return Total bytes of all tables (the §XI-C footprint metric). */
    size_t footprintBytes() const;

    /** @return Number of configured per-syscall tables. */
    size_t tableCount() const { return _tables.size(); }

    /** @return Validated sets currently stored for @p sid. */
    size_t setCount(uint16_t sid) const;

    /** @return Slots per way of @p sid's table (0 if unconfigured). */
    size_t buckets(uint16_t sid) const;

    /** @return Bytes of one slot of @p sid's table (0 if unconfigured). */
    size_t entryBytes(uint16_t sid) const;

    /** @return Cumulative insert-pressure evictions across tables. */
    uint64_t evictions() const { return _evictions; }

    // ---- snapshot support (lifecycle subsystem) ----

    /**
     * Invoke @p fn(sid, bitmask, cuckoo) on every configured table in
     * ascending sid order (TableIndex order) — the deterministic
     * enumeration the snapshot encoders serialize. @p cuckoo is a
     * `const VatCuckoo &`.
     */
    template <typename Fn>
    void
    forEachTable(Fn &&fn) const
    {
        for (const Table &table : _tables)
            fn(table.sid, table.bitmask, table.cuckoo);
    }

    /**
     * The cuckoo table at position @p table (must be valid): snapshot
     * restore places slots into it verbatim (CuckooTable::placeAt())
     * and replaces its behaviour counters.
     */
    VatCuckoo &
    mutableTable(TableIndex table)
    {
        return _tables[table].cuckoo;
    }

    /** Replace the cumulative eviction counter (snapshot restore). */
    void restoreEvictions(uint64_t evictions) { _evictions = evictions; }

    /**
     * Attach @p tracer (nullptr detaches): each insert() records a
     * VatInsert event whose value is the cuckoo displacement count it
     * caused, and a VatEvict event when the chain bound evicted an
     * entry — making displacement storms visible on the timeline.
     */
    void setTracer(obs::Tracer *tracer) { _tracer = tracer; }

    /**
     * Export aggregate VAT metrics under @p prefix: footprint, table
     * count, stored sets, and the cuckoo counters summed across every
     * per-syscall table (lookups/hits give the VAT hit rate).
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Table {
        uint16_t sid;
        uint64_t bitmask;
        size_t entryBytes;
        VatCuckoo cuckoo;
    };

    /** @return @p sid's empty table. */
    static Table makeTable(uint16_t sid, uint64_t bitmask,
                           size_t estimated_sets);

    /** Replace the table for @p table's sid, or insert it in order. */
    void install(Table table);

    const Table *tableFor(uint16_t sid) const;
    Table *tableFor(uint16_t sid);

    std::vector<Table> _tables;      ///< Ascending sid.
    std::vector<TableIndex> _index;  ///< sid → position in _tables.
    uint64_t _evictions = 0;
    obs::Tracer *_tracer = nullptr;
};

} // namespace draco::core

#endif // DRACO_CORE_VAT_HH
