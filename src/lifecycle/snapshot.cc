#include "lifecycle/snapshot.hh"

#include <cstring>

#include "hash/crc64.hh"
#include "support/binio.hh"
#include "support/logging.hh"

namespace draco::lifecycle {

namespace {

/** Set @p error (when asked for) and return false. */
bool
failDecode(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** `.dtss` header bytes: the magic and the u16 version. */
constexpr size_t kHeaderBytes = sizeof(kSnapshotMagic) + 2;

/** Most bytes one occupied slot takes: way, index, key length, key. */
constexpr size_t kMaxEntryBytes =
    1 + binio::kMaxVarintBytes + 1 + core::ArgKey::kMaxBytes;

/**
 * This thread's encode buffer, grown to at least @p bound bytes. It
 * keeps its capacity across calls, so an encoder writes in place and
 * returns one exact-size copy.
 */
uint8_t *
encodeBuffer(size_t bound)
{
    thread_local std::vector<uint8_t> buffer;
    if (buffer.size() < bound)
        buffer.resize(bound);
    return buffer.data();
}

/**
 * Writes an image or a `.dtss` file in place, through a pointer into
 * this thread's encode buffer sized for the worst case, so no encoder
 * checks capacity or grows the buffer; seal() checks the pointer
 * against that bound.
 */
class Writer
{
  public:
    explicit Writer(size_t bound)
        : _begin(encodeBuffer(bound)), _p(_begin), _end(_begin + bound)
    {
    }

    void u8(uint8_t v) { *_p++ = v; }
    void u16(uint16_t v) { binio::storeLe(_p, v); _p += 2; }
    void u64(uint64_t v) { binio::storeLe(_p, v); _p += 8; }
    void varint(uint64_t v) { _p = binio::storeVarint(_p, v); }

    void
    bytes(const void *data, size_t n)
    {
        // An empty name or key may have a null data().
        if (n != 0)
            std::memcpy(_p, data, n);
        _p += n;
    }

    /**
     * Append the CRC-64 (ECMA) of everything written so far.
     *
     * @return One exact-size copy of the whole encoding.
     */
    std::vector<uint8_t>
    seal()
    {
        u64(crc64Ecma().compute(_begin, static_cast<size_t>(_p - _begin)));
        if (_p > _end)
            panic("snapshot encoder overran its bound by %zu bytes",
                  static_cast<size_t>(_p - _end));
        return std::vector<uint8_t>(_begin, _p);
    }

  private:
    uint8_t *_begin;
    uint8_t *_p;
    const uint8_t *_end;
};

/**
 * Most bytes @p vat's image body takes: the eviction count, then per
 * table six varints and its occupied slots.
 */
size_t
imageBodyBound(const core::Vat &vat)
{
    size_t bound = binio::kMaxVarintBytes;
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        bound += binio::kMaxVarintBytes * 6 + cuckoo.size() * kMaxEntryBytes;
    });
    return bound;
}

/**
 * Write @p vat's image body: its eviction count, then for each table
 * in table order its five counters, its occupied-slot count, and each
 * occupied slot as (way, index, key length, key) in way-major order.
 */
void
putImageBody(Writer &w, const core::Vat &vat)
{
    w.varint(vat.evictions());
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        const CuckooStats &s = cuckoo.stats();
        w.varint(s.lookups);
        w.varint(s.hits);
        w.varint(s.insertions);
        w.varint(s.displacements);
        w.varint(s.evictions);
        w.varint(cuckoo.size());
        cuckoo.forEachSlot([&](CuckooWay way, uint64_t index,
                               const core::ArgKey &key) {
            w.u8(static_cast<uint8_t>(way));
            w.varint(index);
            w.u8(static_cast<uint8_t>(key.size()));
            w.bytes(key.data(), key.size());
        });
    });
}

/**
 * Read the table body at @p pos: its counters and occupied-slot count
 * into @p table, then each slot, handed to @p place(way, index, key),
 * which returns false to reject it.
 */
template <typename Place>
bool
takeTableBody(std::span<const uint8_t> body, size_t &pos,
              SnapshotTableInfo &table, Place &&place, std::string *error)
{
    CuckooStats &s = table.stats;
    if (!binio::takeVarint(body, pos, s.lookups) ||
        !binio::takeVarint(body, pos, s.hits) ||
        !binio::takeVarint(body, pos, s.insertions) ||
        !binio::takeVarint(body, pos, s.displacements) ||
        !binio::takeVarint(body, pos, s.evictions) ||
        !binio::takeVarint(body, pos, table.slots))
        return failDecode(error, "truncated table counters");
    for (uint64_t e = 0; e < table.slots; ++e) {
        uint8_t way = 0;
        uint64_t index = 0;
        uint8_t keyLen = 0;
        if (!binio::takeU8(body, pos, way) ||
            !binio::takeVarint(body, pos, index) ||
            !binio::takeU8(body, pos, keyLen))
            return failDecode(error, "truncated table slot");
        if (way > 1 || keyLen > core::ArgKey::kMaxBytes ||
            pos + keyLen > body.size())
            return failDecode(error, "malformed table slot");
        if (!place(static_cast<CuckooWay>(way), index,
                   core::ArgKey::fromBytes(body.data() + pos, keyLen)))
            return failDecode(error, "slot placement rejected");
        pos += keyLen;
    }
    return true;
}

/**
 * Apply the image body @p body (putImageBody()) to @p vat, an empty VAT
 * configured from the policy it was written under: each table's slots
 * are placed verbatim rather than re-inserted, so post-restore
 * displacement and eviction behaviour is identical to never having
 * snapshotted; then its counters are replaced, and last the eviction
 * count.
 */
bool
applyImageBody(std::span<const uint8_t> body, core::Vat &vat,
               std::string *error)
{
    size_t pos = 0;
    uint64_t evictions = 0;
    if (!binio::takeVarint(body, pos, evictions))
        return failDecode(error, "truncated image");
    for (core::Vat::TableIndex index = 0; index < vat.tableCount();
         ++index) {
        core::VatCuckoo &cuckoo = vat.mutableTable(index);
        SnapshotTableInfo table;
        if (!takeTableBody(body, pos, table,
                           [&](CuckooWay way, uint64_t slot,
                               const core::ArgKey &key) {
                               return cuckoo.placeAt(way, slot, key);
                           },
                           error))
            return false;
        cuckoo.restoreStats(table.stats);
    }
    if (pos != body.size())
        return failDecode(error, "trailing bytes in image");
    vat.restoreEvictions(evictions);
    return true;
}

/** Check the CRC-64 that ends @p bytes; @p covered gets what it covers. */
bool
takeCrc(std::span<const uint8_t> bytes, std::span<const uint8_t> &covered,
        std::string *error)
{
    if (bytes.size() < 8)
        return failDecode(error, "shorter than its CRC");
    covered = bytes.first(bytes.size() - 8);
    if (binio::loadLe<uint64_t>(covered.data() + covered.size()) !=
        crc64Ecma().compute(covered.data(), covered.size()))
        return failDecode(error, "CRC mismatch");
    return true;
}

/**
 * Check a `.dtss` file's magic, version and CRC, then read its
 * programKey and tenant name into @p info; @p body gets the image body.
 */
bool
takeSnapshotHeader(std::span<const uint8_t> bytes, SnapshotInfo &info,
                   std::span<const uint8_t> &body, std::string *error)
{
    if (bytes.size() < kHeaderBytes)
        return failDecode(error, "file shorter than the header");
    if (std::memcmp(bytes.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return failDecode(error, "bad magic (not a .dtss snapshot)");
    const auto version =
        binio::loadLe<uint16_t>(bytes.data() + sizeof(kSnapshotMagic));
    if (version != kSnapshotVersion)
        return failDecode(error,
                          "unsupported version " + std::to_string(version));
    std::span<const uint8_t> covered;
    if (!takeCrc(bytes, covered, error))
        return false;
    size_t pos = kHeaderBytes;
    if (!binio::takeU64(covered, pos, info.policyKey) ||
        !binio::takeString(covered, pos, info.tenant))
        return failDecode(error, "truncated header");
    body = covered.subspan(pos);
    return true;
}

} // namespace

std::vector<uint8_t>
encodeSnapshot(const std::string &tenant,
               const core::DracoSoftwareChecker &checker, unsigned)
{
    const core::Vat &vat = checker.vat();
    // The header, the key, the name and its length, the body, the CRC.
    Writer w(kHeaderBytes + 8 + binio::kMaxVarintBytes + tenant.size() +
             imageBodyBound(vat) + 8);
    w.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
    w.u16(kSnapshotVersion);
    w.u64(checker.policy()->programKey);
    w.varint(tenant.size());
    w.bytes(tenant.data(), tenant.size());
    putImageBody(w, vat);
    return w.seal();
}

bool
inspectSnapshot(std::span<const uint8_t> bytes, SnapshotInfo &info,
                std::string *error)
{
    info = SnapshotInfo{};
    std::span<const uint8_t> body;
    if (!takeSnapshotHeader(bytes, info, body, error))
        return false;
    size_t pos = 0;
    if (!binio::takeVarint(body, pos, info.vatEvictions))
        return failDecode(error, "truncated image");
    // Table bodies delimit themselves: read them until the body ends.
    while (pos < body.size()) {
        if (!takeTableBody(body, pos, info.tables.emplace_back(),
                           [](CuckooWay, uint64_t, const core::ArgKey &) {
                               return true;
                           },
                           error))
            return false;
    }
    info.bytes = bytes.size();
    return true;
}

RestoreOutcome
applySnapshot(std::span<const uint8_t> bytes,
              const std::string &expectTenant, uint64_t expectPolicyKey,
              core::Vat &vat, std::string *error)
{
    SnapshotInfo header;
    std::span<const uint8_t> body;
    if (!takeSnapshotHeader(bytes, header, body, error))
        return RestoreOutcome::Failed;
    // The policy first: an intact snapshot of another policy is stale
    // whatever tenant it names, and none of it is placed.
    if (header.policyKey != expectPolicyKey) {
        failDecode(error, "policy key mismatch (profile changed since the "
                          "snapshot was taken)");
        return RestoreOutcome::Stale;
    }
    if (header.tenant != expectTenant) {
        failDecode(error, "snapshot names tenant '" + header.tenant +
                              "', expected '" + expectTenant + "'");
        return RestoreOutcome::Failed;
    }
    return applyImageBody(body, vat, error) ? RestoreOutcome::Restored
                                            : RestoreOutcome::Failed;
}

bool
restoreSnapshot(const std::vector<uint8_t> &bytes,
                const std::string &expectTenant, uint64_t expectPolicyKey,
                unsigned, core::DracoSoftwareChecker &checker,
                std::string *error)
{
    return applySnapshot(bytes, expectTenant, expectPolicyKey,
                         checker.mutableVat(), error) ==
           RestoreOutcome::Restored;
}

std::vector<uint8_t>
encodeVatImage(const core::Vat &vat)
{
    // The body, then the CRC.
    Writer w(imageBodyBound(vat) + 8);
    putImageBody(w, vat);
    return w.seal();
}

RestoreOutcome
applyVatImage(std::span<const uint8_t> image, core::Vat &vat,
              std::string *error)
{
    // The CRC first, so no byte of a damaged image is trusted.
    std::span<const uint8_t> body;
    if (!takeCrc(image, body, error) || !applyImageBody(body, vat, error))
        return RestoreOutcome::Failed;
    return RestoreOutcome::Restored;
}

} // namespace draco::lifecycle
