#include "lifecycle/snapshot.hh"

#include <cstring>
#include <span>

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

/** A verified block: its type and its payload, viewed inside the file. */
struct BlockView {
    uint8_t type = 0;
    std::span<const uint8_t> payload;
};

/** Header bytes: the magic and the u16 version. */
constexpr size_t kHeaderBytes = sizeof(kSnapshotMagic) + 2;

/** A block's framing around its payload: type, length, CRC. */
constexpr size_t kBlockFraming = 1 + 4 + 8;

/** Most bytes one Table entry takes: way, index, key length, key. */
constexpr size_t kMaxEntryBytes =
    1 + binio::kMaxVarintBytes + 1 + core::ArgKey::kMaxBytes;

/**
 * Writes a `.dtss` file in place through a pointer into a buffer its
 * caller sized for the worst case, so no store checks capacity or
 * grows the buffer; each block's end checks the pointer against that
 * bound.
 */
class Writer
{
  public:
    Writer(uint8_t *begin, size_t bound) : _p(begin), _end(begin + bound) {}

    /** @return The byte after the last one written. */
    uint8_t *pos() const { return _p; }

    void u8(uint8_t v) { *_p++ = v; }
    void u64(uint64_t v) { binio::storeLe(_p, v); _p += 8; }
    void varint(uint64_t v) { _p = binio::storeVarint(_p, v); }

    void
    bytes(const void *data, size_t n)
    {
        // An empty block payload may have a null data().
        if (n != 0)
            std::memcpy(_p, data, n);
        _p += n;
    }

    /** The magic and the format version. */
    void
    header()
    {
        bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
        binio::storeLe(_p, kSnapshotVersion);
        _p += 2;
    }

    /**
     * Open a block: its type and a length placeholder. The payload is
     * then written in place.
     *
     * @return The block's start, for endBlock().
     */
    uint8_t *
    beginBlock(BlockType type)
    {
        uint8_t *start = _p;
        u8(static_cast<uint8_t>(type));
        _p += 4;
        return start;
    }

    /** Close the block opened at @p start: patch its length, add its CRC. */
    void
    endBlock(uint8_t *start)
    {
        const auto framed = static_cast<size_t>(_p - start);
        binio::storeLe(start + 1, static_cast<uint32_t>(framed - 5));
        u64(crc64Ecma().compute(start, framed));
        checkBound();
    }

    /** Panic when the writes so far passed the bound. */
    void
    checkBound() const
    {
        if (_p > _end)
            panic("snapshot encoder overran its bound by %zu bytes",
                  static_cast<size_t>(_p - _end));
    }

  private:
    uint8_t *_p;
    const uint8_t *_end;
};

/** Check magic and version; @p pos is left at the first block. */
bool
takeHeader(std::span<const uint8_t> bytes, size_t &pos, std::string *error)
{
    if (bytes.size() < kHeaderBytes)
        return failDecode(error, "file shorter than the header");
    if (std::memcmp(bytes.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0)
        return failDecode(error, "bad magic (not a .dtss snapshot)");
    pos = sizeof(kSnapshotMagic);
    uint16_t version = 0;
    binio::takeU16(bytes, pos, version);
    if (version != kSnapshotVersion)
        return failDecode(error,
                          "unsupported version " + std::to_string(version));
    return true;
}

/** Frame and CRC-check the block at @p pos, advancing past it. */
bool
takeBlock(std::span<const uint8_t> bytes, size_t &pos, BlockView &block,
          std::string *error)
{
    size_t blockStart = pos;
    uint32_t len = 0;
    if (!binio::takeU8(bytes, pos, block.type) ||
        !binio::takeU32(bytes, pos, len))
        return failDecode(error, "truncated block header");
    if (pos + len + 8 > bytes.size())
        return failDecode(error, "truncated block payload");
    uint64_t expect =
        crc64Ecma().compute(bytes.data() + blockStart, 1 + 4 + len);
    size_t crcPos = pos + len;
    uint64_t stored = 0;
    binio::takeU64(bytes, crcPos, stored);
    if (stored != expect)
        return failDecode(error, "block CRC mismatch");
    block.payload = bytes.subspan(pos, len);
    pos = crcPos;
    return true;
}

/**
 * Walk a whole `.dtss` file: header, every block's framing and CRC, and
 * the End terminator with its table count. @p fn(block) sees each
 * verified block except End, in file order, before the next block is
 * read; it returns false (setting @p error) to abort the walk.
 */
template <typename Fn>
bool
walkBlocks(std::span<const uint8_t> bytes, std::string *error, Fn &&fn)
{
    size_t pos = 0;
    if (!takeHeader(bytes, pos, error))
        return false;
    bool sawEnd = false;
    uint64_t endTables = 0;
    uint64_t tables = 0;
    while (pos < bytes.size()) {
        if (sawEnd)
            return failDecode(error, "bytes after the End block");
        BlockView block;
        if (!takeBlock(bytes, pos, block, error))
            return false;
        if (block.type == static_cast<uint8_t>(BlockType::End)) {
            size_t epos = 0;
            if (!binio::takeVarint(block.payload, epos, endTables))
                return failDecode(error, "truncated End block");
            sawEnd = true;
            continue;
        }
        if (block.type == static_cast<uint8_t>(BlockType::Table))
            ++tables;
        if (!fn(block))
            return false;
    }
    if (!sawEnd)
        return failDecode(error, "missing End block (truncated file)");
    if (tables != endTables)
        return failDecode(error, "End block table count mismatch");
    return true;
}

void
putCheckStats(Writer &w, const core::SwCheckStats &s)
{
    w.varint(s.checks);
    w.varint(s.sptAllowAll);
    w.varint(s.vatHits);
    w.varint(s.filterRuns);
    w.varint(s.denials);
    w.varint(s.filterInsns);
    w.varint(s.vatInsertions);
}

bool
takeCheckStats(std::span<const uint8_t> buf, size_t &pos,
               core::SwCheckStats &s)
{
    return binio::takeVarint(buf, pos, s.checks) &&
        binio::takeVarint(buf, pos, s.sptAllowAll) &&
        binio::takeVarint(buf, pos, s.vatHits) &&
        binio::takeVarint(buf, pos, s.filterRuns) &&
        binio::takeVarint(buf, pos, s.denials) &&
        binio::takeVarint(buf, pos, s.filterInsns) &&
        binio::takeVarint(buf, pos, s.vatInsertions);
}

void
putCuckooStats(Writer &w, const CuckooStats &s)
{
    w.varint(s.lookups);
    w.varint(s.hits);
    w.varint(s.insertions);
    w.varint(s.displacements);
    w.varint(s.evictions);
}

bool
takeCuckooStats(std::span<const uint8_t> buf, size_t &pos,
                CuckooStats &s)
{
    return binio::takeVarint(buf, pos, s.lookups) &&
        binio::takeVarint(buf, pos, s.hits) &&
        binio::takeVarint(buf, pos, s.insertions) &&
        binio::takeVarint(buf, pos, s.displacements) &&
        binio::takeVarint(buf, pos, s.evictions);
}

struct MetaFields {
    std::string tenant;
    uint64_t policyKey = 0;
    uint64_t filterCopies = 1;
    core::SwCheckStats stats;
    uint64_t vatEvictions = 0;
    uint64_t tableCount = 0;
};

bool
decodeMeta(std::span<const uint8_t> payload, MetaFields &meta,
           std::string *error)
{
    size_t pos = 0;
    if (!binio::takeString(payload, pos, meta.tenant) ||
        !binio::takeU64(payload, pos, meta.policyKey) ||
        !binio::takeVarint(payload, pos, meta.filterCopies) ||
        !takeCheckStats(payload, pos, meta.stats) ||
        !binio::takeVarint(payload, pos, meta.vatEvictions) ||
        !binio::takeVarint(payload, pos, meta.tableCount))
        return failDecode(error, "truncated Meta block");
    if (pos != payload.size())
        return failDecode(error, "trailing bytes in Meta block");
    return true;
}

/** Most bytes a table body takes: six varints, then its slots. */
size_t
tableBodyBound(const core::VatCuckoo &cuckoo)
{
    return binio::kMaxVarintBytes * 6 + cuckoo.size() * kMaxEntryBytes;
}

/**
 * Write @p cuckoo's state: its five counters, its occupied-slot count,
 * then each occupied slot as (way, index, key length, key) in way-major
 * order. A `.dtss` Table block holds this after its sid, bitmask and
 * bucket count; a VAT image holds it for every table.
 */
void
putTableBody(Writer &w, const core::VatCuckoo &cuckoo)
{
    putCuckooStats(w, cuckoo.stats());
    w.varint(cuckoo.size());
    cuckoo.forEachSlot([&](CuckooWay way, uint64_t index,
                           const core::ArgKey &key) {
        w.u8(static_cast<uint8_t>(way));
        w.varint(index);
        w.u8(static_cast<uint8_t>(key.size()));
        w.bytes(key.data(), key.size());
    });
}

/** The counters and occupied-slot count that open a table body. */
struct TableCounts {
    CuckooStats stats;
    uint64_t entries = 0;
};

bool
takeTableCounts(std::span<const uint8_t> buf, size_t &pos,
                TableCounts &counts)
{
    return takeCuckooStats(buf, pos, counts.stats) &&
        binio::takeVarint(buf, pos, counts.entries);
}

/**
 * Read the table body at @p pos (putTableBody()) into @p cuckoo, an
 * empty table of the geometry it was written from: each slot is placed
 * verbatim rather than re-inserted, so post-restore displacement and
 * eviction behaviour is identical to never having snapshotted; then
 * the counters are replaced.
 */
bool
takeTableBody(std::span<const uint8_t> buf, size_t &pos,
              core::VatCuckoo &cuckoo, std::string *error)
{
    TableCounts counts;
    if (!takeTableCounts(buf, pos, counts))
        return failDecode(error, "truncated table counters");
    for (uint64_t e = 0; e < counts.entries; ++e) {
        uint8_t way = 0;
        uint64_t index = 0;
        uint8_t keyLen = 0;
        if (!binio::takeU8(buf, pos, way) ||
            !binio::takeVarint(buf, pos, index) ||
            !binio::takeU8(buf, pos, keyLen))
            return failDecode(error, "truncated table slot");
        if (way > 1 || keyLen > core::ArgKey::kMaxBytes ||
            pos + keyLen > buf.size())
            return failDecode(error, "malformed table slot");
        core::ArgKey key = core::ArgKey::fromBytes(buf.data() + pos, keyLen);
        pos += keyLen;
        if (!cuckoo.placeAt(static_cast<CuckooWay>(way), index, key))
            return failDecode(error, "slot placement rejected");
    }
    cuckoo.restoreStats(counts.stats);
    return true;
}

/** What a `.dtss` Table block names before its body. */
struct TableHeader {
    uint64_t sid = 0;
    uint64_t bitmask = 0;
    uint64_t buckets = 0;
};

bool
decodeTableHeader(std::span<const uint8_t> payload, size_t &pos,
                  TableHeader &header, std::string *error)
{
    if (!binio::takeVarint(payload, pos, header.sid) ||
        !binio::takeU64(payload, pos, header.bitmask) ||
        !binio::takeVarint(payload, pos, header.buckets))
        return failDecode(error, "truncated Table block header");
    if (header.sid > UINT16_MAX)
        return failDecode(error, "Table sid out of range");
    return true;
}

/**
 * Place one Table block's slots into @p vat, after checking that the
 * table matches what the shared policy configured.
 */
bool
restoreTable(std::span<const uint8_t> payload, core::Vat &vat,
             std::string *error)
{
    size_t pos = 0;
    TableHeader header;
    if (!decodeTableHeader(payload, pos, header, error))
        return false;
    auto sid = static_cast<uint16_t>(header.sid);

    // The table must exactly match what the shared policy configured —
    // a skewed profile or sizing change invalidates the layout, and a
    // verbatim slot restore into a differently sized table would
    // scatter keys to wrong indices.
    if (!vat.configured(sid))
        return failDecode(error, "snapshot table sid " +
                                     std::to_string(sid) +
                                     " not configured by the policy");
    if (vat.bitmask(sid) != header.bitmask)
        return failDecode(error,
                          "bitmask mismatch for sid " + std::to_string(sid));
    if (vat.buckets(sid) != header.buckets)
        return failDecode(error, "table size mismatch for sid " +
                                     std::to_string(sid));
    if (!takeTableBody(payload, pos, vat.mutableTable(vat.tableIndex(sid)),
                       error))
        return false;
    if (pos != payload.size())
        return failDecode(error, "trailing bytes in Table block");
    return true;
}

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

} // namespace

std::vector<uint8_t>
encodeSnapshot(const std::string &tenant,
               const core::DracoSoftwareChecker &checker,
               unsigned filterCopies)
{
    const core::Vat &vat = checker.vat();
    constexpr size_t kVarint = binio::kMaxVarintBytes;

    // Size the worst case from the table occupancies, then write every
    // block in place in this thread's encode buffer; the result is a
    // single exact-size copy of it. Meta: the name and the u64 key, and
    // as varints the name length, the copies, the seven check stats,
    // VAT evictions, table count.
    size_t bound = kHeaderBytes + kBlockFraming + tenant.size() + 8 +
                   kVarint * 11;
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        // Table: the u64 bitmask and, as varints, the sid and the
        // buckets; then the body.
        bound += kBlockFraming + 8 + kVarint * 2 + tableBodyBound(cuckoo);
    });
    bound += kBlockFraming + kVarint; // End
    uint8_t *out = encodeBuffer(bound);
    Writer w(out, bound);
    w.header();

    uint8_t *block = w.beginBlock(BlockType::Meta);
    w.varint(tenant.size());
    w.bytes(tenant.data(), tenant.size());
    w.u64(checker.policy()->programKey);
    w.varint(filterCopies);
    putCheckStats(w, checker.stats());
    w.varint(vat.evictions());
    w.varint(vat.tableCount());
    w.endBlock(block);

    vat.forEachTable([&](uint16_t sid, uint64_t bitmask,
                         const core::VatCuckoo &cuckoo) {
        uint8_t *table = w.beginBlock(BlockType::Table);
        w.varint(sid);
        w.u64(bitmask);
        w.varint(cuckoo.buckets());
        putTableBody(w, cuckoo);
        w.endBlock(table);
    });

    block = w.beginBlock(BlockType::End);
    w.varint(vat.tableCount());
    w.endBlock(block);
    return std::vector<uint8_t>(out, w.pos());
}

bool
parseSnapshotBlocks(const std::vector<uint8_t> &bytes,
                    std::vector<RawBlock> &blocks, std::string *error)
{
    blocks.clear();
    return walkBlocks(bytes, error, [&](const BlockView &view) {
        RawBlock &block = blocks.emplace_back();
        block.type = view.type;
        block.payload.assign(view.payload.begin(), view.payload.end());
        return true;
    });
}

std::vector<uint8_t>
serializeSnapshotBlocks(const std::vector<RawBlock> &blocks)
{
    size_t bound = kHeaderBytes + kBlockFraming + binio::kMaxVarintBytes;
    for (const RawBlock &block : blocks)
        bound += kBlockFraming + block.payload.size();
    std::vector<uint8_t> out(bound);
    Writer w(out.data(), bound);
    w.header();
    uint64_t tables = 0;
    for (const RawBlock &block : blocks) {
        uint8_t *start = w.beginBlock(static_cast<BlockType>(block.type));
        w.bytes(block.payload.data(), block.payload.size());
        w.endBlock(start);
        if (block.type == static_cast<uint8_t>(BlockType::Table))
            ++tables;
    }
    uint8_t *end = w.beginBlock(BlockType::End);
    w.varint(tables);
    w.endBlock(end);
    out.resize(static_cast<size_t>(w.pos() - out.data()));
    return out;
}

bool
inspectSnapshot(const std::vector<uint8_t> &bytes, SnapshotInfo &info,
                std::string *error)
{
    info = SnapshotInfo{};
    MetaFields meta;
    bool sawMeta = false;
    bool ok = walkBlocks(bytes, error, [&](const BlockView &block) {
        if (!sawMeta) {
            if (block.type != static_cast<uint8_t>(BlockType::Meta))
                return failDecode(error, "first block is not Meta");
            sawMeta = true;
            return decodeMeta(block.payload, meta, error);
        }
        if (block.type != static_cast<uint8_t>(BlockType::Table))
            return failDecode(error, "unexpected block type " +
                                         std::to_string(block.type));
        size_t pos = 0;
        TableHeader header;
        TableCounts counts;
        if (!decodeTableHeader(block.payload, pos, header, error))
            return false;
        if (!takeTableCounts(block.payload, pos, counts))
            return failDecode(error, "truncated Table block header");
        SnapshotTableInfo &table = info.tables.emplace_back();
        table.sid = static_cast<uint16_t>(header.sid);
        table.bitmask = header.bitmask;
        table.buckets = header.buckets;
        table.sets = counts.entries;
        return true;
    });
    if (!ok)
        return false;
    if (!sawMeta)
        return failDecode(error, "first block is not Meta");
    if (info.tables.size() != meta.tableCount)
        return failDecode(error, "Meta table count mismatch");

    info.tenant = meta.tenant;
    info.policyKey = meta.policyKey;
    info.version = kSnapshotVersion;
    info.filterCopies = static_cast<unsigned>(meta.filterCopies);
    info.stats = meta.stats;
    info.vatEvictions = meta.vatEvictions;
    info.bytes = bytes.size();
    return true;
}

RestoreOutcome
applySnapshot(const std::vector<uint8_t> &bytes,
              const std::string &expectTenant, uint64_t expectPolicyKey,
              unsigned expectFilterCopies,
              core::DracoSoftwareChecker &checker, std::string *error)
{
    // One pass: each block is CRC-checked in place and then applied,
    // before the next is read. A later failure leaves a partial
    // restore, which the contract tells the caller to discard.
    core::Vat &vat = checker.mutableVat();
    MetaFields meta;
    bool sawMeta = false;
    bool stale = false;
    uint64_t tables = 0;
    bool ok = walkBlocks(bytes, error, [&](const BlockView &block) {
        if (sawMeta) {
            if (block.type != static_cast<uint8_t>(BlockType::Table))
                return failDecode(error, "unexpected block type " +
                                             std::to_string(block.type));
            ++tables;
            return restoreTable(block.payload, vat, error);
        }
        if (block.type != static_cast<uint8_t>(BlockType::Meta))
            return failDecode(error, "first block is not Meta");
        sawMeta = true;
        if (!decodeMeta(block.payload, meta, error))
            return false;
        // The policy first: a well-formed snapshot of another policy is
        // stale whatever tenant it names, and none of it is placed.
        if (meta.policyKey != expectPolicyKey) {
            stale = true;
            return failDecode(error, "policy key mismatch (profile "
                                     "changed since the snapshot was "
                                     "taken)");
        }
        if (meta.tenant != expectTenant)
            return failDecode(error, "snapshot names tenant '" +
                                         meta.tenant + "', expected '" +
                                         expectTenant + "'");
        if (meta.filterCopies != expectFilterCopies)
            return failDecode(error, "filter copy count mismatch");
        return true;
    });
    if (stale)
        return RestoreOutcome::Stale;
    if (!ok)
        return RestoreOutcome::Failed;
    if (!sawMeta) {
        failDecode(error, "first block is not Meta");
        return RestoreOutcome::Failed;
    }
    if (tables != meta.tableCount) {
        failDecode(error, "Meta table count mismatch");
        return RestoreOutcome::Failed;
    }

    vat.restoreEvictions(meta.vatEvictions);
    checker.restoreStats(meta.stats);
    return RestoreOutcome::Restored;
}

bool
restoreSnapshot(const std::vector<uint8_t> &bytes,
                const std::string &expectTenant, uint64_t expectPolicyKey,
                unsigned expectFilterCopies,
                core::DracoSoftwareChecker &checker, std::string *error)
{
    return applySnapshot(bytes, expectTenant, expectPolicyKey,
                         expectFilterCopies, checker, error) ==
           RestoreOutcome::Restored;
}

std::vector<uint8_t>
encodeVatImage(const core::Vat &vat)
{
    // The eviction count as a varint, every table's body, the CRC.
    size_t bound = binio::kMaxVarintBytes + 8;
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        bound += tableBodyBound(cuckoo);
    });
    uint8_t *out = encodeBuffer(bound);
    Writer w(out, bound);
    w.varint(vat.evictions());
    vat.forEachTable([&](uint16_t, uint64_t, const core::VatCuckoo &cuckoo) {
        putTableBody(w, cuckoo);
    });
    w.u64(crc64Ecma().compute(out, static_cast<size_t>(w.pos() - out)));
    w.checkBound();
    return std::vector<uint8_t>(out, w.pos());
}

RestoreOutcome
applyVatImage(std::span<const uint8_t> image, core::Vat &vat,
              std::string *error)
{
    auto fail = [&](const char *message) {
        failDecode(error, message);
        return RestoreOutcome::Failed;
    };
    // The CRC first, so no byte of a damaged image is trusted.
    if (image.size() < 8)
        return fail("image shorter than its CRC");
    const std::span<const uint8_t> body = image.first(image.size() - 8);
    if (binio::loadLe<uint64_t>(body.data() + body.size()) !=
        crc64Ecma().compute(body.data(), body.size()))
        return fail("image CRC mismatch");
    size_t pos = 0;
    uint64_t evictions = 0;
    if (!binio::takeVarint(body, pos, evictions))
        return fail("truncated image");
    for (core::Vat::TableIndex table = 0; table < vat.tableCount();
         ++table)
        if (!takeTableBody(body, pos, vat.mutableTable(table), error))
            return RestoreOutcome::Failed;
    if (pos != body.size())
        return fail("trailing bytes in image");
    vat.restoreEvictions(evictions);
    return RestoreOutcome::Restored;
}

} // namespace draco::lifecycle
