#include "lifecycle/snapshot.hh"

#include <cstring>
#include <span>

#include "hash/crc64.hh"
#include "support/binio.hh"

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

/**
 * Open a block at the end of @p out: its type and a length
 * placeholder. The payload is then appended in place.
 *
 * @return The block's start offset, for endBlock().
 */
size_t
beginBlock(std::vector<uint8_t> &out, BlockType type)
{
    size_t start = out.size();
    binio::putU8(out, static_cast<uint8_t>(type));
    binio::putU32(out, 0);
    return start;
}

/** Close the block opened at @p start: patch its length, append its CRC. */
void
endBlock(std::vector<uint8_t> &out, size_t start)
{
    auto len = static_cast<uint32_t>(out.size() - start - 5);
    for (int i = 0; i < 4; ++i)
        out[start + 1 + i] = static_cast<uint8_t>(len >> (8 * i));
    binio::putU64(out, crc64Ecma().compute(out.data() + start,
                                           out.size() - start));
}

/** Append one framed block: type, length, payload, trailing CRC. */
void
putBlock(std::vector<uint8_t> &out, BlockType type,
         std::span<const uint8_t> payload)
{
    size_t start = beginBlock(out, type);
    out.insert(out.end(), payload.begin(), payload.end());
    endBlock(out, start);
}

/** Check magic and version; @p pos is left at the first block. */
bool
takeHeader(std::span<const uint8_t> bytes, size_t &pos, std::string *error)
{
    if (bytes.size() < sizeof(kSnapshotMagic) + 2)
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
putCheckStats(std::vector<uint8_t> &out, const core::SwCheckStats &s)
{
    binio::putVarint(out, s.checks);
    binio::putVarint(out, s.sptAllowAll);
    binio::putVarint(out, s.vatHits);
    binio::putVarint(out, s.filterRuns);
    binio::putVarint(out, s.denials);
    binio::putVarint(out, s.filterInsns);
    binio::putVarint(out, s.vatInsertions);
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
putCuckooStats(std::vector<uint8_t> &out, const CuckooStats &s)
{
    binio::putVarint(out, s.lookups);
    binio::putVarint(out, s.hits);
    binio::putVarint(out, s.insertions);
    binio::putVarint(out, s.displacements);
    binio::putVarint(out, s.evictions);
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

struct TableHeader {
    uint64_t sid = 0;
    uint64_t bitmask = 0;
    uint64_t buckets = 0;
    CuckooStats stats;
    uint64_t entries = 0;
};

bool
decodeTableHeader(std::span<const uint8_t> payload, size_t &pos,
                  TableHeader &header, std::string *error)
{
    if (!binio::takeVarint(payload, pos, header.sid) ||
        !binio::takeU64(payload, pos, header.bitmask) ||
        !binio::takeVarint(payload, pos, header.buckets) ||
        !takeCuckooStats(payload, pos, header.stats) ||
        !binio::takeVarint(payload, pos, header.entries))
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

    for (uint64_t e = 0; e < header.entries; ++e) {
        uint8_t way = 0;
        uint64_t index = 0;
        uint8_t keyLen = 0;
        if (!binio::takeU8(payload, pos, way) ||
            !binio::takeVarint(payload, pos, index) ||
            !binio::takeU8(payload, pos, keyLen))
            return failDecode(error, "truncated Table entry");
        if (way > 1 || keyLen > core::ArgKey::kMaxBytes ||
            pos + keyLen > payload.size())
            return failDecode(error, "malformed Table entry");
        core::ArgKey key =
            core::ArgKey::fromBytes(payload.data() + pos, keyLen);
        pos += keyLen;
        if (!vat.placeAt(sid, static_cast<CuckooWay>(way), index, key))
            return failDecode(error, "slot placement rejected for sid " +
                                         std::to_string(sid));
    }
    if (pos != payload.size())
        return failDecode(error, "trailing bytes in Table block");
    vat.restoreTableStats(sid, header.stats);
    return true;
}

} // namespace

std::vector<uint8_t>
encodeSnapshot(const std::string &tenant,
               const core::DracoSoftwareChecker &checker,
               unsigned filterCopies)
{
    // Every block is framed in place in one buffer that keeps its
    // capacity across calls on this thread; the result is a single
    // exact-size copy of it.
    thread_local std::vector<uint8_t> out;
    out.assign(kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic));
    binio::putU16(out, kSnapshotVersion);

    const core::Vat &vat = checker.vat();

    size_t block = beginBlock(out, BlockType::Meta);
    binio::putString(out, tenant);
    binio::putU64(out, checker.policy()->programKey);
    binio::putVarint(out, filterCopies);
    putCheckStats(out, checker.stats());
    binio::putVarint(out, vat.evictions());
    binio::putVarint(out, vat.tableCount());
    endBlock(out, block);

    vat.forEachTable([&](uint16_t sid, uint64_t bitmask,
                         const CuckooTable<core::ArgKey> &cuckoo) {
        size_t table = beginBlock(out, BlockType::Table);
        binio::putVarint(out, sid);
        binio::putU64(out, bitmask);
        binio::putVarint(out, cuckoo.buckets());
        putCuckooStats(out, cuckoo.stats());
        binio::putVarint(out, cuckoo.size());
        cuckoo.forEachSlot([&](CuckooWay way, uint64_t index,
                               const core::ArgKey &key) {
            binio::putU8(out, static_cast<uint8_t>(way));
            binio::putVarint(out, index);
            binio::putU8(out, static_cast<uint8_t>(key.size()));
            out.insert(out.end(), key.data(), key.data() + key.size());
        });
        endBlock(out, table);
    });

    block = beginBlock(out, BlockType::End);
    binio::putVarint(out, vat.tableCount());
    endBlock(out, block);
    return std::vector<uint8_t>(out.begin(), out.end());
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
    std::vector<uint8_t> out;
    out.insert(out.end(), kSnapshotMagic,
               kSnapshotMagic + sizeof(kSnapshotMagic));
    binio::putU16(out, kSnapshotVersion);
    uint64_t tables = 0;
    for (const RawBlock &block : blocks) {
        putBlock(out, static_cast<BlockType>(block.type), block.payload);
        if (block.type == static_cast<uint8_t>(BlockType::Table))
            ++tables;
    }
    std::vector<uint8_t> end;
    binio::putVarint(end, tables);
    putBlock(out, BlockType::End, end);
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
        if (!decodeTableHeader(block.payload, pos, header, error))
            return false;
        SnapshotTableInfo &table = info.tables.emplace_back();
        table.sid = static_cast<uint16_t>(header.sid);
        table.bitmask = header.bitmask;
        table.buckets = header.buckets;
        table.sets = header.entries;
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

bool
peekSnapshotPolicyKey(const std::vector<uint8_t> &bytes,
                      uint64_t &policyKey, std::string *error)
{
    // A deliberate partial parse: header plus the first block only.
    // The probe answers "which policy does this snapshot belong to?"
    // without paying for every table's CRC — the full restore (or its
    // fail-closed rejection) still re-verifies everything it uses.
    size_t pos = 0;
    BlockView block;
    if (!takeHeader(bytes, pos, error) ||
        !takeBlock(bytes, pos, block, error))
        return false;
    if (block.type != static_cast<uint8_t>(BlockType::Meta))
        return failDecode(error, "first block is not Meta");
    MetaFields meta;
    if (!decodeMeta(block.payload, meta, error))
        return false;
    policyKey = meta.policyKey;
    return true;
}

bool
restoreSnapshot(const std::vector<uint8_t> &bytes,
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
        if (meta.tenant != expectTenant)
            return failDecode(error, "snapshot names tenant '" +
                                         meta.tenant + "', expected '" +
                                         expectTenant + "'");
        if (meta.policyKey != expectPolicyKey)
            return failDecode(error, "policy key mismatch (profile "
                                     "changed since the snapshot was "
                                     "taken)");
        if (meta.filterCopies != expectFilterCopies)
            return failDecode(error, "filter copy count mismatch");
        return true;
    });
    if (!ok)
        return false;
    if (!sawMeta)
        return failDecode(error, "first block is not Meta");
    if (tables != meta.tableCount)
        return failDecode(error, "Meta table count mismatch");

    vat.restoreEvictions(meta.vatEvictions);
    checker.restoreStats(meta.stats);
    return true;
}

} // namespace draco::lifecycle
