/**
 * @file
 * Tenant snapshots: the `.dtss` file format and the compact VAT image.
 *
 * A snapshot is the *mutable* half of a tenant's checking state — the
 * lifetime counters and the exact VAT layout — serialized so a cold
 * tenant can be dropped from memory and rebuilt bit-identically on its
 * next request. The immutable half (profile, compiled filter, specs)
 * is NOT stored: the snapshot references it by the policy's programKey
 * and the restorer re-attaches the shared CompiledPolicy.
 *
 * Layout (all little-endian, same binio primitives as `.dtrc`):
 *
 *   "dtss-v1\n"  8-byte magic
 *   u16          format version (kSnapshotVersion)
 *   blocks...    each: u8 type | u32 payloadLen | payload | u64 crc
 *
 * The trailing CRC-64 (ECMA) covers the type byte, the length bytes,
 * and the payload, so a flipped bit anywhere in a block is caught
 * before its contents are trusted. Block types:
 *
 *   Meta  (1): tenant name, policy programKey, filter copies, the
 *              seven SwCheckStats counters, the VAT eviction counter,
 *              and the table count that must follow.
 *   Table (2): sid, bitmask, buckets-per-way, then the table body:
 *              the five CuckooStats counters, the occupied-slot count,
 *              and each occupied slot as (way, index, keyLen, key
 *              bytes) in way-major order — restore places slots
 *              verbatim instead of replaying inserts, so post-restore
 *              displacement behaviour is identical to never having
 *              snapshotted.
 *   End   (3): table count again — a truncated file that still ends
 *              on a block boundary is caught here.
 *
 * A VAT image is what a CheckService keeps in an evicted tenant's own
 * slot when no snapshot store is injected: the VAT eviction counter
 * (varint), one table body per VAT table in the checker's table order,
 * and one CRC-64 (ECMA) over all of it, at the end. It stores nothing
 * the slot and the current policy already imply — no magic, version,
 * name, programKey, sid, bitmask, bucket count, check counters, or
 * per-table framing — so it is only meaningful to the tenant that
 * wrote it, under the policy it was written under.
 *
 * Every decoder is total: malformed input returns false with a
 * diagnostic, never a crash and never a partially-trusted restore.
 * Fail-closed contract: when restore fails the caller rebuilds the
 * checker fresh from the profile — verdicts stay correct (the VAT is
 * only a cache); only the warm-up cost is lost.
 */

#ifndef DRACO_LIFECYCLE_SNAPSHOT_HH
#define DRACO_LIFECYCLE_SNAPSHOT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/software.hh"

namespace draco::lifecycle {

/** `.dtss` file magic. */
inline constexpr char kSnapshotMagic[8] = {'d', 't', 's', 's',
                                           '-', 'v', '1', '\n'};

/** Current format version. */
inline constexpr uint16_t kSnapshotVersion = 1;

/** Block type tags. */
enum class BlockType : uint8_t {
    Meta = 1,
    Table = 2,
    End = 3,
};

/** One structurally-verified block (type + payload, CRC stripped). */
struct RawBlock {
    uint8_t type = 0;
    std::vector<uint8_t> payload;
};

/** Per-table summary reported by inspectSnapshot(). */
struct SnapshotTableInfo {
    uint16_t sid = 0;
    uint64_t bitmask = 0;
    uint64_t buckets = 0; ///< Slots per way.
    uint64_t sets = 0;    ///< Occupied slots serialized.
};

/** Whole-snapshot summary reported by inspectSnapshot(). */
struct SnapshotInfo {
    std::string tenant;
    uint64_t policyKey = 0;
    uint16_t version = 0;
    unsigned filterCopies = 1;
    core::SwCheckStats stats;
    uint64_t vatEvictions = 0;
    std::vector<SnapshotTableInfo> tables;
    size_t bytes = 0; ///< Encoded size.
};

/**
 * Serialize @p checker's restorable state for tenant @p tenant into
 * `.dtss` bytes.
 */
std::vector<uint8_t> encodeSnapshot(
    const std::string &tenant, const core::DracoSoftwareChecker &checker,
    unsigned filterCopies);

/**
 * Structure-level parse: verify magic, version, every block's CRC, and
 * the End terminator. Needs no policy — lifecycletool verifies
 * snapshots it cannot semantically restore.
 *
 * @param blocks Receives the verified blocks (End excluded).
 * @return false (with @p error set) on any malformation.
 */
bool parseSnapshotBlocks(const std::vector<uint8_t> &bytes,
                         std::vector<RawBlock> &blocks,
                         std::string *error);

/**
 * Re-serialize @p blocks into a fresh `.dtss` byte string (header and
 * End block re-emitted) — lifecycletool's compact path rewrites a
 * verified parse, dropping any trailing garbage.
 */
std::vector<uint8_t> serializeSnapshotBlocks(
    const std::vector<RawBlock> &blocks);

/**
 * Summarize a snapshot without restoring it (lifecycletool inspect).
 *
 * @return false (with @p error set) on any malformation.
 */
bool inspectSnapshot(const std::vector<uint8_t> &bytes,
                     SnapshotInfo &info, std::string *error);

/** What applySnapshot() or applyVatImage() made of a snapshot. */
enum class RestoreOutcome : uint8_t {
    Restored, ///< The checker continues from the snapshot.
    /**
     * A structurally valid header and Meta block that reference
     * another policy: the snapshot's VAT encodes verdicts of a retired
     * policy, so it must be discarded, never restored. Decided before
     * any table is placed: the checker is untouched.
     */
    Stale,
    /**
     * Malformed (bad magic, version skew, CRC, truncation), or a
     * tenant, filter-copies or table-shape mismatch. The checker may
     * hold a partial restore.
     */
    Failed,
};

/**
 * Restore @p checker — freshly constructed from the shared policy —
 * from @p bytes, in one pass that verifies each block and applies it
 * before reading the next.
 *
 * The Meta block is checked in this order: its policy key against
 * @p expectPolicyKey first (a mismatch is Stale, whatever tenant the
 * snapshot names), then the tenant name and the filter copies; then
 * each table must agree with the checker's configured tables (bitmask
 * and buckets per sid). On Failed the caller MUST discard and rebuild
 * the checker (fail-closed).
 *
 * @param error Set (when non-null) on Stale and Failed.
 */
RestoreOutcome applySnapshot(const std::vector<uint8_t> &bytes,
                             const std::string &expectTenant,
                             uint64_t expectPolicyKey,
                             unsigned expectFilterCopies,
                             core::DracoSoftwareChecker &checker,
                             std::string *error);

/**
 * applySnapshot() as a yes/no answer.
 *
 * @return true only when the snapshot was Restored (false, with
 *         @p error set, when it was Stale or Failed).
 */
bool restoreSnapshot(const std::vector<uint8_t> &bytes,
                     const std::string &expectTenant,
                     uint64_t expectPolicyKey, unsigned expectFilterCopies,
                     core::DracoSoftwareChecker &checker,
                     std::string *error);

/**
 * Encode @p vat — its eviction counter and every table's body — into a
 * VAT image (see file comment). The caller keeps the check counters
 * and must know which policy configured @p vat.
 */
std::vector<uint8_t> encodeVatImage(const core::Vat &vat);

/**
 * Restore @p vat — freshly configured from the policy @p image was
 * encoded under — from @p image: the CRC is checked before any byte is
 * read, then each table's slots are placed verbatim and its counters
 * replaced, then the eviction counter. An image carries no policy
 * reference, so it is never Stale: telling a retired epoch's image
 * apart is the caller's job.
 *
 * @return Restored, or Failed (with @p error set when non-null) on a
 *         CRC mismatch, a truncated or overlong body, or a slot the
 *         table rejects; on Failed the caller MUST discard @p vat.
 */
RestoreOutcome applyVatImage(std::span<const uint8_t> image, core::Vat &vat,
                             std::string *error);

} // namespace draco::lifecycle

#endif // DRACO_LIFECYCLE_SNAPSHOT_HH
