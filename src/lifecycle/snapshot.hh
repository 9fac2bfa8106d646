/**
 * @file
 * Tenant snapshots: the VAT image, and the `.dtss` file around it.
 *
 * A snapshot is the *mutable* half of a tenant's VAT — every table's
 * exact slot layout and counters, and the VAT eviction count —
 * serialized so a cold tenant can be dropped from memory and rebuilt
 * bit-identically on its next request. The immutable half (profile,
 * compiled filter, specs, and with them every table's sid, bitmask and
 * geometry) is NOT stored: the restorer builds the checker from the
 * shared CompiledPolicy, whose table order the snapshot follows. The
 * check counters are not stored either; the service keeps them in the
 * tenant's slot.
 *
 * A VAT image (encodeVatImage()) is what a CheckService keeps in an
 * evicted tenant's own slot when no snapshot store is injected. All
 * little-endian, with the binio varints of `.dtrc`:
 *
 *   varint       VAT eviction count
 *   table bodies one per VAT table, in the checker's table order: the
 *                five CuckooStats counters, the occupied-slot count,
 *                and each occupied slot as (u8 way, varint index,
 *                u8 keyLen, key bytes) in way-major order — restore
 *                places slots verbatim instead of replaying inserts,
 *                so post-restore displacement behaviour is identical
 *                to never having snapshotted
 *   u64          CRC-64 (ECMA) of every byte before it
 *
 * A `.dtss` file (encodeSnapshot()) is what an injected store gets: the
 * same image body behind a header that ties it to one tenant under one
 * policy, because a file on disk is outside input.
 *
 *   "dtss-v1\n"  8-byte magic (unchanged, so a version-1 file reads as
 *                version skew)
 *   u16          format version (kSnapshotVersion)
 *   u64          the policy's programKey
 *   varint+bytes the tenant name
 *   ...          the image body: eviction count, then the table bodies
 *   u64          CRC-64 (ECMA) of every byte before it
 *
 * Each decoder checks the one CRC before it trusts any field, so every
 * flipped bit, truncation or trailing byte fails (CRC-64 catches every
 * single-bit error; a cut or extended file reads its CRC from the
 * wrong bytes). Every decoder is total: malformed input fails with a
 * diagnostic, never a crash. Fail-closed contract: when a restore
 * fails the caller rebuilds the checker fresh from the profile —
 * verdicts stay correct (the VAT is only a cache); only the warm-up
 * cost is lost.
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

/** Current `.dtss` format version. */
inline constexpr uint16_t kSnapshotVersion = 2;

/** One table body's counters, as inspectSnapshot() reports them. */
struct SnapshotTableInfo {
    CuckooStats stats;
    uint64_t slots = 0; ///< Occupied slots serialized.
};

/** Whole-snapshot summary reported by inspectSnapshot(). */
struct SnapshotInfo {
    std::string tenant;
    uint64_t policyKey = 0;
    uint64_t vatEvictions = 0;
    std::vector<SnapshotTableInfo> tables; ///< In table order.
    size_t bytes = 0;                      ///< Encoded size.
};

/**
 * Serialize @p checker's VAT for tenant @p tenant into `.dtss` bytes,
 * under its policy's programKey.
 *
 * @param filterCopies Ignored: a VAT does not depend on it. Kept so
 *        existing callers compile unchanged.
 */
std::vector<uint8_t> encodeSnapshot(
    const std::string &tenant, const core::DracoSoftwareChecker &checker,
    unsigned filterCopies);

/**
 * Decode a snapshot without restoring it, and without a policy: check
 * the magic, the version and the CRC, then read the header and walk
 * every table body (lifecycletool inspect, verify and prune). The table
 * count is not stored, so the tables are the bodies found.
 *
 * @return false (with @p error set) on any malformation.
 */
bool inspectSnapshot(std::span<const uint8_t> bytes, SnapshotInfo &info,
                     std::string *error);

/** What applySnapshot() or applyVatImage() made of a snapshot. */
enum class RestoreOutcome : uint8_t {
    Restored, ///< The VAT continues from the snapshot.
    /**
     * An intact `.dtss` (magic, version and CRC check out) that names
     * another policy: its VAT encodes verdicts of a retired policy, so
     * it must be discarded, never restored. Decided before any table
     * is placed: the VAT is untouched.
     */
    Stale,
    /**
     * Malformed (bad magic, version skew, CRC, truncation), another
     * tenant's file, or a body that does not fit the VAT's tables. The
     * VAT may hold a partial restore.
     */
    Failed,
};

/**
 * Restore @p vat — freshly configured from the shared policy — from
 * the `.dtss` @p bytes. After the magic, version and CRC, the header is
 * checked in this order: the programKey against @p expectPolicyKey
 * first (a mismatch is Stale, whatever tenant the file names), then
 * the tenant name; then the image body is applied as applyVatImage()
 * applies one. On Failed the caller MUST discard and rebuild the
 * checker (fail-closed).
 *
 * @param error Set (when non-null) on Stale and Failed.
 */
RestoreOutcome applySnapshot(std::span<const uint8_t> bytes,
                             const std::string &expectTenant,
                             uint64_t expectPolicyKey, core::Vat &vat,
                             std::string *error);

/**
 * applySnapshot() into @p checker's VAT, as a yes/no answer. The check
 * counters are not in the file: @p checker keeps its own.
 *
 * @param expectFilterCopies Ignored, as encodeSnapshot()'s is.
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
