/**
 * @file
 * Content-addressed store of compiled policies.
 *
 * In real fleets almost every container runs the identical
 * docker-default seccomp profile (PAPER §II), so compiling and holding
 * one filter chain + SPT template *per tenant* wastes both startup
 * time and resident memory linearly in tenant count. The PolicyStore
 * keys compiled policies by the CRC-64 of the profile's canonical
 * semantic bytes (name excluded — "tenant-000001" and
 * "tenant-999999" on docker-default share one entry), confirms a key
 * match by comparing those bytes, and hands out
 * shared_ptr<const CompiledPolicy> handles: a million tenants on one
 * profile hold exactly one compiled filter and one spec map, shared
 * copy-on-write — the mutable VAT and counters stay per-tenant.
 */

#ifndef DRACO_LIFECYCLE_POLICY_STORE_HH
#define DRACO_LIFECYCLE_POLICY_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/software.hh"
#include "support/metrics.hh"

namespace draco::lifecycle {

/**
 * CRC-64 (ECMA) over the canonical semantic bytes of (@p profile,
 * @p shape): deny value, dispatch shape, and every rule's kind,
 * tuples, and per-argument value sets. Only the profile *name* is
 * left out of the key, so profiles with identical rules under
 * different names share it.
 */
uint64_t profileContentKey(const seccomp::Profile &profile,
                           seccomp::DispatchShape shape);

/**
 * Thread-safe content-addressed policy interner (see file comment).
 */
class PolicyStore
{
  public:
    /**
     * Return the shared compile of (@p profile, @p shape), compiling
     * it on first sight. A repeat intern of semantically identical
     * content returns the existing policy and counts a dedup hit.
     * A key match alone is not trusted: CRC-64 is linear, so distinct
     * profiles can be built to share a key, and only an entry whose
     * canonical bytes are equal is reused.
     */
    std::shared_ptr<const core::CompiledPolicy> intern(
        const seccomp::Profile &profile,
        seccomp::DispatchShape shape = seccomp::DispatchShape::Linear);

    /** @return Distinct policies compiled and held. */
    size_t size() const;

    /** @return Interns served by an existing entry. */
    uint64_t hits() const;

    /** Export `<prefix>.{policies,hits}`. */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Entry {
        std::vector<uint8_t> content; ///< The bytes the key hashes.
        std::shared_ptr<const core::CompiledPolicy> policy;
    };

    mutable std::mutex _mutex;
    std::multimap<uint64_t, Entry> _byContentKey;
    uint64_t _hits = 0;
};

} // namespace draco::lifecycle

#endif // DRACO_LIFECYCLE_POLICY_STORE_HH
