/**
 * @file
 * Public types of the syscall-check serving subsystem.
 *
 * `dracod` turns the per-process software checker (§V-C) into a
 * long-lived multi-tenant service: each tenant is one confined process
 * — a seccomp profile plus its SPT/VAT state — pinned to one of N
 * shards, and clients submit batches of syscall requests that come back
 * as verdicts. The vocabulary here (statuses, per-tenant options and
 * stats, service knobs) is shared by the in-process client, the wire
 * protocol, and the tools.
 */

#ifndef DRACO_SERVE_TYPES_HH
#define DRACO_SERVE_TYPES_HH

#include <cstdint>
#include <string>

#include "core/software.hh"
#include "os/seccomp_abi.hh"

namespace draco::obs {
class TraceSession;
} // namespace draco::obs

namespace draco::lifecycle {
class SnapshotStore;
} // namespace draco::lifecycle

namespace draco::serve {

/** Dense tenant handle; 0 is never a valid tenant. */
using TenantId = uint32_t;

/** The "no such tenant" sentinel. */
inline constexpr TenantId kInvalidTenant = 0;

/** Outcome of one served check request. */
enum class CheckStatus : uint8_t {
    Allowed,      ///< Checked; the profile allows the call.
    Denied,       ///< Checked; the profile denies the call.
    Overloaded,   ///< Shed by admission control; retry after the hint.
    UnknownTenant,///< No such (or already evicted) tenant.
    ShuttingDown, ///< Service is stopping; no new work accepted.
};

/** @return Stable lowercase name of @p status. */
const char *checkStatusName(CheckStatus status);

/** One served verdict. */
struct CheckResponse {
    CheckStatus status = CheckStatus::ShuttingDown;

    /** core::SwPath taken (valid for Allowed/Denied only). */
    uint8_t path = 0;

    /**
     * Policy epoch the verdict was produced under (1 = the creation
     * profile, +1 per live swap; 0 for shed requests, which never
     * reached a checker). Lets a client driving UpdateProfile confirm
     * exactly where in its request stream the swap boundary landed.
     */
    uint64_t epoch = 0;

    /**
     * Backpressure hint for Overloaded responses: microseconds the
     * client should wait before retrying, estimated from the rejecting
     * shard's queue depth and recent per-check service time.
     */
    uint32_t retryAfterUs = 0;
};

/** Per-tenant knobs fixed at creation. */
struct TenantOptions {
    /** Attached filter copies (2 models syscall-complete-2x). */
    unsigned filterCopies = 1;

    /**
     * Admission cap: at most this many of the tenant's requests may be
     * queued or in service at once. Submits beyond it are rejected with
     * Overloaded and attributed to this tenant, so one flooding tenant
     * sheds its own excess instead of filling the shard queue ahead of
     * its neighbours.
     */
    uint32_t maxInFlight = 1024;
};

/** Point-in-time snapshot of one tenant (FIFO-ordered, see service). */
struct TenantStats {
    std::string name;
    TenantId id = kInvalidTenant;
    uint32_t shard = 0;
    bool evicted = false;

    /** Requests that went through the checker. */
    core::SwCheckStats check;

    uint64_t allowed = 0;  ///< Verdicts that permitted the call.
    uint64_t denied = 0;   ///< Verdicts that denied the call.
    uint64_t rejects = 0;  ///< Requests shed by admission control.

    uint64_t epoch = 0;    ///< Current policy epoch (1 = creation).
    uint64_t swaps = 0;    ///< Profile swaps published for this tenant.
};

/** Service-wide configuration. */
struct ServiceOptions {
    /** Shard (worker thread) count; tenants are spread id mod shards. */
    unsigned shards = 1;

    /**
     * Bounded per-shard queue capacity in *requests*. A submit that
     * would exceed it is rejected with Overloaded instead of blocking,
     * so memory stays bounded no matter how fast clients push.
     */
    uint32_t queueCapacity = 4096;

    /**
     * Max requests drained per worker wakeup. Draining a batch under
     * one lock acquisition amortizes queue and metrics cost across the
     * batch; 1 disables batching (one lock round-trip per item).
     */
    uint32_t maxBatch = 64;

    /** Most tenants the service will ever hold (slots preallocate). */
    uint32_t maxTenants = 4096;

    /**
     * Observability session for per-shard telemetry (queue depth, batch
     * size, rejects, resident tenants), sampled after drains and
     * timestamped in wall ns since the service started, so timelines
     * differ run to run; nullptr disables. Tracks are named
     * `serve/shard<i>`.
     */
    obs::TraceSession *session = nullptr;

    /**
     * Resident-tenant budget across the service; 0 (the default)
     * keeps every tenant resident forever. When set, each shard holds
     * at most ceil(maxResidentTenants / shards) materialized tenants:
     * checkers are built lazily on first request, the coldest tenants
     * past the cap are snapshotted and dropped after each drain, and a
     * snapshotted tenant is restored transparently on its next
     * request.
     */
    uint32_t maxResidentTenants = 0;

    /**
     * Snapshot backend for evicted tenants (not owned; must outlive
     * the service), shared by every shard: dracod `--snapshot-dir`
     * and the tests set it. It receives a `.dtss` file per evicted
     * tenant: the tenant's VAT image behind its name and policy key,
     * under one CRC, which a restore checks and lifecycletool
     * verifies offline. nullptr with a resident cap set keeps each
     * evicted tenant's bare VAT image (lifecycle::encodeVatImage: its
     * VAT state under one CRC, a few dozen bytes) in its own tenant
     * slot, which only its shard's drain touches: no lock, no lookup.
     */
    lifecycle::SnapshotStore *snapshotStore = nullptr;
};

/** Point-in-time service-wide counters (the control-plane stats op). */
struct ServiceStatsSnapshot {
    uint64_t tenants = 0;        ///< Tenants ever created.
    uint64_t resident = 0;       ///< Tenants currently materialized.
    uint64_t snapshotted = 0;    ///< Tenants currently evicted to store.
    uint64_t evictions = 0;      ///< Cold-tenant snapshot+drops.
    uint64_t restores = 0;       ///< Snapshot restores served.
    uint64_t restoreFailures = 0;///< Restores that failed closed.
    uint64_t snapshotPutFailures = 0; ///< Evictions aborted on store put.
    uint64_t dedupPolicies = 0;  ///< Distinct compiled policies held.
    uint64_t dedupHits = 0;      ///< Tenant creates served by a shared policy.
    /**
     * Snapshot bytes written at eviction and read back by restores:
     * VAT-image bytes without an injected store, `.dtss` bytes with
     * one. A stale or failed restore reads none.
     */
    uint64_t snapshotBytesWritten = 0;
    uint64_t snapshotBytesRead = 0;    ///< See snapshotBytesWritten.
    uint64_t storeBytes = 0;     ///< Snapshot bytes held right now.
    uint64_t checks = 0;         ///< Requests checked (not shed).
    uint64_t rejects = 0;        ///< Requests shed by admission control.

    uint64_t policySwaps = 0;        ///< Live profile swaps published.
    uint64_t policySwapFailures = 0; ///< Swaps rejected pre-publication.
    uint64_t staleSnapshotDiscards = 0; ///< Snapshots dropped, stale epoch.
    uint64_t maxEpoch = 0;           ///< Highest epoch any tenant reached.
};

} // namespace draco::serve

#endif // DRACO_SERVE_TYPES_HH
