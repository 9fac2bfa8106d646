/**
 * @file
 * Epoch-versioned tenant policies — live profile hot-swap.
 *
 * Draco ties every cached verdict in the VAT to the filter that
 * produced it, so replacing a tenant's seccomp profile must atomically
 * retire that state or the service serves stale (wrong) verdicts. This
 * subsystem makes the binding explicit: a PolicyEpoch pairs one shared
 * compiled policy (content-interned by lifecycle::PolicyStore, so
 * swapping back to a previous profile reuses the compile) with a
 * monotonically increasing per-tenant epoch id, and an EpochSlot is the
 * RCU-style publication point one tenant's epochs rotate through.
 *
 * The swap discipline mirrors read-copy-update: the requester prepares
 * the new epoch off to the side (compile + intern, no worker involved),
 * then the tenant's owning shard worker publishes it at an item
 * boundary in its FIFO — never mid-batch — and rebuilds the VAT/SPT
 * namespace cold in the same step. In-flight requests admitted before
 * the swap point therefore complete under the epoch they were admitted
 * on, requests after it under the new one, and the verdict stream is
 * exactly "old policy up to the swap point, new policy after" at any
 * shard or thread count. The retired CompiledPolicy stays alive for as
 * long as anything still references it (shared_ptr), which is the RCU
 * grace period in miniature.
 *
 * Readers on the hot path never touch the slot mutex: the current
 * epoch id is mirrored in an atomic, and the checker itself holds the
 * policy shared_ptr — so with no swap in flight the added cost per
 * checked batch is one relaxed load.
 */

#ifndef DRACO_POLICY_EPOCH_HH
#define DRACO_POLICY_EPOCH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/software.hh"
#include "lifecycle/policy_store.hh"
#include "support/metrics.hh"

namespace draco::policy {

/**
 * One policy generation of one tenant: a shared compiled policy plus
 * the monotonically increasing epoch id it was published under.
 * Immutable once published; retired epochs stay valid while anything
 * (an in-flight batch, a pinning reader) still holds the shared_ptr.
 */
struct PolicyEpoch {
    /** 1 for the creation policy, +1 per swap. Never reused. */
    uint64_t epoch = 0;

    /** The interned compile this epoch serves verdicts from. */
    std::shared_ptr<const core::CompiledPolicy> policy;
};

/**
 * Per-tenant RCU-style publication slot (see file comment).
 *
 * install() seeds epoch 1 at tenant creation; publish() rotates in the
 * next epoch (called only on the tenant's owning shard worker, at an
 * item boundary); pin() hands any thread a consistent snapshot of the
 * current epoch; epoch() is the lock-free id mirror the hot path and
 * stats exporters read.
 */
class EpochSlot
{
  public:
    EpochSlot() = default;
    EpochSlot(const EpochSlot &) = delete;
    EpochSlot &operator=(const EpochSlot &) = delete;

    /**
     * Seed the slot with the creation policy as epoch 1.
     *
     * @return The installed epoch.
     */
    std::shared_ptr<const PolicyEpoch>
    install(std::shared_ptr<const core::CompiledPolicy> policy);

    /**
     * Publish @p policy as the next epoch (current + 1) and return it.
     * The caller is responsible for rebuilding any cached state (VAT,
     * SPT) that was keyed to the previous epoch — publication and
     * invalidation must happen at the same FIFO boundary.
     */
    std::shared_ptr<const PolicyEpoch>
    publish(std::shared_ptr<const core::CompiledPolicy> policy);

    /**
     * @return A consistent (epoch id, policy) snapshot; the caller may
     *         hold it across arbitrary work — retired epochs outlive
     *         their retirement for as long as someone pins them.
     */
    std::shared_ptr<const PolicyEpoch> pin() const;

    /** @return The current epoch id (0 before install), lock-free. */
    uint64_t epoch() const
    {
        return _epoch.load(std::memory_order_acquire);
    }

    /** @return Swaps published so far (epochs beyond the first). */
    uint64_t swaps() const
    {
        uint64_t e = epoch();
        return e > 1 ? e - 1 : 0;
    }

  private:
    mutable std::mutex _mutex;   ///< Guards _current.
    std::shared_ptr<const PolicyEpoch> _current;
    std::atomic<uint64_t> _epoch{0}; ///< Lock-free id mirror.
};

/**
 * Service-wide policy authority: owns the content-addressed
 * PolicyStore every epoch's compile is interned through, and the
 * `policy.*` counters the swap plane exports. All counters are
 * atomics, so the service's metric export may read them while
 * traffic is in flight.
 */
class EpochManager
{
  public:
    /** Compile-or-share @p profile through the interning store. */
    std::shared_ptr<const core::CompiledPolicy>
    intern(const seccomp::Profile &profile)
    {
        return _store.intern(profile);
    }

    /** @return The backing content-addressed policy store. */
    lifecycle::PolicyStore &store() { return _store; }
    const lifecycle::PolicyStore &store() const { return _store; }

    /** Count one published swap that produced epoch @p newEpoch. */
    void countSwap(uint64_t newEpoch);

    /**
     * Count a tenant serving epoch @p epoch: a swap's new epoch, or a
     * new tenant's epoch 1, so maxEpoch() reads 1 on a fresh fleet.
     */
    void countEpoch(uint64_t epoch);

    /** Count a swap rejected before publication. */
    void countSwapFailure()
    {
        _swapFailures.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Count a `.dtss` snapshot discarded at restore because it was
     * taken under a policy the tenant no longer runs.
     */
    void countStaleSnapshotDiscard()
    {
        _staleDiscards.fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t swaps() const
    {
        return _swaps.load(std::memory_order_relaxed);
    }

    uint64_t swapFailures() const
    {
        return _swapFailures.load(std::memory_order_relaxed);
    }

    uint64_t staleSnapshotDiscards() const
    {
        return _staleDiscards.load(std::memory_order_relaxed);
    }

    /** @return The highest epoch id any tenant has reached. */
    uint64_t maxEpoch() const
    {
        return _maxEpoch.load(std::memory_order_relaxed);
    }

    /**
     * Export `<prefix>.{swaps,swap_failures,stale_snapshot_discards,
     * max_epoch}`. Atomics only — safe on a live service.
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

  private:
    lifecycle::PolicyStore _store;
    std::atomic<uint64_t> _swaps{0};
    std::atomic<uint64_t> _swapFailures{0};
    std::atomic<uint64_t> _staleDiscards{0};
    std::atomic<uint64_t> _maxEpoch{0};
};

} // namespace draco::policy

#endif // DRACO_POLICY_EPOCH_HH
