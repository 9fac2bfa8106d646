/**
 * @file
 * The dracod check-serving engine.
 *
 * A CheckService owns N shards, each a worker thread with a bounded
 * MPSC queue of submitted batches. Every tenant — one confined process:
 * a seccomp profile plus its private SPT/VAT state — is pinned to the
 * shard `(id - 1) % shards`, so all of a tenant's requests are checked
 * by exactly one thread, in submission order. That single-writer
 * discipline is what makes the service deterministic: per-tenant
 * verdict streams (and therefore verdict counts) are byte-identical at
 * any shard count, because VAT state is only ever mutated by the one
 * thread that owns it and sees the tenant's requests FIFO.
 *
 * Admission control is explicit and two-level. A submit first charges
 * the tenant's in-flight cap (excess is shed as Overloaded and
 * *attributed to that tenant*, so a flooder rejects its own traffic,
 * not its neighbours'), then the shard queue's request capacity (shed
 * as Overloaded with a retry-after hint derived from queue depth times
 * the shard's recent measured drain time per check). Nothing ever
 * blocks a producer and queue memory is strictly bounded.
 *
 * Workers drain up to maxBatch requests per wakeup so queue-lock and
 * telemetry costs amortize across a batch. Each drain reads the wall
 * clock twice — as it starts and after its eviction pass — and that
 * measured drain time is the shard's only clock: it feeds the
 * retry-hint EWMA and timestamps the per-shard telemetry tracks.
 * Verdicts never depend on it.
 */

#ifndef DRACO_SERVE_SERVICE_HH
#define DRACO_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/software.hh"
#include "lifecycle/resident_lru.hh"
#include "policy/epoch.hh"
#include "seccomp/profile.hh"
#include "serve/types.hh"
#include "support/metrics.hh"
#include "support/threadpool.hh"

namespace draco::obs {
class Tracer;
struct StageRecord;
} // namespace draco::obs

namespace draco::serve {

/**
 * Completion handle for one submitted batch of requests.
 *
 * The submitter arms it with the request count, the service completes
 * requests as they resolve (immediately for shed ones, on the shard
 * worker for checked ones), and the submitter either wait()s or
 * registers a callback to pipeline completions (the socket frontend
 * does the latter). A Batch may carry several submits before wait().
 */
class Batch
{
  public:
    Batch() = default;
    Batch(const Batch &) = delete;
    Batch &operator=(const Batch &) = delete;

    /** Block until every armed request has completed. */
    void wait();

    /** @return true when nothing armed is still outstanding. */
    bool done() const { return _outstanding.load() == 0; }

    /**
     * Register a one-shot callback invoked when the outstanding count
     * hits zero. Must be set before the triggering submit; runs on the
     * completing thread (a shard worker, or the submitter itself when
     * the whole batch was shed at admission).
     */
    void onComplete(std::function<void()> callback);

  private:
    friend class CheckService;

    void arm(uint32_t n);
    void complete(uint32_t n);

    std::atomic<uint32_t> _outstanding{0};
    mutable std::mutex _mutex;
    std::condition_variable _cv;
    std::function<void()> _callback;
};

/**
 * Multi-tenant sharded syscall-check service (see file comment).
 */
class CheckService
{
  public:
    explicit CheckService(const ServiceOptions &options = {});

    /** Calls stop(). */
    ~CheckService();

    CheckService(const CheckService &) = delete;
    CheckService &operator=(const CheckService &) = delete;

    // ---- tenant lifecycle ----

    /**
     * Create (or look up) the tenant named @p name.
     *
     * Creation is idempotent by name: a second create with the name of
     * a live tenant returns the existing id and ignores the arguments,
     * so a reconnecting client can re-issue its creates safely.
     *
     * @return The tenant's id, or kInvalidTenant when the service is
     *         stopping or the tenant table is full.
     */
    TenantId createTenant(const std::string &name,
                          const seccomp::Profile &profile,
                          const TenantOptions &tenantOptions = {});

    /** @return The live tenant named @p name, or kInvalidTenant. */
    TenantId findTenant(const std::string &name) const;

    /**
     * Replace tenant @p id's profile under live traffic.
     *
     * The new policy is compiled (or shared via the content-addressed
     * intern) on the calling thread, then published by the tenant's
     * owning shard worker at an item boundary in its FIFO — RCU-style:
     * requests submitted before this call complete under the old
     * epoch, requests after it under the new one, and the swap never
     * lands mid-batch. Publication rebuilds the tenant's VAT+SPT
     * namespace cold (cumulative counters survive), so no verdict
     * cached under the old policy outlives it. Blocks until the
     * worker has published.
     *
     * @param epochOut Receives the newly serving epoch id when set.
     * @return false when @p id is unknown/evicted or the service is
     *         stopping (nothing was published).
     */
    bool swapProfile(TenantId id, const seccomp::Profile &profile,
                     uint64_t *epochOut = nullptr);

    /**
     * Evict tenant @p id: new submits reject with UnknownTenant
     * immediately; requests already queued still check (they precede
     * the eviction in the shard's FIFO), then the tenant's checker —
     * its SPT/VAT state — is destroyed on the owning worker. Counters
     * survive for stats and metrics export.
     *
     * @return false when @p id was unknown or already evicted.
     */
    bool evictTenant(TenantId id);

    /**
     * Snapshot tenant @p id's stats. The snapshot is taken *on the
     * owning shard worker*, FIFO-ordered with the tenant's checks: it
     * reflects exactly the requests submitted before this call.
     *
     * @return false when @p id is unknown (evicted tenants still
     *         report, flagged evicted).
     */
    bool tenantStats(TenantId id, TenantStats &out);

    // ---- checking ----

    /**
     * Submit @p count requests for tenant @p id. Never blocks: every
     * request either enters the owning shard's queue or completes
     * immediately with Overloaded / UnknownTenant / ShuttingDown.
     * Responses land in @p resps (same index as the request) and
     * @p batch is completed as they resolve. @p reqs and @p resps must
     * stay valid until the batch completes.
     *
     * @param obsRec Optional latency-pipeline record. When set, the
     *        submit stamps enqueueNs (and the resolved shard), the
     *        owning worker stamps drainStartNs / checkDoneNs and the
     *        verdict counts, and the record stays writable until
     *        @p batch completes. Null adds no clock reads beyond the
     *        worker's two per drain. Observability never alters
     *        verdicts.
     */
    void submitBatch(TenantId id, const os::SyscallRequest *reqs,
                     uint32_t count, CheckResponse *resps, Batch &batch,
                     obs::StageRecord *obsRec = nullptr);

    /** Convenience: submit one request and wait for its verdict. */
    CheckResponse check(TenantId id, const os::SyscallRequest &req);

    // ---- lifecycle ----

    /**
     * Stop serving: new submits complete with ShuttingDown, queued work
     * drains, workers join. Idempotent.
     */
    void stop();

    /** @return true once stop() has begun. */
    bool stopping() const { return _stopping.load(); }

    // ---- inspection ----

    unsigned shards() const
    {
        return static_cast<unsigned>(_shards.size());
    }

    const ServiceOptions &options() const { return _options; }

    /** @return Requests checked (not shed), across all shards. */
    uint64_t totalChecks() const;

    /** @return Requests shed by admission control, across all shards. */
    uint64_t totalRejects() const;

    /** @return true when a resident-tenant cap governs this service. */
    bool lifecycleEnabled() const { return _shardResidentCap != 0; }

    /** @return Materialized (checker-holding) tenants right now. */
    uint32_t residentTenants() const;

    /** Fill @p out with the service-wide control-plane counters. */
    void serviceStats(ServiceStatsSnapshot &out) const;

    /**
     * Export the `serve.*` metric block under @p prefix: service totals,
     * per-shard counters (`<prefix>.shards.s<i>.*`) and per-tenant
     * counters (`<prefix>.tenants.<name>.*`). Call on a quiesced
     * service (after stop(), or with no traffic in flight).
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix = "serve") const;

    /**
     * Export a scrape-safe metric subset under @p prefix while traffic
     * is in flight: unlike exportMetrics(), this reads only atomics
     * and cross-thread mirrors, so the `/metrics` endpoint can call it
     * on a live service without racing the shard workers.
     */
    void exportLiveMetrics(MetricRegistry &registry,
                           const std::string &prefix = "serve.live")
        const;

  private:
    /** What one queued item asks of the worker. */
    enum class Op : uint8_t {
        Check, ///< Run `count` requests through the tenant's checker.
        Stats, ///< Snapshot the tenant into `statsOut`.
        Evict, ///< Destroy the tenant's checker state.
        Swap,  ///< Publish `swapPolicy` as the tenant's next epoch.
    };

    struct TenantState {
        std::string name;
        TenantId id = kInvalidTenant;
        uint32_t shard = 0;
        TenantOptions opts;

        /**
         * The tenant's policy epochs: epoch 1 is installed at create,
         * each live swap publishes the next. Publication happens only
         * on the owning shard worker (or at create, before the worker
         * can see the tenant), so the checker below — rebuilt in the
         * same FIFO step — always matches the current epoch.
         */
        policy::EpochSlot epochs;

        /**
         * Mutable per-tenant state (VAT + counters). Built eagerly at
         * create when no resident cap governs the service; under a
         * cap it is materialized lazily on the owning worker and may
         * be dropped (after snapshotting) between requests.
         */
        std::unique_ptr<core::DracoSoftwareChecker> checker;

        std::atomic<bool> evicted{false};
        std::atomic<uint32_t> inFlight{0};
        std::atomic<uint64_t> rejects{0};

        // Owned by the shard worker (single writer).
        uint64_t allowed = 0;
        uint64_t denied = 0;
        uint64_t swaps = 0; ///< Epochs published beyond the first.
        bool hasSnapshot = false; ///< A `.dtss` awaits in the store.
        core::SwCheckStats frozenStats; ///< Stats while snapshotted.
    };

    struct Item {
        Op op = Op::Check;
        TenantState *tenant = nullptr;
        const os::SyscallRequest *reqs = nullptr;
        CheckResponse *resps = nullptr;
        uint32_t count = 0;
        Batch *batch = nullptr;
        TenantStats *statsOut = nullptr;
        obs::StageRecord *rec = nullptr; ///< Latency record, optional.

        /** Swap payload: the pre-compiled next-epoch policy. */
        std::shared_ptr<const core::CompiledPolicy> swapPolicy;
        uint64_t *epochOut = nullptr; ///< Receives the published epoch.
    };

    struct Shard {
        std::mutex mutex;
        std::condition_variable wake;
        std::deque<Item> queue;       ///< Guarded by mutex.
        uint32_t queuedRequests = 0;  ///< Requests in queue (guarded).
        uint64_t queueFullRejects = 0;///< Shed at capacity (guarded).
        RunningStat depthStat;        ///< Depth at enqueue (guarded).

        std::atomic<uint32_t> depth{0};     ///< Telemetry mirror.
        std::atomic<uint64_t> rejects{0};   ///< All sheds, any cause.
        std::atomic<uint32_t> lastBatch{0}; ///< Last drain size.

        /** EWMA of measured drain ns per checked request (retry hints). */
        std::atomic<double> ewmaCheckNs{100.0};

        // Owned by the shard worker (single writer).
        uint64_t processed = 0;  ///< Requests checked.
        uint64_t drains = 0;     ///< Worker wakeups that took work.
        RunningStat batchStat;   ///< Requests per drain.
        uint32_t peakDepth = 0;  ///< Deepest queue seen at enqueue.
        lifecycle::ResidentLru lru; ///< Resident tenants, LRU order.

        /** Cross-thread mirrors of worker-owned lifecycle state. */
        std::atomic<uint32_t> resident{0};
        std::atomic<uint64_t> processedMirror{0};

        /** Telemetry track, clocked in wall ns since service start. */
        obs::Tracer *tracer = nullptr;
    };

    TenantState *tenant(TenantId id) const;
    uint32_t retryAfterUs(const Shard &shard) const;
    void shed(TenantState *t, CheckResponse *resps, uint32_t count,
              Batch &batch, CheckStatus status, uint32_t retryUs);
    bool enqueue(Shard &shard, Item item);
    void shardLoop(size_t index);
    void process(Shard &shard, std::vector<Item> &items);
    void snapshotTenant(const TenantState &t, TenantStats &out) const;

    /**
     * Build tenant @p t's checker on its owning worker, replaying its
     * `.dtss` snapshot when one exists. A failed restore falls back
     * closed: the checker rebuilds fresh from the shared policy (cold
     * VAT, correct verdicts) and the failure is counted.
     */
    void materializeChecker(Shard &shard, TenantState &t);

    /**
     * Post-drain eviction hook: while the shard is over its resident
     * budget, serialize the LRU-coldest tenant to the snapshot store
     * and drop its checker. A failed store put keeps the victim
     * resident (re-touched hottest) rather than dropping state.
     */
    void enforceResidentCap(Shard &shard);

    ServiceOptions _options;
    const uint64_t _startNs; ///< Origin of the shard telemetry clock.

    std::vector<std::unique_ptr<Shard>> _shards;

    /** Slot i holds tenant id i+1; slots are never reused. */
    std::vector<std::shared_ptr<TenantState>> _tenants;
    std::atomic<uint32_t> _tenantCount{0};
    mutable std::mutex _tenantMutex; ///< Serializes createTenant().

    /** Live tenant name → id (guarded by _tenantMutex); entries are
     * erased on evict so a name can be re-created, and the index
     * keeps createTenant O(1) at million-tenant scale. */
    std::unordered_map<std::string, TenantId> _nameIndex;

    // ---- policy epochs (see src/policy/) ----
    policy::EpochManager _epochs;

    // ---- lifecycle (see src/lifecycle/) ----
    std::unique_ptr<lifecycle::SnapshotStore> _ownedStore;
    lifecycle::SnapshotStore *_store = nullptr;
    uint32_t _shardResidentCap = 0; ///< Per-shard budget; 0 = unbounded.

    std::atomic<uint32_t> _snapshotted{0};
    std::atomic<uint64_t> _evictions{0};
    std::atomic<uint64_t> _restores{0};
    std::atomic<uint64_t> _restoreFailures{0};
    std::atomic<uint64_t> _snapshotPutFailures{0};
    std::atomic<uint64_t> _snapshotBytesWritten{0};
    std::atomic<uint64_t> _snapshotBytesRead{0};

    std::atomic<bool> _stopping{false};
    support::ThreadPool _pool;
};

} // namespace draco::serve

#endif // DRACO_SERVE_SERVICE_HH
