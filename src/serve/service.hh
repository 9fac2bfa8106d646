/**
 * @file
 * The dracod check-serving engine.
 *
 * A CheckService owns N shards, each a worker thread with a bounded
 * MPSC queue of submitted batches. Every tenant — one confined process:
 * a seccomp profile plus its private SPT/VAT state — is pinned to the
 * shard `(id - 1) % shards`, so all of a tenant's requests are checked
 * one thread at a time, in submission order, by whichever thread holds
 * the shard's busy flag: normally its worker, and for a submit that
 * asks for it (DrainOn::CallerIfIdle) on an idle shard with an empty
 * queue, the submitting thread itself. That single-writer discipline
 * is what makes the service deterministic: per-tenant verdict streams
 * (and therefore verdict counts) are byte-identical at any shard
 * count, because VAT state is only ever mutated by the one thread
 * inside the shard's drain and that drain sees the tenant's requests
 * FIFO.
 *
 * Admission control is explicit and two-level. A submit first charges
 * the tenant's in-flight cap (excess is shed as Overloaded and
 * *attributed to that tenant*, so a flooder rejects its own traffic,
 * not its neighbours'), then the shard queue's request capacity (shed
 * as Overloaded with a retry-after hint derived from queue depth times
 * the shard's recent measured drain time per check). Nothing ever
 * blocks a producer and queue memory is strictly bounded.
 *
 * Under a resident cap, a tenant's evictions and restores run in its
 * shard's drain too, and a switch touches only memory that drain
 * owns: the shard's resident list is threaded through the tenant
 * slots by id, an evicted tenant's VAT image waits in its own slot
 * (unless a snapshot store is injected, which gets `.dtss` files),
 * and each shard keeps its own lifecycle counters.
 *
 * Workers drain up to maxBatch requests per wakeup so queue-lock and
 * telemetry costs amortize across a batch. A caller that runs its own
 * batch runs the same drain, process(), on one item, and skips the
 * queue handoff and the worker wakeup. Each drain reads the wall
 * clock twice — as it starts and after its eviction pass — and that
 * measured drain time is the shard's only clock: it feeds the
 * retry-hint EWMA and timestamps the per-shard telemetry tracks.
 * Verdicts never depend on it.
 */

#ifndef DRACO_SERVE_SERVICE_HH
#define DRACO_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/software.hh"
#include "policy/epoch.hh"
#include "seccomp/profile.hh"
#include "serve/types.hh"
#include "support/metrics.hh"
#include "support/ring.hh"
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
 * requests as they resolve (immediately for shed ones, in the shard's
 * drain for checked ones), and the submitter either wait()s or
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
     * completing thread: a shard worker, or the submitter itself,
     * inside submitBatch(), when the whole batch was shed at admission
     * or the submitter ran the drain (DrainOn::CallerIfIdle). The
     * callback therefore must never wait on the service — no wait() on
     * another Batch, no check(), no control op: it may run while its
     * thread holds the shard's drain.
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

/** Which thread may run a submitted batch's drain (see submitBatch). */
enum class DrainOn : uint8_t {
    /** Always queue to the shard worker. */
    Worker,
    /**
     * Run the drain on the submitting thread when the shard is idle
     * and its queue is empty; otherwise queue as Worker does.
     */
    CallerIfIdle,
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
     *        drain stamps drainStartNs / checkDoneNs and the verdict
     *        counts, and the record stays writable until @p batch
     *        completes. Null adds no clock reads beyond the drain's
     *        two. Observability never alters verdicts.
     * @param drainOn CallerIfIdle lets this call run the shard's drain
     *        itself when the shard is idle with an empty queue, so the
     *        batch completes (and its callback runs) before the call
     *        returns. Admission is the same either way. Callers that
     *        block on the verdict anyway set it; asynchronous
     *        submitters keep Worker, so their batches spread over the
     *        shard workers.
     */
    void submitBatch(TenantId id, const os::SyscallRequest *reqs,
                     uint32_t count, CheckResponse *resps, Batch &batch,
                     obs::StageRecord *obsRec = nullptr,
                     DrainOn drainOn = DrainOn::Worker);

    /**
     * Convenience: submit one request and wait for its verdict. Runs
     * the drain on the calling thread when the shard is idle.
     */
    CheckResponse check(TenantId id, const os::SyscallRequest &req);

    // ---- lifecycle ----

    /**
     * Stop serving: new submits complete with ShuttingDown, queued work
     * drains, workers join. Returns only after every thread running a
     * drain has released its shard. Idempotent.
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
     * Export the service's metric block under @p prefix: service
     * totals, per-shard counters and gauges (`<prefix>.shards.s<i>.*`),
     * the lifecycle and policy planes, and, once stop() has returned,
     * per-tenant counters keyed by id (`<prefix>.tenants.t<id>.*`).
     * Safe to call at any time, traffic in flight included: it reads
     * the shards' atomics, copies their guarded fields under the shard
     * mutex, and reads tenant slots only after the drains have joined.
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix = "serve") const;

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
         * in the owning shard's drain (or at create, before any drain
         * can see the tenant), so the checker below — rebuilt in the
         * same FIFO step — always matches the current epoch.
         */
        policy::EpochSlot epochs;

        /**
         * Mutable per-tenant state (VAT + counters). Built eagerly at
         * create when no resident cap governs the service; under a
         * cap it is materialized lazily in the owning shard's drain
         * and may be dropped (after snapshotting) between requests.
         */
        std::unique_ptr<core::DracoSoftwareChecker> checker;

        std::atomic<bool> evicted{false};
        /**
         * A snapshot awaits: a VAT image in `snapshot` below, or a
         * `.dtss` in the injected store. Drain-owned like the fields
         * below; it and `snapshotStale` sit here to fill `evicted`'s
         * padding.
         */
        bool hasSnapshot = false;
        /**
         * A swap published a new epoch while the tenant sat
         * snapshotted: the snapshot caches a retired epoch's verdicts
         * (even when a later swap brought the same policy back), so
         * the next materialize discards it without decoding it.
         */
        bool snapshotStale = false;
        std::atomic<uint32_t> inFlight{0};
        std::atomic<uint64_t> rejects{0};

        /** Epochs published beyond the first (drain-owned). */
        uint64_t swaps = 0;

        /**
         * Neighbours in the shard's resident list (kInvalidTenant at
         * either end, and while not resident). Ids, not pointers: a
         * neighbour resolves through its slot, and slots live as long
         * as the service.
         */
        TenantId colder = kInvalidTenant;
        TenantId hotter = kInvalidTenant;

        /**
         * Without an injected store, the evicted tenant's VAT image
         * (lifecycle::encodeVatImage): its VAT eviction count and
         * tables under one CRC. The check counters are `frozenStats`,
         * and the tenant's current epoch names the policy.
         */
        std::unique_ptr<std::vector<uint8_t>> snapshot;

        /**
         * The check counters while the tenant holds no checker: frozen
         * whenever one is dropped (cap eviction, admin Evict, stop()),
         * and carried into the next one a materialize builds. They are
         * the tenant's only verdict counts: snapshotTenant() derives
         * allowed and denied from them.
         */
        core::SwCheckStats frozenStats;
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
        /**
         * FIFO of admitted items (guarded). A ring that keeps its
         * capacity, so enqueue and drain do not allocate once it has
         * grown to the shard's peak depth (at most queueCapacity
         * items: each charges at least one request).
         */
        Ring<Item> queue;
        uint32_t queuedRequests = 0;  ///< Requests in queue (guarded).
        uint64_t queueFullRejects = 0;///< Shed at capacity (guarded).
        RunningStat depthStat;        ///< Depth at enqueue (guarded).
        uint32_t peakDepth = 0;       ///< Deepest at enqueue (guarded).
        /**
         * Requests checked per drain (guarded): added as the drain's
         * holder lets go of the busy flag, under the mutex it takes
         * then anyway (shardLoop, releaseShard).
         */
        RunningStat batchStat;

        /**
         * Set (guarded) while a thread is inside process() for this
         * shard. The worker pops only while it is clear; a submitter
         * claims it only when the queue is also empty. Claiming and
         * clearing under the mutex orders every drain's writes before
         * the next drain, whichever threads run them.
         */
        bool busy = false;

        std::atomic<uint32_t> depth{0};     ///< Telemetry mirror.
        std::atomic<uint64_t> rejects{0};   ///< All sheds, any cause.
        std::atomic<uint32_t> lastBatch{0}; ///< Last drain size.

        /** EWMA of measured drain ns per checked request (retry hints). */
        std::atomic<double> ewmaCheckNs{100.0};

        /**
         * Drain counters. Only the drain writes them (a relaxed load
         * and store); relaxed atomics so a live scrape can read them.
         */
        std::atomic<uint64_t> processed{0};    ///< Requests checked.
        std::atomic<uint64_t> drains{0};       ///< Drains that took work.
        std::atomic<uint64_t> drainsInline{0}; ///< Of those, by a submitter.

        /**
         * The resident list under a cap (drain-owned): materialized
         * tenants, linked through TenantState::colder/hotter from
         * coldest to hottest.
         */
        TenantId coldest = kInvalidTenant;
        TenantId hottest = kInvalidTenant;
        uint32_t residentCount = 0;

        /**
         * Lifecycle counters. Only the drain writes them; relaxed
         * atomics so a live scrape can sum them (serviceStats()).
         * storeBytes counts the snapshot bytes held in this shard's
         * tenant slots (unused with an injected store).
         */
        std::atomic<uint32_t> snapshotted{0};
        std::atomic<uint64_t> evictions{0};
        std::atomic<uint64_t> restores{0};
        std::atomic<uint64_t> restoreFailures{0};
        std::atomic<uint64_t> snapshotPutFailures{0};
        std::atomic<uint64_t> snapshotBytesWritten{0};
        std::atomic<uint64_t> snapshotBytesRead{0};
        std::atomic<uint64_t> storeBytes{0};

        /**
         * Tenants holding a checker on this shard: under a cap the
         * cross-thread mirror of residentCount; without one, counted
         * at create and at admin eviction, so the shards' gauges sum
         * to residentTenants() either way.
         */
        std::atomic<uint32_t> resident{0};

        /** Telemetry track, clocked in wall ns since service start. */
        obs::Tracer *tracer = nullptr;
    };

    /** What enqueue() did with an item. */
    enum class Admit : uint8_t {
        Shed,    ///< Stopping, or a Check over queue capacity.
        Queued,  ///< In the shard queue; the worker will run it.
        Claimed, ///< The caller holds the shard's drain; run it now.
    };

    TenantState *tenant(TenantId id) const;
    uint32_t retryAfterUs(const Shard &shard) const;
    void shed(TenantState *t, CheckResponse *resps, uint32_t count,
              Batch &batch, CheckStatus status, uint32_t retryUs);
    Admit enqueue(Shard &shard, const Item &item,
                  DrainOn drainOn = DrainOn::Worker);
    void shardLoop(size_t index);

    /**
     * Run one drain over @p items: the shard worker's loop and a
     * submitter holding the shard's busy flag both call this. Batches
     * complete at the end, after the shard counters are updated.
     *
     * @return The requests it checked, for the shard's batchStat.
     */
    uint32_t process(Shard &shard, std::span<Item> items,
                     bool inlineDrain);

    /**
     * End a submitter's drain that checked @p checked requests: count
     * it in batchStat, clear the busy flag, and wake the worker if
     * work or stop waits.
     */
    void releaseShard(Shard &shard, uint32_t checked);
    void snapshotTenant(const TenantState &t, TenantStats &out) const;

    /**
     * Build tenant @p t's checker in its shard's drain, replaying its
     * snapshot (VAT image or `.dtss`) when one exists; the snapshot is
     * consumed whatever the outcome. A snapshot flagged stale by a
     * swap is discarded undecoded, and so is a `.dtss` of another
     * policy; a damaged one, or a `.dtss` naming another tenant,
     * counts as a failure, and the checker is rebuilt fresh from the
     * shared policy (cold VAT, correct verdicts). Every outcome
     * continues from the tenant's frozen counters, as a resident
     * tenant's swap does.
     */
    void materializeChecker(Shard &shard, TenantState &t);

    /**
     * Post-drain eviction hook: while the shard is over its resident
     * budget, encode the coldest resident tenant's VAT image into its
     * slot (or a `.dtss` into the injected store) and drop its
     * checker. A failed store put keeps the victim resident
     * (re-touched hottest) rather than dropping state.
     */
    void enforceResidentCap(Shard &shard);

    /** Move @p t to the hot end of @p shard's resident list. */
    void touchResident(Shard &shard, TenantState &t);

    /** Take @p t off @p shard's resident list, when it is on it. */
    void unlinkResident(Shard &shard, TenantState &t);

    ServiceOptions _options;
    const uint64_t _startNs; ///< Origin of the shard telemetry clock.

    std::vector<std::unique_ptr<Shard>> _shards;

    /**
     * Slot i holds tenant id i+1; slots are never reused or freed
     * while the service lives (the resident lists link through them).
     */
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
    uint32_t _shardResidentCap = 0; ///< Per-shard budget; 0 = unbounded.

    std::atomic<bool> _stopping{false};
    /** Set once stop() has joined every drain and frozen every tenant. */
    std::atomic<bool> _stopped{false};
    support::ThreadPool _pool;
};

} // namespace draco::serve

#endif // DRACO_SERVE_SERVICE_HH
