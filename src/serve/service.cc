#include "serve/service.hh"

#include <algorithm>

#include "lifecycle/snapshot.hh"
#include "lifecycle/store.hh"
#include "obs/serveobs.hh"
#include "obs/tracer.hh"
#include "support/logging.hh"

namespace draco::serve {

const char *
checkStatusName(CheckStatus status)
{
    switch (status) {
      case CheckStatus::Allowed: return "allowed";
      case CheckStatus::Denied: return "denied";
      case CheckStatus::Overloaded: return "overloaded";
      case CheckStatus::UnknownTenant: return "unknown-tenant";
      case CheckStatus::ShuttingDown: return "shutting-down";
    }
    return "invalid";
}

// ---- Batch ----

void
Batch::arm(uint32_t n)
{
    _outstanding.fetch_add(n, std::memory_order_acq_rel);
}

void
Batch::complete(uint32_t n)
{
    if (n == 0)
        return;
    std::function<void()> callback;
    {
        // The final decrement must happen under the mutex, and the
        // waiter must observe it under the same mutex: if done()
        // became true before we took the lock, wait() could return
        // and the caller destroy this Batch while we still touch
        // _callback and _cv. With both inside the critical section,
        // the completer's last access is the unlock, which a waiter's
        // lock acquisition synchronizes with before destruction.
        std::lock_guard<std::mutex> lock(_mutex);
        uint32_t before =
            _outstanding.fetch_sub(n, std::memory_order_acq_rel);
        if (before < n)
            panic("Batch: completed %u with only %u outstanding", n, before);
        if (before != n)
            return;
        callback = std::move(_callback);
        _callback = nullptr;
        _cv.notify_all();
    }
    if (callback)
        callback();
}

void
Batch::wait()
{
    // No lock-free fast path: returning on a bare done() load could
    // race a completer still inside its critical section (see
    // complete()). Observing done() under the mutex is what makes it
    // safe to destroy the Batch the moment wait() returns.
    std::unique_lock<std::mutex> lock(_mutex);
    _cv.wait(lock, [this] { return done(); });
}

void
Batch::onComplete(std::function<void()> callback)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _callback = std::move(callback);
}

// ---- CheckService ----

namespace {

/**
 * Most tenants exportMetrics() emits per-tenant counter blocks for —
 * at fleet scale a million tenants would swamp the JSON;
 * `<prefix>.tenants.exported` records how many it emitted.
 */
constexpr uint32_t kTenantMetricsLimit = 1024;

/** Requests an item charges against queue capacity and drain budget. */
uint32_t
itemRequests(uint32_t count, bool isCheck)
{
    return isCheck ? count : 1;
}

/**
 * Add @p n to a counter only the shard's drain writes: a relaxed load
 * and store, no read-modify-write, since the drain is its one writer.
 */
void
bumpDrainCounter(std::atomic<uint64_t> &counter, uint64_t n)
{
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

/** Subtract @p n from a counter only the shard's drain writes. */
void
dropDrainCounter(std::atomic<uint64_t> &counter, uint64_t n)
{
    counter.store(counter.load(std::memory_order_relaxed) - n,
                  std::memory_order_relaxed);
}

} // namespace

CheckService::CheckService(const ServiceOptions &options)
    : _options(options),
      _startNs(obs::nowNs()),
      _pool(std::max(1u, options.shards),
            support::ThreadPool::Spawn::Always)
{
    if (_options.shards == 0)
        _options.shards = 1;
    if (_options.maxBatch == 0)
        _options.maxBatch = 1;
    if (_options.queueCapacity == 0)
        fatal("CheckService: queueCapacity must be positive");
    if (_options.maxTenants == 0)
        fatal("CheckService: maxTenants must be positive");

    if (_options.maxResidentTenants != 0) {
        // Service-wide budget, rounded up per shard so every shard
        // keeps at least one tenant materialized.
        _shardResidentCap = (_options.maxResidentTenants +
                             _options.shards - 1) / _options.shards;
    }

    _tenants.resize(_options.maxTenants);
    _shards.reserve(_options.shards);
    for (unsigned i = 0; i < _options.shards; ++i) {
        auto shard = std::make_unique<Shard>();
        if (_options.session) {
            obs::Tracer *tracer = _options.session->tracer(
                "serve/shard" + std::to_string(i));
            if (tracer) {
                Shard *s = shard.get();
                tracer->addChannel("queue_depth", [s] {
                    return static_cast<double>(s->depth.load());
                });
                tracer->addChannel("batch_size", [s] {
                    return static_cast<double>(s->lastBatch.load());
                });
                tracer->addChannel("rejects", [s] {
                    return static_cast<double>(s->rejects.load());
                });
                tracer->addChannel("resident", [s] {
                    return static_cast<double>(s->resident.load());
                });
            }
            shard->tracer = tracer;
        }
        _shards.push_back(std::move(shard));
    }

    for (unsigned i = 0; i < _options.shards; ++i)
        _pool.submit([this, i] { shardLoop(i); });
}

CheckService::~CheckService()
{
    stop();
}

CheckService::TenantState *
CheckService::tenant(TenantId id) const
{
    uint32_t count = _tenantCount.load(std::memory_order_acquire);
    if (id == kInvalidTenant || id > count)
        return nullptr;
    return _tenants[id - 1].get();
}

TenantId
CheckService::createTenant(const std::string &name,
                           const seccomp::Profile &profile,
                           const TenantOptions &tenantOptions)
{
    if (_stopping.load())
        return kInvalidTenant;
    std::lock_guard<std::mutex> lock(_tenantMutex);
    auto existing = _nameIndex.find(name);
    if (existing != _nameIndex.end())
        return existing->second;
    uint32_t count = _tenantCount.load(std::memory_order_acquire);
    if (count == _options.maxTenants) {
        warn("CheckService: tenant table full (%u), rejecting '%s'",
             _options.maxTenants, name.c_str());
        return kInvalidTenant;
    }

    auto state = std::make_shared<TenantState>();
    state->name = name;
    state->id = count + 1;
    state->shard = count % shards();
    state->opts = tenantOptions;
    if (state->opts.filterCopies == 0)
        state->opts.filterCopies = 1;
    if (state->opts.maxInFlight == 0)
        state->opts.maxInFlight = 1;
    // The compile is interned by content: a million tenants on the
    // same profile share one filter chain and spec map. It seeds the
    // tenant's epoch slot as epoch 1; live swaps publish from there.
    auto epoch = state->epochs.install(_epochs.intern(profile));
    if (!lifecycleEnabled()) {
        // No resident cap: build the mutable half eagerly, as before.
        // Under a cap the owning shard's drain materializes it on the
        // tenant's first request (and may drop it again later).
        state->checker = std::make_unique<core::DracoSoftwareChecker>(
            epoch->policy, state->opts.filterCopies);
    }

    _tenants[count] = std::move(state);
    _nameIndex.emplace(name, count + 1);
    _tenantCount.store(count + 1, std::memory_order_release);
    return count + 1;
}

TenantId
CheckService::findTenant(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_tenantMutex);
    auto it = _nameIndex.find(name);
    return it == _nameIndex.end() ? kInvalidTenant : it->second;
}

uint32_t
CheckService::retryAfterUs(const Shard &shard) const
{
    double perCheckNs = shard.ewmaCheckNs.load(std::memory_order_relaxed);
    double depth = shard.depth.load(std::memory_order_relaxed);
    double us = depth * perCheckNs / 1000.0;
    return static_cast<uint32_t>(std::clamp(us, 1.0, 100000.0));
}

void
CheckService::shed(TenantState *t, CheckResponse *resps, uint32_t count,
                   Batch &batch, CheckStatus status, uint32_t retryUs)
{
    for (uint32_t i = 0; i < count; ++i) {
        resps[i].status = status;
        resps[i].path = 0;
        resps[i].retryAfterUs = retryUs;
        resps[i].epoch = 0;
    }
    if (t && status == CheckStatus::Overloaded)
        t->rejects.fetch_add(count, std::memory_order_relaxed);
    batch.complete(count);
}

CheckService::Admit
CheckService::enqueue(Shard &shard, const Item &item, DrainOn drainOn)
{
    bool isCheck = item.op == Op::Check;
    uint32_t charge = itemRequests(item.count, isCheck);
    bool wakeWorker = false;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (_stopping.load())
            return Admit::Shed;
        // Control items (Stats/Evict) are never shed: the control plane
        // must stay responsive under data-plane overload.
        if (isCheck &&
            shard.queuedRequests + charge > _options.queueCapacity) {
            shard.queueFullRejects += charge;
            shard.rejects.fetch_add(charge, std::memory_order_relaxed);
            return Admit::Shed;
        }
        // An empty queue and a clear busy flag mean every batch
        // admitted before this one has finished its drain, so running
        // this one here keeps the tenant's FIFO order.
        if (drainOn == DrainOn::CallerIfIdle && !shard.busy &&
            shard.queue.empty()) {
            shard.busy = true;
            return Admit::Claimed;
        }
        shard.queue.push_back(item);
        shard.queuedRequests += charge;
        shard.depth.store(shard.queuedRequests,
                          std::memory_order_relaxed);
        shard.peakDepth = std::max(shard.peakDepth, shard.queuedRequests);
        shard.depthStat.add(shard.queuedRequests);
        // A busy holder looks at the queue again before it lets go
        // (shardLoop, releaseShard), so only an idle worker needs a
        // wakeup.
        wakeWorker = !shard.busy;
    }
    if (wakeWorker)
        shard.wake.notify_one();
    return Admit::Queued;
}

void
CheckService::releaseShard(Shard &shard, uint32_t checked)
{
    bool wakeWorker;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.batchStat.add(checked);
        shard.busy = false;
        wakeWorker = !shard.queue.empty() || _stopping.load();
    }
    if (wakeWorker)
        shard.wake.notify_one();
}

void
CheckService::submitBatch(TenantId id, const os::SyscallRequest *reqs,
                          uint32_t count, CheckResponse *resps,
                          Batch &batch, obs::StageRecord *obsRec,
                          DrainOn drainOn)
{
    if (count == 0)
        return;
    batch.arm(count);

    TenantState *t = tenant(id);
    if (obsRec) {
        // Stamp before any shed path: a fully-shed batch completes
        // inline below (running the batch callback on this thread), so
        // the record must already be coherent. Later stamps default to
        // enqueue time so shed records show zero queue/check stages.
        obsRec->enqueueNs = obs::nowNs();
        obsRec->drainStartNs = obsRec->enqueueNs;
        obsRec->checkDoneNs = obsRec->enqueueNs;
        obsRec->batchSize = count;
        obsRec->shard = t ? t->shard : 0;
    }
    if (!t || t->evicted.load()) {
        if (obsRec)
            obsRec->shed = count;
        shed(nullptr, resps, count, batch, CheckStatus::UnknownTenant, 0);
        return;
    }
    if (_stopping.load()) {
        if (obsRec)
            obsRec->shed = count;
        shed(nullptr, resps, count, batch, CheckStatus::ShuttingDown, 0);
        return;
    }

    Shard &shard = *_shards[t->shard];

    // Tenant in-flight cap: a flooder sheds its own excess here and the
    // reject is attributed to it, before it can crowd the shard queue.
    uint32_t before = t->inFlight.fetch_add(count,
                                            std::memory_order_acq_rel);
    if (before + count > t->opts.maxInFlight) {
        t->inFlight.fetch_sub(count, std::memory_order_acq_rel);
        shard.rejects.fetch_add(count, std::memory_order_relaxed);
        if (obsRec)
            obsRec->shed = count;
        logWarnEvery("serve.tenant_cap.s" + std::to_string(t->shard),
                     1000,
                     "CheckService: tenant '%s' over its in-flight cap "
                     "(%u), shedding %u requests", t->name.c_str(),
                     t->opts.maxInFlight, count);
        shed(t, resps, count, batch, CheckStatus::Overloaded,
             retryAfterUs(shard));
        return;
    }

    Item item;
    item.op = Op::Check;
    item.tenant = t;
    item.reqs = reqs;
    item.resps = resps;
    item.count = count;
    item.batch = &batch;
    item.rec = obsRec;
    const Admit admit = enqueue(shard, item, drainOn);
    if (admit == Admit::Claimed) {
        releaseShard(shard, process(shard, std::span<Item>(&item, 1), true));
    } else if (admit == Admit::Shed) {
        t->inFlight.fetch_sub(count, std::memory_order_acq_rel);
        CheckStatus status = _stopping.load()
            ? CheckStatus::ShuttingDown : CheckStatus::Overloaded;
        uint32_t retryUs = status == CheckStatus::Overloaded
            ? retryAfterUs(shard) : 0;
        if (obsRec)
            obsRec->shed = count;
        if (status == CheckStatus::Overloaded)
            logWarnEvery("serve.queue_full.s" + std::to_string(t->shard),
                         1000,
                         "CheckService: shard %u queue full (capacity "
                         "%u), shedding %u requests", t->shard,
                         _options.queueCapacity, count);
        shed(t, resps, count, batch, status, retryUs);
    }
}

CheckResponse
CheckService::check(TenantId id, const os::SyscallRequest &req)
{
    CheckResponse resp;
    Batch batch;
    submitBatch(id, &req, 1, &resp, batch, nullptr, DrainOn::CallerIfIdle);
    batch.wait();
    return resp;
}

void
CheckService::snapshotTenant(const TenantState &t, TenantStats &out) const
{
    out.name = t.name;
    out.id = t.id;
    out.shard = t.shard;
    out.evicted = t.evicted.load();
    out.check = t.checker ? t.checker->stats() : t.frozenStats;
    out.allowed = out.check.checks - out.check.denials;
    out.denied = out.check.denials;
    out.rejects = t.rejects.load();
    out.epoch = t.epochs.epoch();
    out.swaps = t.swaps;
}

bool
CheckService::tenantStats(TenantId id, TenantStats &out)
{
    TenantState *t = tenant(id);
    if (!t)
        return false;
    if (_stopping.load()) {
        // Workers are draining or gone; after stop() the service is
        // quiesced and a direct snapshot is race-free.
        snapshotTenant(*t, out);
        return true;
    }

    Batch batch;
    batch.arm(1);
    Item item;
    item.op = Op::Stats;
    item.tenant = t;
    item.batch = &batch;
    item.statsOut = &out;
    if (enqueue(*_shards[t->shard], item) == Admit::Shed) {
        batch.complete(1);
        snapshotTenant(*t, out);
        return true;
    }
    batch.wait();
    return true;
}

bool
CheckService::evictTenant(TenantId id)
{
    TenantState *t = tenant(id);
    if (!t || t->evicted.exchange(true))
        return false;

    {
        // Free the name for re-creation; the slot itself is not reused.
        std::lock_guard<std::mutex> lock(_tenantMutex);
        auto it = _nameIndex.find(t->name);
        if (it != _nameIndex.end() && it->second == id)
            _nameIndex.erase(it);
    }

    // New submits reject from here on; requests already queued precede
    // this Evict item in the shard FIFO, so they still check before the
    // worker tears the checker down.
    Batch batch;
    batch.arm(1);
    Item item;
    item.op = Op::Evict;
    item.tenant = t;
    item.batch = &batch;
    if (enqueue(*_shards[t->shard], item) == Admit::Shed) {
        // Stopping: leave the checker for the service dtor — a worker
        // may still be draining this tenant's queued requests.
        batch.complete(1);
        return true;
    }
    batch.wait();
    return true;
}

bool
CheckService::swapProfile(TenantId id, const seccomp::Profile &profile,
                          uint64_t *epochOut)
{
    TenantState *t = tenant(id);
    if (!t || t->evicted.load() || _stopping.load()) {
        _epochs.countSwapFailure();
        return false;
    }

    // RCU-style: prepare the next epoch entirely off to the side — the
    // compile (or content-addressed share) runs on this thread, so the
    // owning worker only ever pays for the publication itself.
    std::shared_ptr<const core::CompiledPolicy> compiled =
        _epochs.intern(profile);

    // The swap rides the tenant's shard FIFO like every control op:
    // requests enqueued before this point check under the old epoch,
    // requests after it under the new one, and publication can never
    // land mid-item — that FIFO position IS the swap boundary, and it
    // is the same at any shard count because a tenant has one queue.
    Batch batch;
    batch.arm(1);
    Item item;
    item.op = Op::Swap;
    item.tenant = t;
    item.batch = &batch;
    item.swapPolicy = std::move(compiled);
    item.epochOut = epochOut;
    if (enqueue(*_shards[t->shard], item) == Admit::Shed) {
        // Stopping: no worker will publish; fail rather than mutate
        // tenant state off its owning thread.
        batch.complete(1);
        _epochs.countSwapFailure();
        return false;
    }
    batch.wait();
    return true;
}

void
CheckService::shardLoop(size_t index)
{
    Shard &shard = *_shards[index];
    ScopedLogContext logContext("serve/shard" + std::to_string(index));
    std::vector<Item> items;
    items.reserve(_options.maxBatch);

    bool held = false; // This thread set shard.busy.
    uint32_t checked = 0; // By the drain this thread last ran.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            if (held) {
                shard.batchStat.add(checked);
                shard.busy = false;
                held = false;
            }
            // A submitter running its own drain holds busy; wait for
            // it to let go before popping, so drains never overlap.
            shard.wake.wait(lock, [&] {
                return !shard.busy &&
                       (_stopping.load() || !shard.queue.empty());
            });
            if (shard.queue.empty())
                break; // stopping, fully drained, no drain running
            uint32_t budget = _options.maxBatch;
            while (!shard.queue.empty()) {
                Item &front = shard.queue.front();
                uint32_t charge = itemRequests(front.count,
                                               front.op == Op::Check);
                // Always take at least one item per wakeup, then keep
                // draining while the next whole item fits the budget.
                if (!items.empty() && charge > budget)
                    break;
                items.push_back(std::move(front));
                shard.queue.pop_front();
                shard.queuedRequests -= std::min(shard.queuedRequests,
                                                 charge);
                budget -= std::min(budget, charge);
                if (budget == 0)
                    break;
            }
            shard.depth.store(shard.queuedRequests,
                              std::memory_order_relaxed);
            shard.busy = true;
            held = true;
        }
        checked = process(shard, items, false);
        items.clear();
    }
}

uint32_t
CheckService::process(Shard &shard, std::span<Item> items,
                      bool inlineDrain)
{
    // The shard's measured clock: one read as the drain starts (also
    // every latency record's drain-start stamp) and one after the
    // eviction pass below, shared by all of the drain's requests.
    const uint64_t drainStartNs = obs::nowNs();
    uint32_t requestsChecked = 0;

    for (Item &item : items) {
        TenantState *t = item.tenant;
        switch (item.op) {
          case Op::Check: {
            if (item.rec)
                item.rec->drainStartNs = drainStartNs;
            if (!t->checker && !t->evicted.load() &&
                t->epochs.epoch() != 0)
                materializeChecker(shard, *t);
            if (!t->checker) {
                // A submit that raced the eviction flag can land behind
                // the Evict item; its state is gone, so it rejects.
                for (uint32_t i = 0; i < item.count; ++i) {
                    item.resps[i].status = CheckStatus::UnknownTenant;
                    item.resps[i].path = 0;
                    item.resps[i].retryAfterUs = 0;
                    item.resps[i].epoch = 0;
                }
                if (item.rec)
                    item.rec->shed = item.count;
            } else {
                // One relaxed load per item: the checker was rebuilt at
                // the same FIFO step the epoch was published, so it is
                // the epoch's state — this id just labels the verdicts.
                const uint64_t epochId = t->epochs.epoch();
                uint32_t allowed = 0;
                for (uint32_t i = 0; i < item.count; ++i) {
                    core::SwCheckOutcome out =
                        t->checker->check(item.reqs[i]);
                    CheckResponse &resp = item.resps[i];
                    resp.status = out.allowed ? CheckStatus::Allowed
                                              : CheckStatus::Denied;
                    resp.path = static_cast<uint8_t>(out.path);
                    resp.retryAfterUs = 0;
                    resp.epoch = epochId;
                    allowed += out.allowed;
                }
                requestsChecked += item.count;
                if (item.rec) {
                    item.rec->allowed = allowed;
                    item.rec->denied = item.count - allowed;
                }
            }
            if (item.rec)
                item.rec->checkDoneNs = obs::nowNs();
            if (_shardResidentCap && t->checker)
                touchResident(shard, *t);
            t->inFlight.fetch_sub(item.count, std::memory_order_acq_rel);
            break;
          }
          case Op::Stats:
            snapshotTenant(*t, *item.statsOut);
            break;
          case Op::Evict:
            unlinkResident(shard, *t);
            if (t->hasSnapshot) {
                if (_options.snapshotStore) {
                    _options.snapshotStore->remove(t->name);
                } else {
                    dropDrainCounter(shard.storeBytes, t->snapshot->size());
                    t->snapshot.reset();
                }
                t->hasSnapshot = false;
                shard.snapshotted.fetch_sub(1, std::memory_order_relaxed);
            }
            // Admin eviction discards the VAT for good; the counters
            // stay, so the tenant keeps reporting what it checked.
            if (t->checker)
                t->frozenStats = t->checker->stats();
            t->checker.reset();
            break;
          case Op::Swap: {
            // The deterministic swap boundary: every request queued
            // ahead of this item has already checked under the old
            // epoch. Publish the new one and rebuild the VAT+SPT
            // namespace cold in the same step, so no verdict cached
            // under the retired policy can ever be served again.
            // Cumulative counters survive the rebuild — a swap is a
            // policy change, not a tenant reset.
            auto epoch = t->epochs.publish(item.swapPolicy);
            ++t->swaps;
            if (item.epochOut)
                *item.epochOut = epoch->epoch;
            if (t->checker) {
                core::SwCheckStats kept = t->checker->stats();
                t->checker =
                    std::make_unique<core::DracoSoftwareChecker>(
                        epoch->policy, t->opts.filterCopies);
                t->checker->restoreStats(kept);
            } else if (t->hasSnapshot) {
                // A snapshotted tenant keeps its snapshot until its next
                // access, which discards it undecoded: the tenant fails
                // closed to this epoch even if a later swap brings the
                // snapshot's policy back.
                t->snapshotStale = true;
            }
            _epochs.countSwap(epoch->epoch);
            break;
          }
        }
    }

    bumpDrainCounter(shard.drains, 1);
    if (inlineDrain)
        bumpDrainCounter(shard.drainsInline, 1);
    bumpDrainCounter(shard.processed, requestsChecked);
    shard.lastBatch.store(requestsChecked, std::memory_order_relaxed);
    if (_shardResidentCap)
        enforceResidentCap(shard);

    const uint64_t drainEndNs = obs::nowNs();
    if (requestsChecked > 0) {
        // Wall time per checked request, restores and evictions
        // included: what the next queued request will actually wait.
        double perCheck =
            static_cast<double>(drainEndNs - drainStartNs) /
            requestsChecked;
        double old = shard.ewmaCheckNs.load(std::memory_order_relaxed);
        shard.ewmaCheckNs.store(0.8 * old + 0.2 * perCheck,
                                std::memory_order_relaxed);
    }
    if (shard.tracer) {
        shard.tracer->setNowNs(static_cast<double>(drainEndNs - _startNs));
        shard.tracer->maybeSample();
    }

    // Batch completions come last, after the shard counters: a waiter
    // woken by its batch must observe totalChecks() figures that
    // already include its own requests.
    for (const Item &item : items)
        item.batch->complete(itemRequests(item.count,
                                          item.op == Op::Check));
    return requestsChecked;
}

void
CheckService::materializeChecker(Shard &shard, TenantState &t)
{
    std::shared_ptr<const policy::PolicyEpoch> epoch = t.epochs.pin();
    t.checker = std::make_unique<core::DracoSoftwareChecker>(
        epoch->policy, t.opts.filterCopies);

    if (t.hasSnapshot) {
        std::vector<uint8_t> bytes;
        std::string error;
        bool ok = true;
        if (_options.snapshotStore) {
            ok = _options.snapshotStore->take(t.name, bytes);
        } else {
            bytes = std::move(*t.snapshot);
            t.snapshot.reset();
            dropDrainCounter(shard.storeBytes, bytes.size());
        }
        const bool stale = t.snapshotStale;
        t.hasSnapshot = false;
        t.snapshotStale = false;
        shard.snapshotted.fetch_sub(1, std::memory_order_relaxed);

        // A snapshot a swap flagged is discarded undecoded (stale). A
        // `.dtss` restore also checks the programKey and tenant name it
        // embeds; an image carries neither, and the flag is its only
        // staleness test. A damaged snapshot counts as a restore
        // failure.
        using lifecycle::RestoreOutcome;
        RestoreOutcome outcome = RestoreOutcome::Failed;
        if (stale) {
            outcome = RestoreOutcome::Stale;
            error = "swapped while snapshotted";
        } else if (!ok) {
            error = "snapshot missing from store";
        } else if (_options.snapshotStore) {
            outcome = lifecycle::applySnapshot(
                bytes, t.name, epoch->policy->programKey,
                t.checker->mutableVat(), &error);
        } else {
            outcome = lifecycle::applyVatImage(
                bytes, t.checker->mutableVat(), &error);
        }
        switch (outcome) {
          case RestoreOutcome::Restored:
            shard.restores.fetch_add(1, std::memory_order_relaxed);
            shard.snapshotBytesRead.fetch_add(bytes.size(),
                                              std::memory_order_relaxed);
            break;
          case RestoreOutcome::Stale:
            // Fail closed to the *new* epoch: the fresh checker built
            // above, which a stale snapshot leaves untouched, is
            // already the one to serve from.
            inform("CheckService: tenant '%s' snapshot is stale (%s; "
                   "epoch %llu runs %016llx); discarding and starting "
                   "the new epoch cold", t.name.c_str(), error.c_str(),
                   static_cast<unsigned long long>(epoch->epoch),
                   static_cast<unsigned long long>(
                       epoch->policy->programKey));
            _epochs.countStaleSnapshotDiscard();
            break;
          case RestoreOutcome::Failed:
            // Fail closed: a damaged snapshot never yields a wrong
            // verdict — the tenant restarts from its profile with a
            // cold VAT, and the failure is counted and logged.
            warn("CheckService: tenant '%s' snapshot restore failed "
                 "(%s); rebuilding from profile", t.name.c_str(),
                 error.c_str());
            t.checker = std::make_unique<core::DracoSoftwareChecker>(
                epoch->policy, t.opts.filterCopies);
            shard.restoreFailures.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        // The counters come from the live checker at eviction, not from
        // the snapshot (an image does not hold them), so every outcome
        // continues from them, as a resident tenant's swap does.
        t.checker->restoreStats(t.frozenStats);
        if (shard.tracer)
            shard.tracer->record(obs::EventKind::TenantRestore, 0, 0, 0,
                                 outcome == RestoreOutcome::Restored
                                     ? bytes.size()
                                     : 0);
    }

    if (_shardResidentCap)
        touchResident(shard, t);
}

void
CheckService::touchResident(Shard &shard, TenantState &t)
{
    if (shard.hottest == t.id)
        return;
    unlinkResident(shard, t);
    t.colder = shard.hottest;
    if (shard.hottest != kInvalidTenant)
        _tenants[shard.hottest - 1]->hotter = t.id;
    else
        shard.coldest = t.id;
    shard.hottest = t.id;
    ++shard.residentCount;
}

void
CheckService::unlinkResident(Shard &shard, TenantState &t)
{
    // Only the coldest resident tenant has no colder neighbour.
    if (t.colder == kInvalidTenant && shard.coldest != t.id)
        return;
    if (t.colder != kInvalidTenant)
        _tenants[t.colder - 1]->hotter = t.hotter;
    else
        shard.coldest = t.hotter;
    if (t.hotter != kInvalidTenant)
        _tenants[t.hotter - 1]->colder = t.colder;
    else
        shard.hottest = t.colder;
    t.colder = kInvalidTenant;
    t.hotter = kInvalidTenant;
    --shard.residentCount;
}

void
CheckService::enforceResidentCap(Shard &shard)
{
    while (shard.residentCount > _shardResidentCap) {
        TenantState &victim = *_tenants[shard.coldest - 1];
        unlinkResident(shard, victim);
        if (!victim.checker)
            continue;

        // The slot gets a VAT image; an injected store gets `.dtss`,
        // the same image behind its tenant name and programKey, since
        // a file on disk is outside input.
        std::vector<uint8_t> bytes =
            _options.snapshotStore
                ? lifecycle::encodeSnapshot(victim.name, *victim.checker,
                                            victim.opts.filterCopies)
                : lifecycle::encodeVatImage(victim.checker->vat());
        const size_t snapshotBytes = bytes.size();
        if (!_options.snapshotStore) {
            victim.snapshot =
                std::make_unique<std::vector<uint8_t>>(std::move(bytes));
            bumpDrainCounter(shard.storeBytes, snapshotBytes);
        } else if (!_options.snapshotStore->put(victim.name,
                                                std::move(bytes))) {
            // Keep the victim resident rather than drop state we could
            // not persist; re-touch it hottest so the next pass tries a
            // different victim first.
            shard.snapshotPutFailures.fetch_add(1,
                                                std::memory_order_relaxed);
            touchResident(shard, victim);
            warn("CheckService: snapshot put failed for tenant '%s'; "
                 "keeping resident", victim.name.c_str());
            break;
        }

        victim.frozenStats = victim.checker->stats();
        victim.checker.reset();
        victim.hasSnapshot = true;
        shard.snapshotted.fetch_add(1, std::memory_order_relaxed);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
        shard.snapshotBytesWritten.fetch_add(snapshotBytes,
                                             std::memory_order_relaxed);
        if (shard.tracer)
            shard.tracer->record(obs::EventKind::TenantSnapshot, 0, 0, 0,
                                 snapshotBytes);
    }
    shard.resident.store(shard.residentCount, std::memory_order_relaxed);
}

void
CheckService::stop()
{
    if (_stopping.exchange(true))
        return;
    for (auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->wake.notify_all();
    }
    // A worker exits only with its queue empty and its busy flag
    // clear, and no submit can claim the flag once _stopping is set,
    // so joining the workers also waits out any submitter's drain.
    _pool.shutdown();

    // Deterministic teardown: with the workers joined, release the
    // remaining checkers in ascending tenant-id order so destruction
    // (and anything it traces) is reproducible run to run. Each
    // tenant's counters outlive its checker, as on any other drop.
    uint32_t count = _tenantCount.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < count; ++i) {
        TenantState &t = *_tenants[i];
        if (t.checker) {
            t.frozenStats = t.checker->stats();
            t.checker.reset();
        }
    }
    _stopped.store(true, std::memory_order_release);
}

uint64_t
CheckService::totalChecks() const
{
    uint64_t total = 0;
    for (const auto &shard : _shards)
        total += shard->processed.load(std::memory_order_relaxed);
    return total;
}

uint64_t
CheckService::totalRejects() const
{
    uint64_t total = 0;
    for (const auto &shard : _shards)
        total += shard->rejects.load();
    return total;
}

uint32_t
CheckService::residentTenants() const
{
    if (!lifecycleEnabled()) {
        // Without a cap every non-evicted tenant holds its checker.
        uint32_t resident = 0;
        uint32_t count = _tenantCount.load(std::memory_order_acquire);
        for (uint32_t i = 0; i < count; ++i) {
            const TenantState *t = _tenants[i].get();
            if (t && !t->evicted.load())
                ++resident;
        }
        return resident;
    }
    uint32_t resident = 0;
    for (const auto &shard : _shards)
        resident += shard->resident.load(std::memory_order_relaxed);
    return resident;
}

void
CheckService::serviceStats(ServiceStatsSnapshot &out) const
{
    constexpr auto relaxed = std::memory_order_relaxed;
    out = {};
    out.tenants = _tenantCount.load(std::memory_order_acquire);
    out.resident = residentTenants();
    out.dedupPolicies = _epochs.store().size();
    out.dedupHits = _epochs.store().hits();
    // An injected store is shared by every shard, so it counts once;
    // the shards' slot counters stay zero then.
    if (lifecycleEnabled() && _options.snapshotStore)
        out.storeBytes = _options.snapshotStore->totalBytes();
    for (const auto &shard : _shards) {
        out.snapshotted += shard->snapshotted.load(relaxed);
        out.evictions += shard->evictions.load(relaxed);
        out.restores += shard->restores.load(relaxed);
        out.restoreFailures += shard->restoreFailures.load(relaxed);
        out.snapshotPutFailures +=
            shard->snapshotPutFailures.load(relaxed);
        out.snapshotBytesWritten +=
            shard->snapshotBytesWritten.load(relaxed);
        out.snapshotBytesRead += shard->snapshotBytesRead.load(relaxed);
        out.storeBytes += shard->storeBytes.load(relaxed);
        out.checks += shard->processed.load(relaxed);
    }
    out.rejects = totalRejects();
    out.policySwaps = _epochs.swaps();
    out.policySwapFailures = _epochs.swapFailures();
    out.staleSnapshotDiscards = _epochs.staleSnapshotDiscards();
    out.maxEpoch = _epochs.maxEpoch();
}

void
CheckService::exportMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    constexpr auto relaxed = std::memory_order_relaxed;
    auto name = [&](const std::string &metric) {
        return MetricRegistry::join(prefix, metric);
    };

    uint64_t checks = 0;
    uint64_t drains = 0;
    uint64_t drainsInline = 0;
    uint64_t queueFull = 0;
    uint64_t rejects = 0;
    RunningStat batchStat;
    RunningStat depthStat;

    for (size_t i = 0; i < _shards.size(); ++i) {
        Shard &shard = *_shards[i];
        uint64_t shardQueueFull;
        uint32_t peakDepth;
        {
            // What enqueue() and a drain's release write under the
            // mutex; the rest of the shard is read from its atomics.
            std::lock_guard<std::mutex> lock(shard.mutex);
            shardQueueFull = shard.queueFullRejects;
            peakDepth = shard.peakDepth;
            batchStat.merge(shard.batchStat);
            depthStat.merge(shard.depthStat);
        }
        const uint64_t shardChecks = shard.processed.load(relaxed);
        const uint64_t shardDrains = shard.drains.load(relaxed);
        const uint64_t shardInline = shard.drainsInline.load(relaxed);
        const uint64_t shardRejects = shard.rejects.load(relaxed);
        checks += shardChecks;
        drains += shardDrains;
        drainsInline += shardInline;
        queueFull += shardQueueFull;
        rejects += shardRejects;

        std::string sp = name("shards.s" + std::to_string(i));
        registry.setCounter(sp + ".checks", shardChecks);
        registry.setCounter(sp + ".drains", shardDrains);
        registry.setCounter(sp + ".drains_inline", shardInline);
        registry.setCounter(sp + ".rejects", shardRejects);
        registry.setCounter(sp + ".rejects_queue_full", shardQueueFull);
        registry.setCounter(sp + ".peak_depth", peakDepth);
        registry.setGauge(sp + ".queue_depth", shard.depth.load(relaxed));
        registry.setGauge(sp + ".last_batch",
                          shard.lastBatch.load(relaxed));
        registry.setGauge(sp + ".resident", shard.resident.load(relaxed));
        registry.setGauge(sp + ".ewma_check_ns",
                          shard.ewmaCheckNs.load(relaxed));
    }

    registry.setCounter(name("shard_count"), _shards.size());
    registry.setCounter(name("queue_capacity"), _options.queueCapacity);
    registry.setCounter(name("max_batch"), _options.maxBatch);
    registry.setCounter(name("checks"), checks);
    registry.setCounter(name("drains"), drains);
    registry.setCounter(name("drains_inline"), drainsInline);
    registry.setCounter(name("rejects.total"), rejects);
    registry.setCounter(name("rejects.queue_full"), queueFull);
    registry.setCounter(name("rejects.tenant_cap"),
                        rejects >= queueFull ? rejects - queueFull : 0);
    registry.setStat(name("batch_size"), batchStat);
    registry.setStat(name("queue_depth"), depthStat);

    // A tenant's slot belongs to its shard's drain while the service
    // runs; once stop() has joined the drains and frozen the counters,
    // the slots read through snapshotTenant(), as tenantStats() does.
    // Blocks are keyed by id: a name is client input, unique only
    // among live tenants, and may sanitize to `count` or to another
    // tenant's name.
    const uint32_t count = _tenantCount.load(std::memory_order_acquire);
    const uint32_t exported = _stopped.load(std::memory_order_acquire)
        ? std::min(count, kTenantMetricsLimit)
        : 0;
    registry.setCounter(name("tenants.count"), count);
    registry.setCounter(name("tenants.exported"), exported);
    for (uint32_t i = 0; i < exported; ++i) {
        TenantStats t;
        snapshotTenant(*_tenants[i], t);
        std::string tp = name("tenants.t" + std::to_string(t.id));
        registry.setText(tp + ".name", t.name);
        registry.setCounter(tp + ".shard", t.shard);
        registry.setCounter(tp + ".allowed", t.allowed);
        registry.setCounter(tp + ".denied", t.denied);
        registry.setCounter(tp + ".rejects", t.rejects);
        registry.setCounter(tp + ".evicted", t.evicted ? 1 : 0);
        registry.setCounter(tp + ".epoch", t.epoch);
        registry.setCounter(tp + ".swaps", t.swaps);
        core::exportStats(t.check, registry, tp + ".check");
    }

    ServiceStatsSnapshot svc;
    serviceStats(svc);
    std::string lp = name("lifecycle");
    registry.setCounter(lp + ".enabled", lifecycleEnabled() ? 1 : 0);
    registry.setCounter(lp + ".resident_cap",
                        _options.maxResidentTenants);
    registry.setCounter(lp + ".resident", svc.resident);
    registry.setCounter(lp + ".snapshotted", svc.snapshotted);
    registry.setCounter(lp + ".evictions", svc.evictions);
    registry.setCounter(lp + ".restores", svc.restores);
    registry.setCounter(lp + ".restore_failures", svc.restoreFailures);
    registry.setCounter(lp + ".snapshot_put_failures",
                        svc.snapshotPutFailures);
    registry.setCounter(lp + ".snapshot_bytes_written",
                        svc.snapshotBytesWritten);
    registry.setCounter(lp + ".snapshot_bytes_read",
                        svc.snapshotBytesRead);
    registry.setCounter(lp + ".store_bytes", svc.storeBytes);
    if (lifecycleEnabled()) {
        registry.setText(lp + ".store_kind",
                         _options.snapshotStore
                             ? _options.snapshotStore->kind()
                             : "memory");
    }
    _epochs.store().exportMetrics(registry, lp + ".dedup");
    registry.setGauge(lp + ".dedup.ratio",
                      svc.dedupPolicies > 0
                          ? static_cast<double>(count) /
                                static_cast<double>(svc.dedupPolicies)
                          : 0.0);

    _epochs.exportMetrics(registry, name("policy"));
}

} // namespace draco::serve
