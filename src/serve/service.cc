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

/** Requests an item charges against queue capacity and drain budget. */
uint32_t
itemRequests(uint32_t count, bool isCheck)
{
    return isCheck ? count : 1;
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
        _store = _options.snapshotStore;
        if (!_store) {
            _ownedStore =
                std::make_unique<lifecycle::MemorySnapshotStore>();
            _store = _ownedStore.get();
        }
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
        // Under a cap the owning shard worker materializes it on the
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

bool
CheckService::enqueue(Shard &shard, Item item)
{
    bool isCheck = item.op == Op::Check;
    uint32_t charge = itemRequests(item.count, isCheck);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (_stopping.load())
            return false;
        // Control items (Stats/Evict) are never shed: the control plane
        // must stay responsive under data-plane overload.
        if (isCheck &&
            shard.queuedRequests + charge > _options.queueCapacity) {
            shard.queueFullRejects += charge;
            shard.rejects.fetch_add(charge, std::memory_order_relaxed);
            return false;
        }
        shard.queue.push_back(item);
        shard.queuedRequests += charge;
        shard.depth.store(shard.queuedRequests,
                          std::memory_order_relaxed);
        shard.peakDepth = std::max(shard.peakDepth, shard.queuedRequests);
        shard.depthStat.add(shard.queuedRequests);
    }
    shard.wake.notify_one();
    return true;
}

void
CheckService::submitBatch(TenantId id, const os::SyscallRequest *reqs,
                          uint32_t count, CheckResponse *resps,
                          Batch &batch, obs::StageRecord *obsRec)
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
    if (!enqueue(shard, item)) {
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
    submitBatch(id, &req, 1, &resp, batch);
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
    out.allowed = t.allowed;
    out.denied = t.denied;
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
    if (!enqueue(*_shards[t->shard], item)) {
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
    if (!enqueue(*_shards[t->shard], item)) {
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
    if (!enqueue(*_shards[t->shard], item)) {
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

    for (;;) {
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            shard.wake.wait(lock, [&] {
                return _stopping.load() || !shard.queue.empty();
            });
            if (shard.queue.empty())
                break; // stopping and fully drained
            uint32_t budget = _options.maxBatch;
            while (!shard.queue.empty()) {
                Item &front = shard.queue.front();
                uint32_t charge = itemRequests(front.count,
                                               front.op == Op::Check);
                // Always take at least one item per wakeup, then keep
                // draining while the next whole item fits the budget.
                if (!items.empty() && charge > budget)
                    break;
                items.push_back(front);
                shard.queue.pop_front();
                shard.queuedRequests -= std::min(shard.queuedRequests,
                                                 charge);
                budget -= std::min(budget, charge);
                if (budget == 0)
                    break;
            }
            shard.depth.store(shard.queuedRequests,
                              std::memory_order_relaxed);
        }
        process(shard, items);
        items.clear();
    }
}

void
CheckService::process(Shard &shard, std::vector<Item> &items)
{
    // The shard's measured clock: one read as the drain starts (also
    // every latency record's drain-start stamp) and one after the
    // eviction pass below, shared by all of the drain's requests.
    const uint64_t drainStartNs = obs::nowNs();
    uint32_t requestsChecked = 0;

    // Batch completions are deferred past the shard-counter updates
    // below: a waiter woken by its batch must observe totalChecks()
    // figures that already include its own requests.
    std::vector<std::pair<Batch *, uint32_t>> completions;
    completions.reserve(items.size());

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
                    if (out.allowed) {
                        ++t->allowed;
                        ++allowed;
                    } else {
                        ++t->denied;
                    }
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
                shard.lru.touch(t->id);
            t->inFlight.fetch_sub(item.count, std::memory_order_acq_rel);
            completions.emplace_back(item.batch, item.count);
            break;
          }
          case Op::Stats:
            snapshotTenant(*t, *item.statsOut);
            completions.emplace_back(item.batch, 1);
            break;
          case Op::Evict:
            shard.lru.erase(t->id);
            if (t->hasSnapshot && _store) {
                _store->remove(t->name);
                t->hasSnapshot = false;
                _snapshotted.fetch_sub(1, std::memory_order_relaxed);
            }
            // Admin eviction discards state for good: evicted tenants
            // have always reported empty check stats.
            t->frozenStats = {};
            t->checker.reset();
            completions.emplace_back(item.batch, 1);
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
            }
            // A snapshotted tenant keeps its `.dtss` for now: the
            // restore path compares the snapshot's programKey against
            // the then-current epoch and discards it as stale — the
            // evicted-then-swapped tenant fails closed to this epoch.
            _epochs.countSwap(epoch->epoch);
            completions.emplace_back(item.batch, 1);
            break;
          }
        }
    }

    ++shard.drains;
    shard.processed += requestsChecked;
    shard.processedMirror.store(shard.processed,
                                std::memory_order_relaxed);
    shard.batchStat.add(requestsChecked);
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

    for (auto &[batch, count] : completions)
        batch->complete(count);
}

void
CheckService::materializeChecker(Shard &shard, TenantState &t)
{
    std::shared_ptr<const policy::PolicyEpoch> epoch = t.epochs.pin();
    t.checker = std::make_unique<core::DracoSoftwareChecker>(
        epoch->policy, t.opts.filterCopies);

    if (t.hasSnapshot && _store) {
        std::vector<uint8_t> bytes;
        std::string error;
        bool ok = _store->get(t.name, bytes);
        if (!ok)
            error = "snapshot missing from store";

        // Staleness probe before the restore: a profile swap while the
        // tenant sat evicted leaves a `.dtss` whose VAT belongs to a
        // retired epoch. A structurally valid snapshot keyed to a
        // different policy is discarded outright — distinct from a
        // corrupt one, which still counts as a restore failure below.
        uint64_t snapshotKey = 0;
        bool stale =
            ok &&
            lifecycle::peekSnapshotPolicyKey(bytes, snapshotKey,
                                             nullptr) &&
            snapshotKey != epoch->policy->programKey;
        if (stale) {
            inform("CheckService: tenant '%s' snapshot is stale "
                   "(policy %016llx, epoch %llu runs %016llx); "
                   "discarding and starting the new epoch cold",
                   t.name.c_str(),
                   static_cast<unsigned long long>(snapshotKey),
                   static_cast<unsigned long long>(epoch->epoch),
                   static_cast<unsigned long long>(
                       epoch->policy->programKey));
            // Fail closed to the *new* epoch: the fresh checker built
            // above is already the one to serve from. The frozen
            // counters described the retired chain; drop them too.
            t.frozenStats = {};
            _epochs.countStaleSnapshotDiscard();
            if (shard.tracer)
                shard.tracer->record(obs::EventKind::TenantRestore, 0,
                                     0, 0, 0);
        } else if (ok &&
                   lifecycle::restoreSnapshot(bytes, t.name,
                                              epoch->policy->programKey,
                                              t.opts.filterCopies,
                                              *t.checker, &error)) {
            _restores.fetch_add(1, std::memory_order_relaxed);
            _snapshotBytesRead.fetch_add(bytes.size(),
                                         std::memory_order_relaxed);
            if (shard.tracer)
                shard.tracer->record(obs::EventKind::TenantRestore, 0, 0,
                                     0, bytes.size());
        } else {
            // Fail closed: a damaged snapshot never yields a wrong
            // verdict — the tenant restarts from its profile with a
            // cold VAT, and the failure is counted and logged.
            warn("CheckService: tenant '%s' snapshot restore failed "
                 "(%s); rebuilding from profile", t.name.c_str(),
                 error.c_str());
            t.checker = std::make_unique<core::DracoSoftwareChecker>(
                epoch->policy, t.opts.filterCopies);
            _restoreFailures.fetch_add(1, std::memory_order_relaxed);
            if (shard.tracer)
                shard.tracer->record(obs::EventKind::TenantRestore, 0, 0,
                                     0, 0);
        }
        _store->remove(t.name);
        t.hasSnapshot = false;
        _snapshotted.fetch_sub(1, std::memory_order_relaxed);
    }

    if (_shardResidentCap)
        shard.lru.touch(t.id);
}

void
CheckService::enforceResidentCap(Shard &shard)
{
    while (shard.lru.size() > _shardResidentCap) {
        TenantId victimId = shard.lru.coldest();
        if (victimId == kInvalidTenant)
            break;
        shard.lru.erase(victimId);
        TenantState *victim = tenant(victimId);
        if (!victim || !victim->checker)
            continue;

        std::vector<uint8_t> bytes = lifecycle::encodeSnapshot(
            victim->name, *victim->checker, victim->opts.filterCopies);
        const size_t snapshotBytes = bytes.size();
        if (!_store || !_store->put(victim->name, std::move(bytes))) {
            // Keep the victim resident rather than drop state we could
            // not persist; re-touch it hottest so the next pass tries a
            // different victim first.
            _snapshotPutFailures.fetch_add(1, std::memory_order_relaxed);
            shard.lru.touch(victimId);
            warn("CheckService: snapshot put failed for tenant '%s'; "
                 "keeping resident", victim->name.c_str());
            break;
        }

        victim->frozenStats = victim->checker->stats();
        victim->checker.reset();
        victim->hasSnapshot = true;
        _snapshotted.fetch_add(1, std::memory_order_relaxed);
        _evictions.fetch_add(1, std::memory_order_relaxed);
        _snapshotBytesWritten.fetch_add(snapshotBytes,
                                        std::memory_order_relaxed);
        if (shard.tracer)
            shard.tracer->record(obs::EventKind::TenantSnapshot, 0, 0, 0,
                                 snapshotBytes);
    }
    shard.resident.store(static_cast<uint32_t>(shard.lru.size()),
                         std::memory_order_relaxed);
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
    _pool.shutdown();

    // Deterministic teardown: with the workers joined, release the
    // remaining checkers in ascending tenant-id order so destruction
    // (and anything it traces) is reproducible run to run.
    uint32_t count = _tenantCount.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < count; ++i) {
        TenantState *t = _tenants[i].get();
        if (t && t->checker)
            t->checker.reset();
    }
}

uint64_t
CheckService::totalChecks() const
{
    uint64_t total = 0;
    for (const auto &shard : _shards)
        total += shard->processed;
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
    out.tenants = _tenantCount.load(std::memory_order_acquire);
    out.resident = residentTenants();
    out.snapshotted = _snapshotted.load(std::memory_order_relaxed);
    out.evictions = _evictions.load(std::memory_order_relaxed);
    out.restores = _restores.load(std::memory_order_relaxed);
    out.restoreFailures =
        _restoreFailures.load(std::memory_order_relaxed);
    out.snapshotPutFailures =
        _snapshotPutFailures.load(std::memory_order_relaxed);
    out.dedupPolicies = _epochs.store().size();
    out.dedupHits = _epochs.store().hits();
    out.snapshotBytesWritten =
        _snapshotBytesWritten.load(std::memory_order_relaxed);
    out.snapshotBytesRead =
        _snapshotBytesRead.load(std::memory_order_relaxed);
    out.storeBytes = _store ? _store->totalBytes() : 0;
    out.checks = 0;
    for (const auto &shard : _shards)
        out.checks += shard->processedMirror.load(
            std::memory_order_relaxed);
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
    auto name = [&](const std::string &metric) {
        return MetricRegistry::join(prefix, metric);
    };

    uint64_t checks = 0;
    uint64_t drains = 0;
    uint64_t queueFull = 0;
    uint64_t rejects = 0;
    RunningStat batchStat;
    RunningStat depthStat;

    for (size_t i = 0; i < _shards.size(); ++i) {
        const Shard &shard = *_shards[i];
        checks += shard.processed;
        drains += shard.drains;
        queueFull += shard.queueFullRejects;
        rejects += shard.rejects.load();
        batchStat.merge(shard.batchStat);
        depthStat.merge(shard.depthStat);

        std::string sp = name("shards.s" + std::to_string(i));
        registry.setCounter(sp + ".checks", shard.processed);
        registry.setCounter(sp + ".drains", shard.drains);
        registry.setCounter(sp + ".rejects", shard.rejects.load());
        registry.setCounter(sp + ".rejects_queue_full",
                            shard.queueFullRejects);
        registry.setCounter(sp + ".peak_depth", shard.peakDepth);
    }

    registry.setCounter(name("shard_count"), _shards.size());
    registry.setCounter(name("queue_capacity"), _options.queueCapacity);
    registry.setCounter(name("max_batch"), _options.maxBatch);
    registry.setCounter(name("checks"), checks);
    registry.setCounter(name("drains"), drains);
    registry.setCounter(name("rejects.total"), rejects);
    registry.setCounter(name("rejects.queue_full"), queueFull);
    registry.setCounter(name("rejects.tenant_cap"),
                        rejects >= queueFull ? rejects - queueFull : 0);
    registry.setStat(name("batch_size"), batchStat);
    registry.setStat(name("queue_depth"), depthStat);

    uint32_t count = _tenantCount.load(std::memory_order_acquire);
    registry.setCounter(name("tenants.count"), count);
    uint32_t exported = std::min(count, _options.tenantMetricsLimit);
    registry.setCounter(name("tenants.exported"), exported);
    for (uint32_t i = 0; i < exported; ++i) {
        const TenantState *t = _tenants[i].get();
        if (!t)
            continue;
        std::string tp =
            name("tenants." + MetricRegistry::sanitize(t->name));
        registry.setCounter(tp + ".id", t->id);
        registry.setCounter(tp + ".shard", t->shard);
        registry.setCounter(tp + ".allowed", t->allowed);
        registry.setCounter(tp + ".denied", t->denied);
        registry.setCounter(tp + ".rejects", t->rejects.load());
        registry.setCounter(tp + ".evicted", t->evicted.load() ? 1 : 0);
        registry.setCounter(tp + ".epoch", t->epochs.epoch());
        registry.setCounter(tp + ".swaps", t->swaps);
        if (t->checker)
            core::exportStats(t->checker->stats(), registry,
                              tp + ".check");
        else if (t->hasSnapshot)
            core::exportStats(t->frozenStats, registry, tp + ".check");
    }

    std::string lp = name("lifecycle");
    registry.setCounter(lp + ".enabled", lifecycleEnabled() ? 1 : 0);
    registry.setCounter(lp + ".resident_cap",
                        _options.maxResidentTenants);
    registry.setCounter(lp + ".resident", residentTenants());
    registry.setCounter(lp + ".snapshotted",
                        _snapshotted.load(std::memory_order_relaxed));
    registry.setCounter(lp + ".evictions",
                        _evictions.load(std::memory_order_relaxed));
    registry.setCounter(lp + ".restores",
                        _restores.load(std::memory_order_relaxed));
    registry.setCounter(
        lp + ".restore_failures",
        _restoreFailures.load(std::memory_order_relaxed));
    registry.setCounter(
        lp + ".snapshot_put_failures",
        _snapshotPutFailures.load(std::memory_order_relaxed));
    registry.setCounter(
        lp + ".snapshot_bytes_written",
        _snapshotBytesWritten.load(std::memory_order_relaxed));
    registry.setCounter(
        lp + ".snapshot_bytes_read",
        _snapshotBytesRead.load(std::memory_order_relaxed));
    if (_store) {
        registry.setCounter(lp + ".store_bytes", _store->totalBytes());
        registry.setText(lp + ".store_kind", _store->kind());
    }
    _epochs.store().exportMetrics(registry, lp + ".dedup");
    registry.setGauge(lp + ".dedup.ratio",
                      _epochs.store().size() > 0
                          ? static_cast<double>(count) /
                                static_cast<double>(
                                    _epochs.store().size())
                          : 0.0);

    _epochs.exportMetrics(registry, name("policy"));
}

void
CheckService::exportLiveMetrics(MetricRegistry &registry,
                                const std::string &prefix) const
{
    auto name = [&](const std::string &metric) {
        return MetricRegistry::join(prefix, metric);
    };

    uint64_t checks = 0;
    uint64_t rejects = 0;
    for (size_t i = 0; i < _shards.size(); ++i) {
        const Shard &shard = *_shards[i];
        const uint64_t shardChecks =
            shard.processedMirror.load(std::memory_order_relaxed);
        const uint64_t shardRejects =
            shard.rejects.load(std::memory_order_relaxed);
        checks += shardChecks;
        rejects += shardRejects;

        std::string sp = name("shards.s" + std::to_string(i));
        registry.setCounter(sp + ".checks", shardChecks);
        registry.setCounter(sp + ".rejects", shardRejects);
        registry.setGauge(sp + ".queue_depth",
                          shard.depth.load(std::memory_order_relaxed));
        registry.setGauge(
            sp + ".last_batch",
            shard.lastBatch.load(std::memory_order_relaxed));
        registry.setGauge(
            sp + ".resident",
            shard.resident.load(std::memory_order_relaxed));
        registry.setGauge(
            sp + ".ewma_check_ns",
            shard.ewmaCheckNs.load(std::memory_order_relaxed));
    }

    registry.setCounter(name("shard_count"), _shards.size());
    registry.setCounter(name("checks"), checks);
    registry.setCounter(name("rejects"), rejects);

    ServiceStatsSnapshot svc;
    serviceStats(svc);
    std::string vp = name("service");
    registry.setCounter(vp + ".tenants", svc.tenants);
    registry.setCounter(vp + ".resident", svc.resident);
    registry.setCounter(vp + ".snapshotted", svc.snapshotted);
    registry.setCounter(vp + ".evictions", svc.evictions);
    registry.setCounter(vp + ".restores", svc.restores);
    registry.setCounter(vp + ".restore_failures", svc.restoreFailures);
    registry.setCounter(vp + ".snapshot_put_failures",
                        svc.snapshotPutFailures);
    registry.setCounter(vp + ".dedup_policies", svc.dedupPolicies);
    registry.setCounter(vp + ".dedup_hits", svc.dedupHits);
    registry.setCounter(vp + ".snapshot_bytes_written",
                        svc.snapshotBytesWritten);
    registry.setCounter(vp + ".snapshot_bytes_read",
                        svc.snapshotBytesRead);
    registry.setCounter(vp + ".store_bytes", svc.storeBytes);

    // All-atomic, so the live scrape may export the swap plane too.
    _epochs.exportMetrics(registry, name("policy"));
}

} // namespace draco::serve
