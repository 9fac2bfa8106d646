/**
 * @file
 * tenant_churn: the lifecycle and policy layers under a large fleet.
 * An in-process 2-shard CheckService (no socket) holds 20k tenants on
 * the three argument-checking builtin profiles (docker-default, gvisor,
 * firecracker), so the content-addressed dedup holds 3 policies, under
 * a resident cap of 1k. Each access draws a tenant from Zipf(0.99) and
 * submits one 32-request batch of that tenant's stream; a sliding
 * window of 64 batches is in flight. Every 512 batches one of the 8
 * hottest tenants has its profile swapped to the next builtin and back.
 *
 * Cold tenants are snapshotted to `.dtss` and restored on demand, and
 * every swap rebuilds a VAT cold, so the check layer runs its write
 * side (filter fallback plus Vat::insert) far more than on
 * check_inproc.
 */

#include <algorithm>
#include <atomic>

#include "serve/client.hh"
#include "serve/service.hh"
#include "support/random.hh"
#include "workload/appmodel.hh"
#include "workload/generator.hh"
#include "workloads.hh"

using namespace draco;

namespace perfbench {

namespace {

constexpr uint32_t kTenants = 20000;
constexpr uint32_t kResidentCap = 1000;
constexpr unsigned kShards = 2;
constexpr uint32_t kWindow = 64;          ///< Batches in flight.
constexpr uint64_t kSwapEvery = 512;      ///< Batches between swaps.
constexpr uint32_t kSwapTenants = 8;      ///< Swaps rotate over these.
constexpr uint32_t kPoolBatches = 512;    ///< Distinct request batches.
constexpr size_t kAccessSeq = 1u << 20;   ///< Zipf draws, replayed cyclically.
constexpr uint64_t kWarmupBatches = 20000;

const char *const kProfileNames[3] = {"docker-default", "gvisor",
                                      "firecracker"};

struct Inputs {
    std::vector<os::SyscallRequest> pool; ///< kPoolBatches * kBatch.
    std::vector<uint16_t> access;         ///< Zipf-drawn tenant indices.
    std::vector<seccomp::Profile> profiles;
    std::vector<std::shared_ptr<const core::CompiledPolicy>> policies;
    std::vector<uint8_t> expected[3]; ///< Per profile, per pool request.
};

/** Mutable fleet state the load thread keeps beside the service. */
struct Fleet {
    std::vector<serve::TenantId> ids;
    std::vector<uint32_t> accesses;  ///< Batches drawn per tenant.
    /** Profile index serving each epoch (index epoch-1), per tenant. */
    std::vector<std::vector<uint8_t>> epochProfile;
    uint64_t swapSerial = 0;
};

/** First pool request of tenant @p t's @p k-th batch. */
size_t
poolStart(uint32_t t, uint32_t k)
{
    return ((t * 2654435761ull + k) % kPoolBatches) * kBatch;
}

/** One in-flight batch of the window. */
struct Slot {
    serve::Batch batch;
    std::atomic<uint64_t> doneNs{0};
    uint64_t submitNs = 0;
    uint32_t tenant = 0;
    size_t start = 0;
    int32_t root = -1;
    serve::CheckResponse resps[kBatch];
};

class Churn
{
  public:
    Churn(Inputs &in, Fleet &fleet, serve::CheckService &service)
        : _in(in), _fleet(fleet), _service(service)
    {
    }

    /**
     * Run the sliding window until @p deadline or @p maxBatches
     * submissions, whichever comes first.
     */
    PhaseTotals run(uint64_t deadline, uint64_t maxBatches, bool traced,
                    LayerStats &layers, SpanLog &spans,
                    StageReplayer &replayer);

  private:
    void submit(Slot &slot, bool traced, LayerStats &layers, SpanLog &spans);
    void swap(bool traced, LayerStats &layers, SpanLog &spans, int32_t root);
    void complete(Slot &slot, PhaseTotals &tot, bool traced,
                  LayerStats &layers, SpanLog &spans,
                  StageReplayer &replayer);

    Inputs &_in;
    Fleet &_fleet;
    serve::CheckService &_service;
    uint64_t _next = 0; ///< Next access-sequence position.
    uint64_t _submitted = 0;
    Windows _windows; ///< Series of the current run(); none in warm-up.
};

void
Churn::swap(bool traced, LayerStats &layers, SpanLog &spans, int32_t root)
{
    // Alternate the tenant between its creation profile and the next
    // builtin.
    const uint32_t t = _fleet.swapSerial++ % kSwapTenants;
    std::vector<uint8_t> &history = _fleet.epochProfile[t];
    const uint8_t base = history.front();
    const uint8_t next = history.back() == base
        ? static_cast<uint8_t>((base + 1) % 3)
        : base;
    uint64_t epoch = 0;
    const uint64_t s0 = nowNs();
    if (!_service.swapProfile(_fleet.ids[t], _in.profiles[next], &epoch))
        die("tenant_churn: swapProfile(t%u) failed", t);
    const uint64_t s1 = nowNs();
    if (epoch != history.size() + 1)
        die("tenant_churn: swap of t%u published epoch %llu, expected %zu",
            t, static_cast<unsigned long long>(epoch), history.size() + 1);
    history.push_back(next);
    if (traced) {
        layers.swapUs.add(static_cast<double>(s1 - s0) * 1e-3);
        spans.child(root, "policy.swap_profile", s0, s1, 1);
    }
}

void
Churn::submit(Slot &slot, bool traced, LayerStats &layers, SpanLog &spans)
{
    const uint32_t t = _in.access[_next++ % _in.access.size()];
    slot.tenant = t;
    slot.start = poolStart(t, _fleet.accesses[t]++);
    slot.doneNs.store(0, std::memory_order_relaxed);
    const uint64_t r0 = nowNs();
    slot.root = traced ? spans.root(_submitted, r0) : -1;
    if (_submitted > 0 && _submitted % kSwapEvery == 0)
        swap(traced, layers, spans, slot.root);
    ++_submitted;
    Slot *self = &slot;
    slot.batch.onComplete([self] {
        self->doneNs.store(nowNs(), std::memory_order_release);
    });
    slot.submitNs = nowNs();
    _service.submitBatch(_fleet.ids[t], &_in.pool[slot.start], kBatch,
                         slot.resps, slot.batch);
    if (traced)
        spans.child(slot.root, "serve.submit_batch", slot.submitNs, nowNs(),
                    1);
}

void
Churn::complete(Slot &slot, PhaseTotals &tot, bool traced,
                LayerStats &layers, SpanLog &spans, StageReplayer &replayer)
{
    slot.batch.wait();
    uint64_t done;
    while ((done = slot.doneNs.load(std::memory_order_acquire)) == 0)
        __builtin_ia32_pause();
    const double batchUs = static_cast<double>(done - slot.submitNs) * 1e-3;
    tot.batchUs.add(batchUs);
    tot.attempted += kBatch;
    ++tot.batches;
    const uint64_t checks0 = tot.checks;

    // Gate each verdict against the policy of the epoch it reports.
    const std::vector<uint8_t> &history = _fleet.epochProfile[slot.tenant];
    uint8_t paths[kBatch];
    unsigned profile = history.front();
    for (uint32_t i = 0; i < kBatch; ++i) {
        const serve::CheckResponse &r = slot.resps[i];
        paths[i] = r.path;
        if (r.status != serve::CheckStatus::Allowed &&
            r.status != serve::CheckStatus::Denied) {
            ++tot.failed;
            continue;
        }
        ++tot.checks;
        if (r.epoch == 0 || r.epoch > history.size())
            die("tenant_churn: t%u answered under unknown epoch %llu",
                slot.tenant, static_cast<unsigned long long>(r.epoch));
        profile = history[r.epoch - 1];
        const bool allowed = r.status == serve::CheckStatus::Allowed;
        if (allowed != (_in.expected[profile][slot.start + i] != 0))
            die("verdict mismatch: tenant_churn t%u pool request %zu "
                "epoch %llu (%s): served %s, reference interpreter says %s",
                slot.tenant, slot.start + i,
                static_cast<unsigned long long>(r.epoch),
                kProfileNames[profile], allowed ? "allow" : "deny",
                allowed ? "deny" : "allow");
    }
    _windows.add(done, tot.checks - checks0, batchUs);
    if (!traced)
        return;

    spans.child(slot.root, "serve.batch_wait", slot.submitNs, done, 1);
    for (uint32_t i = 0; i < kBatch; ++i)
        if (paths[i] < 4)
            ++layers.path[paths[i]];
    if (tot.batches % 64 == 0)
        layers.residentPeak =
            std::max(layers.residentPeak,
                     static_cast<double>(_service.residentTenants()));
    if (tot.batches % kReplayEvery == 0) {
        const core::CompiledPolicy &policy = *_in.policies[profile];
        const os::SyscallRequest *reqs = &_in.pool[slot.start];
        replayer.shadowCheck(policy, reqs, kBatch, layers, spans, slot.root);
        replayer.replay(policy, replayer.shadow(policy).vat(), reqs, kBatch,
                        paths, layers, spans, slot.root);
        replayer.wireRoundTrip(reqs, kBatch, slot.resps, layers, spans,
                               slot.root);
    }
    if (tot.batches % kSnapshotEvery == 0)
        replayer.snapshotRoundTrip(
            replayer.shadow(*_in.policies[profile]), layers, spans,
            slot.root);
    spans.close(slot.root, nowNs());
}

PhaseTotals
Churn::run(uint64_t deadline, uint64_t maxBatches, bool traced,
           LayerStats &layers, SpanLog &spans, StageReplayer &replayer)
{
    PhaseTotals tot;
    std::vector<Slot> slots(kWindow);
    const uint64_t cpu0 = processCpuNs();
    const uint64_t t0 = nowNs();
    _windows = deadline == UINT64_MAX ? Windows() : Windows(t0, deadline);
    uint64_t submitted = 0;
    for (Slot &slot : slots) {
        submit(slot, traced, layers, spans);
        ++submitted;
    }
    // Oldest first: per-tenant FIFO makes that the usual finish order.
    bool open = true;
    for (uint64_t i = 0; tot.batches < submitted; ++i) {
        Slot &slot = slots[i % kWindow];
        complete(slot, tot, traced, layers, spans, replayer);
        if (open && (submitted >= maxBatches || nowNs() >= deadline))
            open = false;
        if (open) {
            submit(slot, traced, layers, spans);
            ++submitted;
        }
    }
    tot.wallS = secondsBetween(t0, nowNs());
    tot.cpuNs = processCpuNs() - cpu0;
    _windows.finish();
    tot.addWindows(_windows);
    return tot;
}

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    const auto &apps = workload::allWorkloads();
    std::vector<workload::TraceGenerator> gens;
    for (const workload::AppModel &app : apps)
        gens.emplace_back(app, splitSeed(seed, "churn/" + app.name));
    // Each pool batch is one app's consecutive calls.
    for (uint32_t b = 0; b < kPoolBatches; ++b)
        for (uint32_t i = 0; i < kBatch; ++i)
            in.pool.push_back(gens[b % gens.size()].next().req);
    ZipfSampler zipf(kTenants, 0.99);
    Rng rng(splitSeed(seed, "churn/access"));
    in.access.resize(kAccessSeq);
    for (uint16_t &t : in.access)
        t = static_cast<uint16_t>(zipf.sample(rng));
    for (const char *name : kProfileNames)
        in.profiles.push_back(*serve::builtinProfileByName(name));
    return in;
}

} // namespace

void
runTenantChurn(const Options &options, Result &result)
{
    Inputs in = makeInputs(options.seed);
    LayerStats layers;
    for (const seccomp::Profile &profile : in.profiles)
        in.policies.push_back(timedCompile(profile, layers));
    for (unsigned p = 0; p < 3; ++p) {
        in.expected[p].resize(in.pool.size());
        for (size_t i = 0; i < in.pool.size(); ++i)
            in.expected[p][i] = referenceAllows(*in.policies[p], in.pool[i]);
    }
    if (options.corruptVerdict)
        for (unsigned p = 0; p < 3; ++p)
            in.expected[p][poolStart(in.access[0], 0)] ^= 1;

    // Set-up: the service and its 20k tenants (3 compiles, the rest
    // dedup hits).
    std::unique_ptr<serve::CheckService> service;
    Fleet fleet;
    const double setupS = medianSetup(
        [&] {
            serve::ServiceOptions so;
            so.shards = kShards;
            so.queueCapacity = kWindow * kBatch * 2;
            so.maxBatch = 64;
            so.maxTenants = kTenants;
            so.maxResidentTenants = kResidentCap;
            service = std::make_unique<serve::CheckService>(so);
            fleet.ids.resize(kTenants);
            for (uint32_t t = 0; t < kTenants; ++t) {
                fleet.ids[t] = service->createTenant(
                    tenantName(t), in.profiles[t % 3]);
                if (fleet.ids[t] == serve::kInvalidTenant)
                    die("tenant_churn: createTenant(t%u) failed", t);
            }
        },
        [&] {
            service->stop();
            service.reset();
        });
    fleet.accesses.assign(kTenants, 0);
    fleet.epochProfile.resize(kTenants);
    for (uint32_t t = 0; t < kTenants; ++t)
        fleet.epochProfile[t] = {static_cast<uint8_t>(t % 3)};

    // Warm-up: fill the resident set and the snapshot store.
    Churn churn(in, fleet, *service);
    StageReplayer replayer;
    for (const auto &policy : in.policies)
        replayer.prepare(policy, in.pool);
    SpanLog spans;
    churn.run(UINT64_MAX, kWarmupBatches, false, layers, spans, replayer);

    PhaseTotals run = churn.run(
        nowNs() + static_cast<uint64_t>(untracedSeconds(options) * 1e9),
        UINT64_MAX, false, layers, spans, replayer);
    if (!options.trace) {
        service->stop();
        reportPhases(options, run, nullptr, setupS, layers, spans, result);
        return;
    }
    serve::ServiceStatsSnapshot before;
    service->serviceStats(before);
    PhaseTotals traced = churn.run(
        nowNs() + static_cast<uint64_t>(options.seconds / 2 * 1e9),
        UINT64_MAX, true, layers, spans, replayer);
    layers.vatEvictions += replayer.shadowEvictions();
    service->stop();
    collectServiceMetrics(*service, before, traced.batches, layers);
    reportPhases(options, run, &traced, setupS, layers, spans, result);
}

} // namespace perfbench
