#include "layers.hh"

#include <algorithm>

#include "lifecycle/snapshot.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "support/metrics.hh"

using namespace draco;

namespace perfbench {

namespace {

constexpr const char *kStageNames[6] = {"parse", "submit", "queue",
                                        "check", "reply", "total"};

/** @return Whether @p path ran the fallback filter. */
bool
ranFilter(uint8_t path)
{
    return path == static_cast<uint8_t>(core::SwPath::FilterAllowed) ||
        path == static_cast<uint8_t>(core::SwPath::FilterDenied);
}

/** Keep the compiler from discarding a replayed call's result. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

} // namespace

void
LayerStats::attribute(const core::SwCheckOutcome &out)
{
    ++attrChecks;
    if (out.hashedBytes > 0)
        ++attrArg;
    if (out.filterInsns > 0)
        ++attrFilter;
    if (out.vatInserted)
        ++attrInsert;
}

void
LayerStats::merge(const LayerStats &o)
{
    for (Mean LayerStats::*m :
         {&LayerStats::checkNs, &LayerStats::sptNs, &LayerStats::argkeyNs,
          &LayerStats::vatLookupNs, &LayerStats::vatInsertNs,
          &LayerStats::vatHashNs, &LayerStats::keyBytes,
          &LayerStats::filterRunNs, &LayerStats::filterInsns,
          &LayerStats::compileUs, &LayerStats::wireEncodeNs,
          &LayerStats::wireDecodeNs, &LayerStats::encodeUs,
          &LayerStats::restoreUs})
        (this->*m).add((o.*m).sum, (o.*m).n);
    for (int p = 0; p < 4; ++p)
        path[p] += o.path[p];
    attrChecks += o.attrChecks;
    attrArg += o.attrArg;
    attrFilter += o.attrFilter;
    attrInsert += o.attrInsert;
    vatEvictions += o.vatEvictions;
    serviceBatchUs.merge(o.serviceBatchUs);
    swapUs.merge(o.swapUs);
}

void
LayerStats::report(Result &r) const
{
    const double checks = static_cast<double>(attrChecks ? attrChecks : 1);
    const double unattributed = checkNs.value() -
        (sptNs.value() +
         static_cast<double>(attrArg) / checks *
             (argkeyNs.value() + vatLookupNs.value()) +
         static_cast<double>(attrFilter) / checks * filterRunNs.value() +
         static_cast<double>(attrInsert) / checks * vatInsertNs.value());
    uint64_t base = 0;
    for (uint64_t p : path)
        base += p;
    auto frac = [&](uint64_t x) {
        return base ? static_cast<double>(x) / static_cast<double>(base)
                    : 0.0;
    };
    const uint64_t hits = path[static_cast<int>(core::SwPath::VatHit)];
    const uint64_t probed = hits +
        path[static_cast<int>(core::SwPath::FilterAllowed)] +
        path[static_cast<int>(core::SwPath::FilterDenied)];

    r.layer("core.check_ns", checkNs.value(), "ns");
    r.layer("core.spt_lookup_ns", sptNs.value(), "ns");
    r.layer("core.argkey_ns", argkeyNs.value(), "ns");
    r.layer("core.vat_lookup_ns", vatLookupNs.value(), "ns");
    r.layer("core.vat_insert_ns", vatInsertNs.value(), "ns");
    r.layer("core.unattributed_ns", unattributed, "ns");
    r.layer("core.path.spt_allow_all",
            frac(path[static_cast<int>(core::SwPath::SptAllowAll)]), "frac");
    r.layer("core.path.vat_hit", frac(hits), "frac");
    r.layer("core.path.filter_allowed",
            frac(path[static_cast<int>(core::SwPath::FilterAllowed)]),
            "frac");
    r.layer("core.path.filter_denied",
            frac(path[static_cast<int>(core::SwPath::FilterDenied)]),
            "frac");
    r.layer("core.path.base", static_cast<double>(base), "count");
    r.layer("core.vat_hit_ratio",
            probed ? static_cast<double>(hits) / static_cast<double>(probed)
                   : 0.0,
            "frac");
    r.layer("core.vat_evictions", static_cast<double>(vatEvictions),
            "count");
    r.layer("hash.vat_hash_ns", vatHashNs.value(), "ns");
    r.layer("hash.key_bytes", keyBytes.value(), "bytes");
    r.layer("seccomp.filter_run_ns", filterRunNs.value(), "ns");
    r.layer("seccomp.filter_insns", filterInsns.value(), "insns");
    r.layer("seccomp.compile_us", compileUs.value(), "us");
    for (int s = 0; s < 6; ++s) {
        const std::string stem =
            std::string("serve.stage.") + kStageNames[s] + "_us_";
        r.layer(stem + "p50", stageP50[s], "us");
        r.layer(stem + "p99", stageP99[s], "us");
    }
    r.layer("serve.service_batch_us_p50", serviceBatchUs.quantile(0.50),
            "us");
    r.layer("serve.service_batch_us_p99", serviceBatchUs.quantile(0.99),
            "us");
    r.layer("serve.wire_encode_ns", wireEncodeNs.value(), "ns");
    r.layer("serve.wire_decode_ns", wireDecodeNs.value(), "ns");
    r.layer("serve.drain_batch_avg", drainBatchAvg, "req");
    r.layer("serve.queue_peak_depth", queuePeakDepth, "req");
    r.layer("serve.rejects", rejects, "count");
    r.layer("lifecycle.encode_us", encodeUs.value(), "us");
    r.layer("lifecycle.restore_us", restoreUs.value(), "us");
    r.layer("lifecycle.evictions_per_1k", evictionsPer1k, "1/1k");
    r.layer("lifecycle.restores_per_1k", restoresPer1k, "1/1k");
    r.layer("lifecycle.restore_failures", restoreFailures, "count");
    r.layer("lifecycle.snapshot_bytes_per_evict", snapshotBytesPerEvict,
            "bytes");
    r.layer("lifecycle.resident_peak", residentPeak, "count");
    r.layer("policy.swap_us_p50", swapUs.quantile(0.50), "us");
    r.layer("policy.swap_us_p99", swapUs.quantile(0.99), "us");
    r.layer("policy.swaps", swaps, "count");
    r.layer("policy.stale_snapshot_discards", staleDiscards, "count");
    r.layer("policy.dedup_policies", dedupPolicies, "count");
    r.layer("policy.dedup_hits", dedupHits, "count");
    r.layer("obs.trace_overhead_pct", traceOverheadPct, "%");
}

StageReplayer::PolicyStages &
StageReplayer::stages(const core::CompiledPolicy &policy)
{
    auto it = _stages.find(&policy);
    if (it == _stages.end())
        die("stage replay of an unprepared policy (%s)",
            policy.profile.name().c_str());
    return it->second;
}

void
StageReplayer::prepare(
    const std::shared_ptr<const core::CompiledPolicy> &policy,
    const std::vector<os::SyscallRequest> &warm)
{
    PolicyStages &st = _stages[policy.get()];
    st.shadow = std::make_unique<core::DracoSoftwareChecker>(policy);
    for (const os::SyscallRequest &req : warm)
        st.shadow->check(req);
    for (const auto &[sid, spec] : policy->specs)
        if (spec.checksArguments())
            st.insertVat.configure(sid, spec.bitmask, spec.estimatedSets);
}

core::DracoSoftwareChecker &
StageReplayer::shadow(const core::CompiledPolicy &policy)
{
    return *stages(policy).shadow;
}

void
StageReplayer::replay(const core::CompiledPolicy &policy,
                      const core::Vat &lookupVat,
                      const os::SyscallRequest *reqs, uint32_t n,
                      const uint8_t *paths, LayerStats &acc,
                      SpanLog &spans, int32_t root)
{
    PolicyStages &st = stages(policy);
    const core::CheckSpec *specs[kBatch] = {};
    core::ArgKey keys[kBatch];
    uint32_t argIdx[kBatch];
    uint32_t argN = 0;

    // SPT: the per-sid spec lookup every check starts with.
    uint64_t t0 = nowNs();
    for (uint32_t i = 0; i < n; ++i) {
        auto it = policy.specs.find(reqs[i].sid);
        specs[i] = it == policy.specs.end() ? nullptr : &it->second;
    }
    uint64_t t1 = nowNs();
    acc.sptNs.add(static_cast<double>(t1 - t0), n);
    spans.child(root, "core.spt_lookup", t0, t1, n);

    for (uint32_t i = 0; i < n; ++i)
        if (specs[i] && specs[i]->checksArguments())
            argIdx[argN++] = i;
    if (argN > 0) {
        t0 = nowNs();
        for (uint32_t k = 0; k < argN; ++k) {
            const os::SyscallRequest &req = reqs[argIdx[k]];
            seccomp::ArgVector args;
            std::copy(req.args.begin(), req.args.end(), args.begin());
            keys[k] = core::ArgKey(specs[argIdx[k]]->bitmask, args);
        }
        t1 = nowNs();
        acc.argkeyNs.add(static_cast<double>(t1 - t0), argN);
        spans.child(root, "core.argkey", t0, t1, argN);
        for (uint32_t k = 0; k < argN; ++k)
            acc.keyBytes.add(keys[k].size());

        t0 = nowNs();
        for (uint32_t k = 0; k < argN; ++k) {
            uint64_t h1 = core::vatHash(CuckooWay::H1, keys[k]);
            uint64_t h2 = core::vatHash(CuckooWay::H2, keys[k]);
            keep(h1);
            keep(h2);
        }
        t1 = nowNs();
        acc.vatHashNs.add(static_cast<double>(t1 - t0), argN);
        spans.child(root, "hash.vat_hash", t0, t1, argN);

        t0 = nowNs();
        for (uint32_t k = 0; k < argN; ++k) {
            auto hit = lookupVat.lookup(reqs[argIdx[k]].sid, keys[k]);
            keep(hit);
        }
        t1 = nowNs();
        acc.vatLookupNs.add(static_cast<double>(t1 - t0), argN);
        spans.child(root, "core.vat_lookup", t0, t1, argN);
    }

    // Filter fallback on the requests whose real check ran it.
    uint32_t filterN = 0;
    uint64_t insns = 0;
    t0 = nowNs();
    for (uint32_t i = 0; i < n; ++i) {
        if (!ranFilter(paths[i]))
            continue;
        seccomp::BpfResult r = policy.filter.run(reqs[i].toSeccompData());
        insns += r.insnsExecuted;
        ++filterN;
    }
    t1 = nowNs();
    if (filterN > 0) {
        acc.filterRunNs.add(static_cast<double>(t1 - t0), filterN);
        acc.filterInsns.add(static_cast<double>(insns), filterN);
        spans.child(root, "seccomp.filter_run", t0, t1, filterN);
    }

    // VAT insert of the sets the real check validated.
    uint32_t insIdx[kBatch];
    uint32_t insN = 0;
    for (uint32_t k = 0; k < argN; ++k)
        if (paths[argIdx[k]] ==
            static_cast<uint8_t>(core::SwPath::FilterAllowed))
            insIdx[insN++] = k;
    if (insN > 0) {
        t0 = nowNs();
        for (uint32_t j = 0; j < insN; ++j)
            st.insertVat.insert(reqs[argIdx[insIdx[j]]].sid, keys[insIdx[j]]);
        t1 = nowNs();
        acc.vatInsertNs.add(static_cast<double>(t1 - t0), insN);
        spans.child(root, "core.vat_insert", t0, t1, insN);
        for (uint32_t j = 0; j < insN; ++j)
            st.insertVat.erase(reqs[argIdx[insIdx[j]]].sid, keys[insIdx[j]]);
    }
}

void
StageReplayer::shadowCheck(const core::CompiledPolicy &policy,
                           const os::SyscallRequest *reqs, uint32_t n,
                           LayerStats &acc, SpanLog &spans, int32_t root)
{
    core::DracoSoftwareChecker &checker = *stages(policy).shadow;
    core::SwCheckOutcome outs[kBatch];
    const uint64_t t0 = nowNs();
    for (uint32_t i = 0; i < n; ++i)
        outs[i] = checker.check(reqs[i]);
    const uint64_t t1 = nowNs();
    acc.checkNs.add(static_cast<double>(t1 - t0), n);
    spans.child(root, "core.check", t0, t1, n);
    for (uint32_t i = 0; i < n; ++i)
        acc.attribute(outs[i]);
}

uint64_t
StageReplayer::shadowEvictions() const
{
    uint64_t evictions = 0;
    for (const auto &[policy, st] : _stages)
        evictions += st.shadow->vat().evictions();
    return evictions;
}

void
StageReplayer::snapshotRoundTrip(const core::DracoSoftwareChecker &checker,
                                 LayerStats &acc, SpanLog &spans,
                                 int32_t root)
{
    static const std::string kTenant = "perfbench";
    uint64_t t0 = nowNs();
    std::vector<uint8_t> bytes =
        lifecycle::encodeSnapshot(kTenant, checker, 1);
    uint64_t t1 = nowNs();
    acc.encodeUs.add(static_cast<double>(t1 - t0) * 1e-3);
    spans.child(root, "lifecycle.encode_snapshot", t0, t1, 1);

    t0 = nowNs();
    core::DracoSoftwareChecker fresh(checker.policy());
    std::string error;
    const bool ok = lifecycle::restoreSnapshot(
        bytes, kTenant, checker.policy()->programKey, 1, fresh, &error);
    t1 = nowNs();
    if (!ok)
        die("restoreSnapshot failed: %s", error.c_str());
    acc.restoreUs.add(static_cast<double>(t1 - t0) * 1e-3);
    spans.child(root, "lifecycle.restore_snapshot", t0, t1, 1);
}

void
StageReplayer::wireRoundTrip(const os::SyscallRequest *reqs, uint32_t n,
                             const serve::CheckResponse *resps,
                             LayerStats &acc, SpanLog &spans, int32_t root)
{
    serve::wire::CheckBatch batch;
    batch.batchId = 1;
    batch.tenantId = 1;
    batch.reqs.assign(reqs, reqs + n);
    serve::wire::CheckBatchReply reply;
    reply.batchId = 1;
    reply.resps.assign(resps, resps + n);
    std::vector<uint8_t> replyBytes;

    uint64_t t0 = nowNs();
    _wire.clear();
    serve::wire::encode(_wire, batch);
    serve::wire::encode(replyBytes, reply);
    uint64_t t1 = nowNs();
    acc.wireEncodeNs.add(static_cast<double>(t1 - t0));
    spans.child(root, "serve.wire_encode", t0, t1, 2);

    serve::wire::CheckBatch batchBack;
    serve::wire::CheckBatchReply replyBack;
    t0 = nowNs();
    const bool ok = serve::wire::decode(_wire, batchBack) &&
        serve::wire::decode(replyBytes, replyBack);
    t1 = nowNs();
    if (!ok || batchBack.reqs.size() != n || replyBack.resps.size() != n)
        die("wire round trip of a %u-request batch failed", n);
    acc.wireDecodeNs.add(static_cast<double>(t1 - t0));
    spans.child(root, "serve.wire_decode", t0, t1, 2);
}

std::shared_ptr<const core::CompiledPolicy>
timedCompile(const seccomp::Profile &profile, LayerStats &acc)
{
    const uint64_t t0 = nowNs();
    auto policy = core::CompiledPolicy::compile(profile);
    acc.compileUs.add(static_cast<double>(nowNs() - t0) * 1e-3);
    return policy;
}

void
collectServiceMetrics(const serve::CheckService &service,
                      const serve::ServiceStatsSnapshot &before,
                      uint64_t batches, LayerStats &layers)
{
    serve::ServiceStatsSnapshot after;
    service.serviceStats(after);
    const double per1k = batches ? 1000.0 / static_cast<double>(batches) : 0;
    const uint64_t evictions = after.evictions - before.evictions;
    layers.evictionsPer1k = static_cast<double>(evictions) * per1k;
    layers.restoresPer1k =
        static_cast<double>(after.restores - before.restores) * per1k;
    layers.snapshotBytesPerEvict = evictions
        ? static_cast<double>(after.snapshotBytesWritten -
                              before.snapshotBytesWritten) /
            static_cast<double>(evictions)
        : 0.0;
    layers.restoreFailures = static_cast<double>(after.restoreFailures);
    layers.staleDiscards = static_cast<double>(after.staleSnapshotDiscards);
    layers.swaps = static_cast<double>(after.policySwaps - before.policySwaps);
    layers.dedupPolicies = static_cast<double>(after.dedupPolicies);
    layers.dedupHits = static_cast<double>(after.dedupHits);

    MetricRegistry reg;
    service.exportMetrics(reg, "serve");
    reg.visit([&](const MetricView &m) {
        if (m.name == "serve.batch_size" && m.kind == MetricKind::Stat)
            layers.drainBatchAvg = m.stat->mean();
        else if (m.name == "serve.rejects.total")
            layers.rejects = static_cast<double>(m.counter);
        else if (m.name.rfind("serve.shards.", 0) == 0 &&
                 m.name.size() > 11 &&
                 m.name.compare(m.name.size() - 11, 11, ".peak_depth") == 0)
            layers.queuePeakDepth = std::max(layers.queuePeakDepth,
                                             static_cast<double>(m.counter));
    });
}

} // namespace perfbench
