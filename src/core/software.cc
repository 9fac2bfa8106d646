#include "core/software.hh"

#include <algorithm>

#include "hash/crc64.hh"
#include "support/binio.hh"
#include "support/logging.hh"

namespace draco::core {

uint64_t
filterProgramKey(const seccomp::FilterChain &chain)
{
    std::vector<uint8_t> bytes;
    binio::putVarint(bytes, chain.programs().size());
    for (const seccomp::BpfProgram &program : chain.programs()) {
        binio::putVarint(bytes, program.insns().size());
        for (const seccomp::BpfInsn &insn : program.insns()) {
            binio::putU16(bytes, insn.code);
            binio::putU8(bytes, insn.jt);
            binio::putU8(bytes, insn.jf);
            binio::putU32(bytes, insn.k);
        }
    }
    return crc64Ecma().compute(bytes.data(), bytes.size());
}

CompiledPolicy::CompiledPolicy(const seccomp::Profile &profile_,
                               seccomp::DispatchShape shape_)
    : profile(profile_), shape(shape_),
      filter(seccomp::buildFilterChain(profile_, shape_)),
      specs(deriveCheckSpecs(profile_)),
      programKey(filterProgramKey(filter))
{
    if (!specs.empty())
        spt.resize(size_t{specs.rbegin()->first} + 1);
    for (const auto &[sid, spec] : specs) {
        SptEntry &entry = spt[sid];
        entry.valid = true;
        entry.bitmask = spec.bitmask;
        if (spec.checksArguments()) {
            entry.vatTable = static_cast<Vat::TableIndex>(argSpecs.size());
            argSpecs.push_back(spec);
        }
    }
}

seccomp::BpfResult
CompiledPolicy::runFilter(const os::SeccompData &data, unsigned copies) const
{
    seccomp::BpfResult result{};
    for (unsigned copy = 0; copy < copies; ++copy) {
        seccomp::BpfResult r = filter.run(data);
        result.action = r.action;
        result.insnsExecuted += r.insnsExecuted;
    }
    return result;
}

std::shared_ptr<const CompiledPolicy>
CompiledPolicy::compile(const seccomp::Profile &profile,
                        seccomp::DispatchShape shape)
{
    return std::make_shared<const CompiledPolicy>(profile, shape);
}

DracoSoftwareChecker::DracoSoftwareChecker(const seccomp::Profile &profile,
                                           unsigned filter_copies,
                                           seccomp::DispatchShape shape)
    : DracoSoftwareChecker(CompiledPolicy::compile(profile, shape),
                           filter_copies)
{
}

DracoSoftwareChecker::DracoSoftwareChecker(
    std::shared_ptr<const CompiledPolicy> policy, unsigned filter_copies)
    : _policy(std::move(policy)), _filterCopies(filter_copies)
{
    if (!_policy)
        fatal("DracoSoftwareChecker: null compiled policy");
    if (filter_copies == 0)
        fatal("DracoSoftwareChecker: need at least one filter copy");
    // The OS sizes one VAT table per argument-checking syscall from the
    // profile's estimated set counts (§VII-A); table k is argSpecs[k],
    // the position the SPT entries name.
    _vat.configure(_policy->argSpecs);
}

namespace {

/** @return The trace flow code of a software-check path. */
obs::FlowCode
swPathFlow(SwPath path)
{
    switch (path) {
      case SwPath::SptAllowAll: return obs::FlowCode::SptAllowAll;
      case SwPath::VatHit: return obs::FlowCode::VatHit;
      case SwPath::FilterAllowed: return obs::FlowCode::FilterAllowed;
      case SwPath::FilterDenied: return obs::FlowCode::Denied;
    }
    return obs::FlowCode::Denied;
}

} // namespace

void
DracoSoftwareChecker::setTracer(obs::Tracer *tracer)
{
    _tracer = tracer;
    _vat.setTracer(tracer);
}

SwCheckOutcome
DracoSoftwareChecker::check(const os::SyscallRequest &req)
{
    ++_stats.checks;
    SwCheckOutcome out;

    auto runFilter = [&] {
        seccomp::BpfResult result =
            _policy->runFilter(req.toSeccompData(), _filterCopies);
        ++_stats.filterRuns;
        _stats.filterInsns += result.insnsExecuted;
        out.filterInsns = result.insnsExecuted;
        if (_tracer) {
            _tracer->record(obs::EventKind::FilterRun, req.sid, req.pc,
                            0, result.insnsExecuted);
        }
        return os::actionAllows(
            static_cast<os::SeccompAction>(result.action));
    };

    auto traced = [&](SwCheckOutcome &o) -> SwCheckOutcome & {
        if (_tracer) {
            _tracer->record(obs::EventKind::SwCheck, req.sid, req.pc,
                            static_cast<uint8_t>(swPathFlow(o.path)));
        }
        return o;
    };

    const SptEntry *entry = _policy->sptEntry(req.sid);
    if (!entry) {
        // SPT Valid bit clear: nothing cached can help; the filter
        // decides (and, for whitelist profiles, denies).
        bool allowed = runFilter();
        out.allowed = allowed;
        out.path = allowed ? SwPath::FilterAllowed : SwPath::FilterDenied;
        if (!allowed)
            ++_stats.denials;
        return traced(out);
    }

    if (entry->bitmask == 0) {
        ++_stats.sptAllowAll;
        out.allowed = true;
        out.path = SwPath::SptAllowAll;
        return traced(out);
    }

    seccomp::ArgVector args;
    std::copy(req.args.begin(), req.args.end(), args.begin());
    ArgKey key(entry->bitmask, args);
    out.hashedBytes = key.size();

    if (_vat.lookupAt(entry->vatTable, key)) {
        ++_stats.vatHits;
        out.allowed = true;
        out.path = SwPath::VatHit;
        return traced(out);
    }

    bool allowed = runFilter();
    out.allowed = allowed;
    if (allowed) {
        out.vatInserted = true;
        out.vatEvicted = _vat.insertAt(entry->vatTable, key);
        ++_stats.vatInsertions;
        out.path = SwPath::FilterAllowed;
    } else {
        ++_stats.denials;
        out.path = SwPath::FilterDenied;
    }
    return traced(out);
}

void
exportStats(const SwCheckStats &stats, MetricRegistry &registry,
            const std::string &prefix)
{
    auto name = [&](const char *metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("checks"), stats.checks);
    registry.setCounter(name("spt_allow_all"), stats.sptAllowAll);
    registry.setCounter(name("vat_hits"), stats.vatHits);
    registry.setCounter(name("filter_runs"), stats.filterRuns);
    registry.setCounter(name("denials"), stats.denials);
    registry.setCounter(name("filter_insns"), stats.filterInsns);
    registry.setCounter(name("vat_insertions"), stats.vatInsertions);
    registry.setGauge(name("vat_hit_rate"),
                      stats.checks
                          ? static_cast<double>(stats.vatHits) /
                              static_cast<double>(stats.checks)
                          : 0.0);
}

void
DracoSoftwareChecker::exportMetrics(MetricRegistry &registry,
                                    const std::string &prefix) const
{
    exportStats(_stats, registry, prefix);
    _vat.exportMetrics(registry, MetricRegistry::join(prefix, "vat"));
}

} // namespace draco::core
