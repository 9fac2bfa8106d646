/**
 * @file
 * check_inproc: the check path alone. One thread, no service. Each of
 * the 15 workload:: app models gets a DracoSoftwareChecker built on its
 * syscall-complete profile; the thread replays the apps' request
 * streams round-robin in 32-request batches of direct check() calls.
 *
 * The profile is generated from one seeded profiling trace and the
 * replayed stream from another, as a profile is trained on one run and
 * enforced on the next: the few argument sets the profiling trace
 * never saw are denied by the filter.
 */

#include "sim/machine.hh"
#include "support/random.hh"
#include "workload/appmodel.hh"
#include "workloads.hh"

using namespace draco;

namespace perfbench {

namespace {

constexpr size_t kProfilingCalls = 60000;
constexpr size_t kStreamBatches = 256; ///< Batches per app stream.

struct App {
    const workload::AppModel *model = nullptr;
    seccomp::Profile profile{"unset"};
    std::vector<os::SyscallRequest> reqs;
    std::vector<uint8_t> expected; ///< 1 when the reference allows.
    std::shared_ptr<const core::CompiledPolicy> policy;
    std::unique_ptr<core::DracoSoftwareChecker> checker;
    size_t pos = 0;
};

std::vector<App>
makeApps(uint64_t seed)
{
    std::vector<App> apps;
    for (const workload::AppModel &model : workload::allWorkloads()) {
        App app;
        app.model = &model;
        app.profile =
            sim::makeAppProfiles(model, splitSeed(seed, model.name + "/profile"),
                                 kProfilingCalls)
                .complete;
        workload::TraceGenerator gen(model,
                                     splitSeed(seed, model.name + "/stream"));
        while (app.reqs.size() < kStreamBatches * kBatch)
            app.reqs.push_back(gen.next().req);
        apps.push_back(std::move(app));
    }
    return apps;
}

/** Check one batch of @p app, gating every verdict. */
inline void
checkBatch(App &app, core::SwCheckOutcome *outs)
{
    const os::SyscallRequest *reqs = app.reqs.data() + app.pos;
    for (uint32_t i = 0; i < kBatch; ++i)
        outs[i] = app.checker->check(reqs[i]);
}

void
gate(const App &app, const core::SwCheckOutcome *outs)
{
    for (uint32_t i = 0; i < kBatch; ++i)
        if (outs[i].allowed != (app.expected[app.pos + i] != 0))
            die("verdict mismatch: check_inproc app %s request %zu: "
                "check() says %s, reference interpreter says %s",
                app.model->name.c_str(), app.pos + i,
                outs[i].allowed ? "allow" : "deny",
                outs[i].allowed ? "deny" : "allow");
}

void
advance(App &app)
{
    app.pos += kBatch;
    if (app.pos >= app.reqs.size())
        app.pos = 0;
}

PhaseTotals
runPhase(std::vector<App> &apps, double seconds, bool traced,
         LayerStats &layers, SpanLog &spans, StageReplayer &replayer)
{
    PhaseTotals tot;
    core::SwCheckOutcome outs[kBatch];
    uint8_t paths[kBatch];
    serve::CheckResponse resps[kBatch];
    uint64_t evictions0 = 0;
    for (const App &app : apps)
        evictions0 += app.checker->vat().evictions();

    const uint64_t cpu0 = processCpuNs();
    const uint64_t t0 = nowNs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    uint64_t end = t0;
    Windows windows(t0, deadline);
    for (uint64_t b = 0; end < deadline; ++b) {
        App &app = apps[b % apps.size()];
        const int32_t root = traced ? spans.root(b, nowNs()) : -1;
        const uint64_t s0 = nowNs();
        checkBatch(app, outs);
        const uint64_t s1 = nowNs();
        const double batchUs = static_cast<double>(s1 - s0) * 1e-3;
        tot.batchUs.add(batchUs);
        gate(app, outs);
        if (traced) {
            layers.checkNs.add(static_cast<double>(s1 - s0), kBatch);
            spans.child(root, "core.check", s0, s1, kBatch);
            for (uint32_t i = 0; i < kBatch; ++i) {
                layers.attribute(outs[i]);
                paths[i] = static_cast<uint8_t>(outs[i].path);
                ++layers.path[paths[i]];
            }
            if (b % kReplayEvery == 0) {
                const os::SyscallRequest *reqs = app.reqs.data() + app.pos;
                replayer.replay(*app.policy, app.checker->vat(), reqs,
                                kBatch, paths, layers, spans, root);
                for (uint32_t i = 0; i < kBatch; ++i) {
                    resps[i].status = outs[i].allowed
                        ? serve::CheckStatus::Allowed
                        : serve::CheckStatus::Denied;
                    resps[i].path = paths[i];
                    resps[i].epoch = 1;
                }
                replayer.wireRoundTrip(reqs, kBatch, resps, layers, spans,
                                       root);
            }
            if (b % kSnapshotEvery == 0)
                replayer.snapshotRoundTrip(*app.checker, layers, spans, root);
            spans.close(root, nowNs());
        }
        advance(app);
        tot.checks += kBatch;
        tot.attempted += kBatch;
        ++tot.batches;
        end = nowNs();
        windows.add(end, kBatch, batchUs);
    }
    windows.finish();
    tot.addWindows(windows);
    tot.wallS = secondsBetween(t0, end);
    tot.cpuNs = processCpuNs() - cpu0;
    if (traced) {
        uint64_t evictions = 0;
        for (const App &app : apps)
            evictions += app.checker->vat().evictions();
        layers.vatEvictions += evictions - evictions0;
    }
    return tot;
}

} // namespace

void
runCheckInproc(const Options &options, Result &result)
{
    // Inputs first: profiles and streams come from the seed alone.
    std::vector<App> apps = makeApps(options.seed);
    LayerStats layers;

    // Set-up: compile every app's policy and build its checker.
    const double setupS = medianSetup(
        [&] {
            for (App &app : apps) {
                app.policy = timedCompile(app.profile, layers);
                app.checker =
                    std::make_unique<core::DracoSoftwareChecker>(app.policy);
            }
        },
        [&] {
            for (App &app : apps) {
                app.checker.reset();
                app.policy.reset();
            }
        });

    // Verdict gate: every request's expected verdict, before timing.
    for (App &app : apps) {
        app.expected.resize(app.reqs.size());
        for (size_t i = 0; i < app.reqs.size(); ++i)
            app.expected[i] = referenceAllows(*app.policy, app.reqs[i]);
    }
    if (options.corruptVerdict)
        apps[0].expected[0] ^= 1;

    // Warm-up: one gated pass over every stream fills the VATs.
    core::SwCheckOutcome outs[kBatch];
    for (App &app : apps) {
        for (size_t b = 0; b < kStreamBatches; ++b) {
            checkBatch(app, outs);
            gate(app, outs);
            advance(app);
        }
    }

    StageReplayer replayer;
    for (App &app : apps)
        replayer.prepare(app.policy, {});
    SpanLog spans;
    PhaseTotals run = runPhase(apps, untracedSeconds(options), false, layers,
                               spans, replayer);
    if (!options.trace) {
        reportPhases(options, run, nullptr, setupS, layers, spans, result);
        return;
    }
    PhaseTotals traced = runPhase(apps, options.seconds / 2, true, layers,
                                  spans, replayer);
    reportPhases(options, run, &traced, setupS, layers, spans, result);
}

} // namespace perfbench
