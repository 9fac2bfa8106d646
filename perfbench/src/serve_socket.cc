/**
 * @file
 * serve_socket: dracod's socket path. An in-process SocketServer on a
 * Unix socket (1 event loop) in front of a 2-shard CheckService serves
 * 16 tenants: 12 on docker-default, 2 on gvisor, 2 on firecracker. Two
 * client connections, one per client thread, run a closed loop of
 * 32-request SocketClient::checkBatch calls, because a confined process
 * blocks until its verdict arrives. Each tenant replays the request
 * stream of one workload:: app model.
 *
 * The ServeObs stage-latency hub is on only in the traced phase, which
 * runs against a second server (metrics endpoint on 127.0.0.1:0) in
 * front of the same service.
 */

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "obs/serveobs.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "workload/appmodel.hh"
#include "workload/generator.hh"
#include "workloads.hh"

using namespace draco;

namespace perfbench {

namespace {

constexpr unsigned kTenants = 16;
constexpr unsigned kShards = 2;
constexpr unsigned kClients = 2;
constexpr size_t kStreamBatches = 128; ///< Batches per tenant stream.

const char *const kProfileNames[3] = {"docker-default", "gvisor",
                                      "firecracker"};

struct Tenant {
    std::string name;
    unsigned profile = 0; ///< Index into kProfileNames.
    serve::TenantId id = serve::kInvalidTenant;
    std::vector<os::SyscallRequest> reqs;
    std::vector<uint8_t> expected;
    size_t pos = 0;
};

/** One served configuration: service, server and connected clients. */
struct Stack {
    std::unique_ptr<serve::CheckService> service;
    std::unique_ptr<serve::SocketServer> server;
    std::unique_ptr<serve::SocketClient> control;
    std::unique_ptr<serve::SocketClient> clients[kClients];

    void stopServer()
    {
        for (auto &c : clients)
            c.reset();
        control.reset();
        if (server)
            server->stop();
        server.reset();
    }
    void stopAll()
    {
        stopServer();
        if (service)
            service->stop();
        service.reset();
    }
};

std::string
socketPath(const Options &options, unsigned serial)
{
    return options.scratchDir + "/perfbench-" + std::to_string(getpid()) +
        "-" + std::to_string(serial) + ".sock";
}

/** Start a server in front of @p stack's service and connect clients. */
void
startServer(Stack &stack, const std::string &path, bool obs)
{
    serve::ServerOptions so;
    so.socketPath = path;
    so.eventThreads = 1;
    if (obs)
        so.metricsAddress = "127.0.0.1:0";
    stack.server = std::make_unique<serve::SocketServer>(*stack.service, so);
    if (!stack.server->start())
        die("serve_socket: cannot start a server on %s", path.c_str());
    stack.control = serve::SocketClient::connect(path);
    for (auto &c : stack.clients)
        c = serve::SocketClient::connect(path);
    if (!stack.control || !stack.clients[0] || !stack.clients[1])
        die("serve_socket: cannot connect to %s", path.c_str());
}

/** Gate one answered batch. @return Requests not Allowed/Denied. */
uint32_t
gate(const Tenant &t, uint32_t n, const serve::CheckResponse *resps,
     size_t pos)
{
    uint32_t failed = 0;
    for (uint32_t i = 0; i < n; ++i) {
        const serve::CheckStatus s = resps[i].status;
        if (s != serve::CheckStatus::Allowed &&
            s != serve::CheckStatus::Denied) {
            ++failed;
            continue;
        }
        const bool allowed = s == serve::CheckStatus::Allowed;
        if (resps[i].epoch != 1 || allowed != (t.expected[pos + i] != 0))
            die("verdict mismatch: serve_socket tenant %s request %zu "
                "epoch %llu: served %s, reference interpreter says %s",
                t.name.c_str(), pos + i,
                static_cast<unsigned long long>(resps[i].epoch),
                allowed ? "allow" : "deny",
                t.expected[pos + i] ? "allow" : "deny");
    }
    return failed;
}

/** Per-client-thread state of one phase. */
struct ClientThread {
    PhaseTotals tot;
    LayerStats layers;
    SpanLog spans{1u << 18};
    StageReplayer replayer;
    Windows windows;
    uint64_t end = 0;
};

void
clientLoop(unsigned d, std::vector<Tenant> &tenants, Stack &stack,
           serve::LocalClient *local,
           const std::vector<std::shared_ptr<const core::CompiledPolicy>>
               &policies,
           uint64_t deadline, bool traced, ClientThread &ct)
{
    serve::SocketClient &client = *stack.clients[d];
    serve::CheckResponse resps[kBatch];
    serve::CheckResponse localResps[kBatch];
    uint8_t paths[kBatch];
    uint64_t now = nowNs();
    for (uint64_t b = 0; now < deadline; ++b) {
        Tenant &t = tenants[d + kClients * (b % (kTenants / kClients))];
        const os::SyscallRequest *reqs = t.reqs.data() + t.pos;
        const uint64_t batchId = b * kClients + d;
        const int32_t root = traced ? ct.spans.root(batchId, nowNs()) : -1;
        const uint64_t s0 = nowNs();
        const bool ok = client.checkBatch(t.id, reqs, kBatch, resps);
        const uint64_t s1 = nowNs();
        ct.tot.attempted += kBatch;
        ++ct.tot.batches;
        if (!ok) {
            // A dead connection fails the rest of the phase's work.
            ct.tot.failed += kBatch;
            now = nowNs();
            break;
        }
        const double batchUs = static_cast<double>(s1 - s0) * 1e-3;
        ct.tot.batchUs.add(batchUs);
        const uint32_t failed = gate(t, kBatch, resps, t.pos);
        ct.tot.failed += failed;
        ct.tot.checks += kBatch - failed;
        ct.windows.add(s1, kBatch - failed, batchUs);
        if (traced) {
            LayerStats &acc = ct.layers;
            ct.spans.child(root, "serve.socket_check_batch", s0, s1, 1);
            for (uint32_t i = 0; i < kBatch; ++i) {
                paths[i] = resps[i].path;
                if (paths[i] < 4)
                    ++acc.path[paths[i]];
            }
            if (b % kReplayEvery == 0) {
                const core::CompiledPolicy &policy = *policies[t.profile];
                ct.replayer.shadowCheck(policy, reqs, kBatch, acc, ct.spans,
                                        root);
                ct.replayer.replay(policy, ct.replayer.shadow(policy).vat(),
                                   reqs, kBatch, paths, acc, ct.spans, root);
                ct.replayer.wireRoundTrip(reqs, kBatch, resps, acc, ct.spans,
                                          root);
                const uint64_t l0 = nowNs();
                if (!local->checkBatch(t.id, reqs, kBatch, localResps))
                    die("serve_socket: LocalClient::checkBatch failed");
                const uint64_t l1 = nowNs();
                gate(t, kBatch, localResps, t.pos);
                acc.serviceBatchUs.add(static_cast<double>(l1 - l0) * 1e-3);
                ct.spans.child(root, "serve.service_check_batch", l0, l1, 1);
            }
            if (b % kSnapshotEvery == 0)
                ct.replayer.snapshotRoundTrip(
                    ct.replayer.shadow(*policies[t.profile]), acc,
                    ct.spans, root);
            ct.spans.close(root, nowNs());
        }
        t.pos = (t.pos + kBatch) % t.reqs.size();
        now = nowNs();
    }
    ct.windows.finish();
    ct.end = now;
}

PhaseTotals
runPhase(std::vector<Tenant> &tenants, Stack &stack,
         const std::vector<std::shared_ptr<const core::CompiledPolicy>>
             &policies,
         double seconds, bool traced, LayerStats &layers, SpanLog &spans)
{
    ClientThread clients[kClients];
    if (traced) {
        // Shadow checkers warm on each client's own tenants' streams.
        for (unsigned d = 0; d < kClients; ++d)
            for (unsigned p = 0; p < 3; ++p) {
                std::vector<os::SyscallRequest> warm;
                for (unsigned t = d; t < kTenants; t += kClients)
                    if (tenants[t].profile == p)
                        warm.insert(warm.end(), tenants[t].reqs.begin(),
                                    tenants[t].reqs.end());
                clients[d].replayer.prepare(policies[p], warm);
            }
    }
    serve::LocalClient local(*stack.service);
    const uint64_t cpu0 = processCpuNs();
    const uint64_t t0 = nowNs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    for (ClientThread &ct : clients)
        ct.windows = Windows(t0, deadline);
    std::vector<std::thread> workers;
    for (unsigned d = 0; d < kClients; ++d)
        workers.emplace_back([&, d] {
            clientLoop(d, tenants, stack, &local, policies, deadline, traced,
                       clients[d]);
        });
    for (std::thread &worker : workers)
        worker.join();

    PhaseTotals tot;
    uint64_t end = t0;
    for (ClientThread &ct : clients) {
        tot.checks += ct.tot.checks;
        tot.attempted += ct.tot.attempted;
        tot.failed += ct.tot.failed;
        tot.batches += ct.tot.batches;
        tot.batchUs.merge(ct.tot.batchUs);
        tot.addWindows(ct.windows);
        end = std::max(end, ct.end);
        if (traced) {
            layers.merge(ct.layers);
            layers.vatEvictions += ct.replayer.shadowEvictions();
            spans.append(ct.spans);
        }
    }
    tot.wallS = secondsBetween(t0, end);
    tot.cpuNs = processCpuNs() - cpu0;
    return tot;
}

} // namespace

void
runServeSocket(const Options &options, Result &result)
{
    // Inputs: tenant streams from the seed, and the reference compiles
    // the verdict gate and the stage replays use.
    const auto &apps = workload::allWorkloads();
    std::vector<Tenant> tenants(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        Tenant &tn = tenants[t];
        tn.name = tenantName(t);
        tn.profile = t % 8 == 6 ? 1 : t % 8 == 7 ? 2 : 0;
        workload::TraceGenerator gen(apps[t % apps.size()],
                                     splitSeed(options.seed, "serve/" + tn.name));
        while (tn.reqs.size() < kStreamBatches * kBatch)
            tn.reqs.push_back(gen.next().req);
    }
    LayerStats layers;
    std::vector<std::shared_ptr<const core::CompiledPolicy>> policies;
    for (const char *name : kProfileNames)
        policies.push_back(
            timedCompile(*serve::builtinProfileByName(name), layers));
    for (Tenant &tn : tenants) {
        tn.expected.resize(tn.reqs.size());
        for (size_t i = 0; i < tn.reqs.size(); ++i)
            tn.expected[i] = referenceAllows(*policies[tn.profile], tn.reqs[i]);
    }
    if (options.corruptVerdict)
        tenants[0].expected[0] ^= 1;

    // Set-up: service, server start, connects, tenant creation.
    Stack stack;
    unsigned serial = 0;
    const double setupS = medianSetup(
        [&] {
            serve::ServiceOptions so;
            so.shards = kShards;
            so.queueCapacity = kTenants * kBatch * 4;
            so.maxBatch = 64;
            stack.service = std::make_unique<serve::CheckService>(so);
            startServer(stack, socketPath(options, serial++), false);
            for (Tenant &tn : tenants) {
                tn.id = stack.control->createTenant(
                    tn.name, kProfileNames[tn.profile]);
                if (tn.id == serve::kInvalidTenant)
                    die("serve_socket: createTenant(%s) failed",
                        tn.name.c_str());
            }
        },
        [&] { stack.stopAll(); });

    // Warm-up: one gated pass over every tenant's stream.
    serve::CheckResponse resps[kBatch];
    for (unsigned t = 0; t < kTenants; ++t) {
        Tenant &tn = tenants[t];
        for (size_t b = 0; b < kStreamBatches; ++b) {
            if (!stack.clients[t % kClients]->checkBatch(
                    tn.id, tn.reqs.data() + tn.pos, kBatch, resps))
                die("serve_socket: warm-up checkBatch failed");
            if (gate(tn, kBatch, resps, tn.pos))
                die("serve_socket: warm-up request shed");
            tn.pos = (tn.pos + kBatch) % tn.reqs.size();
        }
    }

    SpanLog spans;
    PhaseTotals run = runPhase(tenants, stack, policies,
                               untracedSeconds(options), false, layers,
                               spans);
    if (!options.trace) {
        stack.stopAll();
        reportPhases(options, run, nullptr, setupS, layers, spans, result);
        return;
    }

    // Traced phase: same service, a server with the ServeObs hub on.
    stack.stopServer();
    startServer(stack, socketPath(options, serial++), true);
    serve::ServiceStatsSnapshot before;
    stack.service->serviceStats(before);
    PhaseTotals traced = runPhase(tenants, stack, policies,
                                  options.seconds / 2, true, layers, spans);
    MetricRegistry obsReg;
    stack.server->serveObs()->exportMetrics(obsReg, "serve.obs");
    for (size_t s = 0; s < obs::kStageCount; ++s) {
        QuantileSketch &sketch = obsReg.quantileSketch(
            std::string("serve.obs.stages.all.") +
            obs::stageName(static_cast<obs::Stage>(s)) + "_us");
        layers.stageP50[s] = sketch.quantile(0.50);
        layers.stageP99[s] = sketch.quantile(0.99);
    }
    stack.stopServer();
    stack.service->stop();
    collectServiceMetrics(*stack.service, before, traced.batches, layers);
    stack.stopAll();
    reportPhases(options, run, &traced, setupS, layers, spans, result);
}

} // namespace perfbench
