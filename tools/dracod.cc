/**
 * @file
 * dracod — the syscall-check serving daemon.
 *
 * Hosts a serve::CheckService behind a Unix-domain socket (--socket),
 * a TCP endpoint (--listen host:port), or both at once, speaking the
 * serve/wire protocol from a fixed pool of epoll event-loop threads
 * (--event-threads). Clients (dracoload, or anything else speaking
 * the protocol) create tenants by profile name and stream check
 * batches; the daemon runs until a Shutdown frame or SIGINT/SIGTERM,
 * then drains, optionally writes its `serve.*` metrics as JSON and its
 * per-shard telemetry as a trace, and exits.
 *
 * Typical CI/EXPERIMENTS use:
 *   dracod --socket /tmp/dracod.sock --shards 4 \
 *          --json dracod_metrics.json &
 *   dracoload --socket /tmp/dracod.sock --trace sample.dtrc --shutdown
 */

#include <algorithm>
#include <csignal>
#include <string>

#include "lifecycle/store.hh"
#include "obs/serveobs.hh"
#include "obs/tracer.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/cliflags.hh"
#include "support/epoll.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

using namespace draco;

namespace {

serve::SocketServer *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    support::CliFlags flags(
        "dracod", "Serve syscall checks for multiple tenants over a "
                  "Unix-domain socket and/or TCP.");
    flags.addString("socket", "path", "Unix-domain socket to listen on");
    flags.addString("listen", "host:port",
                    "TCP endpoint to listen on (port 0 picks a free "
                    "port)");
    flags.addUint("event-threads", "n",
                  "connection event-loop thread count", 2);
    flags.addUint("shards", "n", "shard (worker thread) count", 1);
    flags.addUint("queue-capacity", "n",
                  "bounded per-shard queue, in requests", 4096);
    flags.addUint("max-batch", "n", "max requests drained per wakeup",
                  64);
    flags.addUint("max-tenants", "n", "tenant table capacity", 4096);
    flags.addUint("max-resident-tenants", "n",
                  "resident-tenant budget; colder tenants snapshot to "
                  "the store and restore on demand (0 = unbounded)", 0);
    flags.addString("snapshot-dir", "path",
                    "directory for evicted-tenant .dtss snapshots "
                    "(default: in-memory store)");
    flags.addString("metrics-listen", "host:port",
                    "HTTP observability endpoint: /metrics (Prometheus "
                    "text), /healthz, /statz, /slowz (port 0 picks a "
                    "free port)");
    flags.addUint("slow-us", "n",
                  "capture requests slower than n microseconds "
                  "(admit to reply-flushed) into the /slowz ring "
                  "(0 = off; needs --metrics-listen)", 0);
    flags.addCommon();

    if (!flags.parse(argc, argv)) {
        fprintf(stderr, "dracod: %s\n%s", flags.error().c_str(),
                flags.helpText().c_str());
        return 1;
    }
    if (flags.helpRequested()) {
        fputs(flags.helpText().c_str(), stdout);
        return 0;
    }
    if (flags.str("socket").empty() && flags.str("listen").empty())
        fatal("dracod: --socket and/or --listen is required");

    obs::TraceSession session;
    if (!flags.str("trace-out").empty()) {
        obs::SessionConfig config;
        config.outPath = flags.str("trace-out");
        // The serve tracks carry telemetry channels only; keep the
        // per-track event ring tiny.
        config.tracer.recordEvents = false;
        config.tracer.capacity = 1024;
        config.tracer.sampleEveryCycles =
            flags.given("sample-every") ? flags.uintValue("sample-every")
                                        : 100000;
        session.configure(config);
    }

    serve::ServiceOptions options;
    options.shards = static_cast<unsigned>(flags.uintValue("shards"));
    options.queueCapacity =
        static_cast<uint32_t>(flags.uintValue("queue-capacity"));
    options.maxBatch =
        static_cast<uint32_t>(flags.uintValue("max-batch"));
    options.maxTenants =
        static_cast<uint32_t>(flags.uintValue("max-tenants"));
    options.session = session.enabled() ? &session : nullptr;
    options.maxResidentTenants = static_cast<uint32_t>(
        flags.uintValue("max-resident-tenants"));
    std::unique_ptr<lifecycle::DirSnapshotStore> snapshotStore;
    if (!flags.str("snapshot-dir").empty()) {
        snapshotStore = std::make_unique<lifecycle::DirSnapshotStore>(
            flags.str("snapshot-dir"));
        if (!snapshotStore->ok())
            fatal("dracod: cannot use snapshot dir '%s'",
                  flags.str("snapshot-dir").c_str());
        options.snapshotStore = snapshotStore.get();
        if (options.maxResidentTenants == 0)
            warn("dracod: --snapshot-dir without "
                 "--max-resident-tenants; no tenant will ever be "
                 "evicted to it");
    }

    // Thousands of concurrent connections need more than the default
    // 1024-fd soft limit most distros (and CI runners) ship with.
    support::raiseFdLimit(16384);

    serve::CheckService service(options);
    serve::ServerOptions serverOptions;
    serverOptions.socketPath = flags.str("socket");
    serverOptions.tcpAddress = flags.str("listen");
    serverOptions.eventThreads = static_cast<unsigned>(
        std::max<uint64_t>(1, flags.uintValue("event-threads")));
    serverOptions.metricsAddress = flags.str("metrics-listen");
    serverOptions.slowUs =
        static_cast<uint32_t>(flags.uintValue("slow-us"));
    if (serverOptions.slowUs != 0 &&
        serverOptions.metricsAddress.empty())
        warn("dracod: --slow-us has no effect without "
             "--metrics-listen");
    serve::SocketServer server(service, serverOptions);
    if (!server.start())
        fatal("dracod: could not listen (socket '%s', tcp '%s')",
              flags.str("socket").c_str(), flags.str("listen").c_str());

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::string where;
    if (!serverOptions.socketPath.empty())
        where += "unix:" + serverOptions.socketPath;
    if (server.tcpPort() != 0) {
        if (!where.empty())
            where += " + ";
        where += "tcp port " + std::to_string(server.tcpPort());
    }
    inform("dracod: serving on %s (%u shards, queue %u, batch %u, "
           "%u event threads)",
           where.c_str(), service.shards(), options.queueCapacity,
           options.maxBatch, serverOptions.eventThreads);
    if (server.metricsPort() != 0)
        inform("dracod: metrics port %u (/metrics /healthz /statz "
               "/slowz, slow threshold %u us)",
               server.metricsPort(), serverOptions.slowUs);
    server.wait();
    gServer = nullptr;
    service.stop();

    inform("dracod: served %llu checks, shed %llu, "
           "%llu connections accepted, %llu reaped",
           static_cast<unsigned long long>(service.totalChecks()),
           static_cast<unsigned long long>(service.totalRejects()),
           static_cast<unsigned long long>(server.connectionsAccepted()),
           static_cast<unsigned long long>(server.connectionsReaped()));
    if (service.lifecycleEnabled()) {
        serve::ServiceStatsSnapshot ls;
        service.serviceStats(ls);
        inform("dracod: lifecycle: %llu evictions, %llu restores "
               "(%llu failed), %llu distinct policies for %llu tenants",
               static_cast<unsigned long long>(ls.evictions),
               static_cast<unsigned long long>(ls.restores),
               static_cast<unsigned long long>(ls.restoreFailures),
               static_cast<unsigned long long>(ls.dedupPolicies),
               static_cast<unsigned long long>(ls.tenants));
    }
    serve::ServiceStatsSnapshot ps;
    service.serviceStats(ps);
    if (ps.policySwaps > 0 || ps.policySwapFailures > 0 ||
        ps.staleSnapshotDiscards > 0) {
        inform("dracod: policy: %llu hot-swaps (%llu failed), "
               "%llu stale snapshots discarded, max epoch %llu",
               static_cast<unsigned long long>(ps.policySwaps),
               static_cast<unsigned long long>(ps.policySwapFailures),
               static_cast<unsigned long long>(ps.staleSnapshotDiscards),
               static_cast<unsigned long long>(ps.maxEpoch));
    }

    if (!flags.str("json").empty() || session.enabled()) {
        MetricRegistry registry;
        service.exportMetrics(registry);
        if (server.serveObs())
            server.serveObs()->exportMetrics(registry);
        if (session.enabled()) {
            session.exportMetrics(registry, "obs");
            session.writeOutput();
        }
        if (!flags.str("json").empty())
            registry.writeJsonFile(flags.str("json"));
    }
    return 0;
}
