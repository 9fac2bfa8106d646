/**
 * @file
 * dracoload — load generator for the check-serving subsystem.
 *
 * Replays a recorded trace (any format openTraceStream understands)
 * against a dracod daemon (--socket path or --connect host:port) or an
 * in-process CheckService (--shards), dealing events round-robin (or
 * --zipf skewed) across N tenants, as the consolidation experiments
 * do. The closed loop (the default) drives each tenant with blocking
 * batches; --mux-tenants multiplexes several tenants per driver and
 * connection, and --swap-profile-every hot-swaps each tenant's profile
 * through the --swap-profiles rotation at fixed batch boundaries.
 * --open-loop fires every batch without waiting, which pushes
 * admission control into visible load shedding.
 *
 * Overloaded verdicts are a backpressure signal, not a loss: shed
 * requests are re-sent up to --retries times, each after the server's
 * retryAfterUs hint capped by --retry-cap-us. The summary separates
 * `retried` from `shed` (still Overloaded when the budget ran out). A
 * request lost to a transport failure is a loss: dracoload warns with
 * the number unanswered and exits 1.
 *
 * The per-tenant lines printed at the end come from *server-side*
 * tenant stats, so closed-loop runs at different shard counts print
 * byte-identical lines — CI asserts it — swaps included: a swap fires
 * between two blocking batches of its tenant, at the same place in
 * the tenant's stream at any shard count.
 *
 * The drive loops, the retry step and the fingerprint are
 * serve/loadgen; this tool deals the trace, picks the backend and
 * reports.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "obs/tracer.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/cliflags.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "trace/replay.hh"

using namespace draco;
namespace loadgen = draco::serve::loadgen;

namespace {

/** Parse --swap-profiles: comma-separated built-in profile names. */
std::vector<std::string>
parseProfiles(const std::string &list)
{
    std::vector<std::string> profiles;
    size_t from = 0;
    while (from <= list.size()) {
        size_t comma = list.find(',', from);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(from, comma - from);
        if (!name.empty()) {
            if (!serve::builtinProfileByName(name))
                fatal("dracoload: --swap-profiles: unknown profile '%s'",
                      name.c_str());
            profiles.push_back(std::move(name));
        }
        from = comma + 1;
    }
    if (profiles.empty())
        fatal("dracoload: --swap-profiles names no profiles");
    return profiles;
}

/** One number of a report line. */
struct Field {
    const char *name;  ///< As printed.
    const char *json;  ///< Under the JSON prefix; nullptr: not recorded.
    uint64_t value;
};

/** Print `<head> name=value ...` and record the JSON-named fields. */
void
report(const std::string &head, std::initializer_list<Field> fields,
       MetricRegistry &registry, const std::string &prefix)
{
    std::string line = head;
    for (const Field &field : fields) {
        line += ' ';
        line += field.name;
        line += '=';
        line += std::to_string(field.value);
        if (field.json)
            registry.setCounter(prefix + "." + field.json, field.value);
    }
    puts(line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    support::CliFlags flags(
        "dracoload",
        "Replay a syscall trace against dracod (or an in-process "
        "service) across N tenants.");
    flags.addString("socket", "path",
                    "dracod Unix socket (omit to serve in-process)");
    flags.addString("connect", "host:port",
                    "dracod TCP endpoint (alternative to --socket)");
    flags.addString("trace", "path", "trace to replay (.dtrc/text/strace)");
    flags.addString("profile", "name",
                    "built-in profile every tenant runs",
                    "docker-default");
    flags.addUint("tenants", "n", "tenant count", 4);
    flags.addString("zipf", "s",
                    "deal events to tenants Zipf(s)-skewed instead of "
                    "round-robin (hot tenants model a real fleet)");
    flags.addUint("batch", "k", "requests per check batch", 32);
    flags.addUint("repeat", "n", "replay the trace this many times", 1);
    flags.addUint("max-events", "n", "cap events read from the trace",
                  1u << 20);
    flags.addUint("max-inflight", "n",
                  "per-tenant in-flight admission cap", 1024);
    flags.addUint("filter-copies", "n", "filter copies per tenant", 1);
    flags.addUint("shards", "n", "in-process service shards", 1);
    flags.addUint("queue-capacity", "n",
                  "in-process per-shard queue capacity", 4096);
    flags.addUint("max-batch", "n", "in-process drain batch", 64);
    flags.addUint("swap-profile-every", "n",
                  "hot-swap each tenant's profile every n completed "
                  "batches (closed loop only; 0 disables)", 0);
    flags.addString("swap-profiles", "a,b,...",
                    "built-in profiles the swap schedule rotates "
                    "through", "docker-default,gvisor");
    flags.addUint("mux-tenants", "n",
                  "closed loop: logical tenants multiplexed per "
                  "driver connection", 1);
    flags.addUint("retries", "n",
                  "re-submissions per Overloaded request", 3);
    flags.addUint("retry-cap-us", "us",
                  "cap on one retryAfterUs backoff wait", 50000);
    flags.addFlag("open-loop",
                  "fire batches without waiting (pushes backpressure)");
    flags.addString("latency-json", "path",
                    "write the full client-side latency breakdown "
                    "(per-tenant and merged quantile sketches) as JSON");
    flags.addFlag("shutdown", "send Shutdown to the daemon when done");
    flags.addCommon();

    if (!flags.parse(argc, argv)) {
        fprintf(stderr, "dracoload: %s\n%s", flags.error().c_str(),
                flags.helpText().c_str());
        return 1;
    }
    if (flags.helpRequested()) {
        fputs(flags.helpText().c_str(), stdout);
        return 0;
    }
    if (flags.str("trace").empty())
        fatal("dracoload: --trace is required");

    // ---- load and deal the trace ----

    trace::OpenedTrace opened = trace::openTraceStream(flags.str("trace"));
    if (!opened.ok())
        fatal("dracoload: %s: %s", flags.str("trace").c_str(),
              opened.error.c_str());

    uint64_t tenantCount = std::max<uint64_t>(1, flags.uintValue("tenants"));
    std::vector<loadgen::TenantLoad> tenants(tenantCount);
    for (uint64_t i = 0; i < tenantCount; ++i) {
        std::string name = "t";
        name += std::to_string(i);
        tenants[i].name = std::move(name);
    }

    double zipfSkew = 0.0;
    if (!flags.str("zipf").empty()) {
        char *end = nullptr;
        zipfSkew = strtod(flags.str("zipf").c_str(), &end);
        if (end == nullptr || *end != '\0' || zipfSkew < 0.0)
            fatal("dracoload: --zipf wants a non-negative number, got "
                  "'%s'", flags.str("zipf").c_str());
    }
    std::unique_ptr<ZipfSampler> zipf;
    Rng zipfRng(splitSeed(0x647261636f6c6fULL, "dracoload/zipf"));
    if (zipfSkew > 0.0)
        zipf = std::make_unique<ZipfSampler>(tenantCount, zipfSkew);

    uint64_t maxEvents = flags.uintValue("max-events");
    workload::TraceEvent event;
    uint64_t loaded = 0;
    while (loaded < maxEvents && opened.stream->next(event)) {
        uint64_t slot = zipf ? zipf->sample(zipfRng)
                             : loaded % tenantCount;
        tenants[slot].reqs.push_back(event.req);
        ++loaded;
    }
    if (loaded == 0)
        fatal("dracoload: trace %s holds no events",
              flags.str("trace").c_str());
    uint64_t repeat = std::max<uint64_t>(1, flags.uintValue("repeat"));
    if (repeat > 1) {
        for (loadgen::TenantLoad &tenant : tenants) {
            std::vector<os::SyscallRequest> base = tenant.reqs;
            tenant.reqs.reserve(base.size() * repeat);
            for (uint64_t r = 1; r < repeat; ++r)
                tenant.reqs.insert(tenant.reqs.end(), base.begin(),
                                   base.end());
        }
    }
    uint64_t totalRequests = 0;
    for (const loadgen::TenantLoad &tenant : tenants)
        totalRequests += tenant.reqs.size();

    // ---- backend ----

    if (!flags.str("socket").empty() && !flags.str("connect").empty())
        fatal("dracoload: --socket and --connect are exclusive");
    bool socketMode = !flags.str("socket").empty() ||
                      !flags.str("connect").empty();
    auto dialServer = [&flags]() {
        return flags.str("socket").empty()
                   ? serve::SocketClient::connectTcp(flags.str("connect"))
                   : serve::SocketClient::connect(flags.str("socket"));
    };
    obs::TraceSession session;
    std::unique_ptr<serve::CheckService> localService;
    std::unique_ptr<serve::SocketClient> socketClient;
    std::unique_ptr<serve::LocalClient> localClient;
    serve::Client *client = nullptr;

    if (socketMode) {
        socketClient = dialServer();
        if (!socketClient)
            return 1;
        client = socketClient.get();
    } else {
        if (!flags.str("trace-out").empty()) {
            obs::SessionConfig config;
            config.outPath = flags.str("trace-out");
            config.tracer.recordEvents = false;
            config.tracer.capacity = 1024;
            config.tracer.sampleEveryCycles =
                flags.given("sample-every")
                    ? flags.uintValue("sample-every") : 100000;
            session.configure(config);
        }
        serve::ServiceOptions options;
        options.shards =
            static_cast<unsigned>(flags.uintValue("shards"));
        options.queueCapacity =
            static_cast<uint32_t>(flags.uintValue("queue-capacity"));
        options.maxBatch =
            static_cast<uint32_t>(flags.uintValue("max-batch"));
        options.session = session.enabled() ? &session : nullptr;
        localService = std::make_unique<serve::CheckService>(options);
        localClient = std::make_unique<serve::LocalClient>(*localService);
        client = localClient.get();
    }

    serve::TenantOptions tenantOptions;
    tenantOptions.maxInFlight =
        static_cast<uint32_t>(flags.uintValue("max-inflight"));
    tenantOptions.filterCopies =
        static_cast<unsigned>(flags.uintValue("filter-copies"));
    if (const loadgen::TenantLoad *failed = loadgen::createTenants(
            *client, tenants, flags.str("profile"), tenantOptions))
        fatal("dracoload: could not create tenant %s",
              failed->name.c_str());

    // ---- drive ----

    uint32_t batch = static_cast<uint32_t>(
        std::max<uint64_t>(1, flags.uintValue("batch")));
    loadgen::RetryPolicy retryPolicy;
    retryPolicy.retries =
        static_cast<unsigned>(flags.uintValue("retries"));
    retryPolicy.capUs = static_cast<uint32_t>(
        std::max<uint64_t>(1, flags.uintValue("retry-cap-us")));

    loadgen::SwapPlan swapPlan;
    swapPlan.every = flags.uintValue("swap-profile-every");
    if (swapPlan.every > 0) {
        // Swaps need a blocking request stream to define the
        // boundary; the open-loop pipelines can't provide one.
        if (flags.flag("open-loop"))
            fatal("dracoload: --swap-profile-every needs the closed "
                  "loop (drop --open-loop)");
        swapPlan.profiles = parseProfiles(flags.str("swap-profiles"));
    }
    uint64_t mux = std::max<uint64_t>(1, flags.uintValue("mux-tenants"));
    if (mux > 1 && flags.flag("open-loop"))
        inform("dracoload: open loop already multiplexes every tenant "
               "on one connection; --mux-tenants ignored");

    auto start = std::chrono::steady_clock::now();

    if (flags.flag("open-loop")) {
        std::vector<loadgen::PlannedBatch> plan =
            loadgen::planRoundRobin(tenants, batch);
        if (socketMode) {
            // Every planned batch pipelined on the one connection.
            loadgen::Pipeline pipeline;
            pipeline.retry = retryPolicy;
            loadgen::runPipelined(tenants,
                                  {{socketClient->fd(), std::move(plan)}},
                                  pipeline);
        } else {
            loadgen::runOpenLoopLocal(*localService, tenants, plan,
                                      retryPolicy);
        }
    } else {
        // Tenants are dealt into groups of --mux-tenants; one driver
        // (and in socket mode one connection) serves a whole group.
        // The default group size of 1 keeps the original
        // one-tenant-per-driver closed loop.
        loadgen::ClosedLoop loop;
        loop.batch = batch;
        loop.groupSize = mux;
        if (flags.given("threads"))
            loop.drivers = static_cast<unsigned>(
                std::max<uint64_t>(1, flags.uintValue("threads")));
        loop.retry = retryPolicy;
        loop.swap = swapPlan;
        // Socket mode: a connection per driver, so drivers don't
        // serialize on one lock-step client.
        loadgen::runClosedLoop(
            tenants, loop, [&]() -> std::unique_ptr<serve::Client> {
                if (socketMode)
                    return dialServer();
                return std::make_unique<serve::LocalClient>(*localService);
            });
    }

    double wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    // ---- report ----

    loadgen::Tally total;
    for (const loadgen::TenantLoad &tenant : tenants)
        total.merge(tenant.tally);
    const uint64_t answered = total.answered();
    const QuantileSketch &latency = total.batchUs;

    MetricRegistry registry;
    registry.setText("load.trace", flags.str("trace"));
    registry.setText("load.mode",
                     flags.flag("open-loop") ? "open" : "closed");
    registry.setCounter("load.requests", totalRequests);
    registry.setCounter("load.answered", answered);
    for (size_t s = 0; s < loadgen::kStatusCount; ++s) {
        registry.setCounter(
            std::string("load.statuses.") +
                serve::checkStatusName(
                    static_cast<serve::CheckStatus>(s)),
            total.statuses[s]);
    }
    registry.setGauge("load.wall_seconds", wallSeconds);
    registry.setGauge("load.wall_qps",
                      wallSeconds > 0.0 ? answered / wallSeconds : 0.0);
    registry.setCounter("load.backpressure.retried", total.retried);
    registry.setCounter("load.backpressure.shed", total.shed);
    registry.setCounter("load.backpressure.retries_allowed",
                        retryPolicy.retries);
    registry.setCounter("load.backpressure.retry_cap_us",
                        retryPolicy.capUs);
    if (swapPlan.every > 0) {
        registry.setCounter("load.swap.every", swapPlan.every);
        registry.setCounter("load.swap.issued", total.swapsIssued);
        registry.setCounter("load.swap.failed", total.swapFailures);
    }
    if (latency.count() > 0) {
        registry.setGauge("load.latency_us.p50", latency.quantile(0.50));
        registry.setGauge("load.latency_us.p90", latency.quantile(0.90));
        registry.setGauge("load.latency_us.p99", latency.quantile(0.99));
    }

    // Server-side verdict lines: the CI determinism check compares
    // these across shard counts byte for byte.
    std::vector<serve::TenantStats> fingerprint;
    loadgen::readFingerprint(*client, tenants, fingerprint);
    for (size_t t = 0; t < tenants.size(); ++t) {
        const std::string &name = tenants[t].name;
        const serve::TenantStats &s = fingerprint[t];
        if (s.id == serve::kInvalidTenant) {
            warn("dracoload: no stats for tenant %s", name.c_str());
            continue;
        }
        report("tenant " + name,
               {{"checks", "checks", s.check.checks},
                {"allowed", "allowed", s.allowed},
                {"denied", "denied", s.denied},
                {"vat_hits", nullptr, s.check.vatHits},
                {"rejects", "rejects", s.rejects},
                {"epoch", "epoch", s.epoch},
                {"swaps", "swaps", s.swaps}},
               registry, "load.tenants." + MetricRegistry::sanitize(name));
    }
    // Service-wide lifecycle line (the dracod stats op): meaningful
    // when the server runs with a resident cap, harmless otherwise.
    serve::ServiceStatsSnapshot svc;
    if (client->serviceStats(svc)) {
        report("service",
               {{"tenants", "tenants", svc.tenants},
                {"resident", "resident", svc.resident},
                {"snapshotted", nullptr, svc.snapshotted},
                {"evictions", "evictions", svc.evictions},
                {"restores", "restores", svc.restores},
                {"restore_failures", "restore_failures",
                 svc.restoreFailures},
                {"policies", "dedup_policies", svc.dedupPolicies},
                {"dedup_hits", nullptr, svc.dedupHits},
                {"store_bytes", nullptr, svc.storeBytes},
                {"swaps", "swaps", svc.policySwaps},
                {"swap_failures", "swap_failures", svc.policySwapFailures},
                {"stale_discards", "stale_snapshot_discards",
                 svc.staleSnapshotDiscards},
                {"max_epoch", "max_epoch", svc.maxEpoch}},
               registry, "load.service");
    }
    printf("summary requests=%llu answered=%llu overloaded=%llu "
           "retried=%llu shed=%llu swaps=%llu wall_s=%.3f "
           "wall_qps=%.0f\n",
           static_cast<unsigned long long>(totalRequests),
           static_cast<unsigned long long>(answered),
           // Every final Overloaded verdict is a shed one.
           static_cast<unsigned long long>(total.shed),
           static_cast<unsigned long long>(total.retried),
           static_cast<unsigned long long>(total.shed),
           static_cast<unsigned long long>(total.swapsIssued),
           wallSeconds,
           wallSeconds > 0.0 ? answered / wallSeconds : 0.0);
    int status = 0;
    if (total.unanswered > 0) {
        warn("dracoload: %llu requests unanswered",
             static_cast<unsigned long long>(total.unanswered));
        status = 1;
    }

    if (!socketMode) {
        localService->stop();
        localService->exportMetrics(registry);
        if (session.enabled()) {
            session.exportMetrics(registry, "obs");
            session.writeOutput();
        }
    }
    if (!flags.str("json").empty())
        registry.writeJsonFile(flags.str("json"));

    // Full client-side latency breakdown: one sketch per tenant plus
    // the merged view, with counts, so a harness can compare tails
    // across tenants rather than settling for the three headline
    // gauges above.
    if (!flags.str("latency-json").empty()) {
        MetricRegistry lat;
        lat.setText("latency_us.source", "dracoload client round-trip");
        lat.setCounter("latency_us.all.count", latency.count());
        if (latency.count() > 0)
            lat.setQuantiles("latency_us.all.rtt", latency);
        for (const loadgen::TenantLoad &tenant : tenants) {
            std::string prefix = "latency_us.tenants." +
                                 MetricRegistry::sanitize(tenant.name);
            lat.setCounter(prefix + ".count",
                           tenant.tally.batchUs.count());
            if (tenant.tally.batchUs.count() > 0)
                lat.setQuantiles(prefix + ".rtt", tenant.tally.batchUs);
        }
        lat.writeJsonFile(flags.str("latency-json"));
    }

    if (socketMode && flags.flag("shutdown") &&
        !socketClient->shutdownServer()) {
        warn("dracoload: shutdown request failed");
        return 1;
    }
    return status;
}
