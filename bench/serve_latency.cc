/**
 * @file
 * Serving observability overhead: end-to-end dracod latency with the
 * obs pipeline off versus on, plus the server-side stage breakdown.
 *
 * 16 tenants send 32-request client batches to 4 shards draining up to
 * 64 requests per wakeup, through a real SocketServer over a Unix
 * socket, so the full request pipeline — admit, parse, enqueue, drain,
 * check, reply-flush — is on the measured path. Two phases replay
 * byte-identical per-tenant streams closed-loop:
 *
 *  - obs-off   no --metrics-listen: the stage-latency pipeline is
 *              compiled in but never stamps a clock or commits a
 *              histogram (the ServeObs hub does not exist).
 *  - obs-on    metrics endpoint bound on 127.0.0.1:0 with slow-request
 *              capture armed; every batch is stamped through all six
 *              stages and committed to the per-loop histograms, and a
 *              /metrics scrape runs mid-load to price the merge too.
 *
 * Each phase runs kRepeats times and reports the minimum wall time
 * (closed-loop wall is scheduling-noisy; min is the stable summary).
 * `figure.overhead_pct` is the obs-on wall cost over obs-off — the
 * budget is <3%. The headline table is the server-side stage
 * quantile breakdown (p50/p95/p99/p999 per stage) scraped from the
 * obs hub after the last obs-on run: the numbers dracod would serve
 * from /metrics under this load.
 *
 * Each tenant's server-side stats, every counter but the shard, are
 * asserted identical across every run of both phases — observability
 * must not perturb verdicts, VAT hits or filter runs (the determinism
 * contract; also test-enforced in tests/serve).
 */

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"
#include "obs/serveobs.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"

using namespace draco;
using namespace draco::bench;
namespace loadgen = draco::serve::loadgen;

namespace {

constexpr unsigned kTenants = 16;
constexpr uint32_t kClientBatch = 32;
constexpr unsigned kShards = 4;
constexpr int kRepeats = 3;

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    const int fd = serve::connectEndpoint(
        *serve::Endpoint::parseTcp("127.0.0.1:" + std::to_string(port)));
    if (fd < 0)
        return "";
    const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    std::string reply;
    char buf[4096];
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size()))
        for (ssize_t r; (r = ::read(fd, buf, sizeof buf)) > 0;)
            reply.append(buf, static_cast<size_t>(r));
    ::close(fd);
    return reply;
}

struct PhaseResult {
    double wallSeconds = 0.0;
    uint64_t checks = 0;
    QuantileSketch clientUs; ///< Client round-trip batch latency.
    std::vector<serve::TenantStats> fingerprint;
    bool scraped = false; ///< /metrics answered mid-load (obs-on).
};

/** One run of @p tenants (fresh tallies: taken by value). */
PhaseResult
runPhase(std::vector<loadgen::TenantLoad> tenants, bool obs, int repeat,
         MetricRegistry *stageOut)
{
    serve::ServiceOptions options;
    options.shards = kShards;
    options.queueCapacity = kTenants * kClientBatch * 4;
    options.maxBatch = 64;
    serve::CheckService service(options);

    serve::ServerOptions serverOptions;
    serverOptions.socketPath = "/tmp/draco_serve_latency_" +
        std::to_string(getpid()) + "_" + (obs ? "on" : "off") + "_" +
        std::to_string(repeat) + ".sock";
    serverOptions.eventThreads = 2;
    if (obs) {
        serverOptions.metricsAddress = "127.0.0.1:0";
        // High enough that capture is rare under this load; the point
        // is the armed stamp/commit path, not a saturated slow ring.
        serverOptions.slowUs = 10000;
    }
    serve::SocketServer server(service, serverOptions);
    if (!server.start())
        fatal("serve_latency: could not start server on %s",
              serverOptions.socketPath.c_str());

    auto setup = serve::SocketClient::connect(serverOptions.socketPath);
    if (!setup)
        fatal("serve_latency: setup connect failed");
    if (const loadgen::TenantLoad *failed =
            loadgen::createTenants(*setup, tenants, "docker-default"))
        fatal("serve_latency: createTenant(%s) failed",
              failed->name.c_str());

    loadgen::ClosedLoop loop;
    loop.batch = kClientBatch;
    loop.drivers = std::min<unsigned>(std::max(1u, benchThreads()),
                                      kTenants);
    PhaseResult result;
    const auto t0 = std::chrono::steady_clock::now();
    std::jthread load([&] {
        loadgen::runClosedLoop(tenants, loop, [&serverOptions] {
            return serve::SocketClient::connect(serverOptions.socketPath);
        });
    });

    // Scrape mid-load so the merge-on-scrape cost is inside the
    // measured window, exactly as a Prometheus poller would land.
    if (obs && server.metricsPort() != 0) {
        std::string reply = httpGet(server.metricsPort(), "/metrics");
        result.scraped =
            reply.find("200") != std::string::npos &&
            reply.find("draco_serve_stage_latency_us") !=
                std::string::npos;
        if (!result.scraped)
            fatal("serve_latency: mid-load /metrics scrape failed");
    }

    load.join();
    result.wallSeconds = secondsSince(t0);

    for (const loadgen::TenantLoad &tenant : tenants) {
        if (tenant.tally.unanswered > 0)
            fatal("serve_latency: %s lost requests", tenant.name.c_str());
        result.clientUs.merge(tenant.tally.batchUs);
    }
    if (!loadgen::readFingerprint(*setup, tenants, result.fingerprint))
        fatal("serve_latency: tenantStats failed");

    if (obs && stageOut)
        server.serveObs()->exportMetrics(*stageOut);

    server.stop();
    service.stop();
    result.checks = service.totalChecks();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("serve_latency", argc, argv);
    const std::vector<loadgen::TenantLoad> traffic = tenantTraffic(
        kTenants, std::max<size_t>(1, benchCalls() / kTenants));

    // Index 0 is obs-off, 1 obs-on.
    const char *const phases[] = {"obs-off", "obs-on"};
    std::vector<serve::TenantStats> fingerprint;
    double wall[2] = {};
    QuantileSketch client[2];
    uint64_t checks = 0;
    MetricRegistry stages;

    for (int repeat = 0; repeat < kRepeats; ++repeat) {
        for (int obs = 0; obs < 2; ++obs) {
            // The last obs-on run's hub feeds the stage breakdown.
            PhaseResult r = runPhase(
                traffic, obs, repeat,
                obs && repeat == kRepeats - 1 ? &stages : nullptr);

            // Verdicts must be identical with the pipeline on or off,
            // every repeat: observing a request never changes it.
            if (fingerprint.empty())
                fingerprint = r.fingerprint;
            if (!loadgen::sameFingerprint(r.fingerprint, fingerprint))
                fatal("serve_latency: verdicts diverged "
                      "(obs=%d repeat=%d)",
                      obs, repeat);

            checks = r.checks;
            if (wall[obs] == 0.0 || r.wallSeconds < wall[obs])
                wall[obs] = r.wallSeconds;
            client[obs].merge(r.clientUs);
        }
    }

    const double overheadPct =
        wall[0] > 0.0 ? (wall[1] - wall[0]) / wall[0] * 100.0 : 0.0;

    TextTable table("dracod observability overhead (" +
                    std::to_string(kTenants) + " tenants, " +
                    std::to_string(kShards) + " shards, min of " +
                    std::to_string(kRepeats) + " runs)");
    table.setHeader({"phase", "wall_s", "wall_qps", "client_p50_us",
                     "client_p99_us"});
    for (int obs = 0; obs < 2; ++obs)
        table.addRow({phases[obs], TextTable::num(wall[obs], 3),
                      TextTable::num(wall[obs] > 0.0
                                         ? static_cast<double>(checks) /
                                               wall[obs]
                                         : 0.0,
                                     0),
                      TextTable::num(client[obs].quantile(0.50), 1),
                      TextTable::num(client[obs].quantile(0.99), 1)});
    table.print();
    std::printf("overhead: %+.2f%% wall (budget <3%%)\n\n", overheadPct);

    // Headline: the server-side stage breakdown the obs hub measured —
    // what /metrics serves under this load.
    TextTable breakdown("server-side stage latency (obs-on, merged "
                        "across loops and shards)");
    breakdown.setHeader({"stage", "p50_us", "p95_us", "p99_us",
                         "p999_us", "count"});
    MetricRegistry &registry = report.registry();
    for (size_t st = 0; st < obs::kStageCount; ++st) {
        const obs::Stage stage = static_cast<obs::Stage>(st);
        const std::string name = obs::stageName(stage);
        QuantileSketch &sketch = stages.quantileSketch(
            "serve.obs.stages.all." + name + "_us");
        breakdown.addRow({name,
                          TextTable::num(sketch.quantile(0.50), 1),
                          TextTable::num(sketch.quantile(0.95), 1),
                          TextTable::num(sketch.quantile(0.99), 1),
                          TextTable::num(sketch.quantile(0.999), 1),
                          std::to_string(sketch.count())});
        const std::string prefix = "server.stages." + name;
        registry.setGauge(prefix + ".p50", sketch.quantile(0.50));
        registry.setGauge(prefix + ".p95", sketch.quantile(0.95));
        registry.setGauge(prefix + ".p99", sketch.quantile(0.99));
        registry.setGauge(prefix + ".p999", sketch.quantile(0.999));
        registry.setCounter(prefix + ".count", sketch.count());
    }
    breakdown.print();

    registry.setCounter("config.tenants", kTenants);
    registry.setCounter("config.shards", kShards);
    registry.setCounter("config.client_batch", kClientBatch);
    registry.setCounter("config.repeats", kRepeats);
    registry.setCounter("checks", checks);
    for (int obs = 0; obs < 2; ++obs) {
        const std::string prefix = obs ? "obs_on" : "obs_off";
        registry.setGauge(prefix + ".wall_seconds", wall[obs]);
        registry.setGauge(prefix + ".client_us.p50",
                          client[obs].quantile(0.50));
        registry.setGauge(prefix + ".client_us.p99",
                          client[obs].quantile(0.99));
    }
    registry.setGauge("figure.overhead_pct", overheadPct);
    return 0;
}
