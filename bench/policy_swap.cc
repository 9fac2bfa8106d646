/**
 * @file
 * Live policy hot-swap cost: steady-state check throughput with swaps
 * in flight versus attach-once, plus the latency of the swap itself.
 *
 * Eight tenants replay per-tenant workload streams closed-loop
 * (blocking 32-request batches, one driver thread and LocalClient per
 * tenant; a batch drains on its caller when the shard is idle) against
 * an in-process 2-shard CheckService. The sweep varies the swap
 * cadence: attach-once (the baseline — no swap ever lands, pricing the
 * subsystem's zero-cost claim for the hot path) and a hot-swap every
 * 1024 / 256 / 64 completed batches per tenant, rotating gvisor,
 * docker-default. Each cadence runs kRepeats times and reports the
 * minimum wall time; every updateProfile() call is timed individually
 * (catalog lookup, compile or share, drain to the FIFO boundary,
 * publish, checker rebuild) into the swap-latency quantiles.
 *
 * Every cadence also runs once on a 1-shard service; each tenant's
 * server-side stats, every counter but the shard, must be identical
 * across repeats and shard counts — the swap-boundary determinism
 * contract, also test- and CI-enforced — or the bench aborts.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hh"

using namespace draco;
using namespace draco::bench;
namespace loadgen = draco::serve::loadgen;

namespace {

constexpr unsigned kTenants = 8;
constexpr uint32_t kClientBatch = 32;
constexpr unsigned kShards = 2;
constexpr int kRepeats = 3;
constexpr uint64_t kCadences[] = {0, 1024, 256, 64};

struct PhaseResult {
    double wallSeconds = 0.0;
    uint64_t checks = 0;
    uint64_t swaps = 0;
    QuantileSketch swapUs;
    std::vector<serve::TenantStats> fingerprint;
};

/** One run of @p tenants (fresh tallies: taken by value). */
PhaseResult
runPhase(std::vector<loadgen::TenantLoad> tenants, uint64_t cadence,
         unsigned shards)
{
    serve::ServiceOptions options;
    options.shards = shards;
    options.queueCapacity = kTenants * kClientBatch * 4;
    options.maxBatch = 64;
    serve::CheckService service(options);
    serve::LocalClient client(service);
    if (const loadgen::TenantLoad *failed =
            loadgen::createTenants(client, tenants, "docker-default"))
        fatal("policy_swap: createTenant(%s) failed",
              failed->name.c_str());

    loadgen::ClosedLoop loop;
    loop.batch = kClientBatch;
    loop.swap.every = cadence;
    loop.swap.profiles = {"gvisor", "docker-default"};
    PhaseResult result;
    const auto t0 = std::chrono::steady_clock::now();
    loadgen::runClosedLoop(tenants, loop, [&service] {
        return std::make_unique<serve::LocalClient>(service);
    });
    result.wallSeconds = secondsSince(t0);

    for (const loadgen::TenantLoad &tenant : tenants) {
        if (tenant.tally.swapFailures > 0)
            fatal("policy_swap: swapProfile failed");
        result.swapUs.merge(tenant.tally.swapUs);
    }
    if (!loadgen::readFingerprint(client, tenants, result.fingerprint))
        fatal("policy_swap: tenantStats failed");
    for (const serve::TenantStats &stats : result.fingerprint)
        result.swaps += stats.swaps;
    service.stop();
    result.checks = service.totalChecks();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("policy_swap", argc, argv);
    const std::vector<loadgen::TenantLoad> traffic = tenantTraffic(
        kTenants, std::max<size_t>(1, benchCalls() / kTenants));

    TextTable table("policy hot-swap cost (" + std::to_string(kTenants) +
                    " tenants, " + std::to_string(kShards) +
                    " shards, min of " + std::to_string(kRepeats) +
                    " runs; cadence in batches/tenant)");
    table.setHeader({"cadence", "swaps", "wall_s", "ns_per_check",
                     "overhead_pct", "swap_p50_us", "swap_p99_us"});

    MetricRegistry &registry = report.registry();
    double baselineNs = 0.0;
    for (uint64_t cadence : kCadences) {
        PhaseResult best;
        QuantileSketch swapUs;
        std::vector<serve::TenantStats> expected;
        for (int repeat = 0; repeat < kRepeats; ++repeat) {
            PhaseResult r = runPhase(traffic, cadence, kShards);
            // Repeats replay identical streams: any fingerprint drift
            // is nondeterminism, not noise.
            if (expected.empty())
                expected = r.fingerprint;
            else if (!loadgen::sameFingerprint(r.fingerprint, expected))
                fatal("policy_swap: cadence %llu fingerprint drifted "
                      "across repeats",
                      static_cast<unsigned long long>(cadence));
            swapUs.merge(r.swapUs);
            if (best.wallSeconds == 0.0 ||
                r.wallSeconds < best.wallSeconds)
                best = std::move(r);
        }
        // Shard-count invariance: the 1-shard fingerprint must match
        // the 2-shard one — the swap-boundary determinism contract.
        if (!loadgen::sameFingerprint(
                runPhase(traffic, cadence, 1).fingerprint, expected))
            fatal("policy_swap: cadence %llu verdict fingerprint "
                  "differs between 1 and %u shards",
                  static_cast<unsigned long long>(cadence), kShards);

        const double nsPerCheck =
            best.checks > 0
                ? best.wallSeconds * 1e9 / static_cast<double>(best.checks)
                : 0.0;
        if (cadence == 0)
            baselineNs = nsPerCheck;
        const double overheadPct =
            baselineNs > 0.0 && cadence != 0
                ? (nsPerCheck - baselineNs) / baselineNs * 100.0
                : 0.0;

        const std::string label =
            cadence == 0 ? "attach-once" : std::to_string(cadence);
        table.addRow({label, std::to_string(best.swaps),
                      TextTable::num(best.wallSeconds, 3),
                      TextTable::num(nsPerCheck, 1),
                      cadence == 0 ? "-" : TextTable::num(overheadPct, 2),
                      swapUs.count() ? TextTable::num(swapUs.quantile(0.50), 1)
                                     : "-",
                      swapUs.count() ? TextTable::num(swapUs.quantile(0.99), 1)
                                     : "-"});

        const std::string prefix =
            "swap." +
            (cadence == 0 ? std::string("attach_once")
                          : "every_" + std::to_string(cadence));
        registry.setGauge(prefix + ".wall_seconds", best.wallSeconds);
        registry.setGauge(prefix + ".ns_per_check", nsPerCheck);
        registry.setCounter(prefix + ".swaps", best.swaps);
        registry.setCounter(prefix + ".checks", best.checks);
        if (cadence != 0) {
            registry.setGauge(prefix + ".overhead_pct", overheadPct);
            registry.setGauge(prefix + ".swap_latency_us.p50",
                              swapUs.quantile(0.50));
            registry.setGauge(prefix + ".swap_latency_us.p90",
                              swapUs.quantile(0.90));
            registry.setGauge(prefix + ".swap_latency_us.p99",
                              swapUs.quantile(0.99));
        }
    }
    table.print();
    std::printf("fingerprints identical on 1 and %u shards for every "
                "cadence\n",
                kShards);

    registry.setCounter("config.tenants", kTenants);
    registry.setCounter("config.shards", kShards);
    registry.setCounter("config.client_batch", kClientBatch);
    registry.setCounter("config.repeats", kRepeats);
    registry.setGauge("figure.attach_once_ns_per_check", baselineNs);
    return 0;
}
