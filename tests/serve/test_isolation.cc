/**
 * @file
 * Noisy-neighbour isolation: a flooding tenant sharing a victim's shard
 * sheds its own excess at the per-tenant cap — the rejects are
 * attributed to the flooder, the victim completes every request with a
 * real verdict, and the victim's tail latency stays within a bounded
 * factor of its flood-free baseline (the shard queue ahead of any
 * victim batch is bounded by the flooder's in-flight cap, not by the
 * flooder's offered load).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "os/syscalls.hh"
#include "seccomp/profile.hh"
#include "serve/service.hh"
#include "support/stats.hh"

namespace draco::serve {
namespace {

constexpr int kVictimBatches = 300;
constexpr uint32_t kVictimBatch = 16;

os::SyscallRequest
readRequest()
{
    os::SyscallRequest req;
    req.sid = os::sc::read;
    req.pc = 0x1000;
    return req;
}

seccomp::Profile
allowReadProfile()
{
    seccomp::Profile profile("iso-test");
    profile.allow(os::sc::read);
    return profile;
}

double
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Run the victim's closed loop against @p service, asserting every
 * response is a real verdict; returns the batch latency sketch.
 */
QuantileSketch
runVictim(CheckService &service, TenantId victim)
{
    QuantileSketch latencyUs;
    std::vector<os::SyscallRequest> reqs(kVictimBatch, readRequest());
    std::vector<CheckResponse> resps(kVictimBatch);
    for (int b = 0; b < kVictimBatches; ++b) {
        auto t0 = std::chrono::steady_clock::now();
        Batch batch;
        service.submitBatch(victim, reqs.data(), kVictimBatch,
                            resps.data(), batch);
        batch.wait();
        latencyUs.add(elapsedUs(t0));
        for (const CheckResponse &resp : resps)
            EXPECT_EQ(resp.status, CheckStatus::Allowed);
    }
    return latencyUs;
}

TEST(Isolation, FlooderShedsItsOwnTrafficNotTheVictims)
{
    ServiceOptions options;
    options.shards = 1; // same shard: worst case for the victim
    options.queueCapacity = 4096;

    // Baseline: victim alone on the service shape under test.
    double baselineP99;
    {
        CheckService service(options);
        TenantId victim =
            service.createTenant("victim", allowReadProfile());
        ASSERT_NE(victim, kInvalidTenant);
        baselineP99 = runVictim(service, victim).quantile(0.99);
    }

    CheckService service(options);
    TenantId victim = service.createTenant("victim", allowReadProfile());
    TenantOptions floodOptions;
    floodOptions.maxInFlight = 64; // the isolation knob under test
    TenantId flooder = service.createTenant("flooder",
                                            allowReadProfile(),
                                            floodOptions);
    ASSERT_NE(victim, kInvalidTenant);
    ASSERT_NE(flooder, kInvalidTenant);

    // The flooder fires open-loop, far beyond its cap, for the whole
    // victim run. Its requests outlive the flood thread: the last
    // batches it submitted stay queued until service.stop() drains them.
    constexpr uint32_t kFloodBatch = 32;
    const std::vector<os::SyscallRequest> reqs(kFloodBatch, readRequest());
    std::atomic<bool> stopFlood{false};
    std::atomic<uint64_t> floodShed{0};
    std::thread floodThread([&] {
        while (!stopFlood.load()) {
            auto resps = std::make_shared<
                std::vector<CheckResponse>>(kFloodBatch);
            auto batch = std::make_shared<Batch>();
            // Keep completion asynchronous: count sheds, drop buffers.
            batch->onComplete([resps, batch, &floodShed] {
                for (const CheckResponse &resp : *resps)
                    if (resp.status == CheckStatus::Overloaded)
                        floodShed.fetch_add(1);
            });
            service.submitBatch(flooder, reqs.data(), kFloodBatch,
                                resps->data(), *batch);
        }
    });

    // The victim runs only once the flooder is past its cap: on a busy
    // host the flood thread may not be scheduled before a short victim
    // run ends, and the victim would then run uncontended.
    const auto floodDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (floodShed.load() == 0 &&
           std::chrono::steady_clock::now() < floodDeadline)
        std::this_thread::yield();

    QuantileSketch contended = runVictim(service, victim);
    stopFlood.store(true);
    floodThread.join();
    service.stop();

    // The flooder was shed (it offered unbounded load against a finite
    // cap) and every shed is attributed to it; the victim lost nothing.
    EXPECT_GT(floodShed.load(), 0u);
    TenantStats victimStats, floodStats;
    ASSERT_TRUE(service.tenantStats(victim, victimStats));
    ASSERT_TRUE(service.tenantStats(flooder, floodStats));
    EXPECT_EQ(victimStats.rejects, 0u);
    EXPECT_EQ(victimStats.allowed,
              static_cast<uint64_t>(kVictimBatches) * kVictimBatch);
    EXPECT_EQ(floodStats.rejects, floodShed.load());

    // Tail latency stays within a bounded factor of the baseline. The
    // factor is generous (wall-clock on a shared CI box is noisy) but
    // still catches the unbounded-queue failure mode, where the victim
    // would wait behind the flooder's entire offered load and p99 grows
    // by orders of magnitude.
    double bound = 100.0 * std::max(baselineP99, 10.0) + 10000.0;
    EXPECT_LE(contended.quantile(0.99), bound)
        << "baseline p99 " << baselineP99 << "us";
}

} // namespace
} // namespace draco::serve
