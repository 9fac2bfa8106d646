/**
 * @file
 * Million-tenant lifecycle bench: bounded resident set under Zipf
 * access, with verdict streams byte-identical to never evicting.
 *
 * Two phases over the same synthetic fleet and the same deterministic
 * access sequence, each in its own process so that each phase's RSS is
 * its own (the all-resident phase runs in a child forked before the
 * evict-on phase, and sends its result back through a pipe):
 *
 *   evict-on:     --max-resident-tenants-style cap (default 10k over
 *                 1M tenants); a cold tenant's VAT is encoded into a
 *                 compact image (eviction count and tables under one
 *                 CRC) kept in its own tenant slot, and restored on
 *                 demand.
 *   all-resident: no cap — every tenant keeps its checker forever.
 *
 * Every tenant runs docker-default, so the content-addressed policy
 * store collapses one million compiles into one shared CompiledPolicy
 * (the dedup ratio the JSON reports). Accesses draw tenants from a
 * Zipf(s) distribution — a hot head keeps its checkers resident while
 * the cold tail churns through snapshot/restore — and each access is a
 * single check whose (status, path) pair folds into that tenant's
 * CRC-64 verdict fingerprint.
 *
 * The bench asserts (fatal on violation):
 *   - per-tenant fingerprints identical across the two phases, i.e.
 *     eviction is invisible to verdicts (snapshots restore the VAT
 *     slot-exactly);
 *   - the resident set never exceeds the cap (after each submission
 *     window, when post-drain enforcement has run);
 *   - dedup ratio (tenants / distinct policies) >= 100.
 *
 * JSON artifact: `figure.{tenants,cap,accesses,zipf_s,dedup_ratio,
 * fingerprints_match}`, `evict.{resident_peak,evictions,restores,
 * evictions_per_s,restores_per_s,snapshot_bytes_written,store_bytes,
 * rss_mb,...}` and `full.{resident,rss_mb,...}`. The snapshot byte
 * counters count VAT-image bytes (about 21 per eviction on
 * docker-default), not `.dtss` bytes.
 *
 * Scale knobs (CI smoke runs 10k tenants, cap 1k):
 *   --tenants N  --cap N  --accesses N  --zipf S
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hh"
#include "hash/crc64.hh"
#include "serve/service.hh"
#include "support/random.hh"
#include "workload/appmodel.hh"

using namespace draco;
using namespace draco::bench;

namespace {

constexpr unsigned kShards = 2;
constexpr uint32_t kWindow = 1024; ///< Accesses in flight per wait.
constexpr size_t kPoolSize = 4096; ///< Distinct requests in the pool.

struct Config {
    uint64_t tenants = 1'000'000;
    uint64_t cap = 10'000;
    uint64_t accesses = 1'000'000;
    double zipfS = 0.99;
};

/** Current VmRSS in MiB (0 when /proc is unavailable). */
double
residentMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        long kb;
        if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

/** Deterministic request pool both phases index identically. */
std::vector<os::SyscallRequest>
makePool()
{
    const workload::AppModel &app = *benchWorkloads().front();
    workload::TraceGenerator gen(
        app, splitSeed(workloadSeed(app), "tenant_scale/pool"));
    workload::Trace trace = gen.generate(kPoolSize);
    std::vector<os::SyscallRequest> pool;
    pool.reserve(trace.size());
    for (const workload::TraceEvent &ev : trace)
        pool.push_back(ev.req);
    return pool;
}

/** The request tenant @p t sees on its @p k-th access. */
const os::SyscallRequest &
requestFor(const std::vector<os::SyscallRequest> &pool, uint64_t t,
           uint64_t k)
{
    return pool[(t * 2654435761ULL + k) % pool.size()];
}

struct PhaseResult {
    std::vector<uint64_t> fingerprints; ///< Per tenant id-1; 0 = untouched.
    uint64_t residentPeak = 0;
    double wallSeconds = 0.0;
    double rssMb = 0.0;
    serve::ServiceStatsSnapshot stats;
};

/**
 * Run @p cfg.accesses Zipf-drawn checks against a fleet of
 * @p cfg.tenants, folding verdicts into per-tenant fingerprints.
 */
PhaseResult
runPhase(const Config &cfg, uint64_t residentCap,
         const std::vector<os::SyscallRequest> &pool,
         const std::vector<uint64_t> &accessTenant)
{
    serve::ServiceOptions options;
    options.shards = kShards;
    options.queueCapacity = 4 * kWindow;
    options.maxBatch = 64;
    options.maxTenants = static_cast<uint32_t>(cfg.tenants);
    options.maxResidentTenants = static_cast<uint32_t>(residentCap);
    serve::CheckService service(options);

    static const seccomp::Profile profile =
        seccomp::dockerDefaultProfile();
    for (uint64_t t = 0; t < cfg.tenants; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        serve::TenantId id = service.createTenant(name, profile);
        if (id != t + 1)
            fatal("tenant_scale: tenant %" PRIu64 " got id %u", t, id);
    }

    // The per-shard cap rounds up, so the service-wide bound the bench
    // may observe is shards * ceil(cap / shards).
    const uint64_t residentBound =
        residentCap == 0
            ? cfg.tenants
            : kShards * ((residentCap + kShards - 1) / kShards);

    PhaseResult result;
    result.fingerprints.assign(cfg.tenants, 0);
    std::vector<uint64_t> perTenantSeq(cfg.tenants, 0);
    const Crc64 &crc = crc64Ecma();

    std::vector<os::SyscallRequest> reqs(kWindow);
    std::vector<serve::CheckResponse> resps(kWindow);
    std::vector<uint64_t> windowTenants(kWindow);

    const auto t0 = std::chrono::steady_clock::now();
    uint64_t done = 0;
    while (done < cfg.accesses) {
        const uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(kWindow, cfg.accesses - done));
        serve::Batch batch;
        for (uint32_t i = 0; i < n; ++i) {
            const uint64_t t = accessTenant[done + i];
            windowTenants[i] = t;
            reqs[i] = requestFor(pool, t, perTenantSeq[t]++);
            // One submit per access keeps per-tenant FIFO order while
            // the whole window shares a single completion wait.
            service.submitBatch(static_cast<serve::TenantId>(t + 1),
                                &reqs[i], 1, &resps[i], batch);
        }
        batch.wait();
        for (uint32_t i = 0; i < n; ++i) {
            if (resps[i].status != serve::CheckStatus::Allowed &&
                resps[i].status != serve::CheckStatus::Denied)
                fatal("tenant_scale: access %" PRIu64 " shed (%s)",
                      done + i, serve::checkStatusName(resps[i].status));
            uint8_t bytes[2] = {static_cast<uint8_t>(resps[i].status),
                                resps[i].path};
            const uint64_t t = windowTenants[i];
            result.fingerprints[t] =
                crc.compute(bytes, sizeof(bytes), result.fingerprints[t]);
        }
        done += n;

        // Post-drain the cap must hold; a window whose final drain
        // exceeded it means eviction is broken.
        const uint64_t resident = service.residentTenants();
        result.residentPeak = std::max(result.residentPeak, resident);
        if (resident > residentBound)
            fatal("tenant_scale: %" PRIu64 " tenants resident, bound "
                  "%" PRIu64, resident, residentBound);
    }
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    result.rssMb = residentMb();
    service.serviceStats(result.stats);
    service.stop();
    return result;
}

/**
 * Call @p fn(data, bytes) on each part of @p r that crosses the pipe
 * from a child's phase, in order. @return false once one call does.
 */
template <typename Fn>
bool
forEachPart(PhaseResult &r, Fn &&fn)
{
    return fn(&r.residentPeak, sizeof(r.residentPeak)) &&
        fn(&r.wallSeconds, sizeof(r.wallSeconds)) &&
        fn(&r.rssMb, sizeof(r.rssMb)) && fn(&r.stats, sizeof(r.stats)) &&
        fn(r.fingerprints.data(), r.fingerprints.size() * sizeof(uint64_t));
}

/** A phase in a forked child, started by a byte on @c goFd. */
struct ChildPhase {
    pid_t pid = -1;
    int goFd = -1;     ///< Write end: one byte starts the phase.
    int resultFd = -1; ///< Read end: the child's PhaseResult.
};

/**
 * Fork a child that waits for joinPhase() and then runs runPhase().
 * Forked before any other phase, the child's heap holds only what this
 * process had then, so its rssMb counts that phase's heap alone; a
 * phase run after another in one process would also count pages the
 * first freed but the allocator kept. Call it before this process
 * starts a thread.
 */
ChildPhase
forkPhase(const Config &cfg, uint64_t residentCap,
          const std::vector<os::SyscallRequest> &pool,
          const std::vector<uint64_t> &accessTenant)
{
    int go[2];
    int result[2];
    if (::pipe(go) != 0 || ::pipe(result) != 0)
        fatal("tenant_scale: pipe: %s", std::strerror(errno));
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("tenant_scale: fork: %s", std::strerror(errno));
    if (pid == 0) {
        ::close(go[1]);
        ::close(result[0]);
        // EOF instead of the byte: the parent died first.
        char start = 0;
        if (::read(go[0], &start, 1) != 1)
            ::_exit(1);
        PhaseResult r = runPhase(cfg, residentCap, pool, accessTenant);
        std::FILE *out = ::fdopen(result[1], "wb");
        const bool sent = out &&
            forEachPart(r, [&](void *data, size_t n) {
                return std::fwrite(data, 1, n, out) == n;
            }) &&
            std::fclose(out) == 0;
        ::_exit(sent ? 0 : 1);
    }
    ::close(go[0]);
    ::close(result[1]);
    return {pid, go[1], result[0]};
}

/** Start @p child's phase and wait for its result. */
PhaseResult
joinPhase(const ChildPhase &child, uint64_t tenants)
{
    const char start = 1;
    const bool started = ::write(child.goFd, &start, 1) == 1;
    ::close(child.goFd);
    std::FILE *in = ::fdopen(child.resultFd, "rb");
    if (!in)
        fatal("tenant_scale: fdopen: %s", std::strerror(errno));
    PhaseResult r;
    r.fingerprints.resize(tenants);
    const bool received =
        started && forEachPart(r, [&](void *data, size_t n) {
            return std::fread(data, 1, n, in) == n;
        });
    std::fclose(in);
    int status = 0;
    if (!received || ::waitpid(child.pid, &status, 0) != child.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("tenant_scale: the child running a phase failed");
    return r;
}

void
recordPhase(MetricRegistry &registry, const std::string &prefix,
            const PhaseResult &phase)
{
    auto name = [&](const char *metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("resident_peak"), phase.residentPeak);
    registry.setCounter(name("resident_final"), phase.stats.resident);
    registry.setCounter(name("snapshotted"), phase.stats.snapshotted);
    registry.setCounter(name("evictions"), phase.stats.evictions);
    registry.setCounter(name("restores"), phase.stats.restores);
    registry.setCounter(name("restore_failures"),
                        phase.stats.restoreFailures);
    registry.setCounter(name("snapshot_bytes_written"),
                        phase.stats.snapshotBytesWritten);
    registry.setCounter(name("snapshot_bytes_read"),
                        phase.stats.snapshotBytesRead);
    registry.setCounter(name("store_bytes"), phase.stats.storeBytes);
    registry.setCounter(name("checks"), phase.stats.checks);
    registry.setGauge(name("wall_seconds"), phase.wallSeconds);
    registry.setGauge(name("rss_mb"), phase.rssMb);
    const double secs = phase.wallSeconds > 0.0 ? phase.wallSeconds : 1.0;
    registry.setGauge(name("evictions_per_s"),
                      static_cast<double>(phase.stats.evictions) / secs);
    registry.setGauge(name("restores_per_s"),
                      static_cast<double>(phase.stats.restores) / secs);
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc - 1; ++i) {
        if (std::strcmp(argv[i], "--tenants") == 0)
            cfg.tenants = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--cap") == 0)
            cfg.cap = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--accesses") == 0)
            cfg.accesses = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--zipf") == 0)
            cfg.zipfS = std::strtod(argv[i + 1], nullptr);
    }
    if (cfg.tenants == 0 || cfg.cap == 0 || cfg.accesses == 0)
        fatal("tenant_scale: --tenants/--cap/--accesses must be > 0");

    BenchReport report("tenant_scale", argc, argv);

    const auto pool = makePool();

    // One shared access sequence, drawn once: both phases replay it.
    std::vector<uint64_t> accessTenant(cfg.accesses);
    {
        ZipfSampler zipf(cfg.tenants, cfg.zipfS);
        Rng rng(splitSeed(0x74656e616e7473ULL, "tenant_scale/access"));
        for (uint64_t i = 0; i < cfg.accesses; ++i)
            accessTenant[i] = zipf.sample(rng);
    }

    inform("tenant_scale: %" PRIu64 " tenants, cap %" PRIu64
           ", %" PRIu64 " Zipf(%.2f) accesses",
           cfg.tenants, cfg.cap, cfg.accesses, cfg.zipfS);

    // The all-resident phase runs in a child forked before the capped
    // phase and started after it, so neither phase's RSS carries the
    // other's freed heap.
    const ChildPhase fullPhase = forkPhase(cfg, 0, pool, accessTenant);

    PhaseResult evict = runPhase(cfg, cfg.cap, pool, accessTenant);
    inform("tenant_scale: evict-on done: peak resident %" PRIu64
           ", %" PRIu64 " evictions, %" PRIu64 " restores, rss %.0f MB",
           evict.residentPeak, evict.stats.evictions,
           evict.stats.restores, evict.rssMb);

    PhaseResult full = joinPhase(fullPhase, cfg.tenants);
    inform("tenant_scale: all-resident done: rss %.0f MB", full.rssMb);

    // ---- the three asserts ----

    uint64_t mismatches = 0;
    for (uint64_t t = 0; t < cfg.tenants; ++t)
        if (evict.fingerprints[t] != full.fingerprints[t])
            ++mismatches;
    if (mismatches > 0)
        fatal("tenant_scale: %" PRIu64 " tenant verdict fingerprints "
              "diverged between evict-on and all-resident", mismatches);

    if (evict.stats.dedupPolicies == 0)
        fatal("tenant_scale: policy store is empty");
    const double dedupRatio =
        static_cast<double>(cfg.tenants) /
        static_cast<double>(evict.stats.dedupPolicies);
    if (dedupRatio < 100.0)
        fatal("tenant_scale: dedup ratio %.1f below 100x", dedupRatio);

    TextTable table("tenant lifecycle at scale (" +
                    std::to_string(cfg.tenants) + " tenants, cap " +
                    std::to_string(cfg.cap) + ")");
    table.setHeader({"phase", "resident_peak", "evict/s", "restore/s",
                     "snap_MB", "rss_MB", "wall_s"});
    const double evictSecs =
        evict.wallSeconds > 0.0 ? evict.wallSeconds : 1.0;
    table.addRow({"evict-on", std::to_string(evict.residentPeak),
                  TextTable::num(evict.stats.evictions / evictSecs, 0),
                  TextTable::num(evict.stats.restores / evictSecs, 0),
                  TextTable::num(evict.stats.snapshotBytesWritten / 1e6,
                                 1),
                  TextTable::num(evict.rssMb, 0),
                  TextTable::num(evict.wallSeconds, 2)});
    table.addRow({"all-resident", std::to_string(full.residentPeak),
                  "0", "0", "0",
                  TextTable::num(full.rssMb, 0),
                  TextTable::num(full.wallSeconds, 2)});
    table.print();
    std::printf("fingerprints identical across %" PRIu64
                " tenants; dedup ratio %.0fx (%" PRIu64 " policies)\n",
                cfg.tenants, dedupRatio, evict.stats.dedupPolicies);

    MetricRegistry &registry = report.registry();
    registry.setCounter("figure.tenants", cfg.tenants);
    registry.setCounter("figure.cap", cfg.cap);
    registry.setCounter("figure.accesses", cfg.accesses);
    registry.setGauge("figure.zipf_s", cfg.zipfS);
    registry.setGauge("figure.dedup_ratio", dedupRatio);
    registry.setCounter("figure.dedup_policies",
                        evict.stats.dedupPolicies);
    registry.setCounter("figure.fingerprints_match", 1);
    recordPhase(registry, "evict", evict);
    recordPhase(registry, "full", full);
    return 0;
}
