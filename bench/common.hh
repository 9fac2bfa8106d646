/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench binary runs (workload × profile × mechanism) experiments
 * through ExperimentRunner and prints a TextTable whose rows mirror the
 * corresponding figure of the paper. Call counts scale with the
 * DRACO_BENCH_CALLS environment variable (default 150000 steady-state
 * syscalls per run).
 *
 * Sweeps execute on a support::ThreadPool: independent cells fan out
 * across `--threads N` (or DRACO_BENCH_THREADS; default: hardware
 * concurrency) worker threads. Parallelism never changes results —
 * every cell derives its seeds from its own coordinates via
 * splitSeed(), records into a private MetricRegistry shard, and the
 * shards merge back in cell-index order, so tables and BENCH_*.json
 * artifacts are byte-identical at any thread count.
 */

#ifndef DRACO_BENCH_COMMON_HH
#define DRACO_BENCH_COMMON_HH

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "draco/draco.hh"
#include "serve/loadgen.hh"
#include "support/threadpool.hh"

namespace draco::bench {

/** Default steady-state call count per experiment run. */
size_t benchCalls();

/**
 * Worker threads used for sweeps: the last `--threads N` seen by a
 * BenchReport constructor, else DRACO_BENCH_THREADS, else hardware
 * concurrency. Always at least 1.
 */
unsigned benchThreads();

/**
 * The process-wide trace session bench binaries record into.
 *
 * Disabled until a BenchReport constructor sees `--trace-out <path>`
 * (or env DRACO_TRACE_OUT); `--sample-every <cycles>` (or env
 * DRACO_TRACE_SAMPLE_EVERY) additionally turns on telemetry sampling.
 * runExperiment() claims one track per (kind, mechanism, workload)
 * cell, so any sweep exports the same byte-identical trace at any
 * `--threads N`. BenchReport::write() serializes the session next to
 * the JSON artifact.
 */
obs::TraceSession &benchTraceSession();

/** Shared trace/profile seed so every binary sees identical traces. */
inline constexpr uint64_t kBenchSeed = 7;

/** Profile flavours the figures compare. */
enum class ProfileKind {
    Insecure,       ///< Checks disabled.
    DockerDefault,  ///< The generic container profile.
    Noargs,         ///< App-specific syscall-ID whitelist.
    Complete,       ///< App-specific IDs + argument tuples.
    Complete2x,     ///< Complete, attached twice.
};

/** @return Figure label of @p kind ("insecure", "syscall-complete"...). */
const char *profileKindName(ProfileKind kind);

/**
 * Trace/profile seed of @p app's experiments: the per-workload
 * SplitMix64 stream of kBenchSeed. Shared by every (kind, mechanism)
 * cell of a workload so all columns see byte-identical syscalls and
 * the generated profiles cover exactly the measured trace.
 */
uint64_t workloadSeed(const workload::AppModel &app);

/**
 * Cache of generated app profiles, keyed by workload name (generation
 * replays a 300k-call profiling trace, so each binary does it once).
 *
 * Safe for concurrent use: the first caller of a key generates while
 * holding a per-key promise, later callers block on that promise, so
 * concurrent sweep cells generate each workload's profiles exactly
 * once.
 */
class ProfileCache
{
  public:
    /** @return The §X-B profiles for @p app. */
    const sim::AppProfiles &get(const workload::AppModel &app);

  private:
    struct Entry {
        std::promise<void> ready;
        std::shared_future<void> done;
        std::optional<sim::AppProfiles> profiles;
    };

    std::mutex _mutex;
    std::map<std::string, Entry> _cache;
};

/**
 * JSON artifact sink for one bench binary.
 *
 * Every binary constructs one BenchReport from its argv; experiments
 * record their RunResults (and any extra metrics) into the report's
 * MetricRegistry under hierarchical names, and the destructor writes
 * the registry as `BENCH_<name>.json` when an output location was
 * requested:
 *
 *  - `--json <path>` (or `--json=<path>`) writes to exactly @p path;
 *  - otherwise, env `DRACO_BENCH_JSON=<dir>` writes
 *    `<dir>/BENCH_<name>.json` (`.` for the working directory);
 *  - otherwise nothing is written and the binary only prints tables.
 *
 * The constructor also consumes `--threads N` / `--threads=N` (see
 * benchThreads()) and `--trace-out <path>` / `--sample-every <cycles>`
 * (see benchTraceSession()). The schema is documented in DESIGN.md §7,
 * the concurrency model in DESIGN.md §8, tracing in DESIGN.md §10.
 * Recording happens even when no path was requested, so tests can
 * inspect the registry.
 *
 * record() and mergeShard() serialize on an internal lock, so cells
 * may record concurrently; a failed JSON write is reported on stderr
 * with the path (never swallowed, never fatal from the destructor).
 */
class BenchReport
{
  public:
    /**
     * @param name Artifact name; becomes `BENCH_<name>.json`.
     * @param argc Binary's argc (scanned for `--json`/`--threads`).
     * @param argv Binary's argv.
     */
    BenchReport(const std::string &name, int argc = 0,
                char **argv = nullptr);

    /** Writes the artifact when one was requested and not yet written. */
    ~BenchReport();

    /** @return The registry metrics are recorded into. */
    MetricRegistry &registry() { return _registry; }

    /** @return true when a JSON output path was requested. */
    bool enabled() const { return !_path.empty(); }

    /** @return The resolved output path ("" when disabled). */
    const std::string &path() const { return _path; }

    /** Record @p result under `runs.<prefix>` (thread-safe). */
    void record(const std::string &prefix,
                const sim::RunResult &result);

    /** Merge a sweep cell's registry shard (thread-safe). */
    void mergeShard(const MetricRegistry &shard);

    /** Serialize now (idempotent; no-op when disabled). */
    void write();

  private:
    std::string _name;
    std::string _path;
    std::mutex _mutex;
    MetricRegistry _registry;
    bool _written = false;
};

/**
 * Record @p result under `runs.<prefix>` in a sweep cell's private
 * shard — the shard-side counterpart of BenchReport::record().
 */
void recordCell(MetricRegistry &shard, const std::string &prefix,
                const sim::RunResult &result);

/**
 * Run @p cells independent sweep cells on the bench thread pool.
 *
 * Each cell gets a private MetricRegistry shard to record into; after
 * all cells finish, the shards merge into @p report (when given) in
 * cell-index order. Cells must be self-contained — no shared mutable
 * state beyond ProfileCache — so any thread count and any scheduling
 * produce identical registries. Cell exceptions propagate (lowest
 * index wins) after the sweep drains.
 *
 * @param cells Number of cells.
 * @param cell Cell body; receives its index and its shard.
 * @param report Shard sink; may be nullptr (shards are discarded).
 */
void parallelCells(size_t cells,
                   const std::function<void(size_t, MetricRegistry &)> &cell,
                   BenchReport *report);

/**
 * Run one (workload, profile kind, mechanism) experiment with the bench
 * defaults.
 *
 * The trace seed is the per-workload stream (workloadSeed()); the
 * auxiliary timing streams split further per (kind, mechanism), so
 * every sweep cell owns statistically independent randomness.
 *
 * When benchTraceSession() is enabled the run records onto the
 * `<kind>/<mechanism>/<workload>` track — one single-writer track per
 * sweep cell, so concurrent cells never share a ring.
 *
 * @param app Workload.
 * @param kind Profile flavour (selects profile and filter copies).
 * @param mechanism Checking mechanism.
 * @param cache Profile cache shared across calls.
 * @param costs Kernel cost preset.
 */
sim::RunResult runExperiment(const workload::AppModel &app,
                             ProfileKind kind, sim::Mechanism mechanism,
                             ProfileCache &cache,
                             const os::KernelCosts &costs =
                                 os::newKernelCosts());

/** Row labels for the figure tables: all workloads, figure order. */
const std::vector<const workload::AppModel *> &benchWorkloads();

/** @return Wall seconds elapsed since @p since. */
inline double
secondsSince(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/**
 * Request streams for the serving benches: tenant t, named `t<t>`,
 * replays @p perTenant calls of bench workload t (wrapping) from seed
 * splitSeed(workloadSeed(app), t), so every run sends byte-identical
 * streams.
 */
std::vector<serve::loadgen::TenantLoad> tenantTraffic(unsigned tenants,
                                                      size_t perTenant);

/**
 * Emit a normalized-latency figure: one row per workload plus the
 * macro/micro averages, one column per configuration.
 *
 * The (workload × column) cells run via parallelCells(); column
 * producers must be thread-safe (runExperiment with a shared
 * ProfileCache is).
 *
 * @param title Table title.
 * @param columns Column label and a producer returning the full run
 *        result for a workload; the table shows its normalized time.
 * @param report Optional sink: each result is recorded under
 *        `runs.<column>.<workload>` and the column averages under
 *        `figure.<column>.average_{macro,micro}`.
 */
void printNormalizedFigure(
    const std::string &title,
    const std::vector<std::pair<
        std::string,
        std::function<sim::RunResult(const workload::AppModel &)>>>
        &columns,
    BenchReport *report = nullptr);

} // namespace draco::bench

#endif // DRACO_BENCH_COMMON_HH
