#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "buildinfo.hh"
#include "hash/crc64.hh"
#include "support/cliflags.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define DRACO_BENCH_CPUID 1
#endif

namespace draco::bench {

size_t
benchCalls()
{
    static const size_t calls = [] {
        const char *env = std::getenv("DRACO_BENCH_CALLS");
        if (env) {
            long v = std::atol(env);
            if (v > 0)
                return static_cast<size_t>(v);
            warn("ignoring invalid DRACO_BENCH_CALLS='%s'", env);
        }
        return static_cast<size_t>(150000);
    }();
    return calls;
}

namespace {

/** Thread count requested via `--threads N` (0: not given). */
unsigned threadsArg = 0;

/** Sample interval requested via `--sample-every N` (0: not given). */
uint64_t sampleEveryArg = 0;

/**
 * Enable benchTraceSession() from the parsed `--trace-out` /
 * `--sample-every` values (env fallbacks DRACO_TRACE_OUT /
 * DRACO_TRACE_SAMPLE_EVERY). Later BenchReports in the same process
 * reuse the already-configured session.
 */
void
configureTraceSession(std::string outPath)
{
    if (outPath.empty()) {
        if (const char *env = std::getenv("DRACO_TRACE_OUT");
            env && *env)
            outPath = env;
    }
    if (sampleEveryArg == 0) {
        if (const char *env = std::getenv("DRACO_TRACE_SAMPLE_EVERY");
            env && *env) {
            long long v = std::atoll(env);
            if (v > 0)
                sampleEveryArg = static_cast<uint64_t>(v);
            else
                warn("ignoring invalid DRACO_TRACE_SAMPLE_EVERY='%s'",
                     env);
        }
    }
    if (outPath.empty()) {
        if (sampleEveryArg)
            warn("ignoring --sample-every without --trace-out");
        return;
    }
    if (benchTraceSession().enabled())
        return;
    obs::SessionConfig config;
    config.outPath = outPath;
    config.tracer.sampleEveryCycles = sampleEveryArg;
    benchTraceSession().configure(config);
}

/**
 * CPU brand string from CPUID leaves 0x80000002..4 ("AMD EPYC 7..."),
 * whitespace-normalized. "unknown" off x86 or on very old CPUs.
 */
std::string
cpuBrandString()
{
#ifdef DRACO_BENCH_CPUID
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
        eax >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i + 0],
                        &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        char raw[sizeof(regs) + 1] = {};
        std::memcpy(raw, regs, sizeof(regs));
        std::string brand;
        for (const char *p = raw; *p; ++p) {
            if (*p == ' ' && (brand.empty() || brand.back() == ' '))
                continue;
            brand.push_back(*p);
        }
        while (!brand.empty() && brand.back() == ' ')
            brand.pop_back();
        if (!brand.empty())
            return brand;
    }
#endif
    return "unknown";
}

/**
 * Stamp compiler/flags/CPU attribution into a report registry. Every
 * value here is independent of thread count and run parameters, so the
 * byte-identical-at-any---threads contract still holds.
 */
void
recordBuildInfo(MetricRegistry &registry)
{
    registry.setText("build.compiler", DRACO_BUILD_COMPILER);
    registry.setText("build.type", DRACO_BUILD_TYPE);
    registry.setText("build.flags", DRACO_BUILD_CXX_FLAGS);
    registry.setText("cpu.brand", cpuBrandString());
#ifdef DRACO_BENCH_CPUID
    registry.setCounter("cpu.sse42",
                        __builtin_cpu_supports("sse4.2") ? 1 : 0);
    registry.setCounter("cpu.pclmul",
                        __builtin_cpu_supports("pclmul") ? 1 : 0);
#else
    registry.setCounter("cpu.sse42", 0);
    registry.setCounter("cpu.pclmul", 0);
#endif
    registry.setText("build.crc64_engine", crc64EngineName());
}

} // namespace

obs::TraceSession &
benchTraceSession()
{
    static obs::TraceSession session;
    return session;
}

unsigned
benchThreads()
{
    if (threadsArg)
        return threadsArg;
    static const unsigned fromEnv = [] {
        const char *env = std::getenv("DRACO_BENCH_THREADS");
        if (env) {
            long v = std::atol(env);
            if (v > 0)
                return static_cast<unsigned>(v);
            warn("ignoring invalid DRACO_BENCH_THREADS='%s'", env);
        }
        return 0u;
    }();
    if (fromEnv)
        return fromEnv;
    return support::ThreadPool::hardwareConcurrency();
}

const char *
profileKindName(ProfileKind kind)
{
    switch (kind) {
      case ProfileKind::Insecure: return "insecure";
      case ProfileKind::DockerDefault: return "docker-default";
      case ProfileKind::Noargs: return "syscall-noargs";
      case ProfileKind::Complete: return "syscall-complete";
      case ProfileKind::Complete2x: return "syscall-complete-2x";
    }
    return "?";
}

uint64_t
workloadSeed(const workload::AppModel &app)
{
    return splitSeed(kBenchSeed, app.name);
}

BenchReport::BenchReport(const std::string &name, int argc, char **argv)
    : _name(name)
{
    // Lenient parse: bench binaries layer their own argv handling on
    // top of the common flags, so unknown tokens pass through and
    // malformed values of known flags warn and keep their defaults.
    support::CliFlags flags(_name);
    flags.addCommon();
    flags.parse(argc, argv, /*lenient=*/true);
    if (flags.given("json"))
        _path = flags.str("json");
    if (flags.given("threads"))
        threadsArg = static_cast<unsigned>(flags.uintValue("threads"));
    if (flags.given("sample-every"))
        sampleEveryArg = flags.uintValue("sample-every");
    configureTraceSession(flags.str("trace-out"));
    if (_path.empty()) {
        if (const char *dir = std::getenv("DRACO_BENCH_JSON"); dir && *dir)
            _path = std::string(dir) + "/BENCH_" + _name + ".json";
    }
    // The thread count is deliberately NOT recorded: the artifact must
    // be byte-identical at any --threads value.
    _registry.setText("bench.name", _name);
    _registry.setCounter("bench.schema_version", 1);
    _registry.setCounter("bench.calls", benchCalls());
    _registry.setCounter("bench.seed", kBenchSeed);
    recordBuildInfo(_registry);
}

BenchReport::~BenchReport()
{
    write();
}

void
BenchReport::record(const std::string &prefix,
                    const sim::RunResult &result)
{
    std::lock_guard<std::mutex> lock(_mutex);
    result.exportMetrics(_registry,
                         MetricRegistry::join("runs", prefix));
}

void
BenchReport::mergeShard(const MetricRegistry &shard)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _registry.merge(shard);
}

void
BenchReport::write()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_written)
        return;
    _written = true;

    // The trace artifact is independent of the JSON one: `--trace-out`
    // without `--json` still exports the trace.
    obs::TraceSession &session = benchTraceSession();
    if (session.enabled()) {
        session.exportMetrics(_registry, "obs");
        if (session.writeOutput())
            std::printf("\nwrote %s (%llu events)\n",
                        session.outPath().c_str(),
                        static_cast<unsigned long long>(
                            session.totalEvents()));
    }

    if (_path.empty())
        return;
    if (_registry.tryWriteJsonFile(_path))
        std::printf("\nwrote %s\n", _path.c_str());
    else
        std::fprintf(stderr,
                     "error: failed to write bench report '%s'\n",
                     _path.c_str());
}

const sim::AppProfiles &
ProfileCache::get(const workload::AppModel &app)
{
    Entry *entry;
    bool owner;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto [it, inserted] = _cache.try_emplace(app.name);
        entry = &it->second;
        owner = inserted;
        if (inserted)
            entry->done = entry->ready.get_future().share();
    }
    if (owner) {
        // Same seed as runExperiment's measurement trace, so the
        // 300k-call profiling trace is a superset of any measured run.
        entry->profiles.emplace(
            sim::makeAppProfiles(app, workloadSeed(app), 300000));
        entry->ready.set_value();
    } else {
        entry->done.wait();
    }
    return *entry->profiles;
}

void
recordCell(MetricRegistry &shard, const std::string &prefix,
           const sim::RunResult &result)
{
    result.exportMetrics(shard, MetricRegistry::join("runs", prefix));
}

void
parallelCells(size_t cells,
              const std::function<void(size_t, MetricRegistry &)> &cell,
              BenchReport *report)
{
    if (cells == 0)
        return;

    // Each cell records into its own shard; merging happens once, in
    // index order, after the sweep drains — so the merged registry is
    // independent of worker count and scheduling.
    std::vector<MetricRegistry> shards(cells);
    unsigned workers = static_cast<unsigned>(
        std::min<size_t>(benchThreads(), cells));
    support::ThreadPool pool(workers);
    pool.parallelFor(cells,
                     [&](size_t i) { cell(i, shards[i]); });

    if (report)
        for (const MetricRegistry &shard : shards)
            report->mergeShard(shard);
}

sim::RunResult
runExperiment(const workload::AppModel &app, ProfileKind kind,
              sim::Mechanism mechanism, ProfileCache &cache,
              const os::KernelCosts &costs)
{
    sim::RunOptions options;
    options.mechanism = mechanism;
    options.costs = &costs;
    options.steadyCalls = benchCalls();
    // Per-workload trace stream, shared by every (kind, mechanism)
    // column so they all replay byte-identical syscalls; the auxiliary
    // timing streams (ROB sampling, cache noise) split further per
    // cell so concurrent sweep cells never share generator state.
    options.seed = workloadSeed(app);
    options.auxSeed =
        splitSeed(splitSeed(options.seed, static_cast<uint64_t>(kind)),
                  static_cast<uint64_t>(mechanism));

    static const seccomp::Profile insecure = seccomp::insecureProfile();
    static const seccomp::Profile docker =
        seccomp::dockerDefaultProfile();

    const seccomp::Profile *profile = &insecure;
    switch (kind) {
      case ProfileKind::Insecure:
        options.mechanism = sim::Mechanism::Insecure;
        break;
      case ProfileKind::DockerDefault:
        profile = &docker;
        break;
      case ProfileKind::Noargs:
        profile = &cache.get(app).noargs;
        break;
      case ProfileKind::Complete:
        profile = &cache.get(app).complete;
        break;
      case ProfileKind::Complete2x:
        profile = &cache.get(app).complete;
        options.filterCopies = 2;
        break;
    }

    // One track per sweep cell, named by its coordinates, so export
    // order (name-sorted) is independent of scheduling.
    options.tracer = benchTraceSession().tracer(
        std::string(profileKindName(kind)) + "/" +
        sim::mechanismName(options.mechanism) + "/" + app.name);

    sim::ExperimentRunner runner;
    return runner.run(app, *profile, options);
}

const std::vector<const workload::AppModel *> &
benchWorkloads()
{
    static const std::vector<const workload::AppModel *> apps = [] {
        std::vector<const workload::AppModel *> out;
        for (const auto &app : workload::allWorkloads())
            out.push_back(&app);
        return out;
    }();
    return apps;
}

std::vector<serve::loadgen::TenantLoad>
tenantTraffic(unsigned tenants, size_t perTenant)
{
    const auto &apps = benchWorkloads();
    std::vector<serve::loadgen::TenantLoad> out(tenants);
    for (unsigned t = 0; t < tenants; ++t) {
        const workload::AppModel &app = *apps[t % apps.size()];
        workload::TraceGenerator gen(app, splitSeed(workloadSeed(app), t));
        std::string name = "t";
        name += std::to_string(t);
        out[t].name = std::move(name);
        for (const workload::TraceEvent &ev : gen.generate(perTenant))
            out[t].reqs.push_back(ev.req);
    }
    return out;
}

void
printNormalizedFigure(
    const std::string &title,
    const std::vector<std::pair<
        std::string,
        std::function<sim::RunResult(const workload::AppModel &)>>>
        &columns,
    BenchReport *report)
{
    const auto &apps = benchWorkloads();
    const size_t cols = columns.size();

    // One cell per (workload, column); each writes only its own slot.
    std::vector<sim::RunResult> results(apps.size() * cols);
    parallelCells(
        results.size(),
        [&](size_t idx, MetricRegistry &shard) {
            size_t w = idx / cols;
            size_t c = idx % cols;
            sim::RunResult result = columns[c].second(*apps[w]);
            if (report) {
                recordCell(
                    shard,
                    MetricRegistry::join(
                        MetricRegistry::sanitize(columns[c].first),
                        MetricRegistry::sanitize(apps[w]->name)),
                    result);
            }
            results[idx] = std::move(result);
        },
        report);

    TextTable table(title);
    std::vector<std::string> header = {"workload"};
    for (const auto &[label, fn] : columns)
        header.push_back(label);
    table.setHeader(header);

    std::vector<RunningStat> macroStats(cols);
    std::vector<RunningStat> microStats(cols);

    for (size_t w = 0; w < apps.size(); ++w) {
        std::vector<std::string> row = {apps[w]->name};
        for (size_t c = 0; c < cols; ++c) {
            double v = results[w * cols + c].normalized();
            (apps[w]->isMacro ? macroStats[c] : microStats[c]).add(v);
            row.push_back(TextTable::num(v, 3));
        }
        table.addRow(row);
    }

    auto addAverage = [&](const char *label,
                          const std::vector<RunningStat> &stats) {
        std::vector<std::string> row = {label};
        for (const auto &s : stats)
            row.push_back(TextTable::num(s.mean(), 3));
        table.addRow(row);
    };
    addAverage("average-macro", macroStats);
    addAverage("average-micro", microStats);

    if (report) {
        for (size_t c = 0; c < cols; ++c) {
            std::string col = MetricRegistry::join(
                "figure", MetricRegistry::sanitize(columns[c].first));
            report->registry().setGauge(
                MetricRegistry::join(col, "average_macro"),
                macroStats[c].mean());
            report->registry().setGauge(
                MetricRegistry::join(col, "average_micro"),
                microStats[c].mean());
        }
    }

    table.print();
}

} // namespace draco::bench
