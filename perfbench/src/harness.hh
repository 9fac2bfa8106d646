/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: clocks,
 * process CPU time and peak RSS, a bounded latency sample set, the
 * in-memory span log of the traced run, the verdict gate, and the
 * result record every workload fills.
 *
 * Nothing here calls into the code under test except the verdict gate,
 * which evaluates requests with the reference BPF interpreter
 * (BpfProgram::runInterpreted), never the fast path being measured.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/software.hh"
#include "os/seccomp_abi.hh"

namespace perfbench {

/** Requests per batch in every workload. */
inline constexpr uint32_t kBatch = 32;

/** Command-line options of one run. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;     ///< Traced run: where spans are written.
    std::string scratchDir = ".bench_build"; ///< Sockets live here.
    bool corruptVerdict = false; ///< Self-test: flip one expected verdict.
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** @return Steady-clock nanoseconds. */
uint64_t nowNs();

/** @return User plus system CPU nanoseconds of the whole process. */
uint64_t processCpuNs();

/** @return Peak resident set (VmHWM) in MiB, 0 when unavailable. */
double peakRssMb();

/** @return Seconds between two nowNs() stamps. */
inline double
secondsBetween(uint64_t t0, uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/**
 * Latency samples with bounded memory: once the cap is hit every other
 * retained sample is dropped and the keep-stride doubles, so the set
 * stays a uniform every-Nth subsample of the stream.
 */
class Samples
{
  public:
    explicit Samples(size_t cap = 1u << 16) : _cap(cap) {}

    void add(double x);

    /** Fold @p other's retained samples in (stride is not merged). */
    void merge(const Samples &other);

    /** Drop every sample and reset the stride. */
    void clear()
    {
        _seen = 0;
        _stride = 1;
        _xs.clear();
    }

    /** @return Samples offered, before decimation. */
    uint64_t seen() const { return _seen; }

    /** @return Linear-interpolated quantile @p q of the retained set. */
    double quantile(double q) const;

  private:
    size_t _cap;
    uint64_t _seen = 0;
    uint64_t _stride = 1;
    std::vector<double> _xs;
};

/** Windows a timed phase is cut into for its per-window series. */
inline constexpr unsigned kPhaseWindows = 60;

/**
 * One load thread's per-window series of a timed phase. The phase from
 * @p startNs to @p deadlineNs is cut into kPhaseWindows equal windows;
 * each completed batch counts in the window it finished in. A report
 * takes medians over windows, so a stall of a shared host that lasts a
 * few windows does not decide a run's figure.
 */
class Windows
{
  public:
    Windows() = default;
    Windows(uint64_t startNs, uint64_t deadlineNs);

    /** Record a batch that finished at @p endNs. */
    void add(uint64_t endNs, uint64_t checks, double batchUs);

    /** Close the series; batches past the deadline are not counted. */
    void finish();

    /** Window length in seconds (0 for a series that records nothing). */
    double windowS() const { return static_cast<double>(_windowNs) * 1e-9; }

    /** Checks completed in each full window, all kPhaseWindows of them. */
    std::vector<uint64_t> checks;
    /** Batch-latency p50 and p99 of each window that had batches. */
    std::vector<double> p50, p99;

  private:
    void closeCurrent();

    uint64_t _startNs = 0;
    uint64_t _windowNs = 0;
    uint64_t _index = 0;       ///< Window the current samples belong to.
    uint64_t _checks = 0;      ///< Checks of the current window.
    Samples _batchUs{1u << 13};
};

/** Running mean of per-call costs (timed groups divide by their size). */
struct Mean {
    double sum = 0.0;
    uint64_t n = 0;

    void add(double total, uint64_t count = 1)
    {
        sum += total;
        n += count;
    }
    double value() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/**
 * One traced span: a root batch span (parent -1) or a call into a
 * layer's public function made for that batch. Spans of a batch share
 * its id; `calls` is the group size of calls timed together.
 */
struct Span {
    uint64_t batch = 0;
    int32_t parent = -1; ///< Index of the parent span in the log, or -1.
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t calls = 1;
};

/**
 * In-memory span log of the traced run, written out at exit. Bounded:
 * spans past the cap are counted but not kept.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t cap = 1u << 20) : _cap(cap) {}

    /** Open a root span for @p batch. @return Its index, or -1. */
    int32_t root(uint64_t batch, uint64_t startNs);

    /** Close root @p index at @p endNs (no-op for -1). */
    void close(int32_t index, uint64_t endNs);

    /** Record a finished child span of @p parent. */
    void child(int32_t parent, const char *name, uint64_t startNs,
               uint64_t endNs, uint32_t calls);

    /** Append @p other's spans (parent links re-based), up to the cap. */
    void append(const SpanLog &other);

    uint64_t dropped() const { return _dropped; }
    size_t size() const { return _spans.size(); }

    /** Write one JSON object per line. @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    size_t _cap;
    uint64_t _dropped = 0;
    std::vector<Span> _spans;
};

/**
 * @return Whether @p policy's filter allows @p req, evaluated with the
 *         reference interpreter over every program of the chain.
 */
bool referenceAllows(const draco::core::CompiledPolicy &policy,
                     const draco::os::SyscallRequest &req);

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run produced. */
struct Result {
    uint64_t attempted = 0;  ///< Requests submitted in the timed phase.
    uint64_t failed = 0;     ///< Not answered Allowed or Denied.
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::pair<std::string, std::string>> notes;

    void e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        perLayer.push_back({name, value, unit});
    }
    void note(const std::string &key, const std::string &value)
    {
        notes.emplace_back(key, value);
    }
};

/** @return The name of tenant @p index: "t<index>". */
std::string tenantName(uint32_t index);

/** @return The median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/**
 * Set-up repeats until it has run at least kSetupMinRepeats times and
 * for at least kSetupMinSeconds, at most kSetupMaxRepeats times;
 * setup_s is the median. Spreading the repetitions over a second keeps
 * one short stall of a shared host from deciding the median.
 */
inline constexpr unsigned kSetupMinRepeats = 11;
inline constexpr unsigned kSetupMaxRepeats = 200;
inline constexpr double kSetupMinSeconds = 1.0;

/**
 * Time @p setup repeatedly (see kSetupMinRepeats), calling @p teardown
 * (untimed) between repetitions, so the last set-up's product stays
 * live. Each repetition is timed in process CPU time (all threads):
 * set-up is mostly thread starts and socket round trips, whose wall
 * time on a shared host follows the hypervisor's steal, not the code.
 *
 * @return The median CPU seconds of one set-up.
 */
template <typename Setup, typename Teardown>
double
medianSetup(Setup &&setup, Teardown &&teardown)
{
    std::vector<double> secs;
    const uint64_t start = nowNs();
    while (secs.size() < kSetupMaxRepeats &&
           (secs.size() < kSetupMinRepeats ||
            secondsBetween(start, nowNs()) < kSetupMinSeconds)) {
        if (!secs.empty())
            teardown();
        const uint64_t cpu0 = processCpuNs();
        setup();
        secs.push_back(static_cast<double>(processCpuNs() - cpu0) * 1e-9);
    }
    return median(secs);
}

/** Abort the run: print @p message to stderr and exit non-zero. */
[[noreturn]] void die(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
