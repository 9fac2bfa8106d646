#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "seccomp/filter_builder.hh"

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        long kb;
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

void
Samples::add(double x)
{
    if (_seen++ % _stride != 0)
        return;
    _xs.push_back(x);
    if (_xs.size() >= _cap) {
        size_t kept = 0;
        for (size_t i = 0; i < _xs.size(); i += 2)
            _xs[kept++] = _xs[i];
        _xs.resize(kept);
        _stride *= 2;
    }
}

void
Samples::merge(const Samples &other)
{
    _seen += other._seen;
    _xs.insert(_xs.end(), other._xs.begin(), other._xs.end());
}

double
Samples::quantile(double q) const
{
    if (_xs.empty())
        return 0.0;
    std::vector<double> xs = _xs;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

Windows::Windows(uint64_t startNs, uint64_t deadlineNs)
    : _startNs(startNs),
      _windowNs(std::max<uint64_t>(1, (deadlineNs - startNs) /
                                          kPhaseWindows))
{
    checks.reserve(kPhaseWindows);
    p50.reserve(kPhaseWindows);
    p99.reserve(kPhaseWindows);
}

void
Windows::closeCurrent()
{
    if (_index >= kPhaseWindows)
        return;
    checks.resize(_index, 0); // Windows without a completion stay at 0.
    checks.push_back(_checks);
    if (_batchUs.seen()) {
        p50.push_back(_batchUs.quantile(0.50));
        p99.push_back(_batchUs.quantile(0.99));
    }
    _checks = 0;
    _batchUs.clear();
}

void
Windows::add(uint64_t endNs, uint64_t n, double batchUs)
{
    if (_windowNs == 0)
        return;
    // Completion stamps of concurrent batches can arrive out of order;
    // a late-stamped batch counts in the current window.
    const uint64_t index = (endNs - _startNs) / _windowNs;
    if (index > _index) {
        closeCurrent();
        _index = index;
    }
    _checks += n;
    _batchUs.add(batchUs);
}

void
Windows::finish()
{
    if (_windowNs == 0)
        return;
    closeCurrent();
    checks.resize(kPhaseWindows, 0);
}

int32_t
SpanLog::root(uint64_t batch, uint64_t startNs)
{
    if (_spans.size() >= _cap) {
        ++_dropped;
        return -1;
    }
    _spans.push_back({batch, -1, "batch", startNs, startNs, 1});
    return static_cast<int32_t>(_spans.size() - 1);
}

void
SpanLog::close(int32_t index, uint64_t endNs)
{
    if (index >= 0)
        _spans[static_cast<size_t>(index)].endNs = endNs;
}

void
SpanLog::child(int32_t parent, const char *name, uint64_t startNs,
               uint64_t endNs, uint32_t calls)
{
    if (parent < 0 || _spans.size() >= _cap) {
        ++_dropped;
        return;
    }
    _spans.push_back({_spans[static_cast<size_t>(parent)].batch, parent,
                      name, startNs, endNs, calls});
}

void
SpanLog::append(const SpanLog &other)
{
    const int32_t base = static_cast<int32_t>(_spans.size());
    for (const Span &s : other._spans) {
        if (_spans.size() >= _cap) {
            ++_dropped;
            continue;
        }
        Span copy = s;
        if (copy.parent >= 0)
            copy.parent += base;
        _spans.push_back(copy);
    }
    _dropped += other._dropped;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"batch\":%" PRIu64 ",\"parent\":%d,"
                     "\"name\":\"%s\",\"start_ns\":%" PRIu64
                     ",\"dur_ns\":%" PRIu64 ",\"calls\":%u}\n",
                     i, s.batch, s.parent, s.name, s.startNs,
                     s.endNs - s.startNs, s.calls);
    }
    return std::fclose(f) == 0;
}

bool
referenceAllows(const draco::core::CompiledPolicy &policy,
                const draco::os::SyscallRequest &req)
{
    const draco::os::SeccompData data = req.toSeccompData();
    uint32_t action = static_cast<uint32_t>(draco::os::SeccompAction::Allow);
    for (const draco::seccomp::BpfProgram &program :
         policy.filter.programs())
        action = draco::seccomp::mostRestrictiveAction(
            action, program.runInterpreted(data).action);
    return draco::os::rawActionAllows(action);
}

std::string
tenantName(uint32_t index)
{
    char name[16];
    std::snprintf(name, sizeof name, "t%u", index);
    return name;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t mid = xs.size() / 2;
    return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

void
die(const char *fmt, ...)
{
    std::fprintf(stderr, "perfbench: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::exit(3);
}

} // namespace perfbench
