#include <algorithm>
#include <cstdio>
#include <string>

#include "workloads.hh"

namespace perfbench {

double
untracedSeconds(const Options &options)
{
    // A traced run splits its time: the first half untraced (the
    // overhead baseline), the second half traced.
    return options.trace ? options.seconds / 2 : options.seconds;
}

void
PhaseTotals::addWindows(const Windows &w)
{
    windowS = w.windowS();
    windowChecks.resize(std::max(windowChecks.size(), w.checks.size()), 0);
    for (size_t i = 0; i < w.checks.size(); ++i)
        windowChecks[i] += w.checks[i];
    windowP50.insert(windowP50.end(), w.p50.begin(), w.p50.end());
    windowP99.insert(windowP99.end(), w.p99.begin(), w.p99.end());
}

double
PhaseTotals::windowChecksPerS() const
{
    if (windowChecks.empty() || windowS <= 0.0)
        return checksPerS();
    std::vector<double> rates;
    for (uint64_t n : windowChecks)
        rates.push_back(static_cast<double>(n) / windowS);
    return median(rates);
}

void
reportPhases(const Options &options, const PhaseTotals &run,
             const PhaseTotals *traced, double setupS, LayerStats &layers,
             const SpanLog &spans, Result &result)
{
    result.attempted = run.attempted + (traced ? traced->attempted : 0);
    result.failed = run.failed + (traced ? traced->failed : 0);

    const double checks = static_cast<double>(run.checks ? run.checks : 1);
    // Latency quantiles are medians over the phase's windows.
    const bool windowed = !run.windowP50.empty();
    const double p50 =
        windowed ? median(run.windowP50) : run.batchUs.quantile(0.50);
    const double p99 =
        windowed ? median(run.windowP99) : run.batchUs.quantile(0.99);
    result.e2e("cpu_ns_per_check", static_cast<double>(run.cpuNs) / checks,
               "ns");
    result.e2e("ok_frac",
               run.attempted ? static_cast<double>(run.attempted - run.failed) /
                       static_cast<double>(run.attempted)
                             : 0.0,
               "frac");
    result.e2e("setup_s", setupS, "s");
    result.e2e("rss_mb", peakRssMb(), "MB");

    // Printed but not declared in BENCHMARK.json: on a shared host the
    // wall-clock figures follow the neighbours' load far more than the
    // code (perfbench/README.md).
    result.note("checks_per_s", std::to_string(run.windowChecksPerS()));
    result.note("batch_us_p50", std::to_string(p50));
    result.note("batch_us_p99", std::to_string(p99));
    result.note("batch_samples", std::to_string(run.batchUs.seen()));
    result.note("checks", std::to_string(run.checks));
    result.note("wall_s", std::to_string(run.wallS));
    if (windowed) {
        Samples rates(run.windowChecks.size() + 1);
        for (uint64_t n : run.windowChecks)
            rates.add(static_cast<double>(n) / run.windowS);
        char line[160];
        std::snprintf(line, sizeof line, "%.0f %.0f %.0f %.0f %.0f",
                      rates.quantile(0.0), rates.quantile(0.25),
                      rates.quantile(0.5), rates.quantile(0.75),
                      rates.quantile(1.0));
        result.note("window_checks_per_s_min_q1_med_q3_max", line);
    }
    if (!traced)
        return;

    const double tracedCps = traced->windowChecksPerS();
    layers.traceOverheadPct = tracedCps > 0.0
        ? (run.windowChecksPerS() / tracedCps - 1.0) * 100.0
        : 0.0;
    layers.report(result);
    result.note("traced_checks", std::to_string(traced->checks));
    result.note("traced_batches", std::to_string(traced->batches));
    result.note("spans", std::to_string(spans.size()) + " kept, " +
                             std::to_string(spans.dropped()) + " dropped");
    if (!options.spansOut.empty() && !spans.write(options.spansOut))
        die("cannot write spans to %s", options.spansOut.c_str());
}

} // namespace perfbench
