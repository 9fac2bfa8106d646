/**
 * @file
 * The three perfbench workloads. Each generates its inputs from
 * Options::seed before any timer starts, computes every request's
 * expected verdict with the reference interpreter, times set-up, warms
 * up, measures for Options::seconds, and fills a Result: end-to-end
 * metrics always, per-layer metrics when Options::trace is set.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"
#include "layers.hh"

namespace perfbench {

/** One thread, 15 app checkers, direct check() calls. */
void runCheckInproc(const Options &options, Result &result);

/** SocketServer on a Unix socket, 16 tenants, 2 closed-loop clients. */
void runServeSocket(const Options &options, Result &result);

/** CheckService with ~20k Zipf-drawn tenants under a resident cap. */
void runTenantChurn(const Options &options, Result &result);

/** Timed-phase totals shared by every workload's metric report. */
struct PhaseTotals {
    uint64_t checks = 0;   ///< Requests answered Allowed or Denied.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t batches = 0;
    uint64_t cpuNs = 0;
    double wallS = 0.0;
    Samples batchUs;
    double windowS = 0.0;
    std::vector<uint64_t> windowChecks; ///< Per window, summed over threads.
    std::vector<double> windowP50;      ///< Per thread and window.
    std::vector<double> windowP99;

    double checksPerS() const
    {
        return wallS > 0.0 ? static_cast<double>(checks) / wallS : 0.0;
    }

    /** Fold in one load thread's finished series. */
    void addWindows(const Windows &w);

    /** @return Median over windows of checks per second. */
    double windowChecksPerS() const;
};

/**
 * Fill @p result's end-to-end metrics from the untraced phase @p run and
 * the median set-up @p setupS; in a traced run also set
 * obs.trace_overhead_pct from @p traced, append the per-layer block and
 * write @p spans to Options::spansOut.
 */
void reportPhases(const Options &options, const PhaseTotals &run,
                  const PhaseTotals *traced, double setupS,
                  LayerStats &layers, const SpanLog &spans, Result &result);

/** @return Seconds the untraced phase measures (all of them untraced). */
double untracedSeconds(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
