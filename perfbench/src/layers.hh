/**
 * @file
 * Per-layer timing for the traced run.
 *
 * The traced run times calls into each layer's public functions from
 * the benchmark's own code. The check path's parts cannot be timed
 * from outside DracoSoftwareChecker::check(), so they are timed by
 * replaying the batch's requests through each stage's public function:
 * CompiledPolicy::specs.find (the SPT), the ArgKey constructor, both
 * vatHash ways, Vat::lookup, FilterChain::run and Vat::insert. Calls
 * under ~100 ns are timed as one group per batch so that clock reads
 * do not dominate; each group becomes one child span of the batch.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/software.hh"
#include "harness.hh"
#include "serve/types.hh"

namespace draco::serve {
class CheckService;
} // namespace draco::serve

namespace perfbench {

/** Replay the check-path stages on every Nth batch of a traced run. */
inline constexpr uint64_t kReplayEvery = 4;

/** Time a snapshot encode/restore round trip on every Nth batch. */
inline constexpr uint64_t kSnapshotEvery = 64 * kReplayEvery;

/** Accumulators behind every per-layer metric. */
struct LayerStats {
    LayerStats() = default;
    LayerStats(const LayerStats &) = delete;
    LayerStats &operator=(const LayerStats &) = delete;

    // core
    Mean checkNs, sptNs, argkeyNs, vatLookupNs, vatInsertNs;
    uint64_t path[4] = {}; ///< Real outcome path mix, by core::SwPath.
    /** Step mix of the checks behind checkNs (for unattributed_ns). */
    uint64_t attrChecks = 0, attrArg = 0, attrFilter = 0, attrInsert = 0;
    uint64_t vatEvictions = 0;
    // hash
    Mean vatHashNs, keyBytes;
    // seccomp
    Mean filterRunNs, filterInsns, compileUs;
    // serve
    double stageP50[6] = {}, stageP99[6] = {};
    Samples serviceBatchUs;
    Mean wireEncodeNs, wireDecodeNs;
    double drainBatchAvg = 0.0, queuePeakDepth = 0.0, rejects = 0.0;
    // lifecycle
    Mean encodeUs, restoreUs;
    double evictionsPer1k = 0.0, restoresPer1k = 0.0, restoreFailures = 0.0;
    double snapshotBytesPerEvict = 0.0, residentPeak = 0.0;
    // policy
    Samples swapUs;
    double swaps = 0.0, staleDiscards = 0.0, dedupPolicies = 0.0,
           dedupHits = 0.0;
    // obs
    double traceOverheadPct = 0.0;

    /** Fold one check outcome into the step mix behind checkNs. */
    void attribute(const draco::core::SwCheckOutcome &out);

    /** Fold another thread's accumulators in (counts and means). */
    void merge(const LayerStats &other);

    /** Append every per-layer metric, in BENCHMARK.json order. */
    void report(Result &result) const;
};

/**
 * Stage-replay state per compiled policy: a warm shadow checker whose
 * VAT serves the lookup replays, and an empty VAT the insert replays
 * write into (and are erased from, so its occupancy stays constant).
 */
class StageReplayer
{
  public:
    /**
     * Prepare @p policy: build its shadow checker and warm it with
     * @p warm (untimed).
     */
    void prepare(const std::shared_ptr<const draco::core::CompiledPolicy>
                     &policy,
                 const std::vector<draco::os::SyscallRequest> &warm);

    /** @return The warm shadow checker of a prepared @p policy. */
    draco::core::DracoSoftwareChecker &
    shadow(const draco::core::CompiledPolicy &policy);

    /**
     * Replay @p n requests through the SPT, ArgKey, vatHash and
     * Vat::lookup (against @p lookupVat), then FilterChain::run on the
     * requests whose real path ran the filter and Vat::insert on those
     * that inserted. @p paths holds each request's real core::SwPath.
     */
    void replay(const draco::core::CompiledPolicy &policy,
                const draco::core::Vat &lookupVat,
                const draco::os::SyscallRequest *reqs, uint32_t n,
                const uint8_t *paths, LayerStats &acc, SpanLog &spans,
                int32_t root);

    /**
     * Time check() on the policy's shadow checker for @p n requests:
     * core.check_ns for workloads whose checks run inside the service.
     */
    void shadowCheck(const draco::core::CompiledPolicy &policy,
                     const draco::os::SyscallRequest *reqs, uint32_t n,
                     LayerStats &acc, SpanLog &spans, int32_t root);

    /** @return VAT evictions summed over the shadow checkers. */
    uint64_t shadowEvictions() const;

    /** Time encodeSnapshot / restoreSnapshot round trip of @p checker. */
    void snapshotRoundTrip(const draco::core::DracoSoftwareChecker &checker,
                           LayerStats &acc, SpanLog &spans, int32_t root);

    /** Time wire encode/decode of a CheckBatch and its reply. */
    void wireRoundTrip(const draco::os::SyscallRequest *reqs, uint32_t n,
                       const draco::serve::CheckResponse *resps,
                       LayerStats &acc, SpanLog &spans, int32_t root);

  private:
    struct PolicyStages {
        std::unique_ptr<draco::core::DracoSoftwareChecker> shadow;
        draco::core::Vat insertVat;
    };

    PolicyStages &stages(const draco::core::CompiledPolicy &policy);

    std::map<const draco::core::CompiledPolicy *, PolicyStages> _stages;
    std::vector<uint8_t> _wire;
};

/** Time CompiledPolicy::compile of @p profile into seccomp.compile_us. */
std::shared_ptr<const draco::core::CompiledPolicy>
timedCompile(const draco::seccomp::Profile &profile, LayerStats &acc);

/**
 * Read a stopped service's counters into @p layers: lifecycle and swap
 * deltas since @p before over @p batches traced batches, dedup totals,
 * and the drain, depth and reject counters from exportMetrics().
 */
void collectServiceMetrics(const draco::serve::CheckService &service,
                           const draco::serve::ServiceStatsSnapshot &before,
                           uint64_t batches, LayerStats &layers);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
