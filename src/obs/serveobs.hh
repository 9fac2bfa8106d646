/**
 * @file
 * Live serving observability for dracod: the request-stage latency
 * pipeline, the Prometheus scrape surface, and the slow-request ring.
 *
 * Every check batch flowing through the SocketServer carries one
 * StageRecord stamped at six points of its life:
 *
 *   admitNs ──> parseNs ──> enqueueNs ──> drainStartNs ──> checkDoneNs
 *   (socket     (frame      (submit       (shard worker    (verdicts
 *    read)       decoded)    accepted)     picks it up)     written)
 *                                                              │
 *                                            flushedNs <──────┘
 *                                            (reply bytes on the wire)
 *
 * from which five stage latencies plus the total are derived. Records
 * are committed into per-event-loop slots — each slot holds per-shard,
 * per-stage Histogram + BoundedSketch instruments and is written only
 * by its owning loop thread — so the hot path never touches a shared
 * lock. A scrape walks the slots, merging them under each slot's
 * (uncontended) mutex, and renders Prometheus text exposition format
 * 0.0.4 with `stage` / `shard` labels and p50/p95/p99/p999 quantiles.
 *
 * Requests whose total latency exceeds a threshold (`--slow-us`) are
 * additionally captured into a bounded ring with their full stage
 * breakdown, tenant, shard, batch size, and verdict counts; the ring
 * is dumpable as JSON via `/slowz` and pretty-printed by
 * `obstool slowz`.
 *
 * Determinism contract: nothing in here feeds back into check results.
 * Verdict streams and tenant fingerprints are byte-identical whether
 * observability is enabled or not (test-enforced).
 */

#ifndef DRACO_OBS_SERVEOBS_HH
#define DRACO_OBS_SERVEOBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.hh"
#include "support/stats.hh"

namespace draco::obs {

/** @return Steady-clock nanoseconds; the timebase for all stamps. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Derived pipeline stages, in timestamp order. */
enum class Stage {
    Parse,  ///< admit -> parse: frame decode on the event loop
    Submit, ///< parse -> enqueue: admission control + shard handoff
    Queue,  ///< enqueue -> drain-start: wait in the shard queue
    Check,  ///< drain-start -> check-done: batch drain + checking
    Reply,  ///< check-done -> flushed: encode, loop wakeup, send()
    Total,  ///< admit -> flushed
};

constexpr size_t kStageCount = 6;

/** @return Lowercase stable name of @p stage ("parse", "queue", ...). */
const char *stageName(Stage stage);

/**
 * One check batch's trip through the pipeline. Stamped incrementally
 * by the event loop (admit/parse/flushed) and the shard worker
 * (enqueue/drain-start/check-done); committed once the reply bytes hit
 * the socket. Timestamps are obs::nowNs() values; later stamps default
 * to earlier ones so a record shed before some stage still yields
 * non-negative stage latencies.
 */
struct StageRecord {
    uint64_t admitNs = 0;
    uint64_t parseNs = 0;
    uint64_t enqueueNs = 0;
    uint64_t drainStartNs = 0;
    uint64_t checkDoneNs = 0;
    uint64_t flushedNs = 0;

    uint64_t batchId = 0;
    uint32_t tenant = 0;
    uint32_t shard = 0;
    uint32_t batchSize = 0;
    uint32_t allowed = 0;
    uint32_t denied = 0;
    uint32_t shed = 0;

    /** @return The latency of @p stage in microseconds (>= 0). */
    double stageUs(Stage stage) const;
};

/** A captured slow request: the record plus a capture sequence. */
struct SlowRecord {
    uint64_t seq = 0;
    StageRecord rec;
};

/**
 * Quantile sketch with bounded retention. Wraps the exact
 * QuantileSketch with deterministic decimation: once the retained set
 * hits the cap, every other sample is dropped and the input stride
 * doubles, so a long-running daemon keeps a uniform (every Nth)
 * subsample of the stream in O(cap) memory.
 */
class BoundedSketch
{
  public:
    explicit BoundedSketch(size_t cap = 8192) : _cap(cap ? cap : 1) {}

    /** Record one sample (possibly skipped by the current stride). */
    void add(double x);

    /** @return Samples offered via add(), before decimation. */
    uint64_t seen() const { return _seen; }

    /** @return Samples currently retained. */
    size_t retained() const { return _xs.size(); }

    /** @return Current input stride (1 until the first decimation). */
    uint64_t stride() const { return _stride; }

    /** Append the retained samples into @p out. */
    void mergeInto(QuantileSketch &out) const;

  private:
    size_t _cap;
    uint64_t _seen = 0;
    uint64_t _stride = 1;
    std::vector<double> _xs;
};

/** Configuration for ServeObs. */
struct ServeObsOptions {
    unsigned loops = 1;       ///< event-loop slot count
    unsigned shards = 1;      ///< service shard count (label space)
    uint32_t slowUs = 0;      ///< slow-capture threshold; 0 disables
    size_t slowCapacity = 256;    ///< slow ring size (newest kept)
};

/**
 * The serving-observability hub owned by the SocketServer.
 *
 * Threading: commit() and recordDropped() are called with the caller's
 * loop index; each loop index maps to a private slot whose mutex is
 * only ever contended by a scrape (exportMetrics / renderPrometheus /
 * slowzJson), so steady-state commits are an uncontended lock plus a
 * few histogram adds. The slow ring is global but guarded by a
 * threshold test before its lock — slow requests are rare by
 * definition.
 */
class ServeObs
{
  public:
    explicit ServeObs(const ServeObsOptions &options);

    unsigned loops() const { return _options.loops; }
    unsigned shards() const { return _options.shards; }
    uint32_t slowUs() const { return _options.slowUs; }

    /**
     * Fold one completed record into loop slot @p loop. Also captures
     * into the slow ring when total latency >= the threshold.
     */
    void commit(size_t loop, const StageRecord &rec);

    /**
     * Count @p n records whose replies were discarded before flush
     * (connection died / output overflow) and thus never committed.
     */
    void recordDropped(size_t loop, uint64_t n);

    /** @return Total records committed across slots (scrape-path). */
    uint64_t committed() const;

    /** @return Total records dropped across slots (scrape-path). */
    uint64_t dropped() const;

    /** @return Total slow captures (including ones evicted). */
    uint64_t slowTotal() const;

    /** @return The current slow-ring contents, oldest first. */
    std::vector<SlowRecord> slowRecords() const;

    /**
     * Merge every slot and export into @p registry under @p prefix:
     * per-shard per-stage quantile sketches (`...stages.s0.check_us`)
     * and histograms (`..._hist`), the all-shard merge under
     * `...stages.all.*`, and the commit/drop/slow counters.
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix = "serve.obs") const;

    /**
     * Render the full Prometheus scrape body: the native stage
     * metrics (`draco_serve_stage_latency_us{stage=,shard=,quantile=}`
     * summaries plus `_hist` le-bucket histograms) followed by every
     * leaf of @p extra mapped through renderRegistry().
     */
    std::string renderPrometheus(const MetricRegistry &extra) const;

    /** @return The slow ring as a JSON document (see DESIGN.md §14). */
    std::string slowzJson() const;

    /**
     * Render an arbitrary registry as Prometheus text exposition:
     * Counter -> counter, Gauge -> gauge, Stat -> _count/_sum/_min/
     * _max/_mean gauges, Sketch -> summary with quantile labels,
     * Hist -> histogram with cumulative le buckets, Text -> info-style
     * gauge with the value as a label. Dots in names become '_' and
     * everything is prefixed `draco_`.
     */
    static void renderRegistry(const MetricRegistry &registry,
                               std::string &out);

  private:
    static constexpr size_t kSketchSamples = 8192; ///< BoundedSketch cap
    /** Stage histograms: [0, kHistHiUs) us in kHistBuckets linear bins. */
    static constexpr double kHistHiUs = 100000.0;
    static constexpr size_t kHistBuckets = 200;

    /** Per-shard instruments: [shard][stage] for hist and sketch. */
    struct PerShard {
        std::vector<Histogram> hist;      // kStageCount entries
        std::vector<BoundedSketch> sketch; // kStageCount entries
    };

    /** One event loop's private instrument slot. */
    struct Slot {
        mutable std::mutex mutex;
        std::vector<PerShard> shards;
        uint64_t committed = 0;
        uint64_t dropped = 0;
    };

    /** Merged view of one (shard, stage) cell across slots. */
    struct MergedCell {
        Histogram hist;
        QuantileSketch sketch;
        MergedCell() : hist(0.0, kHistHiUs, kHistBuckets) {}
    };

    void captureSlow(const StageRecord &rec, double totalUs);
    MergedCell mergeCell(unsigned shard, Stage stage) const;

    ServeObsOptions _options;
    std::vector<std::unique_ptr<Slot>> _slots;

    mutable std::mutex _slowMutex;
    std::deque<SlowRecord> _slow;
    uint64_t _slowSeq = 0;
};

/**
 * Escape a Prometheus label value: backslash, double quote, and
 * newline become \\, \", and \n.
 */
std::string promEscapeLabel(const std::string &value);

/** @return A dotted metric path as a `draco_`-prefixed metric name. */
std::string promMetricName(const std::string &dotted);

/**
 * Build a minimal HTTP/1.0 response with Content-Length and
 * `Connection: close`, ready to append to a connection's output
 * buffer.
 */
std::string httpResponse(int status, const std::string &contentType,
                         const std::string &body);

} // namespace draco::obs

#endif // DRACO_OBS_SERVEOBS_HH
