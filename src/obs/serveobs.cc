#include "obs/serveobs.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "support/logging.hh"

namespace draco::obs {

namespace {

/** Append printf-formatted text to @p out. */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                         sizeof(buf) - 1));
}

/** Format a double for exposition/JSON: compact, locale-free. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

const double kSummaryQuantiles[] = {0.5, 0.95, 0.99, 0.999};
const char *const kSummaryQuantileNames[] = {"0.5", "0.95", "0.99",
                                             "0.999"};

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Parse: return "parse";
      case Stage::Submit: return "submit";
      case Stage::Queue: return "queue";
      case Stage::Check: return "check";
      case Stage::Reply: return "reply";
      case Stage::Total: return "total";
    }
    return "?";
}

double
StageRecord::stageUs(Stage stage) const
{
    auto delta = [](uint64_t from, uint64_t to) {
        return to > from ? static_cast<double>(to - from) / 1000.0 : 0.0;
    };
    switch (stage) {
      case Stage::Parse: return delta(admitNs, parseNs);
      case Stage::Submit: return delta(parseNs, enqueueNs);
      case Stage::Queue: return delta(enqueueNs, drainStartNs);
      case Stage::Check: return delta(drainStartNs, checkDoneNs);
      case Stage::Reply: return delta(checkDoneNs, flushedNs);
      case Stage::Total: return delta(admitNs, flushedNs);
    }
    return 0.0;
}

void
BoundedSketch::add(double x)
{
    ++_seen;
    if (_stride > 1 && (_seen % _stride) != 0)
        return;
    if (_xs.size() >= _cap) {
        // Decimate: keep every other retained sample and double the
        // input stride, preserving a uniform subsample of the stream.
        size_t w = 0;
        for (size_t i = 0; i < _xs.size(); i += 2)
            _xs[w++] = _xs[i];
        _xs.resize(w);
        _stride *= 2;
        if ((_seen % _stride) != 0)
            return;
    }
    _xs.push_back(x);
}

void
BoundedSketch::mergeInto(QuantileSketch &out) const
{
    for (double x : _xs)
        out.add(x);
}

ServeObs::ServeObs(const ServeObsOptions &options)
    : _options(options)
{
    if (_options.loops == 0)
        _options.loops = 1;
    if (_options.shards == 0)
        _options.shards = 1;
    _slots.reserve(_options.loops);
    for (unsigned l = 0; l < _options.loops; ++l) {
        auto slot = std::make_unique<Slot>();
        slot->shards.resize(_options.shards);
        for (PerShard &ps : slot->shards) {
            ps.hist.reserve(kStageCount);
            ps.sketch.reserve(kStageCount);
            for (size_t s = 0; s < kStageCount; ++s) {
                ps.hist.emplace_back(0.0, _options.histHiUs,
                                     _options.histBuckets);
                ps.sketch.emplace_back(_options.sketchSamples);
            }
        }
        _slots.push_back(std::move(slot));
    }
}

void
ServeObs::commit(size_t loop, const StageRecord &rec)
{
    Slot &slot = *_slots[loop % _slots.size()];
    const unsigned shard =
        rec.shard < _options.shards ? rec.shard : 0;
    const double totalUs = rec.stageUs(Stage::Total);
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        PerShard &ps = slot.shards[shard];
        for (size_t i = 0; i < kStageCount; ++i) {
            const double us = rec.stageUs(static_cast<Stage>(i));
            ps.hist[i].add(us);
            ps.sketch[i].add(us);
        }
        ++slot.committed;
    }
    if (_options.slowUs > 0 &&
        totalUs >= static_cast<double>(_options.slowUs))
        captureSlow(rec, totalUs);
}

void
ServeObs::recordDropped(size_t loop, uint64_t n)
{
    Slot &slot = *_slots[loop % _slots.size()];
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.dropped += n;
}

void
ServeObs::captureSlow(const StageRecord &rec, double)
{
    std::lock_guard<std::mutex> lock(_slowMutex);
    SlowRecord slow;
    slow.seq = _slowSeq++;
    slow.rec = rec;
    _slow.push_back(slow);
    while (_slow.size() > _options.slowCapacity)
        _slow.pop_front();
}

uint64_t
ServeObs::committed() const
{
    uint64_t total = 0;
    for (const auto &slot : _slots) {
        std::lock_guard<std::mutex> lock(slot->mutex);
        total += slot->committed;
    }
    return total;
}

uint64_t
ServeObs::dropped() const
{
    uint64_t total = 0;
    for (const auto &slot : _slots) {
        std::lock_guard<std::mutex> lock(slot->mutex);
        total += slot->dropped;
    }
    return total;
}

uint64_t
ServeObs::slowTotal() const
{
    std::lock_guard<std::mutex> lock(_slowMutex);
    return _slowSeq;
}

std::vector<SlowRecord>
ServeObs::slowRecords() const
{
    std::lock_guard<std::mutex> lock(_slowMutex);
    return std::vector<SlowRecord>(_slow.begin(), _slow.end());
}

ServeObs::MergedCell
ServeObs::mergeCell(unsigned shard, Stage stage) const
{
    MergedCell cell(_options);
    const size_t idx = static_cast<size_t>(stage);
    for (const auto &slot : _slots) {
        std::lock_guard<std::mutex> lock(slot->mutex);
        const PerShard &ps = slot->shards[shard];
        cell.hist.merge(ps.hist[idx]);
        ps.sketch[idx].mergeInto(cell.sketch);
    }
    return cell;
}

void
ServeObs::exportMetrics(MetricRegistry &registry,
                        const std::string &prefix) const
{
    for (unsigned shard = 0; shard <= _options.shards; ++shard) {
        // Index _options.shards is the all-shard merge.
        const bool all = shard == _options.shards;
        std::string group = all ? "all" : "s";
        if (!all)
            group += std::to_string(shard);
        const std::string sp =
            MetricRegistry::join(prefix + ".stages", group);
        for (size_t i = 0; i < kStageCount; ++i) {
            const Stage stage = static_cast<Stage>(i);
            MergedCell cell(_options);
            if (all) {
                for (unsigned s = 0; s < _options.shards; ++s) {
                    MergedCell c = mergeCell(s, stage);
                    cell.hist.merge(c.hist);
                    cell.sketch.merge(c.sketch);
                }
            } else {
                cell = mergeCell(shard, stage);
            }
            const std::string base =
                MetricRegistry::join(sp, std::string(stageName(stage)) +
                                             "_us");
            registry.setQuantiles(base, cell.sketch);
            registry.setHistogram(base + "_hist", cell.hist);
        }
    }
    registry.setCounter(prefix + ".records", committed());
    registry.setCounter(prefix + ".dropped", dropped());
    registry.setCounter(prefix + ".slow.total", slowTotal());
    {
        std::lock_guard<std::mutex> lock(_slowMutex);
        registry.setCounter(prefix + ".slow.captured", _slow.size());
    }
    registry.setGauge(prefix + ".slow.threshold_us",
                      static_cast<double>(_options.slowUs));
}

namespace {

/** @return "{labels}" or "" when @p labels is empty. */
std::string
wrapLabels(const std::string &labels)
{
    return labels.empty() ? std::string() : "{" + labels + "}";
}

/** Emit sparse cumulative le buckets + _count for @p hist. */
void
renderHistogram(std::string &out, const std::string &name,
                const std::string &labels, const Histogram &hist)
{
    const std::string sep = labels.empty() ? "" : ",";
    const double width = (hist.hi() - hist.lo()) /
                         static_cast<double>(hist.buckets());
    uint64_t cum = hist.underflow();
    for (size_t b = 0; b < hist.buckets(); ++b) {
        // Sparse rendering: only emit buckets that gained samples —
        // any le subset is valid exposition, and most of a wide
        // latency range is empty.
        if (hist.bucketCount(b) == 0) {
            continue;
        }
        cum += hist.bucketCount(b);
        appendf(out, "%s_bucket{%s%sle=\"%s\"} %" PRIu64 "\n",
                name.c_str(), labels.c_str(), sep.c_str(),
                num(hist.bucketLo(b) + width).c_str(), cum);
    }
    appendf(out, "%s_bucket{%s%sle=\"+Inf\"} %" PRIu64 "\n",
            name.c_str(), labels.c_str(), sep.c_str(), hist.total());
    appendf(out, "%s_count%s %" PRIu64 "\n", name.c_str(),
            wrapLabels(labels).c_str(), hist.total());
}

/** Emit quantile series + _count for @p sketch. */
void
renderSummary(std::string &out, const std::string &name,
              const std::string &labels, const QuantileSketch &sketch)
{
    const std::string sep = labels.empty() ? "" : ",";
    for (size_t q = 0; q < 4; ++q)
        appendf(out, "%s{%s%squantile=\"%s\"} %s\n", name.c_str(),
                labels.c_str(), sep.c_str(), kSummaryQuantileNames[q],
                num(sketch.quantile(kSummaryQuantiles[q])).c_str());
    appendf(out, "%s_count%s %zu\n", name.c_str(),
            wrapLabels(labels).c_str(), sketch.count());
}

} // namespace

std::string
ServeObs::renderPrometheus(const MetricRegistry &extra) const
{
    std::string out;
    out += "# HELP draco_serve_stage_latency_us Per-stage serving "
           "latency (microseconds).\n";
    out += "# TYPE draco_serve_stage_latency_us summary\n";
    std::vector<MergedCell> cells; // [shard * kStageCount + stage]
    for (unsigned shard = 0; shard < _options.shards; ++shard)
        for (size_t i = 0; i < kStageCount; ++i)
            cells.push_back(mergeCell(shard, static_cast<Stage>(i)));
    for (unsigned shard = 0; shard < _options.shards; ++shard) {
        for (size_t i = 0; i < kStageCount; ++i) {
            const std::string labels =
                "shard=\"" + std::to_string(shard) + "\",stage=\"" +
                stageName(static_cast<Stage>(i)) + "\"";
            renderSummary(out, "draco_serve_stage_latency_us", labels,
                          cells[shard * kStageCount + i].sketch);
        }
    }
    out += "# TYPE draco_serve_stage_latency_us_hist histogram\n";
    for (unsigned shard = 0; shard < _options.shards; ++shard) {
        for (size_t i = 0; i < kStageCount; ++i) {
            const std::string labels =
                "shard=\"" + std::to_string(shard) + "\",stage=\"" +
                stageName(static_cast<Stage>(i)) + "\"";
            renderHistogram(out, "draco_serve_stage_latency_us_hist",
                            labels,
                            cells[shard * kStageCount + i].hist);
        }
    }
    out += "# TYPE draco_serve_obs_records_total counter\n";
    appendf(out, "draco_serve_obs_records_total %" PRIu64 "\n",
            committed());
    out += "# TYPE draco_serve_obs_dropped_total counter\n";
    appendf(out, "draco_serve_obs_dropped_total %" PRIu64 "\n",
            dropped());
    out += "# TYPE draco_serve_obs_slow_captured_total counter\n";
    appendf(out, "draco_serve_obs_slow_captured_total %" PRIu64 "\n",
            slowTotal());
    out += "# TYPE draco_serve_obs_slow_threshold_us gauge\n";
    appendf(out, "draco_serve_obs_slow_threshold_us %u\n",
            _options.slowUs);
    renderRegistry(extra, out);
    return out;
}

std::string
ServeObs::slowzJson() const
{
    std::vector<SlowRecord> records = slowRecords();
    std::string out = "{\n";
    appendf(out, "  \"threshold_us\": %u,\n", _options.slowUs);
    appendf(out, "  \"capacity\": %zu,\n", _options.slowCapacity);
    appendf(out, "  \"total_slow\": %" PRIu64 ",\n", slowTotal());
    out += "  \"records\": [";
    for (size_t i = 0; i < records.size(); ++i) {
        const SlowRecord &s = records[i];
        out += i ? ",\n    " : "\n    ";
        appendf(out,
                "{\"seq\": %" PRIu64 ", \"tenant\": %u, "
                "\"shard\": %u, \"batch_id\": %" PRIu64
                ", \"batch\": %u, \"allowed\": %u, \"denied\": %u, "
                "\"shed\": %u",
                s.seq, s.rec.tenant, s.rec.shard, s.rec.batchId,
                s.rec.batchSize, s.rec.allowed, s.rec.denied,
                s.rec.shed);
        for (size_t st = 0; st < kStageCount; ++st) {
            const Stage stage = static_cast<Stage>(st);
            appendf(out, ", \"%s_us\": %s", stageName(stage),
                    num(s.rec.stageUs(stage)).c_str());
        }
        out += "}";
    }
    out += records.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
ServeObs::renderRegistry(const MetricRegistry &registry,
                         std::string &out)
{
    registry.visit([&out](const MetricView &view) {
        const std::string name = promMetricName(view.name);
        switch (view.kind) {
          case MetricKind::Counter:
            appendf(out, "# TYPE %s counter\n", name.c_str());
            appendf(out, "%s %" PRIu64 "\n", name.c_str(),
                    view.counter);
            break;
          case MetricKind::Gauge:
            appendf(out, "# TYPE %s gauge\n", name.c_str());
            appendf(out, "%s %s\n", name.c_str(),
                    num(view.gauge).c_str());
            break;
          case MetricKind::Text:
            appendf(out, "# TYPE %s_info gauge\n", name.c_str());
            appendf(out, "%s_info{value=\"%s\"} 1\n", name.c_str(),
                    promEscapeLabel(*view.text).c_str());
            break;
          case MetricKind::Stat:
            appendf(out, "# TYPE %s_count counter\n", name.c_str());
            appendf(out, "%s_count %" PRIu64 "\n", name.c_str(),
                    view.stat->count());
            appendf(out, "%s_sum %s\n", name.c_str(),
                    num(view.stat->sum()).c_str());
            appendf(out, "%s_min %s\n", name.c_str(),
                    num(view.stat->min()).c_str());
            appendf(out, "%s_max %s\n", name.c_str(),
                    num(view.stat->max()).c_str());
            appendf(out, "%s_mean %s\n", name.c_str(),
                    num(view.stat->mean()).c_str());
            break;
          case MetricKind::Sketch:
            appendf(out, "# TYPE %s summary\n", name.c_str());
            renderSummary(out, name, "", *view.sketch);
            break;
          case MetricKind::Hist:
            if (!view.hist)
                break;
            appendf(out, "# TYPE %s histogram\n", name.c_str());
            renderHistogram(out, name, "", *view.hist);
            break;
        }
    });
}

std::string
promEscapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c; break;
        }
    }
    return out;
}

std::string
promMetricName(const std::string &dotted)
{
    std::string out = "draco_";
    for (char c : dotted) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_')
            out += c;
        else
            out += '_';
    }
    return out;
}

std::string
httpResponse(int status, const std::string &contentType,
             const std::string &body)
{
    const char *reason = "OK";
    switch (status) {
      case 200: reason = "OK"; break;
      case 400: reason = "Bad Request"; break;
      case 404: reason = "Not Found"; break;
      case 405: reason = "Method Not Allowed"; break;
      default: reason = "Error"; break;
    }
    std::string out;
    appendf(out, "HTTP/1.0 %d %s\r\n", status, reason);
    appendf(out, "Content-Type: %s\r\n", contentType.c_str());
    appendf(out, "Content-Length: %zu\r\n", body.size());
    out += "Connection: close\r\n\r\n";
    out += body;
    return out;
}

} // namespace draco::obs
