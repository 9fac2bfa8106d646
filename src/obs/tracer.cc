#include "obs/tracer.hh"

#include <algorithm>

#include "obs/export.hh"
#include "support/logging.hh"

namespace draco::obs {

Tracer::Tracer(const TracerConfig &config, std::string track)
    : _enabled(true), _recordEvents(config.recordEvents),
      _capacity(config.recordEvents ? config.capacity : 0),
      _track(std::move(track)),
      _sampleEvery(config.sampleEveryCycles),
      _nextSample(config.sampleEveryCycles)
{
    _events.reserve(_capacity);
}

void
Tracer::noteDrop()
{
    if (_dropped++ == 0) {
        ScopedLogContext ctx(_track);
        warn("tracer: event ring full (capacity %zu), dropping further "
             "events", _capacity);
    }
}

void
Tracer::addChannel(const std::string &name,
                   std::function<double()> provider)
{
    if (!_enabled || _sampleEvery == 0)
        return;
    for (size_t i = 0; i < _series.size(); ++i) {
        if (_series[i].name == name) {
            _providers[i] = std::move(provider);
            return;
        }
    }
    Series s;
    s.name = name;
    // Channels registered after sampling started backfill with zeros so
    // every column stays aligned with sampleCycles().
    s.values.assign(_sampleCycles.size(), 0.0);
    _series.push_back(std::move(s));
    _providers.push_back(std::move(provider));
}

void
Tracer::takeSample()
{
    _sampleCycles.push_back(_now);
    for (size_t i = 0; i < _series.size(); ++i)
        _series[i].values.push_back(_providers[i] ? _providers[i]() : 0.0);
    // One sample per crossing: jump straight past every interval the
    // clock skipped (a wall-clocked track may idle for hours).
    _nextSample = (_now / _sampleEvery + 1) * _sampleEvery;
}

TraceSession::TraceSession(const SessionConfig &config)
{
    configure(config);
}

void
TraceSession::configure(const SessionConfig &config)
{
    if (_enabled)
        fatal("TraceSession: already configured (out '%s')",
              _config.outPath.c_str());
    if (config.outPath.empty())
        fatal("TraceSession: empty output path");
    _config = config;
    _enabled = true;
}

Tracer *
TraceSession::tracer(const std::string &track)
{
    if (!_enabled)
        return nullptr;
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _tracers.find(track);
    if (it == _tracers.end()) {
        it = _tracers.emplace(
            track, std::make_unique<Tracer>(_config.tracer, track)).first;
    }
    return it->second.get();
}

std::vector<const Tracer *>
TraceSession::tracks() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Tracer *> out;
    out.reserve(_tracers.size());
    for (const auto &[name, tracer] : _tracers)
        out.push_back(tracer.get());
    return out; // std::map iterates in name order already.
}

uint64_t
TraceSession::totalEvents() const
{
    uint64_t total = 0;
    for (const Tracer *t : tracks())
        total += t->events().size();
    return total;
}

uint64_t
TraceSession::totalDropped() const
{
    uint64_t total = 0;
    for (const Tracer *t : tracks())
        total += t->dropped();
    return total;
}

uint64_t
TraceSession::totalSamples() const
{
    uint64_t total = 0;
    for (const Tracer *t : tracks())
        total += t->sampleCycles().size() * t->series().size();
    return total;
}

void
TraceSession::exportMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    if (!_enabled)
        return;
    registry.counter(prefix + ".tracks") += tracks().size();
    registry.counter(prefix + ".events") += totalEvents();
    registry.counter(prefix + ".dropped") += totalDropped();
    registry.counter(prefix + ".samples") += totalSamples();
}

bool
TraceSession::writeOutput() const
{
    if (!_enabled)
        return true;
    std::vector<const Tracer *> sorted = tracks();
    bool ok;
    if (_config.outPath.size() >= 5 &&
        _config.outPath.rfind(".json") == _config.outPath.size() - 5) {
        ok = writePerfettoJson(sorted, _config.outPath);
    } else {
        ok = writeDevt(sorted, _config.outPath);
    }
    if (!ok)
        warn("TraceSession: failed to write '%s'", _config.outPath.c_str());
    return ok;
}

} // namespace draco::obs
