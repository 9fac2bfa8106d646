#include "core/vat.hh"

#include <algorithm>
#include <bit>

#include "hash/crc64.hh"
#include "support/logging.hh"

namespace draco::core {

uint64_t
vatHash(CuckooWay way, const ArgKey &key)
{
    // CRC per the paper (§VII-A), diffused through mix64 so structured
    // argument values index uniformly — see mix64's doc comment.
    const Crc64 &engine =
        way == CuckooWay::H1 ? crc64Ecma() : crc64NotEcma();
    return mix64(engine.compute(key.data(), key.size()));
}

Vat::Table
Vat::makeTable(uint16_t sid, uint64_t bitmask, size_t estimated_sets)
{
    if (bitmask == 0)
        fatal("Vat::configure: sid %u has no checked bytes", sid);

    size_t buckets = std::bit_ceil(std::max<size_t>(2, estimated_sets));
    unsigned keyBytes = static_cast<unsigned>(std::popcount(bitmask));
    // One entry: stored key rounded to 8 bytes, plus valid/metadata word.
    size_t entryBytes = ((keyBytes + 7) / 8) * 8 + 8;
    return Table{sid, bitmask, entryBytes, VatCuckoo(buckets, {}, {})};
}

void
Vat::install(Table table)
{
    if (Table *existing = tableFor(table.sid)) {
        *existing = std::move(table);
        return;
    }
    const uint16_t sid = table.sid;
    if (sid >= _index.size())
        _index.resize(size_t{sid} + 1, kNoTable);
    auto at = std::upper_bound(
        _tables.begin(), _tables.end(), sid,
        [](uint16_t s, const Table &t) { return s < t.sid; });
    size_t pos = static_cast<size_t>(at - _tables.begin());
    _tables.insert(at, std::move(table));
    for (size_t i = pos; i < _tables.size(); ++i)
        _index[_tables[i].sid] = static_cast<TableIndex>(i);
}

void
Vat::configure(uint16_t sid, uint64_t bitmask, size_t estimated_sets)
{
    install(makeTable(sid, bitmask, estimated_sets));
}

void
Vat::configure(const std::vector<CheckSpec> &specs)
{
    if (specs.empty())
        return;
    _tables.reserve(_tables.size() + specs.size());
    if (specs.back().sid >= _index.size())
        _index.resize(size_t{specs.back().sid} + 1, kNoTable);
    for (const CheckSpec &spec : specs)
        install(makeTable(spec.sid, spec.bitmask, spec.estimatedSets));
}

const Vat::Table *
Vat::tableFor(uint16_t sid) const
{
    TableIndex table = tableIndex(sid);
    return table == kNoTable ? nullptr : &_tables[table];
}

Vat::Table *
Vat::tableFor(uint16_t sid)
{
    TableIndex table = tableIndex(sid);
    return table == kNoTable ? nullptr : &_tables[table];
}

bool
Vat::configured(uint16_t sid) const
{
    return tableIndex(sid) != kNoTable;
}

uint64_t
Vat::bitmask(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->bitmask : 0;
}

std::optional<VatHit>
Vat::lookup(uint16_t sid, const ArgKey &key) const
{
    TableIndex table = tableIndex(sid);
    if (table == kNoTable)
        return std::nullopt;
    return lookupAt(table, key);
}

std::optional<VatHit>
Vat::lookupAt(TableIndex table, const ArgKey &key) const
{
    auto found = _tables[table].cuckoo.lookup(key);
    if (!found)
        return std::nullopt;
    return VatHit{VatToken{found->way, found->hash}};
}

bool
Vat::insert(uint16_t sid, const ArgKey &key)
{
    TableIndex table = tableIndex(sid);
    if (table == kNoTable)
        panic("Vat::insert: sid %u not configured", sid);
    return insertAt(table, key);
}

bool
Vat::insertAt(TableIndex table, const ArgKey &key)
{
    Table &t = _tables[table];
    ArgKey victim;
    uint64_t before = t.cuckoo.stats().displacements;
    auto result = t.cuckoo.insert(key, &victim);
    if (_tracer) {
        _tracer->record(obs::EventKind::VatInsert, t.sid, 0, 0,
                        t.cuckoo.stats().displacements - before);
    }
    if (result == CuckooInsert::EvictedVictim) {
        ++_evictions;
        if (_tracer)
            _tracer->record(obs::EventKind::VatEvict, t.sid);
        return true;
    }
    return false;
}

bool
Vat::erase(uint16_t sid, const ArgKey &key)
{
    Table *table = tableFor(sid);
    return table && table->cuckoo.erase(key);
}

std::optional<ArgKey>
Vat::slotContents(uint16_t sid, const VatToken &token) const
{
    const Table *table = tableFor(sid);
    if (!table)
        return std::nullopt;
    const ArgKey *stored = table->cuckoo.at(token.way, token.hash);
    if (!stored)
        return std::nullopt;
    return *stored;
}

size_t
Vat::footprintBytes() const
{
    size_t total = 0;
    for (const Table &table : _tables)
        total += table.cuckoo.capacity() * table.entryBytes;
    return total;
}

size_t
Vat::setCount(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->cuckoo.size() : 0;
}

size_t
Vat::buckets(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->cuckoo.buckets() : 0;
}

size_t
Vat::entryBytes(uint16_t sid) const
{
    const Table *table = tableFor(sid);
    return table ? table->entryBytes : 0;
}

void
Vat::exportMetrics(MetricRegistry &registry,
                   const std::string &prefix) const
{
    CuckooStats total;
    size_t sets = 0;
    size_t capacity = 0;
    for (const Table &table : _tables) {
        const CuckooStats &s = table.cuckoo.stats();
        total.lookups += s.lookups;
        total.hits += s.hits;
        total.insertions += s.insertions;
        total.displacements += s.displacements;
        total.evictions += s.evictions;
        sets += table.cuckoo.size();
        capacity += table.cuckoo.capacity();
    }

    auto name = [&](const char *metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("tables"), _tables.size());
    registry.setCounter(name("sets"), sets);
    registry.setCounter(name("capacity"), capacity);
    registry.setCounter(name("footprint_bytes"), footprintBytes());
    registry.setCounter(name("lookups"), total.lookups);
    registry.setCounter(name("hits"), total.hits);
    registry.setCounter(name("insertions"), total.insertions);
    registry.setCounter(name("displacements"), total.displacements);
    registry.setCounter(name("cuckoo_evictions"), total.evictions);
    registry.setCounter(name("evictions"), _evictions);
    registry.setGauge(name("hit_rate"),
                      total.lookups
                          ? static_cast<double>(total.hits) /
                              static_cast<double>(total.lookups)
                          : 0.0);
}

} // namespace draco::core
