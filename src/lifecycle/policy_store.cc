#include "lifecycle/policy_store.hh"

#include "hash/crc64.hh"
#include "support/binio.hh"

namespace draco::lifecycle {

namespace {

/**
 * Serialize the canonical semantic bytes of (@p profile, @p shape) into
 * @p content and return their CRC-64 (ECMA). The bytes are built in a
 * local vector and moved out at the end: appended through a vector the
 * caller can see, every byte reloads the vector's bounds from memory,
 * which measured about 40% slower.
 */
uint64_t
profileContent(const seccomp::Profile &profile,
               seccomp::DispatchShape shape, std::vector<uint8_t> &content)
{
    std::vector<uint8_t> bytes;
    binio::putU8(bytes, static_cast<uint8_t>(shape));
    binio::putU32(bytes, profile.denyValue());
    binio::putVarint(bytes, profile.rules().size());
    for (const auto &[sid, rule] : profile.rules()) {
        binio::putVarint(bytes, sid);
        binio::putU8(bytes, static_cast<uint8_t>(rule.kind));
        binio::putU8(bytes, rule.runtimeRequired ? 1 : 0);
        binio::putVarint(bytes, rule.tuples.size());
        for (const seccomp::ArgVector &tuple : rule.tuples)
            for (uint64_t value : tuple)
                binio::putU64(bytes, value);
        binio::putVarint(bytes, rule.perArg.size());
        for (const auto &[arg, values] : rule.perArg) {
            binio::putVarint(bytes, arg);
            binio::putVarint(bytes, values.size());
            for (uint64_t value : values)
                binio::putU64(bytes, value);
        }
    }
    uint64_t key = crc64Ecma().compute(bytes.data(), bytes.size());
    content = std::move(bytes);
    return key;
}

} // namespace

uint64_t
profileContentKey(const seccomp::Profile &profile,
                  seccomp::DispatchShape shape)
{
    std::vector<uint8_t> content;
    return profileContent(profile, shape, content);
}

std::shared_ptr<const core::CompiledPolicy>
PolicyStore::intern(const seccomp::Profile &profile,
                    seccomp::DispatchShape shape)
{
    std::vector<uint8_t> content;
    uint64_t key = profileContent(profile, shape, content);
    std::lock_guard<std::mutex> lock(_mutex);
    auto [first, last] = _byContentKey.equal_range(key);
    for (auto it = first; it != last; ++it) {
        if (it->second.content == content) {
            ++_hits;
            return it->second.policy;
        }
    }
    auto policy = core::CompiledPolicy::compile(profile, shape);
    _byContentKey.emplace(key, Entry{std::move(content), policy});
    return policy;
}

size_t
PolicyStore::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _byContentKey.size();
}

uint64_t
PolicyStore::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

void
PolicyStore::exportMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    registry.setCounter(MetricRegistry::join(prefix, "policies"),
                        _byContentKey.size());
    registry.setCounter(MetricRegistry::join(prefix, "hits"), _hits);
}

} // namespace draco::lifecycle
