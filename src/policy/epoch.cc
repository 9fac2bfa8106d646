#include "policy/epoch.hh"

#include "support/logging.hh"

namespace draco::policy {

std::shared_ptr<const PolicyEpoch>
EpochSlot::install(std::shared_ptr<const core::CompiledPolicy> policy)
{
    auto ep = std::make_shared<PolicyEpoch>();
    ep->epoch = 1;
    ep->policy = std::move(policy);
    std::lock_guard<std::mutex> lock(_mutex);
    if (_current)
        panic("EpochSlot: install on an already-seeded slot "
              "(epoch %llu)",
              static_cast<unsigned long long>(_current->epoch));
    _current = ep;
    _epoch.store(1, std::memory_order_release);
    return ep;
}

std::shared_ptr<const PolicyEpoch>
EpochSlot::publish(std::shared_ptr<const core::CompiledPolicy> policy)
{
    auto ep = std::make_shared<PolicyEpoch>();
    ep->policy = std::move(policy);
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_current)
        panic("EpochSlot: publish before install");
    ep->epoch = _current->epoch + 1;
    _current = ep;
    // The id mirror is released after the slot: a reader that sees the
    // new id and then pins is guaranteed at least that epoch.
    _epoch.store(ep->epoch, std::memory_order_release);
    return ep;
}

std::shared_ptr<const PolicyEpoch>
EpochSlot::pin() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _current;
}

void
EpochManager::countSwap(uint64_t newEpoch)
{
    _swaps.fetch_add(1, std::memory_order_relaxed);
    countEpoch(newEpoch);
}

void
EpochManager::countEpoch(uint64_t epoch)
{
    uint64_t seen = _maxEpoch.load(std::memory_order_relaxed);
    while (seen < epoch &&
           !_maxEpoch.compare_exchange_weak(seen, epoch,
                                            std::memory_order_relaxed)) {
    }
}

void
EpochManager::exportMetrics(MetricRegistry &registry,
                            const std::string &prefix) const
{
    auto name = [&](const std::string &metric) {
        return MetricRegistry::join(prefix, metric);
    };
    registry.setCounter(name("swaps"), swaps());
    registry.setCounter(name("swap_failures"), swapFailures());
    registry.setCounter(name("stale_snapshot_discards"),
                        staleSnapshotDiscards());
    registry.setCounter(name("max_epoch"), maxEpoch());
}

} // namespace draco::policy
