#include "serve/client.hh"

#include "seccomp/profiles_builtin.hh"
#include "support/logging.hh"

namespace draco::serve {

std::optional<seccomp::Profile>
builtinProfileByName(const std::string &name)
{
    if (name == "insecure")
        return seccomp::insecureProfile();
    if (name == "docker-default")
        return seccomp::dockerDefaultProfile();
    if (name == "gvisor")
        return seccomp::gvisorProfile();
    if (name == "firecracker")
        return seccomp::firecrackerProfile();
    return std::nullopt;
}

const std::vector<std::string> &
builtinProfileNames()
{
    static const std::vector<std::string> names = {
        "insecure", "docker-default", "gvisor", "firecracker"};
    return names;
}

TenantId
LocalClient::createTenant(const std::string &name,
                          const std::string &profileName,
                          const TenantOptions &options)
{
    std::optional<seccomp::Profile> profile =
        builtinProfileByName(profileName);
    if (!profile) {
        warn("LocalClient: unknown profile '%s'", profileName.c_str());
        return kInvalidTenant;
    }
    return _service.createTenant(name, *profile, options);
}

bool
LocalClient::checkBatch(TenantId id, const os::SyscallRequest *reqs,
                        uint32_t count, CheckResponse *resps)
{
    Batch batch;
    _service.submitBatch(id, reqs, count, resps, batch, nullptr,
                         DrainOn::CallerIfIdle);
    batch.wait();
    return true;
}

bool
LocalClient::tenantStats(TenantId id, TenantStats &out)
{
    return _service.tenantStats(id, out);
}

bool
LocalClient::evictTenant(TenantId id)
{
    return _service.evictTenant(id);
}

bool
LocalClient::updateProfile(TenantId id, const std::string &profileName,
                           uint64_t *epochOut)
{
    std::optional<seccomp::Profile> profile =
        builtinProfileByName(profileName);
    if (!profile) {
        warn("LocalClient: unknown profile '%s'", profileName.c_str());
        return false;
    }
    return _service.swapProfile(id, *profile, epochOut);
}

bool
LocalClient::serviceStats(ServiceStatsSnapshot &out)
{
    _service.serviceStats(out);
    return true;
}

} // namespace draco::serve
