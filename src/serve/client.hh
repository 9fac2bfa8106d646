/**
 * @file
 * Client-side view of the check service.
 *
 * Client is the frontend-neutral interface: the load driver
 * (serve/loadgen) and the tests drive it without caring whether checks
 * run in-process or cross a socket. LocalClient binds it to a
 * CheckService in the same address space; SocketClient
 * (serve/server.hh) speaks the dracod wire protocol to a daemon.
 * Profiles cross the boundary *by name* — the server instantiates them
 * from the built-in catalog — so the wire never carries policy bytes.
 */

#ifndef DRACO_SERVE_CLIENT_HH
#define DRACO_SERVE_CLIENT_HH

#include <optional>
#include <string>

#include "serve/service.hh"
#include "serve/types.hh"

namespace draco::serve {

/**
 * Resolve a built-in profile by catalog name: "insecure",
 * "docker-default", "gvisor", or "firecracker".
 *
 * @return The profile, or nullopt when @p name is not in the catalog.
 */
std::optional<seccomp::Profile>
builtinProfileByName(const std::string &name);

/** @return The catalog names accepted by builtinProfileByName(). */
const std::vector<std::string> &builtinProfileNames();

/**
 * Frontend-neutral check-service client (see file comment).
 */
class Client
{
  public:
    virtual ~Client() = default;

    /**
     * Create (or look up) tenant @p name running the built-in profile
     * @p profileName.
     *
     * @return The tenant id, or kInvalidTenant on failure (unknown
     *         profile, table full, service stopping, transport error).
     */
    virtual TenantId createTenant(const std::string &name,
                                  const std::string &profileName,
                                  const TenantOptions &options = {}) = 0;

    /**
     * Check @p count requests for tenant @p id, blocking until every
     * response landed in @p resps.
     *
     * @return false on transport failure (responses invalid).
     */
    virtual bool checkBatch(TenantId id, const os::SyscallRequest *reqs,
                            uint32_t count, CheckResponse *resps) = 0;

    /** Snapshot tenant @p id's server-side stats. */
    virtual bool tenantStats(TenantId id, TenantStats &out) = 0;

    /** Evict tenant @p id. @return false when unknown/already gone. */
    virtual bool evictTenant(TenantId id) = 0;

    /**
     * Hot-swap tenant @p id's profile to the built-in catalog entry
     * @p profileName under live traffic: checks submitted before this
     * call resolve under the old policy, checks after it under the new
     * one.
     *
     * @param epochOut Receives the epoch now serving when non-null.
     * @return false on unknown profile/tenant or transport failure.
     */
    virtual bool updateProfile(TenantId id,
                               const std::string &profileName,
                               uint64_t *epochOut = nullptr) = 0;

    /**
     * Snapshot the service-wide control-plane counters (tenant counts,
     * lifecycle evictions/restores, dedup figures).
     *
     * @return false when the transport failed.
     */
    virtual bool serviceStats(ServiceStatsSnapshot &out) = 0;
};

/**
 * Client bound to an in-process CheckService.
 */
class LocalClient final : public Client
{
  public:
    /** @param service Backing service (not owned, must outlive this). */
    explicit LocalClient(CheckService &service) : _service(service) {}

    TenantId createTenant(const std::string &name,
                          const std::string &profileName,
                          const TenantOptions &options = {}) override;

    bool checkBatch(TenantId id, const os::SyscallRequest *reqs,
                    uint32_t count, CheckResponse *resps) override;

    bool tenantStats(TenantId id, TenantStats &out) override;

    bool evictTenant(TenantId id) override;

    bool updateProfile(TenantId id, const std::string &profileName,
                       uint64_t *epochOut = nullptr) override;

    bool serviceStats(ServiceStatsSnapshot &out) override;

    /** @return The backing service. */
    CheckService &service() { return _service; }

  private:
    CheckService &_service;
};

} // namespace draco::serve

#endif // DRACO_SERVE_CLIENT_HH
