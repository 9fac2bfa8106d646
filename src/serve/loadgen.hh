/**
 * @file
 * The load driver: the one piece of code that drives a CheckService
 * with traffic, for dracoload and the serving benches.
 *
 * A run is a set of TenantLoads: one tenant's request stream plus the
 * tally of what became of it. Three drivers carry the streams, and all
 * three hand every answered batch to settle(), the only place an
 * Overloaded verdict becomes a retry or a shed:
 *
 *  - runClosedLoop(): driver threads, each on its own Client, run
 *    blocking batches. A swap lands between two of a tenant's batches,
 *    so at the same place in its stream at any shard count.
 *  - runPipelined(): a window of CheckBatch frames in flight per
 *    socket connection, replies matched by batchId. One thread serves
 *    several connections through epoll and keeps reading while it
 *    sends: the server drops a connection whose unread output passes
 *    its cap.
 *  - runOpenLoopLocal(): every batch submitted in-process at once,
 *    verdicts collected afterwards.
 *
 * A request lost to a transport failure counts unanswered. After a
 * run, readFingerprint() reads each tenant's server-side TenantStats,
 * which the determinism contract holds identical at any shard count,
 * driver or transport. Neither the service nor dracod links this.
 */

#ifndef DRACO_SERVE_LOADGEN_HH
#define DRACO_SERVE_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/service.hh"
#include "support/stats.hh"

namespace draco::serve::loadgen {

/** Number of CheckStatus values. */
inline constexpr size_t kStatusCount =
    static_cast<size_t>(CheckStatus::ShuttingDown) + 1;

/** What became of one tenant's requests. */
struct Tally {
    uint64_t statuses[kStatusCount] = {}; ///< Final verdicts by status.
    uint64_t retried = 0;    ///< Requests re-sent after Overloaded.
    uint64_t shed = 0;       ///< Still Overloaded with no retries left.
    uint64_t unanswered = 0; ///< Lost to a transport failure.
    uint64_t swapsIssued = 0;  ///< updateProfile calls that succeeded.
    uint64_t swapFailures = 0; ///< updateProfile calls that failed.
    QuantileSketch batchUs;  ///< Round trip of every batch sent, µs.
    QuantileSketch swapUs;   ///< Every updateProfile call, µs.

    uint64_t count(CheckStatus status) const
    {
        return statuses[static_cast<size_t>(status)];
    }

    /** @return Requests with a final verdict, shed ones included. */
    uint64_t answered() const;

    void merge(const Tally &other);
};

/** One logical tenant of a run. */
struct TenantLoad {
    std::string name;
    TenantId id = kInvalidTenant; ///< Set by createTenants().
    std::vector<os::SyscallRequest> reqs;
    Tally tally;
};

/** How Overloaded verdicts are retried. */
struct RetryPolicy {
    unsigned retries = 0;   ///< Re-sends per request; 0 disables.
    uint32_t capUs = 50000; ///< Ceiling on one retryAfterUs wait.
};

/**
 * After every `every` completed batches of a tenant (but not after its
 * last), swap its profile to the next of `profiles`, from the first.
 */
struct SwapPlan {
    uint64_t every = 0; ///< 0 disables.
    std::vector<std::string> profiles;
};

/**
 * Create every tenant on @p client with built-in profile @p profile.
 *
 * @return The first tenant that could not be created, or nullptr.
 */
const TenantLoad *createTenants(Client &client,
                                std::vector<TenantLoad> &tenants,
                                const std::string &profile,
                                const TenantOptions &options = {});

/**
 * Settle one answered batch into @p tally. An Overloaded verdict goes
 * into @p again (cleared first) while @p attempt, the number of
 * earlier sends, is below the retry budget; every other verdict, and
 * an Overloaded one past the budget (also counted shed), is final.
 *
 * @return Microseconds to wait before re-sending @p again: the largest
 *         retryAfterUs among them, at least 1, capped at capUs.
 */
uint32_t settle(Tally &tally, std::span<const os::SyscallRequest> reqs,
                std::span<const CheckResponse> resps, unsigned attempt,
                const RetryPolicy &policy,
                std::vector<os::SyscallRequest> &again);

/** A span of one tenant's stream, sent as one batch. */
struct PlannedBatch {
    size_t tenant = 0; ///< Index into the run's tenants.
    size_t offset = 0;
    uint32_t count = 0;
};

/**
 * Cut the streams of tenants [@p first, @p last) into batches of up to
 * @p batch requests, dealt round-robin: each tenant's first batch,
 * then each one's second, and so on.
 */
std::vector<PlannedBatch> planRoundRobin(
    const std::vector<TenantLoad> &tenants, uint32_t batch,
    size_t first = 0, size_t last = SIZE_MAX);

struct ClosedLoop {
    uint32_t batch = 32;

    /**
     * Tenants per group. A driver takes whole groups and interleaves a
     * group's batches round-robin on its client.
     */
    size_t groupSize = 1;

    unsigned drivers = 0; ///< Driver threads; 0 runs one per group.
    RetryPolicy retry;
    SwapPlan swap;
};

/** Opens one driver's client (on its thread); nullptr when it cannot. */
using ClientFactory = std::function<std::unique_ptr<Client>()>;

/**
 * Drive @p tenants closed-loop. A batch whose checkBatch fails, and
 * every group no driver could take, counts unanswered.
 */
void runClosedLoop(std::vector<TenantLoad> &tenants,
                   const ClosedLoop &config, const ClientFactory &connect);

struct PipelinedConn {
    int fd = -1; ///< Connected socket, past Hello; not owned.
    std::vector<PlannedBatch> plan;
};

struct Pipeline {
    uint32_t window = 0;  ///< Batches in flight per connection; 0: all.
    unsigned threads = 1; ///< Connection i belongs to thread i % threads.
    RetryPolicy retry;
};

/**
 * Send every connection's plan as pipelined CheckBatch frames; a retry
 * goes out under a fresh batchId. A connection that fails (EOF, I/O
 * error, a malformed or unexpected reply) counts every request it
 * still owed unanswered.
 *
 * @return Connections that failed.
 */
size_t runPipelined(std::vector<TenantLoad> &tenants,
                    const std::vector<PipelinedConn> &conns,
                    const Pipeline &config);

/**
 * Submit every batch of @p plan without waiting (DrainOn::Worker),
 * then collect, re-submitting as settle() decides.
 */
void runOpenLoopLocal(CheckService &service,
                      std::vector<TenantLoad> &tenants,
                      const std::vector<PlannedBatch> &plan,
                      const RetryPolicy &retry);

/**
 * Read each tenant's server-side stats, in tenant order; one that
 * cannot be read gets id kInvalidTenant.
 *
 * @return false when any could not be read.
 */
bool readFingerprint(Client &client,
                     const std::vector<TenantLoad> &tenants,
                     std::vector<TenantStats> &out);

/** @return true when every counter matches; the shard is not compared. */
bool sameFingerprint(const std::vector<TenantStats> &a,
                     const std::vector<TenantStats> &b);

} // namespace draco::serve::loadgen

#endif // DRACO_SERVE_LOADGEN_HH
