#include "serve/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <tuple>
#include <unordered_map>

#include <sys/socket.h>

#include "serve/wire.hh"
#include "support/epoll.hh"

namespace draco::serve::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - since)
        .count();
}

void
backoff(uint32_t us)
{
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/**
 * Drive tenants [@p first, @p last) closed-loop on @p client: blocking
 * batches, each retried as settle() decides, and the swap schedule.
 */
void
runGroup(Client &client, std::vector<TenantLoad> &tenants, size_t first,
         size_t last, const ClosedLoop &config)
{
    const SwapPlan &swap = config.swap;
    std::vector<uint64_t> batches(last - first, 0);
    std::vector<os::SyscallRequest> work, again;
    std::vector<CheckResponse> resps;
    for (const PlannedBatch &b :
         planRoundRobin(tenants, config.batch, first, last)) {
        TenantLoad &tenant = tenants[b.tenant];
        Tally &tally = tenant.tally;
        std::span<const os::SyscallRequest> reqs(
            tenant.reqs.data() + b.offset, b.count);
        for (unsigned attempt = 0; !reqs.empty(); ++attempt) {
            resps.resize(reqs.size());
            const auto t0 = Clock::now();
            if (!client.checkBatch(tenant.id, reqs.data(),
                                   static_cast<uint32_t>(reqs.size()),
                                   resps.data())) {
                tally.unanswered += reqs.size();
                break;
            }
            tally.batchUs.add(microsSince(t0));
            const uint32_t waitUs =
                settle(tally, reqs, resps, attempt, config.retry, again);
            if (!again.empty())
                backoff(waitUs);
            work.swap(again);
            reqs = work;
        }
        // Swap boundary: between two blocking batches of this tenant,
        // so every request before it ran under the old profile and
        // every request after it under the new one.
        const uint64_t done = ++batches[b.tenant - first];
        if (swap.every == 0 || swap.profiles.empty() ||
            done % swap.every != 0 ||
            b.offset + b.count == tenant.reqs.size())
            continue;
        const std::string &next =
            swap.profiles[(done / swap.every - 1) % swap.profiles.size()];
        const auto t0 = Clock::now();
        const bool ok = client.updateProfile(tenant.id, next);
        tally.swapUs.add(microsSince(t0));
        ++(ok ? tally.swapsIssued : tally.swapFailures);
    }
}

/** Framed bytes a connection stages before it stops refilling. */
constexpr size_t kStageBytes = 256 * 1024;

/** A batch framed for the wire, awaiting its reply. */
struct Flight {
    size_t tenant = 0;
    std::vector<os::SyscallRequest> reqs;
    unsigned attempt = 0;
    Clock::time_point sent;
};

/** One connection of runPipelined(). */
struct Pipe {
    int fd = -1;
    const std::vector<PlannedBatch> *plan = nullptr;
    size_t next = 0; ///< Next planned batch to frame.
    uint64_t nextBatchId = 1;
    std::unordered_map<uint64_t, Flight> flights;
    std::vector<uint8_t> out; ///< Framed bytes not yet written.
    wire::FrameParser parser;
    bool closed = false;

    /** @return true while a request of the plan awaits its verdict. */
    bool owes() const { return next < plan->size() || !flights.empty(); }
};

/**
 * One thread of runPipelined(): its connections, polled edge-triggered
 * through one epoll set, and its own tallies, merged after the join.
 */
struct PipeThread {
    const std::vector<TenantLoad> &tenants;
    const Pipeline &config;
    std::deque<Pipe> pipes; ///< Stable addresses: epoll cookies.
    std::vector<Tally> tallies;
    size_t failed = 0;
    wire::CheckBatchReply reply;
    std::vector<os::SyscallRequest> again;

    /** Serve every connection until it finished or failed. */
    void run();
    /** Read, refill the window, write; false when the connection failed. */
    bool pump(Pipe &pipe);
    bool settleReplies(Pipe &pipe);
    /** Frame @p reqs as @p pipe's next batch (a retry takes its slot). */
    void frame(Pipe &pipe, size_t tenant,
               std::vector<os::SyscallRequest> reqs, unsigned attempt);
    /** Count every request @p pipe still owed unanswered. */
    void fail(Pipe &pipe);
};

void
PipeThread::run()
{
    support::Epoll epoll;
    size_t live = pipes.size();
    auto step = [&](Pipe &pipe) {
        const bool ok = pump(pipe);
        if (ok && pipe.owes())
            return;
        if (!ok)
            fail(pipe);
        epoll.del(pipe.fd);
        pipe.closed = true;
        --live;
    };
    for (Pipe &pipe : pipes) {
        epoll.add(pipe.fd, EPOLLIN | EPOLLOUT | EPOLLET, &pipe);
        step(pipe);
    }
    std::vector<epoll_event> events;
    while (live > 0) {
        const int ready = epoll.wait(events, 1000);
        for (int i = 0; i < ready; ++i) {
            Pipe &pipe = *static_cast<Pipe *>(events[i].data.ptr);
            if (!pipe.closed)
                step(pipe);
        }
    }
}

bool
PipeThread::pump(Pipe &pipe)
{
    uint8_t chunk[16 * 1024];
    for (;;) {
        const ssize_t r = ::recv(pipe.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (r <= 0) // A peer may hang up once it owes nothing.
            return r == 0 && !pipe.owes();
        pipe.parser.append(chunk, static_cast<size_t>(r));
        if (!settleReplies(pipe))
            return false;
    }
    while (pipe.next < pipe.plan->size() &&
           (config.window == 0 || pipe.flights.size() < config.window) &&
           pipe.out.size() < kStageBytes) {
        const PlannedBatch &b = (*pipe.plan)[pipe.next++];
        const auto first = tenants[b.tenant].reqs.begin() + b.offset;
        frame(pipe, b.tenant, {first, first + b.count}, 0);
    }
    size_t sent = 0;
    while (sent < pipe.out.size()) {
        const ssize_t w = ::send(pipe.fd, pipe.out.data() + sent,
                                 pipe.out.size() - sent,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (w < 0)
            return false;
        sent += static_cast<size_t>(w);
    }
    pipe.out.erase(pipe.out.begin(),
                   pipe.out.begin() + static_cast<ptrdiff_t>(sent));
    return true;
}

bool
PipeThread::settleReplies(Pipe &pipe)
{
    std::span<const uint8_t> payload;
    wire::FrameParser::Result res;
    while ((res = pipe.parser.next(payload)) ==
           wire::FrameParser::Result::Frame) {
        auto it = wire::decode(payload, reply)
                      ? pipe.flights.find(reply.batchId)
                      : pipe.flights.end();
        if (it == pipe.flights.end() ||
            it->second.reqs.size() != reply.resps.size())
            return false;
        Flight flight = std::move(it->second);
        pipe.flights.erase(it);
        Tally &tally = tallies[flight.tenant];
        tally.batchUs.add(microsSince(flight.sent));
        const uint32_t waitUs = settle(tally, flight.reqs, reply.resps,
                                       flight.attempt, config.retry, again);
        if (again.empty())
            continue;
        backoff(waitUs);
        frame(pipe, flight.tenant, std::move(again), flight.attempt + 1);
    }
    return res != wire::FrameParser::Result::Corrupt;
}

void
PipeThread::frame(Pipe &pipe, size_t tenant,
                  std::vector<os::SyscallRequest> reqs, unsigned attempt)
{
    const uint64_t batchId = pipe.nextBatchId++;
    const size_t start = wire::beginFrame(pipe.out);
    wire::encodeCheckBatch(pipe.out, batchId, tenants[tenant].id, reqs);
    if (!wire::endFrame(pipe.out, start)) {
        tallies[tenant].unanswered += reqs.size();
        return;
    }
    pipe.flights.emplace(
        batchId, Flight{tenant, std::move(reqs), attempt, Clock::now()});
}

void
PipeThread::fail(Pipe &pipe)
{
    ++failed;
    for (const auto &[batchId, flight] : pipe.flights)
        tallies[flight.tenant].unanswered += flight.reqs.size();
    for (; pipe.next < pipe.plan->size(); ++pipe.next) {
        const PlannedBatch &b = (*pipe.plan)[pipe.next];
        tallies[b.tenant].unanswered += b.count;
    }
}

auto
counters(const TenantStats &s)
{
    const core::SwCheckStats &c = s.check;
    return std::tie(s.name, s.id, s.evicted, c.checks, c.sptAllowAll,
                    c.vatHits, c.filterRuns, c.denials, c.filterInsns,
                    c.vatInsertions, s.allowed, s.denied, s.rejects,
                    s.epoch, s.swaps);
}

} // namespace

uint64_t
Tally::answered() const
{
    uint64_t n = 0;
    for (uint64_t s : statuses)
        n += s;
    return n;
}

void
Tally::merge(const Tally &other)
{
    for (size_t s = 0; s < kStatusCount; ++s)
        statuses[s] += other.statuses[s];
    retried += other.retried;
    shed += other.shed;
    unanswered += other.unanswered;
    swapsIssued += other.swapsIssued;
    swapFailures += other.swapFailures;
    batchUs.merge(other.batchUs);
    swapUs.merge(other.swapUs);
}

const TenantLoad *
createTenants(Client &client, std::vector<TenantLoad> &tenants,
              const std::string &profile, const TenantOptions &options)
{
    for (TenantLoad &tenant : tenants) {
        tenant.id = client.createTenant(tenant.name, profile, options);
        if (tenant.id == kInvalidTenant)
            return &tenant;
    }
    return nullptr;
}

uint32_t
settle(Tally &tally, std::span<const os::SyscallRequest> reqs,
       std::span<const CheckResponse> resps, unsigned attempt,
       const RetryPolicy &policy, std::vector<os::SyscallRequest> &again)
{
    again.clear();
    uint32_t hintUs = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const bool overloaded = resps[i].status == CheckStatus::Overloaded;
        if (overloaded && attempt < policy.retries) {
            again.push_back(reqs[i]);
            hintUs = std::max(hintUs, resps[i].retryAfterUs);
            continue;
        }
        ++tally.statuses[static_cast<size_t>(resps[i].status)];
        if (overloaded)
            ++tally.shed;
    }
    if (again.empty())
        return 0;
    tally.retried += again.size();
    return std::min(std::max<uint32_t>(hintUs, 1), policy.capUs);
}

std::vector<PlannedBatch>
planRoundRobin(const std::vector<TenantLoad> &tenants, uint32_t batch,
               size_t first, size_t last)
{
    last = std::min(last, tenants.size());
    batch = std::max<uint32_t>(batch, 1);
    std::vector<PlannedBatch> plan;
    for (size_t offset = 0;; offset += batch) {
        const size_t before = plan.size();
        for (size_t t = first; t < last; ++t) {
            const size_t size = tenants[t].reqs.size();
            if (offset < size)
                plan.push_back({t, offset,
                                static_cast<uint32_t>(std::min<size_t>(
                                    batch, size - offset))});
        }
        if (plan.size() == before)
            return plan;
    }
}

void
runClosedLoop(std::vector<TenantLoad> &tenants, const ClosedLoop &config,
              const ClientFactory &connect)
{
    const size_t groupSize = std::max<size_t>(config.groupSize, 1);
    const size_t groups = (tenants.size() + groupSize - 1) / groupSize;
    const size_t drivers =
        std::min<size_t>(config.drivers ? config.drivers : groups, groups);
    std::atomic<size_t> nextGroup{0};
    std::vector<std::jthread> threads;
    for (size_t d = 0; d < drivers; ++d) {
        threads.emplace_back([&] {
            std::unique_ptr<Client> client = connect();
            if (!client)
                return;
            for (size_t g = nextGroup++; g < groups; g = nextGroup++)
                runGroup(*client, tenants, g * groupSize,
                         std::min((g + 1) * groupSize, tenants.size()),
                         config);
        });
    }
    for (std::jthread &thread : threads)
        thread.join();
    // Groups no driver could take were never sent.
    for (size_t t = std::min(nextGroup.load(), groups) * groupSize;
         t < tenants.size(); ++t)
        tenants[t].tally.unanswered += tenants[t].reqs.size();
}

size_t
runPipelined(std::vector<TenantLoad> &tenants,
             const std::vector<PipelinedConn> &conns,
             const Pipeline &config)
{
    const size_t count = std::clamp<size_t>(
        config.threads, 1, std::max<size_t>(conns.size(), 1));
    std::deque<PipeThread> threads;
    for (size_t d = 0; d < count; ++d) {
        PipeThread &thread = threads.emplace_back(tenants, config);
        thread.tallies.resize(tenants.size());
        for (size_t c = d; c < conns.size(); c += count) {
            Pipe &pipe = thread.pipes.emplace_back();
            pipe.fd = conns[c].fd;
            pipe.plan = &conns[c].plan;
        }
    }
    std::vector<std::jthread> pool;
    for (PipeThread &thread : threads)
        pool.emplace_back([&thread] { thread.run(); });
    size_t failed = 0;
    for (size_t d = 0; d < count; ++d) {
        pool[d].join();
        failed += threads[d].failed;
        for (size_t t = 0; t < tenants.size(); ++t)
            tenants[t].tally.merge(threads[d].tallies[t]);
    }
    return failed;
}

void
runOpenLoopLocal(CheckService &service, std::vector<TenantLoad> &tenants,
                 const std::vector<PlannedBatch> &plan,
                 const RetryPolicy &retry)
{
    struct Pending {
        size_t tenant = 0;
        std::vector<os::SyscallRequest> reqs;
        std::vector<CheckResponse> resps;
        Batch done;
    };
    std::vector<std::unique_ptr<Pending>> pending;
    auto submit = [&](size_t tenant, std::vector<os::SyscallRequest> reqs) {
        Pending &p = *pending.emplace_back(std::make_unique<Pending>());
        p.tenant = tenant;
        p.reqs = std::move(reqs);
        p.resps.resize(p.reqs.size());
        service.submitBatch(tenants[tenant].id, p.reqs.data(),
                            static_cast<uint32_t>(p.reqs.size()),
                            p.resps.data(), p.done);
    };
    for (const PlannedBatch &b : plan) {
        const auto first = tenants[b.tenant].reqs.begin() + b.offset;
        submit(b.tenant, {first, first + b.count});
    }
    // Collect in submission order; Overloaded requests go back for
    // another round after the largest hinted wait of the round.
    std::vector<os::SyscallRequest> again;
    for (unsigned attempt = 0; !pending.empty(); ++attempt) {
        std::vector<std::unique_ptr<Pending>> round;
        round.swap(pending);
        std::vector<std::pair<size_t, std::vector<os::SyscallRequest>>>
            retries;
        uint32_t waitUs = 0;
        for (auto &p : round) {
            p->done.wait();
            const uint32_t us = settle(tenants[p->tenant].tally, p->reqs,
                                       p->resps, attempt, retry, again);
            if (again.empty())
                continue;
            waitUs = std::max(waitUs, us);
            retries.emplace_back(p->tenant, std::move(again));
        }
        if (!retries.empty())
            backoff(waitUs);
        for (auto &[tenant, reqs] : retries)
            submit(tenant, std::move(reqs));
    }
}

bool
readFingerprint(Client &client, const std::vector<TenantLoad> &tenants,
                std::vector<TenantStats> &out)
{
    out.assign(tenants.size(), TenantStats{});
    bool ok = true;
    for (size_t t = 0; t < tenants.size(); ++t) {
        if (!client.tenantStats(tenants[t].id, out[t])) {
            out[t] = TenantStats{};
            ok = false;
        }
    }
    return ok;
}

bool
sameFingerprint(const std::vector<TenantStats> &a,
                const std::vector<TenantStats> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const TenantStats &x, const TenantStats &y) {
                          return counters(x) == counters(y);
                      });
}

} // namespace draco::serve::loadgen
