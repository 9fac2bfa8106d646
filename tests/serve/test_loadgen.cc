/**
 * @file
 * Load driver tests. The settle step retries an Overloaded verdict
 * while the budget lasts, after the largest hint capped at the retry
 * cap, and tallies everything else. The pipelined driver lands every
 * verdict on its own tenant however a peer orders and splits its
 * replies. A peer that hangs up leaves every request unanswered, on
 * the closed loop and the pipelined driver alike. The in-process open
 * loop sheds exactly what it cannot retry. And the three drivers give
 * one fingerprint on one traffic set.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "os/syscalls.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/transport.hh"
#include "serve/wire.hh"

namespace draco::serve::loadgen {
namespace {

os::SyscallRequest
request(uint16_t sid, uint64_t arg0 = 0)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = 0x1000;
    req.args[0] = arg0;
    return req;
}

/**
 * Tenants t0..t<n-1>; tenant t's stream holds 12 + 5t requests of
 * read, write, openat and clone (an argument-checked call that
 * docker-default allows, so it reaches the VAT), in an order of its
 * own.
 */
std::vector<TenantLoad>
makeTenants(size_t n)
{
    static const os::SyscallRequest calls[] = {
        request(os::sc::read, 3), request(os::sc::write, 1),
        request(os::sc::openat), request(os::sc::clone, 0x01200011)};
    std::vector<TenantLoad> tenants(n);
    for (size_t t = 0; t < n; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        tenants[t].name = std::move(name);
        for (size_t i = 0; i < 12 + 5 * t; ++i)
            tenants[t].reqs.push_back(calls[(i * (t + 1) + t) % 4]);
    }
    return tenants;
}

std::string
socketPath(const char *tag)
{
    return "/tmp/draco_loadgen_" + std::to_string(getpid()) + "_" + tag +
           ".sock";
}

bool
sendAll(int fd, const uint8_t *data, size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Accept one connection on @p listenFd and answer its Hello. */
int
acceptHello(int listenFd)
{
    int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0)
        return -1;
    std::vector<uint8_t> payload;
    if (!wire::readFrame(fd, payload)) {
        ::close(fd);
        return -1;
    }
    std::vector<uint8_t> frame;
    const size_t start = wire::beginFrame(frame);
    wire::encode(frame, wire::HelloReply{});
    wire::endFrame(frame, start);
    sendAll(fd, frame.data(), frame.size());
    return fd;
}

TEST(Loadgen, SettleRetriesShedsAndTalliesEveryVerdict)
{
    const std::vector<os::SyscallRequest> reqs = {
        request(0), request(1), request(2),
        request(3), request(4), request(5)};
    std::vector<CheckResponse> resps(6);
    const CheckStatus statuses[] = {
        CheckStatus::Allowed,    CheckStatus::Overloaded,
        CheckStatus::Denied,     CheckStatus::Overloaded,
        CheckStatus::UnknownTenant, CheckStatus::ShuttingDown};
    for (size_t i = 0; i < 6; ++i)
        resps[i].status = statuses[i];
    resps[1].retryAfterUs = 30;
    resps[3].retryAfterUs = 70;
    std::vector<os::SyscallRequest> again = {request(9)};

    // No retry budget: both Overloaded verdicts are final and shed.
    Tally none;
    EXPECT_EQ(settle(none, reqs, resps, 0, {0, 50}, again), 0u);
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(none.count(CheckStatus::Allowed), 1u);
    EXPECT_EQ(none.count(CheckStatus::Denied), 1u);
    EXPECT_EQ(none.count(CheckStatus::Overloaded), 2u);
    EXPECT_EQ(none.count(CheckStatus::UnknownTenant), 1u);
    EXPECT_EQ(none.count(CheckStatus::ShuttingDown), 1u);
    EXPECT_EQ(none.shed, 2u);
    EXPECT_EQ(none.retried, 0u);
    EXPECT_EQ(none.answered(), 6u);

    // One retry: the Overloaded requests come back, after the largest
    // hint (70) capped at the retry cap.
    Tally one;
    EXPECT_EQ(settle(one, reqs, resps, 0, {1, 50}, again), 50u);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].sid, 1);
    EXPECT_EQ(again[1].sid, 3);
    EXPECT_EQ(one.retried, 2u);
    EXPECT_EQ(one.shed, 0u);
    EXPECT_EQ(one.count(CheckStatus::Overloaded), 0u);
    EXPECT_EQ(one.answered(), 4u);
    EXPECT_EQ(settle(one, reqs, resps, 0, {1, 1000}, again), 70u);

    // The retry is Overloaded again with the budget spent: shed.
    const std::vector<os::SyscallRequest> retry = again;
    std::vector<CheckResponse> overloaded(2);
    for (CheckResponse &resp : overloaded)
        resp.status = CheckStatus::Overloaded;
    Tally spent;
    EXPECT_EQ(settle(spent, retry, overloaded, 1, {1, 50}, again), 0u);
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(spent.shed, 2u);
    EXPECT_EQ(spent.count(CheckStatus::Overloaded), 2u);

    // A retry without a hint still waits at least a microsecond.
    Tally hintless;
    EXPECT_EQ(settle(hintless, retry, overloaded, 0, {1, 50}, again), 1u);
    EXPECT_EQ(again.size(), 2u);
}

TEST(Loadgen, PlanDealsTenantsRoundRobin)
{
    std::vector<TenantLoad> tenants(3);
    tenants[0].reqs.resize(5);
    tenants[1].reqs.resize(2);
    const std::vector<PlannedBatch> plan = planRoundRobin(tenants, 2);
    const std::vector<std::vector<size_t>> want = {
        {0, 0, 2}, {1, 0, 2}, {0, 2, 2}, {0, 4, 1}};
    ASSERT_EQ(plan.size(), want.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].tenant, want[i][0]) << i;
        EXPECT_EQ(plan[i].offset, want[i][1]) << i;
        EXPECT_EQ(plan[i].count, want[i][2]) << i;
    }
    EXPECT_EQ(planRoundRobin(tenants, 2, 1, 2).size(), 1u);
}

/** The fake peer's verdict: a function of the tenant and the call. */
CheckStatus
peerVerdict(TenantId tenant, const os::SyscallRequest &req)
{
    return (tenant + req.sid) % 2 ? CheckStatus::Denied
                                  : CheckStatus::Allowed;
}

TEST(Loadgen, PipelinedDriverLandsEveryVerdictOnItsTenant)
{
    std::vector<TenantLoad> tenants = makeTenants(3);
    for (size_t t = 0; t < tenants.size(); ++t)
        tenants[t].id = static_cast<TenantId>(t + 1);
    constexpr TenantId kShedOnce = 3;
    const std::vector<PlannedBatch> plan = planRoundRobin(tenants, 4);
    // Every planned batch, plus the one retry of kShedOnce's first.
    const size_t frames = plan.size() + 1;

    const std::string path = socketPath("pipelined");
    int listenFd = listenEndpoint(Endpoint::unix_(path));
    ASSERT_GE(listenFd, 0);
    std::thread peer([&] {
        int fd = acceptHello(listenFd);
        if (fd < 0)
            return;
        // Read up to three batches, answer them newest first, and
        // dribble the replies out seven bytes per send.
        bool shed = false;
        std::vector<uint8_t> payload;
        for (size_t done = 0; done < frames;) {
            std::vector<wire::CheckBatch> group(
                std::min<size_t>(3, frames - done));
            for (wire::CheckBatch &batch : group) {
                if (!wire::readFrame(fd, payload) ||
                    !wire::decode(payload, batch)) {
                    ::close(fd);
                    return;
                }
            }
            done += group.size();
            std::vector<uint8_t> out;
            for (auto it = group.rbegin(); it != group.rend(); ++it) {
                wire::CheckBatchReply reply;
                reply.batchId = it->batchId;
                const bool shedThis = it->tenantId == kShedOnce && !shed;
                shed = shed || shedThis;
                for (const os::SyscallRequest &req : it->reqs) {
                    CheckResponse resp;
                    resp.status = shedThis ? CheckStatus::Overloaded
                                           : peerVerdict(it->tenantId, req);
                    resp.retryAfterUs = shedThis ? 5 : 0;
                    reply.resps.push_back(resp);
                }
                const size_t start = wire::beginFrame(out);
                wire::encode(out, reply);
                wire::endFrame(out, start);
            }
            for (size_t pos = 0; pos < out.size(); pos += 7)
                if (!sendAll(fd, out.data() + pos,
                             std::min<size_t>(7, out.size() - pos)))
                    break;
        }
        ::close(fd);
    });

    auto client = SocketClient::connect(path);
    EXPECT_NE(client, nullptr);
    if (client) {
        Pipeline pipeline;
        pipeline.window = 4;
        pipeline.retry = {1, 100};
        EXPECT_EQ(runPipelined(tenants, {{client->fd(), plan}}, pipeline),
                  0u);
    }
    client.reset();
    peer.join();
    ::close(listenFd);
    ::unlink(path.c_str());

    for (const TenantLoad &tenant : tenants) {
        uint64_t allowed = 0;
        uint64_t denied = 0;
        for (const os::SyscallRequest &req : tenant.reqs)
            ++(peerVerdict(tenant.id, req) == CheckStatus::Allowed
                   ? allowed
                   : denied);
        const Tally &tally = tenant.tally;
        EXPECT_EQ(tally.count(CheckStatus::Allowed), allowed)
            << tenant.name;
        EXPECT_EQ(tally.count(CheckStatus::Denied), denied) << tenant.name;
        EXPECT_EQ(tally.answered(), tenant.reqs.size()) << tenant.name;
        EXPECT_EQ(tally.unanswered, 0u) << tenant.name;
        EXPECT_EQ(tally.shed, 0u) << tenant.name;
        const uint64_t batches = (tenant.reqs.size() + 3) / 4;
        const bool shedOnce = tenant.id == kShedOnce;
        EXPECT_EQ(tally.retried, shedOnce ? 4u : 0u) << tenant.name;
        EXPECT_EQ(tally.batchUs.count(), batches + shedOnce)
            << tenant.name;
    }
}

TEST(Loadgen, DriversCountEveryRequestUnansweredWhenThePeerHangsUp)
{
    const std::string path = socketPath("hangup");
    int listenFd = listenEndpoint(Endpoint::unix_(path));
    ASSERT_GE(listenFd, 0);
    std::vector<TenantLoad> piped = makeTenants(2);
    std::vector<TenantLoad> inFlight = makeTenants(2);
    const std::vector<PlannedBatch> plan = planRoundRobin(piped, 4);
    // Three connections. The closed loop's driver and the first
    // pipelined run's are answered at Hello and closed. The second
    // pipelined run's reads every batch, then hangs up its sending
    // side with all of them in flight.
    std::thread peer([&] {
        for (int i = 0; i < 2; ++i) {
            int fd = acceptHello(listenFd);
            if (fd >= 0)
                ::close(fd);
        }
        int fd = acceptHello(listenFd);
        if (fd < 0)
            return;
        std::vector<uint8_t> payload;
        for (size_t i = 0; i < plan.size(); ++i)
            if (!wire::readFrame(fd, payload))
                break;
        ::shutdown(fd, SHUT_WR);
        while (wire::readFrame(fd, payload)) {
        }
        ::close(fd);
    });

    std::vector<TenantLoad> closed = makeTenants(2);
    ClosedLoop loop;
    loop.batch = 4;
    loop.drivers = 1;
    loop.swap = {2, {"gvisor"}};
    runClosedLoop(closed, loop, [&path] {
        return SocketClient::connect(path);
    });

    size_t failed = 0;
    for (auto *run : {&piped, &inFlight}) {
        if (auto client = SocketClient::connect(path))
            failed += runPipelined(*run, {{client->fd(), plan}}, {});
    }
    peer.join();
    ::close(listenFd);
    ::unlink(path.c_str());
    EXPECT_EQ(failed, 2u);

    // No driver connects at all: every group goes unsent.
    std::vector<TenantLoad> unsent = makeTenants(2);
    runClosedLoop(unsent, loop,
                  []() -> std::unique_ptr<Client> { return nullptr; });

    for (const auto *run : {&closed, &piped, &inFlight, &unsent}) {
        for (const TenantLoad &tenant : *run) {
            EXPECT_EQ(tenant.tally.unanswered, tenant.reqs.size())
                << tenant.name;
            EXPECT_EQ(tenant.tally.answered(), 0u) << tenant.name;
        }
    }
}

TEST(Loadgen, OpenLoopShedsOnlyWhatItCannotRetry)
{
    for (unsigned retries : {0u, 1000u}) {
        ServiceOptions options;
        options.queueCapacity = 8;
        CheckService service(options);
        LocalClient client(service);
        std::vector<TenantLoad> tenants = makeTenants(4);
        ASSERT_EQ(createTenants(client, tenants, "docker-default"),
                  nullptr);
        const TenantId blockerId =
            client.createTenant("blocker", "docker-default");

        // Hold the shard's drain until the open loop has been shed at
        // least once: the blocker's completion callback runs inside
        // the drain and waits on the gate.
        std::promise<void> gate;
        std::shared_future<void> opened = gate.get_future().share();
        Batch blocker;
        blocker.onComplete([opened] { opened.wait(); });
        const os::SyscallRequest blockerReq = request(os::sc::read);
        CheckResponse blockerResp;
        service.submitBatch(blockerId, &blockerReq, 1, &blockerResp,
                            blocker);
        std::thread release([&] {
            while (service.totalRejects() == 0)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            gate.set_value();
        });
        runOpenLoopLocal(service, tenants, planRoundRobin(tenants, 4),
                         {retries, 50});
        release.join();
        blocker.wait();

        uint64_t shed = 0;
        uint64_t retried = 0;
        for (const TenantLoad &tenant : tenants) {
            const Tally &tally = tenant.tally;
            EXPECT_EQ(tally.shed, tally.count(CheckStatus::Overloaded))
                << tenant.name;
            EXPECT_EQ(tally.count(CheckStatus::Allowed) +
                          tally.count(CheckStatus::Denied) + tally.shed,
                      tenant.reqs.size())
                << tenant.name;
            EXPECT_EQ(tally.unanswered, 0u) << tenant.name;
            shed += tally.shed;
            retried += tally.retried;
        }
        if (retries == 0) {
            EXPECT_GT(shed, 0u);
            EXPECT_EQ(retried, 0u);
        } else {
            EXPECT_GT(retried, 0u);
        }
        service.stop();
    }
}

TEST(Loadgen, DriversAgreeOnTheFingerprint)
{
    ServiceOptions options;
    options.shards = 2;

    // Closed loop, in-process, two tenants per driver.
    std::vector<TenantStats> closedPrint;
    {
        CheckService service(options);
        LocalClient client(service);
        std::vector<TenantLoad> tenants = makeTenants(4);
        ASSERT_EQ(createTenants(client, tenants, "docker-default"),
                  nullptr);
        ClosedLoop loop;
        loop.batch = 5;
        loop.groupSize = 2;
        runClosedLoop(tenants, loop, [&service] {
            return std::make_unique<LocalClient>(service);
        });
        EXPECT_TRUE(readFingerprint(client, tenants, closedPrint));
    }

    // Pipelined, every batch on one socket connection.
    std::vector<TenantStats> pipedPrint;
    {
        CheckService service(options);
        SocketServer server(service, socketPath("agree"));
        ASSERT_TRUE(server.start());
        auto client = SocketClient::connect(server.socketPath());
        ASSERT_NE(client, nullptr);
        std::vector<TenantLoad> tenants = makeTenants(4);
        ASSERT_EQ(createTenants(*client, tenants, "docker-default"),
                  nullptr);
        Pipeline pipeline;
        pipeline.window = 3;
        EXPECT_EQ(runPipelined(tenants,
                               {{client->fd(), planRoundRobin(tenants, 5)}},
                               pipeline),
                  0u);
        EXPECT_TRUE(readFingerprint(*client, tenants, pipedPrint));
        for (const TenantLoad &tenant : tenants)
            EXPECT_EQ(tenant.tally.answered(), tenant.reqs.size());
    }

    // Open loop, in-process.
    std::vector<TenantStats> openPrint;
    {
        CheckService service(options);
        LocalClient client(service);
        std::vector<TenantLoad> tenants = makeTenants(4);
        ASSERT_EQ(createTenants(client, tenants, "docker-default"),
                  nullptr);
        runOpenLoopLocal(service, tenants, planRoundRobin(tenants, 5), {});
        EXPECT_TRUE(readFingerprint(client, tenants, openPrint));
    }

    ASSERT_EQ(closedPrint.size(), 4u);
    EXPECT_TRUE(sameFingerprint(closedPrint, pipedPrint));
    EXPECT_TRUE(sameFingerprint(closedPrint, openPrint));
    for (const TenantStats &stats : closedPrint)
        EXPECT_GT(stats.check.vatHits, 0u) << stats.name;

    // The shard is not part of the fingerprint; every counter is.
    std::vector<TenantStats> moved = closedPrint;
    moved[0].shard ^= 1;
    EXPECT_TRUE(sameFingerprint(closedPrint, moved));
    moved[0].check.filterRuns += 1;
    EXPECT_FALSE(sameFingerprint(closedPrint, moved));
    EXPECT_FALSE(sameFingerprint(closedPrint, {}));
}

} // namespace
} // namespace draco::serve::loadgen
