/**
 * @file
 * Wire-protocol tests: bit-exact encode/decode round-trips for every
 * message type, total decoders on malformed payloads (truncations,
 * wrong type byte, oversized counts), and frame I/O over a socketpair.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "serve/wire.hh"

namespace draco::serve::wire {
namespace {

os::SyscallRequest
request(uint16_t sid, uint64_t pc, uint64_t a0, uint64_t a5)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = pc;
    req.args[0] = a0;
    req.args[5] = a5;
    return req;
}

template <typename Msg>
Msg
roundTrip(const Msg &in, MsgType type)
{
    std::vector<uint8_t> payload;
    encode(payload, in);
    EXPECT_EQ(peekType(payload), type);
    Msg out;
    EXPECT_TRUE(decode(payload, out));
    return out;
}

TEST(Wire, HelloRoundTrip)
{
    Hello hello;
    hello.version = 7;
    EXPECT_EQ(roundTrip(hello, MsgType::Hello).version, 7u);

    HelloReply reply;
    reply.version = 1;
    reply.shards = 8;
    HelloReply out = roundTrip(reply, MsgType::HelloReply);
    EXPECT_EQ(out.version, 1u);
    EXPECT_EQ(out.shards, 8u);
}

TEST(Wire, CreateTenantRoundTrip)
{
    CreateTenant msg;
    msg.name = "tenant-with-a-long-name";
    msg.profile = "docker-default";
    msg.maxInFlight = 512;
    msg.filterCopies = 2;
    CreateTenant out = roundTrip(msg, MsgType::CreateTenant);
    EXPECT_EQ(out.name, msg.name);
    EXPECT_EQ(out.profile, msg.profile);
    EXPECT_EQ(out.maxInFlight, 512u);
    EXPECT_EQ(out.filterCopies, 2u);

    CreateTenantReply reply;
    reply.tenantId = 42;
    reply.error = "";
    EXPECT_EQ(roundTrip(reply, MsgType::CreateTenantReply).tenantId,
              42u);
    reply.tenantId = kInvalidTenant;
    reply.error = "tenant table full";
    EXPECT_EQ(roundTrip(reply, MsgType::CreateTenantReply).error,
              reply.error);
}

TEST(Wire, CheckBatchRoundTripIsBitExact)
{
    CheckBatch msg;
    msg.batchId = 0xDEADBEEFCAFE0001ULL;
    msg.tenantId = 3;
    msg.reqs.push_back(request(0, 0, 0, 0));
    msg.reqs.push_back(request(1, 0x7fffffffffffULL, ~0ULL, 1));
    msg.reqs.push_back(request(999, 0x400000, 42, 0));
    CheckBatch out = roundTrip(msg, MsgType::CheckBatch);
    EXPECT_EQ(out.batchId, msg.batchId);
    EXPECT_EQ(out.tenantId, msg.tenantId);
    ASSERT_EQ(out.reqs.size(), msg.reqs.size());
    for (size_t i = 0; i < msg.reqs.size(); ++i) {
        EXPECT_EQ(out.reqs[i].sid, msg.reqs[i].sid);
        EXPECT_EQ(out.reqs[i].pc, msg.reqs[i].pc);
        EXPECT_EQ(out.reqs[i].args, msg.reqs[i].args);
    }
}

TEST(Wire, CheckBatchReplyCarriesEveryStatus)
{
    CheckBatchReply msg;
    msg.batchId = 99;
    for (CheckStatus status :
         {CheckStatus::Allowed, CheckStatus::Denied,
          CheckStatus::Overloaded, CheckStatus::UnknownTenant,
          CheckStatus::ShuttingDown}) {
        CheckResponse resp;
        resp.status = status;
        resp.path = static_cast<uint8_t>(msg.resps.size());
        resp.retryAfterUs =
            status == CheckStatus::Overloaded ? 12345 : 0;
        resp.epoch = msg.resps.size() * 7 + 1;
        msg.resps.push_back(resp);
    }
    CheckBatchReply out = roundTrip(msg, MsgType::CheckBatchReply);
    ASSERT_EQ(out.resps.size(), msg.resps.size());
    for (size_t i = 0; i < msg.resps.size(); ++i) {
        EXPECT_EQ(out.resps[i].status, msg.resps[i].status);
        EXPECT_EQ(out.resps[i].path, msg.resps[i].path);
        EXPECT_EQ(out.resps[i].retryAfterUs, msg.resps[i].retryAfterUs);
        EXPECT_EQ(out.resps[i].epoch, msg.resps[i].epoch);
    }
}

TEST(Wire, TenantStatsRoundTrip)
{
    TenantStatsReq req;
    req.tenantId = 5;
    EXPECT_EQ(roundTrip(req, MsgType::TenantStatsReq).tenantId, 5u);

    TenantStatsReply reply;
    reply.ok = true;
    reply.stats.name = "t0";
    reply.stats.id = 5;
    reply.stats.shard = 2;
    reply.stats.evicted = true;
    reply.stats.check.checks = 1000;
    reply.stats.check.vatHits = 900;
    reply.stats.check.filterRuns = 100;
    reply.stats.allowed = 990;
    reply.stats.denied = 10;
    reply.stats.rejects = 77;
    reply.stats.epoch = 4;
    reply.stats.swaps = 3;
    TenantStatsReply out = roundTrip(reply, MsgType::TenantStatsReply);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.stats.name, "t0");
    EXPECT_EQ(out.stats.shard, 2u);
    EXPECT_TRUE(out.stats.evicted);
    EXPECT_EQ(out.stats.check.checks, 1000u);
    EXPECT_EQ(out.stats.check.vatHits, 900u);
    EXPECT_EQ(out.stats.allowed, 990u);
    EXPECT_EQ(out.stats.denied, 10u);
    EXPECT_EQ(out.stats.rejects, 77u);
    EXPECT_EQ(out.stats.epoch, 4u);
    EXPECT_EQ(out.stats.swaps, 3u);

    // The v3 layout, field by field: type, ok, name (varint length +
    // bytes), id, shard, evicted, seven check counters, allowed,
    // denied, rejects, epoch, swaps — and nothing else.
    std::vector<uint8_t> payload;
    encode(payload, reply);
    EXPECT_EQ(payload.size(),
              1u + 1 + (1 + 2) + 4 + 4 + 1 + 7 * 8 + 3 * 8 + 2 * 8);
}

TEST(Wire, UpdateProfileRoundTrip)
{
    UpdateProfile msg;
    msg.tenantId = 11;
    msg.profile = "gvisor";
    UpdateProfile out = roundTrip(msg, MsgType::UpdateProfile);
    EXPECT_EQ(out.tenantId, 11u);
    EXPECT_EQ(out.profile, "gvisor");

    UpdateProfileReply reply;
    reply.ok = true;
    reply.epoch = 9;
    UpdateProfileReply rout =
        roundTrip(reply, MsgType::UpdateProfileReply);
    EXPECT_TRUE(rout.ok);
    EXPECT_EQ(rout.epoch, 9u);
    EXPECT_TRUE(rout.error.empty());

    reply.ok = false;
    reply.epoch = 0;
    reply.error = "unknown profile: bogus";
    rout = roundTrip(reply, MsgType::UpdateProfileReply);
    EXPECT_FALSE(rout.ok);
    EXPECT_EQ(rout.error, reply.error);

    // Total decoders: every truncation and any trailing byte fail.
    std::vector<uint8_t> payload;
    encode(payload, msg);
    for (size_t len = 0; len < payload.size(); ++len) {
        std::vector<uint8_t> cut(payload.begin(),
                                 payload.begin() + len);
        UpdateProfile bad;
        EXPECT_FALSE(decode(cut, bad)) << "length " << len;
    }
    payload.push_back(0);
    UpdateProfile bad;
    EXPECT_FALSE(decode(payload, bad));
}

TEST(Wire, EvictAndShutdownRoundTrip)
{
    EvictTenant msg;
    msg.tenantId = 9;
    EXPECT_EQ(roundTrip(msg, MsgType::EvictTenant).tenantId, 9u);
    EvictTenantReply reply;
    reply.ok = true;
    EXPECT_TRUE(roundTrip(reply, MsgType::EvictTenantReply).ok);

    std::vector<uint8_t> payload;
    encodeShutdown(payload);
    EXPECT_EQ(peekType(payload), MsgType::Shutdown);
    payload.clear();
    encodeShutdownReply(payload);
    EXPECT_EQ(peekType(payload), MsgType::ShutdownReply);
}

TEST(Wire, ServiceStatsRoundTrip)
{
    std::vector<uint8_t> payload;
    encodeServiceStatsReq(payload);
    EXPECT_EQ(peekType(payload), MsgType::ServiceStatsReq);
    EXPECT_EQ(payload.size(), 1u);

    ServiceStatsReply reply;
    reply.stats.tenants = 1000000;
    reply.stats.resident = 10000;
    reply.stats.snapshotted = 990000;
    reply.stats.evictions = 424970;
    reply.stats.restores = 209305;
    reply.stats.restoreFailures = 3;
    reply.stats.snapshotPutFailures = 1;
    reply.stats.dedupPolicies = 1;
    reply.stats.dedupHits = 999999;
    reply.stats.snapshotBytesWritten = 54000000;
    reply.stats.snapshotBytesRead = 26000000;
    reply.stats.storeBytes = 123456789;
    reply.stats.checks = 2000000;
    reply.stats.rejects = 42;
    reply.stats.policySwaps = 1234;
    reply.stats.policySwapFailures = 5;
    reply.stats.staleSnapshotDiscards = 17;
    reply.stats.maxEpoch = 88;
    ServiceStatsReply out =
        roundTrip(reply, MsgType::ServiceStatsReply);
    EXPECT_EQ(out.stats.tenants, 1000000u);
    EXPECT_EQ(out.stats.resident, 10000u);
    EXPECT_EQ(out.stats.snapshotted, 990000u);
    EXPECT_EQ(out.stats.evictions, 424970u);
    EXPECT_EQ(out.stats.restores, 209305u);
    EXPECT_EQ(out.stats.restoreFailures, 3u);
    EXPECT_EQ(out.stats.snapshotPutFailures, 1u);
    EXPECT_EQ(out.stats.dedupPolicies, 1u);
    EXPECT_EQ(out.stats.dedupHits, 999999u);
    EXPECT_EQ(out.stats.snapshotBytesWritten, 54000000u);
    EXPECT_EQ(out.stats.snapshotBytesRead, 26000000u);
    EXPECT_EQ(out.stats.storeBytes, 123456789u);
    EXPECT_EQ(out.stats.checks, 2000000u);
    EXPECT_EQ(out.stats.rejects, 42u);
    EXPECT_EQ(out.stats.policySwaps, 1234u);
    EXPECT_EQ(out.stats.policySwapFailures, 5u);
    EXPECT_EQ(out.stats.staleSnapshotDiscards, 17u);
    EXPECT_EQ(out.stats.maxEpoch, 88u);

    // Truncations and trailing garbage are malformed.
    payload.clear();
    encode(payload, reply);
    for (size_t len = 0; len < payload.size(); ++len) {
        std::vector<uint8_t> cut(payload.begin(),
                                 payload.begin() + len);
        ServiceStatsReply bad;
        EXPECT_FALSE(decode(cut, bad)) << "length " << len;
    }
    payload.push_back(0);
    ServiceStatsReply bad;
    EXPECT_FALSE(decode(payload, bad));
}

TEST(Wire, DecodersRejectEveryTruncation)
{
    CheckBatch msg;
    msg.batchId = 1;
    msg.tenantId = 2;
    msg.reqs.push_back(request(3, 0x400000, 4, 5));
    msg.reqs.push_back(request(6, 0x400010, 7, 8));
    std::vector<uint8_t> payload;
    encode(payload, msg);

    for (size_t len = 0; len < payload.size(); ++len) {
        std::vector<uint8_t> cut(payload.begin(),
                                 payload.begin() + len);
        CheckBatch out;
        EXPECT_FALSE(decode(cut, out)) << "length " << len;
    }
    // Trailing garbage is malformed too: decoders consume exactly.
    payload.push_back(0);
    CheckBatch out;
    EXPECT_FALSE(decode(payload, out));
}

TEST(Wire, DecodersRejectTheWrongType)
{
    std::vector<uint8_t> payload;
    encode(payload, Hello{});
    CheckBatch batch;
    EXPECT_FALSE(decode(payload, batch));
    EvictTenant evict;
    EXPECT_FALSE(decode(payload, evict));
    EXPECT_EQ(peekType({}), static_cast<MsgType>(0));
}

TEST(Wire, DecodersRejectAnAbsurdRequestCount)
{
    CheckBatch msg;
    msg.batchId = 1;
    msg.tenantId = 2;
    std::vector<uint8_t> payload;
    encode(payload, msg);
    // Patch the request-count field (type u8 + batchId u64 + tenant
    // u32 precede it) to a count the payload cannot possibly back.
    ASSERT_GE(payload.size(), 17u);
    const uint32_t absurd = 0xFFFFFFFFu;
    std::memcpy(payload.data() + 13, &absurd, sizeof(absurd));
    CheckBatch out;
    EXPECT_FALSE(decode(payload, out));
}

TEST(Wire, FrameRoundTripOverASocketpair)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::vector<uint8_t> payload;
    CheckBatch msg;
    msg.batchId = 77;
    msg.tenantId = 1;
    for (int i = 0; i < 100; ++i)
        msg.reqs.push_back(request(i, 0x1000 + i, i * 3, i));
    encode(payload, msg);

    ASSERT_TRUE(writeFrame(fds[0], payload));
    std::vector<uint8_t> received;
    ASSERT_TRUE(readFrame(fds[1], received));
    EXPECT_EQ(received, payload);

    // EOF: the peer closing mid-stream reads as a clean false.
    close(fds[0]);
    EXPECT_FALSE(readFrame(fds[1], received));
    close(fds[1]);
}

TEST(Wire, FrameIoEnforcesTheSizeCap)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::vector<uint8_t> oversized(kMaxFrameBytes + 1, 0xAB);
    EXPECT_FALSE(writeFrame(fds[0], oversized));

    // A forged over-limit length prefix must be rejected before any
    // allocation of that size happens.
    uint32_t evil = kMaxFrameBytes + 1;
    ASSERT_EQ(write(fds[0], &evil, sizeof(evil)),
              static_cast<ssize_t>(sizeof(evil)));
    std::vector<uint8_t> received;
    EXPECT_FALSE(readFrame(fds[1], received));
    close(fds[0]);
    close(fds[1]);
}

} // namespace
} // namespace draco::serve::wire
