/**
 * @file
 * Wire-protocol tests: bit-exact encode/decode round-trips for every
 * message type, the v4 CheckBatch record pinned byte for byte to the
 * kernel's seccomp_data, total decoders on malformed payloads
 * (truncations, wrong type byte, oversized counts, foreign records),
 * and frame I/O over a socketpair.
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

/** @return The little-endian u32 at @p p. */
uint32_t
u32At(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
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

/**
 * A v4 CheckBatch record is the seccomp_data a filter reads: every
 * 32-bit word of it, at the offsets the filter builder addresses,
 * equals the same word of SyscallRequest::toSeccompData(). The reply
 * record is pinned the same way.
 */
TEST(Wire, CheckBatchRecordIsSeccompData)
{
    std::vector<os::SyscallRequest> reqs;
    reqs.push_back(request(0, 0, 0, 0));
    os::SyscallRequest full;
    full.sid = 0xFFFF;
    full.pc = UINT64_MAX;
    for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i)
        full.args[i] = 0x0123456789ABCDEFULL * (i + 1) + i;
    reqs.push_back(full);
    std::vector<uint8_t> payload;
    encodeCheckBatch(payload, 0x1122334455667788ULL, 9, reqs);

    ASSERT_EQ(payload.size(),
              kCheckBatchHeaderBytes + reqs.size() * kRequestRecordBytes);
    EXPECT_EQ(kRequestRecordBytes, 64u);
    EXPECT_EQ(peekType(payload), MsgType::CheckBatch);
    EXPECT_EQ(u32At(&payload[1]), 0x55667788u);
    EXPECT_EQ(u32At(&payload[5]), 0x11223344u);
    EXPECT_EQ(u32At(&payload[9]), 9u);
    EXPECT_EQ(u32At(&payload[13]), reqs.size());

    for (size_t r = 0; r < reqs.size(); ++r) {
        const uint8_t *rec = &payload[kCheckBatchHeaderBytes +
                                      r * kRequestRecordBytes];
        const os::SeccompData sd = reqs[r].toSeccompData();
        EXPECT_EQ(u32At(rec + os::sd_off::nr), sd.nr);
        EXPECT_EQ(u32At(rec + os::sd_off::arch), sd.arch);
        EXPECT_EQ(u32At(rec + os::sd_off::ip_lo),
                  static_cast<uint32_t>(sd.instruction_pointer));
        EXPECT_EQ(u32At(rec + os::sd_off::ip_hi),
                  static_cast<uint32_t>(sd.instruction_pointer >> 32));
        for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i) {
            EXPECT_EQ(u32At(rec + os::sd_off::argLo(i)),
                      static_cast<uint32_t>(sd.args[i]))
                << "request " << r << " arg " << i;
            EXPECT_EQ(u32At(rec + os::sd_off::argHi(i)),
                      static_cast<uint32_t>(sd.args[i] >> 32))
                << "request " << r << " arg " << i;
        }
    }

    // The CheckBatch message encodes the same bytes.
    CheckBatch msg;
    msg.batchId = 0x1122334455667788ULL;
    msg.tenantId = 9;
    msg.reqs = reqs;
    std::vector<uint8_t> viaMsg;
    encode(viaMsg, msg);
    EXPECT_EQ(viaMsg, payload);

    // Reply record: status u8 | path u8 | pad u16 | retry u32 | epoch u64.
    CheckBatchReply reply;
    reply.batchId = 3;
    CheckResponse resp;
    resp.status = CheckStatus::Overloaded;
    resp.path = 2;
    resp.retryAfterUs = 0xA1B2C3D4u;
    resp.epoch = 0x0102030405060708ULL;
    reply.resps.push_back(resp);
    payload.clear();
    encode(payload, reply);
    ASSERT_EQ(payload.size(),
              kCheckBatchReplyHeaderBytes + kVerdictRecordBytes);
    EXPECT_EQ(kVerdictRecordBytes, 16u);
    EXPECT_EQ(u32At(&payload[1]), 3u);
    EXPECT_EQ(u32At(&payload[9]), 1u);
    const uint8_t *rec = &payload[kCheckBatchReplyHeaderBytes];
    EXPECT_EQ(rec[0], static_cast<uint8_t>(CheckStatus::Overloaded));
    EXPECT_EQ(rec[1], 2u);
    EXPECT_EQ(rec[2], 0u);
    EXPECT_EQ(rec[3], 0u);
    EXPECT_EQ(u32At(rec + 4), 0xA1B2C3D4u);
    EXPECT_EQ(u32At(rec + 8), 0x05060708u);
    EXPECT_EQ(u32At(rec + 12), 0x01020304u);

    // Decoding into a caller's array takes exactly the reply's count.
    uint64_t batchId = 0;
    CheckResponse out[2];
    ASSERT_TRUE(decodeCheckBatchReply(payload, batchId, {out, 1}));
    EXPECT_EQ(batchId, 3u);
    EXPECT_EQ(out[0].status, resp.status);
    EXPECT_EQ(out[0].path, resp.path);
    EXPECT_EQ(out[0].retryAfterUs, resp.retryAfterUs);
    EXPECT_EQ(out[0].epoch, resp.epoch);
    EXPECT_FALSE(decodeCheckBatchReply(payload, batchId, {out, 2}));
    EXPECT_FALSE(decodeCheckBatchReply(payload, batchId, {out, 0}));
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

    // The layout, field by field: type, ok, name (varint length +
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

TEST(Wire, SlotOpenRoundTrip)
{
    std::vector<uint8_t> payload;
    encodeSlotOpen(payload);
    EXPECT_EQ(peekType(payload), MsgType::SlotOpen);
    EXPECT_EQ(payload.size(), 1u);

    SlotOpenReply reply;
    EXPECT_FALSE(roundTrip(reply, MsgType::SlotOpenReply).ok);
    reply.ok = true;
    EXPECT_TRUE(roundTrip(reply, MsgType::SlotOpenReply).ok);

    // The ok byte is 0 or 1, and nothing may follow it.
    payload.clear();
    encode(payload, reply);
    SlotOpenReply out;
    payload[1] = 2;
    EXPECT_FALSE(decode(payload, out));
    payload[1] = 1;
    payload.push_back(0);
    EXPECT_FALSE(decode(payload, out));
    payload.resize(1);
    EXPECT_FALSE(decode(payload, out));

    // A SlotBell is its type byte alone.
    payload.clear();
    encodeSlotBell(payload);
    EXPECT_EQ(payload, std::vector<uint8_t>{
                           static_cast<uint8_t>(MsgType::SlotBell)});
}

TEST(Wire, CheckSlotHoldsTheLargestBatch)
{
    // Every word on its own cache line, the payloads page-aligned past
    // them, and the largest batch and its reply fit their areas.
    for (size_t word : {kSlotRequestSeq, kSlotReplySeq,
                        kSlotDaemonSleeping, kSlotClientSleeping})
        EXPECT_EQ(word % 64, 0u);
    EXPECT_EQ(kSlotRequestLen / 64, kSlotRequestSeq / 64);
    EXPECT_EQ(kSlotReplyLen / 64, kSlotReplySeq / 64);
    EXPECT_LT(kSlotClientSleeping + 4, kSlotRequestOffset);
    EXPECT_EQ(kSlotRequestOffset % 4096, 0u);
    EXPECT_EQ(kSlotReplyOffset % 4096, 0u);
    std::vector<os::SyscallRequest> reqs(kMaxBatchRequests);
    std::vector<uint8_t> payload;
    encodeCheckBatch(payload, 1, 1, reqs);
    EXPECT_LE(payload.size(), kSlotRequestBytes);
    CheckBatchReply reply;
    reply.resps.resize(kMaxBatchRequests);
    payload.clear();
    encode(payload, reply);
    EXPECT_LE(payload.size(), kSlotReplyBytes);
    EXPECT_EQ(kSlotBytes, kSlotReplyOffset + kSlotReplyBytes);
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

    CheckBatchReply reply;
    reply.batchId = 1;
    reply.resps.resize(2);
    payload.clear();
    encode(payload, reply);
    for (size_t len = 0; len < payload.size(); ++len) {
        std::vector<uint8_t> cut(payload.begin(),
                                 payload.begin() + len);
        CheckBatchReply bad;
        EXPECT_FALSE(decode(cut, bad)) << "length " << len;
    }
    payload.push_back(0);
    CheckBatchReply bad;
    EXPECT_FALSE(decode(payload, bad));
}

/**
 * Records the protocol cannot mean: a request from another audit
 * architecture or with a syscall number past SyscallRequest's 16 bits,
 * and a verdict with a status past ShuttingDown or a non-zero pad.
 * Each is one field away from a frame that decodes.
 */
TEST(Wire, DecodersRejectForeignRecords)
{
    CheckBatch msg;
    msg.batchId = 1;
    msg.tenantId = 2;
    msg.reqs.push_back(request(3, 0x400000, 4, 5));
    msg.reqs.push_back(request(0xFFFF, 0x400010, 7, 8));
    std::vector<uint8_t> payload;
    encode(payload, msg);
    CheckBatch out;
    ASSERT_TRUE(decode(payload, out));
    EXPECT_EQ(out.reqs[1].sid, 0xFFFFu);

    const size_t second = kCheckBatchHeaderBytes + kRequestRecordBytes;
    std::vector<uint8_t> evil = payload;
    evil[second + os::sd_off::arch] ^= 0x01; // not AUDIT_ARCH_X86_64
    EXPECT_FALSE(decode(evil, out));
    evil = payload;
    evil[second + os::sd_off::nr + 2] = 0x01; // nr = 0x1FFFF
    EXPECT_FALSE(decode(evil, out));
    evil = payload;
    const uint8_t nr[4] = {0x00, 0x00, 0x01, 0x00}; // nr = 0x10000
    std::memcpy(&evil[second + os::sd_off::nr], nr, sizeof(nr));
    EXPECT_FALSE(decode(evil, out));

    CheckBatchReply reply;
    reply.batchId = 1;
    reply.resps.resize(2);
    reply.resps[1].status = CheckStatus::ShuttingDown;
    payload.clear();
    encode(payload, reply);
    CheckBatchReply rout;
    ASSERT_TRUE(decode(payload, rout));

    const size_t last =
        kCheckBatchReplyHeaderBytes + kVerdictRecordBytes;
    evil = payload;
    evil[last] = 5; // one past ShuttingDown
    EXPECT_FALSE(decode(evil, rout));
    for (size_t pad : {last + 2, last + 3}) {
        evil = payload;
        evil[pad] = 0x80;
        EXPECT_FALSE(decode(evil, rout)) << "pad byte " << pad;
    }
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
