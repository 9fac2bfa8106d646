/**
 * @file
 * Adversarial wire-protocol tests: the decoders and the incremental
 * FrameParser against hostile bytes, on the v4 layout (fixed 64-byte
 * seccomp_data request records, 16-byte verdict records). Every
 * message type survives every truncation; forged element counts near
 * kMaxBatchRequests are rejected before any count-sized allocation;
 * payloads decoded as the wrong type fail cleanly (type confusion);
 * and a deterministic byte-flip fuzz over every encoding must never
 * crash, hang, or return success with out-of-range fields — a batch
 * frame that still decodes re-encodes to the same bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hh"

namespace draco::serve::wire {
namespace {

/** A request with every argument set, the last with its high word. */
os::SyscallRequest
request(uint16_t sid, uint64_t pc, uint64_t a0)
{
    os::SyscallRequest req;
    req.sid = sid;
    req.pc = pc;
    for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i)
        req.args[i] = a0 + i;
    req.args[5] = ~a0;
    return req;
}

/** One representative encoding of every message type. */
std::vector<std::vector<uint8_t>>
allEncodings()
{
    std::vector<std::vector<uint8_t>> out;
    auto add = [&](const auto &msg) {
        std::vector<uint8_t> payload;
        encode(payload, msg);
        out.push_back(std::move(payload));
    };

    add(Hello{});
    HelloReply helloReply;
    helloReply.shards = 4;
    add(helloReply);

    CreateTenant create;
    create.name = "tenant-7";
    create.profile = "docker-default";
    create.maxInFlight = 256;
    create.filterCopies = 2;
    add(create);
    CreateTenantReply createReply;
    createReply.tenantId = 7;
    createReply.error = "no";
    add(createReply);

    CheckBatch batch;
    batch.batchId = 0x0123456789ABCDEFULL;
    batch.tenantId = 3;
    for (int i = 0; i < 5; ++i)
        batch.reqs.push_back(request(i, 0x400000 + i, i * 17));
    add(batch);
    CheckBatchReply batchReply;
    batchReply.batchId = 1;
    for (int i = 0; i < 5; ++i) {
        CheckResponse resp;
        resp.status = i % 2 ? CheckStatus::Denied : CheckStatus::Allowed;
        resp.path = static_cast<uint8_t>(i);
        resp.retryAfterUs = i * 1000;
        batchReply.resps.push_back(resp);
    }
    add(batchReply);

    TenantStatsReq statsReq;
    statsReq.tenantId = 3;
    add(statsReq);
    TenantStatsReply statsReply;
    statsReply.ok = true;
    statsReply.stats.name = "t3";
    statsReply.stats.allowed = 10;
    add(statsReply);

    EvictTenant evict;
    evict.tenantId = 3;
    add(evict);
    EvictTenantReply evictReply;
    evictReply.ok = true;
    add(evictReply);

    UpdateProfile update;
    update.tenantId = 3;
    update.profile = "gvisor";
    add(update);
    UpdateProfileReply updateReply;
    updateReply.ok = true;
    updateReply.epoch = 2;
    add(updateReply);

    std::vector<uint8_t> shutdown;
    encodeShutdown(shutdown);
    out.push_back(shutdown);
    std::vector<uint8_t> shutdownReply;
    encodeShutdownReply(shutdownReply);
    out.push_back(shutdownReply);
    return out;
}

/** Run @p payload through every decoder; none may crash. */
void
decodeAsEverything(std::span<const uint8_t> payload)
{
    { Hello out; decode(payload, out); }
    { HelloReply out; decode(payload, out); }
    { CreateTenant out; decode(payload, out); }
    { CreateTenantReply out; decode(payload, out); }
    { CheckBatch out; decode(payload, out); }
    { CheckBatchReply out; decode(payload, out); }
    { TenantStatsReq out; decode(payload, out); }
    { TenantStatsReply out; decode(payload, out); }
    { EvictTenant out; decode(payload, out); }
    { EvictTenantReply out; decode(payload, out); }
    { UpdateProfile out; decode(payload, out); }
    { UpdateProfileReply out; decode(payload, out); }
}

TEST(WireFuzz, EveryTruncationOfEveryTypeIsRejected)
{
    for (const auto &payload : allEncodings()) {
        // A truncated payload must fail whatever decoder it reaches
        // (the Shutdown pair has no fields, so only type-bearing
        // decoders apply — decodeAsEverything covers them all).
        for (size_t len = 0; len < payload.size(); ++len) {
            std::vector<uint8_t> cut(payload.begin(),
                                     payload.begin() + len);
            switch (peekType(payload)) {
              case MsgType::Hello: {
                Hello out;
                EXPECT_FALSE(decode(cut, out));
                break;
              }
              case MsgType::CheckBatch: {
                CheckBatch out;
                EXPECT_FALSE(decode(cut, out));
                break;
              }
              case MsgType::CheckBatchReply: {
                CheckBatchReply out;
                EXPECT_FALSE(decode(cut, out));
                break;
              }
              case MsgType::CreateTenant: {
                CreateTenant out;
                EXPECT_FALSE(decode(cut, out));
                break;
              }
              case MsgType::TenantStatsReply: {
                TenantStatsReply out;
                EXPECT_FALSE(decode(cut, out));
                break;
              }
              default:
                break;
            }
            decodeAsEverything(cut); // and nothing crashes
        }
    }
}

/**
 * Forged counts around kMaxBatchRequests: the decoder must reject a
 * count the payload cannot back *before* sizing any container by it,
 * so a 16-byte frame claiming 8192 requests costs nothing.
 */
TEST(WireFuzz, ForgedRequestCountsNearTheCapAreRejected)
{
    CheckBatch msg;
    msg.batchId = 1;
    msg.tenantId = 2;
    msg.reqs.push_back(request(1, 0x400000, 7));
    std::vector<uint8_t> payload;
    encode(payload, msg);
    // Layout: type u8 | batchId u64 | tenantId u32 | count u32, then
    // count 64-byte records. A count one off the truth fails the exact
    // length check as surely as one past the cap.
    constexpr size_t kCountOffset = kCheckBatchHeaderBytes - 4;
    ASSERT_EQ(payload.size(), kCheckBatchHeaderBytes + kRequestRecordBytes);

    for (uint32_t forged :
         {0u, 2u, kMaxBatchRequests - 1, kMaxBatchRequests,
          kMaxBatchRequests + 1, 0x10000u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
        std::vector<uint8_t> evil = payload;
        std::memcpy(evil.data() + kCountOffset, &forged, sizeof(forged));
        CheckBatch out;
        EXPECT_FALSE(decode(evil, out)) << "count " << forged;
        // Reject means reject: nothing was handed to the caller.
        EXPECT_TRUE(out.reqs.empty()) << "count " << forged;
    }
}

TEST(WireFuzz, ForgedResponseCountsNearTheCapAreRejected)
{
    CheckBatchReply msg;
    msg.batchId = 1;
    CheckResponse resp;
    resp.status = CheckStatus::Allowed;
    msg.resps.push_back(resp);
    std::vector<uint8_t> payload;
    encode(payload, msg);
    // Layout: type u8 | batchId u64 | count u32, then count 16-byte
    // records.
    constexpr size_t kCountOffset = kCheckBatchReplyHeaderBytes - 4;
    ASSERT_EQ(payload.size(),
              kCheckBatchReplyHeaderBytes + kVerdictRecordBytes);

    for (uint32_t forged :
         {0u, 2u, kMaxBatchRequests, kMaxBatchRequests + 1,
          0xFFFFFFFFu}) {
        std::vector<uint8_t> evil = payload;
        std::memcpy(evil.data() + kCountOffset, &forged, sizeof(forged));
        CheckBatchReply out;
        EXPECT_FALSE(decode(evil, out)) << "count " << forged;
        EXPECT_TRUE(out.resps.empty()) << "count " << forged;
    }
}

/** The biggest batch the protocol admits still round-trips exactly. */
TEST(WireFuzz, MaximalLegitimateBatchRoundTrips)
{
    CheckBatch msg;
    msg.batchId = 42;
    msg.tenantId = 1;
    msg.reqs.reserve(kMaxBatchRequests);
    for (uint32_t i = 0; i < kMaxBatchRequests; ++i)
        msg.reqs.push_back(request(static_cast<uint16_t>(i & 0x1FF),
                                   0x400000 + i, i));
    std::vector<uint8_t> payload;
    encode(payload, msg);
    // 17 + 8192 × 64 = 524305 bytes.
    ASSERT_EQ(payload.size(), kCheckBatchHeaderBytes +
                                  kMaxBatchRequests * kRequestRecordBytes);
    ASSERT_LE(payload.size(), kMaxFrameBytes)
        << "a full batch must fit one frame";

    CheckBatch out;
    ASSERT_TRUE(decode(payload, out));
    ASSERT_EQ(out.reqs.size(), msg.reqs.size());
    for (size_t i = 0; i < msg.reqs.size(); ++i) {
        ASSERT_EQ(out.reqs[i].sid, msg.reqs[i].sid) << i;
        ASSERT_EQ(out.reqs[i].pc, msg.reqs[i].pc) << i;
        ASSERT_EQ(out.reqs[i].args, msg.reqs[i].args) << i;
    }

    // One more request and the count check must trip.
    msg.reqs.push_back(request(0, 0, 0));
    payload.clear();
    encode(payload, msg);
    EXPECT_FALSE(decode(payload, out));
}

/** Every encoding fed to every wrong decoder: clean false, no crash. */
TEST(WireFuzz, TypeConfusionMatrixFailsCleanly)
{
    for (const auto &payload : allEncodings()) {
        const MsgType type = peekType(payload);
        { Hello out;
          EXPECT_EQ(decode(payload, out), type == MsgType::Hello); }
        { HelloReply out;
          EXPECT_EQ(decode(payload, out), type == MsgType::HelloReply); }
        { CreateTenant out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::CreateTenant); }
        { CreateTenantReply out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::CreateTenantReply); }
        { CheckBatch out;
          EXPECT_EQ(decode(payload, out), type == MsgType::CheckBatch); }
        { CheckBatchReply out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::CheckBatchReply); }
        { TenantStatsReq out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::TenantStatsReq); }
        { TenantStatsReply out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::TenantStatsReply); }
        { EvictTenant out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::EvictTenant); }
        { EvictTenantReply out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::EvictTenantReply); }
        { UpdateProfile out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::UpdateProfile); }
        { UpdateProfileReply out;
          EXPECT_EQ(decode(payload, out),
                    type == MsgType::UpdateProfileReply); }
    }
}

/**
 * Deterministic byte-flip fuzz: thousands of single- and multi-byte
 * corruptions of valid encodings. Decoders are total functions — any
 * outcome is fine except a crash, a hang, or success with fields the
 * protocol forbids.
 */
TEST(WireFuzz, SeededByteFlipsNeverCrashTheDecoders)
{
    uint64_t x = 0x9E3779B97F4A7C15ULL; // fixed seed: reproducible
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    for (const auto &payload : allEncodings()) {
        for (int round = 0; round < 500; ++round) {
            std::vector<uint8_t> mut = payload;
            const int flips = 1 + next() % 4;
            for (int f = 0; f < flips; ++f)
                mut[next() % mut.size()] ^=
                    static_cast<uint8_t>(1u << (next() % 8));
            decodeAsEverything(mut);

            // A corrupted CheckBatchReply that still decodes must
            // carry only in-range statuses — type confusion between
            // payload bytes and the status enum is not acceptable.
            // Fixed records leave no slack: a batch frame or reply
            // that decodes re-encodes to exactly the bytes it came
            // from.
            CheckBatchReply reply;
            if (decode(mut, reply)) {
                for (const CheckResponse &resp : reply.resps)
                    EXPECT_LE(
                        static_cast<uint8_t>(resp.status),
                        static_cast<uint8_t>(CheckStatus::ShuttingDown));
                std::vector<uint8_t> again;
                encode(again, reply);
                EXPECT_EQ(again, mut);
            }
            CheckBatch batch;
            if (decode(mut, batch)) {
                std::vector<uint8_t> again;
                encode(again, batch);
                EXPECT_EQ(again, mut);
            }
        }
    }
}

/**
 * FrameParser versus a dribbling peer: a stream of frames delivered
 * one byte at a time comes out intact and in order.
 */
TEST(WireFuzz, FrameParserReassemblesByteByByte)
{
    std::vector<uint8_t> stream;
    std::vector<std::vector<uint8_t>> sent;
    for (uint64_t b = 1; b <= 5; ++b) {
        CheckBatch msg;
        msg.batchId = b;
        msg.tenantId = 9;
        for (uint64_t i = 0; i < b; ++i)
            msg.reqs.push_back(request(1, 0x1000 * b, i));
        std::vector<uint8_t> payload;
        encode(payload, msg);
        ASSERT_TRUE(appendFrame(stream, payload));
        sent.push_back(std::move(payload));
    }

    FrameParser parser;
    std::vector<std::vector<uint8_t>> got;
    std::span<const uint8_t> frame;
    for (uint8_t byte : stream) {
        parser.append(&byte, 1);
        while (parser.next(frame) == FrameParser::Result::Frame)
            got.emplace_back(frame.begin(), frame.end());
    }
    EXPECT_EQ(got, sent);
    EXPECT_FALSE(parser.corrupt());
    EXPECT_EQ(parser.buffered(), 0u);

    // Several frames in one read: every view next() hands out stays
    // valid until the next append(), so all of them can be held at
    // once, as the server's loop holds each while it checks it.
    FrameParser burst;
    burst.append(stream.data(), stream.size());
    std::vector<std::span<const uint8_t>> views;
    while (burst.next(frame) == FrameParser::Result::Frame)
        views.push_back(frame);
    ASSERT_EQ(views.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i)
        EXPECT_TRUE(std::equal(views[i].begin(), views[i].end(),
                               sent[i].begin(), sent[i].end()))
            << "frame " << i;
    EXPECT_EQ(burst.buffered(), 0u);
}

/** An over-limit length prefix poisons the parser permanently. */
TEST(WireFuzz, FrameParserCorruptionIsSticky)
{
    FrameParser parser;
    const uint32_t evil = kMaxFrameBytes + 1;
    uint8_t prefix[4];
    std::memcpy(prefix, &evil, sizeof(prefix));
    parser.append(prefix, sizeof(prefix));

    std::span<const uint8_t> frame;
    EXPECT_EQ(parser.next(frame), FrameParser::Result::Corrupt);
    EXPECT_TRUE(parser.corrupt());

    // Even a perfectly valid frame afterwards cannot resynchronize:
    // the stream is dead, exactly what the server relies on.
    std::vector<uint8_t> good;
    encodeShutdown(good);
    std::vector<uint8_t> framed;
    ASSERT_TRUE(appendFrame(framed, good));
    parser.append(framed.data(), framed.size());
    EXPECT_EQ(parser.next(frame), FrameParser::Result::Corrupt);
}

/** Random garbage streams may desync but never crash the parser. */
TEST(WireFuzz, FrameParserSurvivesGarbageStreams)
{
    uint64_t x = 0xDEADBEEF12345678ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    for (int round = 0; round < 50; ++round) {
        FrameParser parser;
        std::span<const uint8_t> frame;
        size_t fed = 0;
        while (fed < 4096 && !parser.corrupt()) {
            uint8_t chunk[64];
            const size_t n = 1 + next() % sizeof(chunk);
            for (size_t i = 0; i < n; ++i) {
                // Bias low bytes so some length prefixes are small
                // enough to parse as (garbage) frames.
                chunk[i] = static_cast<uint8_t>(
                    next() % ((round % 2) ? 4 : 256));
            }
            parser.append(chunk, n);
            fed += n;
            while (parser.next(frame) == FrameParser::Result::Frame)
                decodeAsEverything(frame);
        }
        // Buffering stays bounded by one frame + one chunk, corrupt
        // or not: garbage cannot make the parser hoard memory.
        EXPECT_LE(parser.buffered(), kMaxFrameBytes + sizeof(uint64_t) +
                                         64);
    }
}

} // namespace
} // namespace draco::serve::wire
