#include "serve/wire.hh"

#include <cerrno>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "support/binio.hh"

namespace draco::serve::wire {

using binio::loadLe;
using binio::putString;
using binio::putU32;
using binio::putU64;
using binio::putU8;
using binio::putVarint;
using binio::storeLe;
using binio::takeString;
using binio::takeU32;
using binio::takeU64;
using binio::takeU8;
using binio::takeVarint;

namespace {

/**
 * Check a CheckBatch or CheckBatchReply payload's framing before
 * anything is sized by its count: the type byte, count ≤
 * kMaxBatchRequests, and a length of exactly header + count records.
 *
 * @return The record count, or -1 when the framing is wrong.
 */
int64_t
recordCount(std::span<const uint8_t> payload, MsgType type,
            size_t headerBytes, size_t recordBytes)
{
    if (payload.size() < headerBytes ||
        payload[0] != static_cast<uint8_t>(type)) {
        return -1;
    }
    const uint32_t count = loadLe<uint32_t>(payload.data() + headerBytes - 4);
    if (count > kMaxBatchRequests ||
        payload.size() != headerBytes + count * recordBytes) {
        return -1;
    }
    return count;
}

/** Append @p n zero bytes to @p out. @return Where they start. */
uint8_t *
grow(std::vector<uint8_t> &out, size_t n)
{
    const size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
}

void
putType(std::vector<uint8_t> &out, MsgType type)
{
    putU8(out, static_cast<uint8_t>(type));
}

bool
takeType(std::span<const uint8_t> payload, size_t &pos, MsgType want)
{
    uint8_t type;
    return takeU8(payload, pos, type) &&
           type == static_cast<uint8_t>(want);
}

} // namespace

MsgType
peekType(std::span<const uint8_t> payload)
{
    return payload.empty() ? static_cast<MsgType>(0)
                           : static_cast<MsgType>(payload[0]);
}

// ---- Hello ----

void
encode(std::vector<uint8_t> &out, const Hello &msg)
{
    putType(out, MsgType::Hello);
    putU32(out, msg.version);
}

bool
decode(std::span<const uint8_t> payload, Hello &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::Hello) &&
           takeU32(payload, pos, out.version) && pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const HelloReply &msg)
{
    putType(out, MsgType::HelloReply);
    putU32(out, msg.version);
    putU32(out, msg.shards);
}

bool
decode(std::span<const uint8_t> payload, HelloReply &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::HelloReply) &&
           takeU32(payload, pos, out.version) &&
           takeU32(payload, pos, out.shards) && pos == payload.size();
}

// ---- CreateTenant ----

void
encode(std::vector<uint8_t> &out, const CreateTenant &msg)
{
    putType(out, MsgType::CreateTenant);
    putString(out, msg.name);
    putString(out, msg.profile);
    putU32(out, msg.maxInFlight);
    putU8(out, msg.filterCopies);
}

bool
decode(std::span<const uint8_t> payload, CreateTenant &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::CreateTenant) &&
           takeString(payload, pos, out.name) &&
           takeString(payload, pos, out.profile) &&
           takeU32(payload, pos, out.maxInFlight) &&
           takeU8(payload, pos, out.filterCopies) &&
           pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const CreateTenantReply &msg)
{
    putType(out, MsgType::CreateTenantReply);
    putU32(out, msg.tenantId);
    putString(out, msg.error);
}

bool
decode(std::span<const uint8_t> payload, CreateTenantReply &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::CreateTenantReply) &&
           takeU32(payload, pos, out.tenantId) &&
           takeString(payload, pos, out.error) && pos == payload.size();
}

// ---- CheckBatch ----

void
encodeCheckBatch(std::vector<uint8_t> &out, uint64_t batchId,
                 TenantId tenantId,
                 std::span<const os::SyscallRequest> reqs)
{
    uint8_t *p = grow(out, kCheckBatchHeaderBytes +
                               reqs.size() * kRequestRecordBytes);
    p[0] = static_cast<uint8_t>(MsgType::CheckBatch);
    storeLe<uint64_t>(p + 1, batchId);
    storeLe<uint32_t>(p + 9, tenantId);
    storeLe<uint32_t>(p + 13, static_cast<uint32_t>(reqs.size()));
    p += kCheckBatchHeaderBytes;
    for (const os::SyscallRequest &req : reqs) {
        storeLe<uint32_t>(p + os::sd_off::nr, req.sid);
        storeLe<uint32_t>(p + os::sd_off::arch, os::kAuditArchX86_64);
        storeLe<uint64_t>(p + os::sd_off::ip_lo, req.pc);
        for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i)
            storeLe<uint64_t>(p + os::sd_off::argLo(i), req.args[i]);
        p += kRequestRecordBytes;
    }
}

void
encode(std::vector<uint8_t> &out, const CheckBatch &msg)
{
    encodeCheckBatch(out, msg.batchId, msg.tenantId, msg.reqs);
}

bool
decode(std::span<const uint8_t> payload, CheckBatch &out)
{
    const int64_t count = recordCount(payload, MsgType::CheckBatch,
                                      kCheckBatchHeaderBytes,
                                      kRequestRecordBytes);
    if (count < 0)
        return false;
    out.batchId = loadLe<uint64_t>(payload.data() + 1);
    out.tenantId = loadLe<uint32_t>(payload.data() + 9);
    out.reqs.resize(static_cast<size_t>(count));
    const uint8_t *p = payload.data() + kCheckBatchHeaderBytes;
    for (os::SyscallRequest &req : out.reqs) {
        const uint32_t nr = loadLe<uint32_t>(p + os::sd_off::nr);
        if (nr > UINT16_MAX ||
            loadLe<uint32_t>(p + os::sd_off::arch) != os::kAuditArchX86_64) {
            return false;
        }
        req.sid = static_cast<uint16_t>(nr);
        req.pc = loadLe<uint64_t>(p + os::sd_off::ip_lo);
        for (unsigned i = 0; i < os::kMaxSyscallArgs; ++i)
            req.args[i] = loadLe<uint64_t>(p + os::sd_off::argLo(i));
        p += kRequestRecordBytes;
    }
    return true;
}

void
encode(std::vector<uint8_t> &out, const CheckBatchReply &msg)
{
    uint8_t *p = grow(out, kCheckBatchReplyHeaderBytes +
                               msg.resps.size() * kVerdictRecordBytes);
    p[0] = static_cast<uint8_t>(MsgType::CheckBatchReply);
    storeLe<uint64_t>(p + 1, msg.batchId);
    storeLe<uint32_t>(p + 9, static_cast<uint32_t>(msg.resps.size()));
    p += kCheckBatchReplyHeaderBytes;
    for (const CheckResponse &resp : msg.resps) {
        // grow() zeroed the pad bytes, p[2] and p[3].
        p[0] = static_cast<uint8_t>(resp.status);
        p[1] = resp.path;
        storeLe<uint32_t>(p + 4, resp.retryAfterUs);
        storeLe<uint64_t>(p + 8, resp.epoch);
        p += kVerdictRecordBytes;
    }
}

bool
decodeCheckBatchReply(std::span<const uint8_t> payload, uint64_t &batchId,
                      std::span<CheckResponse> resps)
{
    const int64_t count = recordCount(payload, MsgType::CheckBatchReply,
                                      kCheckBatchReplyHeaderBytes,
                                      kVerdictRecordBytes);
    if (count != static_cast<int64_t>(resps.size()))
        return false;
    batchId = loadLe<uint64_t>(payload.data() + 1);
    const uint8_t *p = payload.data() + kCheckBatchReplyHeaderBytes;
    for (CheckResponse &resp : resps) {
        if (p[0] > static_cast<uint8_t>(CheckStatus::ShuttingDown) ||
            p[2] != 0 || p[3] != 0) {
            return false;
        }
        resp.status = static_cast<CheckStatus>(p[0]);
        resp.path = p[1];
        resp.retryAfterUs = loadLe<uint32_t>(p + 4);
        resp.epoch = loadLe<uint64_t>(p + 8);
        p += kVerdictRecordBytes;
    }
    return true;
}

bool
decode(std::span<const uint8_t> payload, CheckBatchReply &out)
{
    const int64_t count = recordCount(payload, MsgType::CheckBatchReply,
                                      kCheckBatchReplyHeaderBytes,
                                      kVerdictRecordBytes);
    if (count < 0)
        return false;
    out.resps.resize(static_cast<size_t>(count));
    return decodeCheckBatchReply(payload, out.batchId, out.resps);
}

// ---- TenantStats ----

void
encode(std::vector<uint8_t> &out, const TenantStatsReq &msg)
{
    putType(out, MsgType::TenantStatsReq);
    putU32(out, msg.tenantId);
}

bool
decode(std::span<const uint8_t> payload, TenantStatsReq &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::TenantStatsReq) &&
           takeU32(payload, pos, out.tenantId) && pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const TenantStatsReply &msg)
{
    putType(out, MsgType::TenantStatsReply);
    putU8(out, msg.ok ? 1 : 0);
    if (!msg.ok)
        return;
    const TenantStats &s = msg.stats;
    putString(out, s.name);
    putU32(out, s.id);
    putU32(out, s.shard);
    putU8(out, s.evicted ? 1 : 0);
    putU64(out, s.check.checks);
    putU64(out, s.check.sptAllowAll);
    putU64(out, s.check.vatHits);
    putU64(out, s.check.filterRuns);
    putU64(out, s.check.denials);
    putU64(out, s.check.filterInsns);
    putU64(out, s.check.vatInsertions);
    putU64(out, s.allowed);
    putU64(out, s.denied);
    putU64(out, s.rejects);
    putU64(out, s.epoch);
    putU64(out, s.swaps);
}

bool
decode(std::span<const uint8_t> payload, TenantStatsReply &out)
{
    size_t pos = 0;
    uint8_t ok;
    if (!takeType(payload, pos, MsgType::TenantStatsReply) ||
        !takeU8(payload, pos, ok)) {
        return false;
    }
    out.ok = ok != 0;
    if (!out.ok)
        return pos == payload.size();
    TenantStats &s = out.stats;
    uint8_t evicted;
    if (!takeString(payload, pos, s.name) ||
        !takeU32(payload, pos, s.id) ||
        !takeU32(payload, pos, s.shard) ||
        !takeU8(payload, pos, evicted) ||
        !takeU64(payload, pos, s.check.checks) ||
        !takeU64(payload, pos, s.check.sptAllowAll) ||
        !takeU64(payload, pos, s.check.vatHits) ||
        !takeU64(payload, pos, s.check.filterRuns) ||
        !takeU64(payload, pos, s.check.denials) ||
        !takeU64(payload, pos, s.check.filterInsns) ||
        !takeU64(payload, pos, s.check.vatInsertions) ||
        !takeU64(payload, pos, s.allowed) ||
        !takeU64(payload, pos, s.denied) ||
        !takeU64(payload, pos, s.rejects) ||
        !takeU64(payload, pos, s.epoch) ||
        !takeU64(payload, pos, s.swaps)) {
        return false;
    }
    s.evicted = evicted != 0;
    return pos == payload.size();
}

// ---- EvictTenant ----

void
encode(std::vector<uint8_t> &out, const EvictTenant &msg)
{
    putType(out, MsgType::EvictTenant);
    putU32(out, msg.tenantId);
}

bool
decode(std::span<const uint8_t> payload, EvictTenant &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::EvictTenant) &&
           takeU32(payload, pos, out.tenantId) && pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const EvictTenantReply &msg)
{
    putType(out, MsgType::EvictTenantReply);
    putU8(out, msg.ok ? 1 : 0);
}

bool
decode(std::span<const uint8_t> payload, EvictTenantReply &out)
{
    size_t pos = 0;
    uint8_t ok;
    if (!takeType(payload, pos, MsgType::EvictTenantReply) ||
        !takeU8(payload, pos, ok) || pos != payload.size()) {
        return false;
    }
    out.ok = ok != 0;
    return true;
}

// ---- Shutdown ----

void
encodeShutdown(std::vector<uint8_t> &out)
{
    putType(out, MsgType::Shutdown);
}

void
encodeShutdownReply(std::vector<uint8_t> &out)
{
    putType(out, MsgType::ShutdownReply);
}

// ---- ServiceStats ----

void
encodeServiceStatsReq(std::vector<uint8_t> &out)
{
    putType(out, MsgType::ServiceStatsReq);
}

void
encode(std::vector<uint8_t> &out, const ServiceStatsReply &msg)
{
    putType(out, MsgType::ServiceStatsReply);
    const ServiceStatsSnapshot &s = msg.stats;
    // Varints: nearly every counter is small on an idle or young
    // service, and the reply is control-plane traffic anyway.
    putVarint(out, s.tenants);
    putVarint(out, s.resident);
    putVarint(out, s.snapshotted);
    putVarint(out, s.evictions);
    putVarint(out, s.restores);
    putVarint(out, s.restoreFailures);
    putVarint(out, s.snapshotPutFailures);
    putVarint(out, s.dedupPolicies);
    putVarint(out, s.dedupHits);
    putVarint(out, s.snapshotBytesWritten);
    putVarint(out, s.snapshotBytesRead);
    putVarint(out, s.storeBytes);
    putVarint(out, s.checks);
    putVarint(out, s.rejects);
    putVarint(out, s.policySwaps);
    putVarint(out, s.policySwapFailures);
    putVarint(out, s.staleSnapshotDiscards);
    putVarint(out, s.maxEpoch);
}

bool
decode(std::span<const uint8_t> payload, ServiceStatsReply &out)
{
    size_t pos = 0;
    ServiceStatsSnapshot &s = out.stats;
    return takeType(payload, pos, MsgType::ServiceStatsReply) &&
           takeVarint(payload, pos, s.tenants) &&
           takeVarint(payload, pos, s.resident) &&
           takeVarint(payload, pos, s.snapshotted) &&
           takeVarint(payload, pos, s.evictions) &&
           takeVarint(payload, pos, s.restores) &&
           takeVarint(payload, pos, s.restoreFailures) &&
           takeVarint(payload, pos, s.snapshotPutFailures) &&
           takeVarint(payload, pos, s.dedupPolicies) &&
           takeVarint(payload, pos, s.dedupHits) &&
           takeVarint(payload, pos, s.snapshotBytesWritten) &&
           takeVarint(payload, pos, s.snapshotBytesRead) &&
           takeVarint(payload, pos, s.storeBytes) &&
           takeVarint(payload, pos, s.checks) &&
           takeVarint(payload, pos, s.rejects) &&
           takeVarint(payload, pos, s.policySwaps) &&
           takeVarint(payload, pos, s.policySwapFailures) &&
           takeVarint(payload, pos, s.staleSnapshotDiscards) &&
           takeVarint(payload, pos, s.maxEpoch) &&
           pos == payload.size();
}

// ---- UpdateProfile ----

void
encode(std::vector<uint8_t> &out, const UpdateProfile &msg)
{
    putType(out, MsgType::UpdateProfile);
    putU32(out, msg.tenantId);
    putString(out, msg.profile);
}

bool
decode(std::span<const uint8_t> payload, UpdateProfile &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::UpdateProfile) &&
           takeU32(payload, pos, out.tenantId) &&
           takeString(payload, pos, out.profile) &&
           pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const UpdateProfileReply &msg)
{
    putType(out, MsgType::UpdateProfileReply);
    putU8(out, msg.ok ? 1 : 0);
    putVarint(out, msg.epoch);
    putString(out, msg.error);
}

bool
decode(std::span<const uint8_t> payload, UpdateProfileReply &out)
{
    size_t pos = 0;
    uint8_t ok;
    if (!takeType(payload, pos, MsgType::UpdateProfileReply) ||
        !takeU8(payload, pos, ok) ||
        !takeVarint(payload, pos, out.epoch) ||
        !takeString(payload, pos, out.error) || pos != payload.size()) {
        return false;
    }
    out.ok = ok != 0;
    return true;
}

// ---- SlotOpen ----

void
encodeSlotOpen(std::vector<uint8_t> &out)
{
    putType(out, MsgType::SlotOpen);
}

void
encode(std::vector<uint8_t> &out, const SlotOpenReply &msg)
{
    putType(out, MsgType::SlotOpenReply);
    putU8(out, msg.ok ? 1 : 0);
}

void
encodeSlotBell(std::vector<uint8_t> &out)
{
    putType(out, MsgType::SlotBell);
}

bool
decode(std::span<const uint8_t> payload, SlotOpenReply &out)
{
    size_t pos = 0;
    uint8_t ok;
    if (!takeType(payload, pos, MsgType::SlotOpenReply) ||
        !takeU8(payload, pos, ok) || ok > 1 || pos != payload.size()) {
        return false;
    }
    out.ok = ok != 0;
    return true;
}

// ---- frame I/O ----

namespace {

/**
 * Send every byte of @p iov[0..count) in order, resuming after partial
 * writes; advances the entries of @p iov as bytes go out.
 */
bool
writeAll(int fd, iovec *iov, size_t count)
{
    while (count > 0) {
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = count;
        // MSG_NOSIGNAL: writing to a peer that half-closed must fail
        // with EPIPE, not kill the process — clients routinely race
        // their requests against a server beginning to drain.
        ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        size_t sent = static_cast<size_t>(n);
        while (count > 0 && sent >= iov->iov_len) {
            sent -= iov->iov_len;
            ++iov;
            --count;
        }
        if (count > 0) {
            iov->iov_base = static_cast<uint8_t *>(iov->iov_base) + sent;
            iov->iov_len -= sent;
        }
    }
    return true;
}

bool
readAll(int fd, uint8_t *data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::read(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame (or before one)
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

} // namespace

bool
writeFrame(int fd, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    uint8_t header[4];
    storeLe<uint32_t>(header, static_cast<uint32_t>(payload.size()));
    // Header and payload leave in one call, so a lock-step peer pays
    // one send per request and the server never wakes for a bare
    // header.
    iovec iov[2] = {
        {header, sizeof(header)},
        {const_cast<uint8_t *>(payload.data()), payload.size()},
    };
    return writeAll(fd, iov, payload.empty() ? 1 : 2);
}

bool
readFrame(int fd, std::vector<uint8_t> &payload)
{
    uint8_t header[4];
    if (!readAll(fd, header, sizeof(header)))
        return false;
    const uint32_t len = loadLe<uint32_t>(header);
    if (len > kMaxFrameBytes)
        return false;
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len);
}

size_t
beginFrame(std::vector<uint8_t> &stream)
{
    const size_t start = stream.size();
    grow(stream, 4);
    return start;
}

bool
endFrame(std::vector<uint8_t> &stream, size_t start)
{
    const size_t len = stream.size() - start - 4;
    if (len > kMaxFrameBytes) {
        stream.resize(start);
        return false;
    }
    storeLe<uint32_t>(stream.data() + start, static_cast<uint32_t>(len));
    return true;
}

bool
appendFrame(std::vector<uint8_t> &stream, std::span<const uint8_t> payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const size_t start = beginFrame(stream);
    stream.insert(stream.end(), payload.begin(), payload.end());
    return endFrame(stream, start);
}

// ---- FrameParser ----

void
FrameParser::append(const uint8_t *data, size_t n)
{
    if (_corrupt)
        return;
    // Compact before growing so the buffer never holds more than one
    // in-progress frame plus fresh input.
    if (_pos > 0) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<ptrdiff_t>(_pos));
        _pos = 0;
    }
    _buf.insert(_buf.end(), data, data + n);
}

FrameParser::Result
FrameParser::next(std::span<const uint8_t> &payload)
{
    if (_corrupt)
        return Result::Corrupt;
    if (_buf.size() - _pos < 4)
        return Result::Need;
    const uint32_t len = loadLe<uint32_t>(_buf.data() + _pos);
    if (len > kMaxFrameBytes) {
        _corrupt = true;
        return Result::Corrupt;
    }
    if (_buf.size() - _pos - 4 < len)
        return Result::Need;
    payload = std::span<const uint8_t>(_buf.data() + _pos + 4, len);
    _pos += 4 + len;
    return Result::Frame;
}

} // namespace draco::serve::wire
