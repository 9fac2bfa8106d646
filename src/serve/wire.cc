#include "serve/wire.hh"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "support/binio.hh"

namespace draco::serve::wire {

using binio::putString;
using binio::putU16;
using binio::putU32;
using binio::putU64;
using binio::putU8;
using binio::putVarint;
using binio::takeString;
using binio::takeU16;
using binio::takeU32;
using binio::takeU64;
using binio::takeU8;
using binio::takeVarint;

namespace {

/**
 * Smallest possible encodings of one batch element, used to reject a
 * forged count before the element array is allocated: a request is a
 * u16 sid, a >=1-byte pc varint, and six >=1-byte arg varints; a
 * response is status, path, a >=1-byte retry varint, and a >=1-byte
 * epoch varint.
 */
constexpr size_t kMinRequestBytes = 2 + 1 + 6;
constexpr size_t kMinResponseBytes = 1 + 1 + 1 + 1;

/** @return true when @p count elements of @p minBytes can still fit. */
bool
countFits(const std::vector<uint8_t> &payload, size_t pos,
          uint32_t count, size_t minBytes)
{
    return pos <= payload.size() &&
           static_cast<uint64_t>(count) * minBytes <=
               payload.size() - pos;
}

void
putType(std::vector<uint8_t> &out, MsgType type)
{
    putU8(out, static_cast<uint8_t>(type));
}

bool
takeType(const std::vector<uint8_t> &payload, size_t &pos, MsgType want)
{
    uint8_t type;
    return takeU8(payload, pos, type) &&
           type == static_cast<uint8_t>(want);
}

} // namespace

MsgType
peekType(const std::vector<uint8_t> &payload)
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
decode(const std::vector<uint8_t> &payload, Hello &out)
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
decode(const std::vector<uint8_t> &payload, HelloReply &out)
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
decode(const std::vector<uint8_t> &payload, CreateTenant &out)
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
decode(const std::vector<uint8_t> &payload, CreateTenantReply &out)
{
    size_t pos = 0;
    return takeType(payload, pos, MsgType::CreateTenantReply) &&
           takeU32(payload, pos, out.tenantId) &&
           takeString(payload, pos, out.error) && pos == payload.size();
}

// ---- CheckBatch ----

void
encode(std::vector<uint8_t> &out, const CheckBatch &msg)
{
    putType(out, MsgType::CheckBatch);
    putU64(out, msg.batchId);
    putU32(out, msg.tenantId);
    putU32(out, static_cast<uint32_t>(msg.reqs.size()));
    for (const os::SyscallRequest &req : msg.reqs) {
        putU16(out, req.sid);
        putVarint(out, req.pc);
        for (uint64_t arg : req.args)
            putVarint(out, arg);
    }
}

bool
decode(const std::vector<uint8_t> &payload, CheckBatch &out)
{
    size_t pos = 0;
    uint32_t count;
    if (!takeType(payload, pos, MsgType::CheckBatch) ||
        !takeU64(payload, pos, out.batchId) ||
        !takeU32(payload, pos, out.tenantId) ||
        !takeU32(payload, pos, count) || count > kMaxBatchRequests ||
        !countFits(payload, pos, count, kMinRequestBytes)) {
        return false;
    }
    out.reqs.resize(count);
    for (os::SyscallRequest &req : out.reqs) {
        if (!takeU16(payload, pos, req.sid) ||
            !takeVarint(payload, pos, req.pc)) {
            return false;
        }
        for (uint64_t &arg : req.args)
            if (!takeVarint(payload, pos, arg))
                return false;
    }
    return pos == payload.size();
}

void
encode(std::vector<uint8_t> &out, const CheckBatchReply &msg)
{
    putType(out, MsgType::CheckBatchReply);
    putU64(out, msg.batchId);
    putU32(out, static_cast<uint32_t>(msg.resps.size()));
    for (const CheckResponse &resp : msg.resps) {
        putU8(out, static_cast<uint8_t>(resp.status));
        putU8(out, resp.path);
        putVarint(out, resp.retryAfterUs);
        putVarint(out, resp.epoch);
    }
}

bool
decode(const std::vector<uint8_t> &payload, CheckBatchReply &out)
{
    size_t pos = 0;
    uint32_t count;
    if (!takeType(payload, pos, MsgType::CheckBatchReply) ||
        !takeU64(payload, pos, out.batchId) ||
        !takeU32(payload, pos, count) || count > kMaxBatchRequests ||
        !countFits(payload, pos, count, kMinResponseBytes)) {
        return false;
    }
    out.resps.resize(count);
    for (CheckResponse &resp : out.resps) {
        uint8_t status;
        uint64_t retry;
        if (!takeU8(payload, pos, status) ||
            !takeU8(payload, pos, resp.path) ||
            !takeVarint(payload, pos, retry) ||
            !takeVarint(payload, pos, resp.epoch) ||
            status > static_cast<uint8_t>(CheckStatus::ShuttingDown) ||
            retry > UINT32_MAX) {
            return false;
        }
        resp.status = static_cast<CheckStatus>(status);
        resp.retryAfterUs = static_cast<uint32_t>(retry);
    }
    return pos == payload.size();
}

// ---- TenantStats ----

void
encode(std::vector<uint8_t> &out, const TenantStatsReq &msg)
{
    putType(out, MsgType::TenantStatsReq);
    putU32(out, msg.tenantId);
}

bool
decode(const std::vector<uint8_t> &payload, TenantStatsReq &out)
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
decode(const std::vector<uint8_t> &payload, TenantStatsReply &out)
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
decode(const std::vector<uint8_t> &payload, EvictTenant &out)
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
decode(const std::vector<uint8_t> &payload, EvictTenantReply &out)
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
decode(const std::vector<uint8_t> &payload, ServiceStatsReply &out)
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
decode(const std::vector<uint8_t> &payload, UpdateProfile &out)
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
decode(const std::vector<uint8_t> &payload, UpdateProfileReply &out)
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
    uint32_t len = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<uint8_t>((len >> (8 * i)) & 0xff);
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
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(header[i]) << (8 * i);
    if (len > kMaxFrameBytes)
        return false;
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len);
}

bool
appendFrame(std::vector<uint8_t> &stream,
            const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    uint32_t len = static_cast<uint32_t>(payload.size());
    stream.reserve(stream.size() + 4 + payload.size());
    for (int i = 0; i < 4; ++i)
        stream.push_back(static_cast<uint8_t>((len >> (8 * i)) & 0xff));
    stream.insert(stream.end(), payload.begin(), payload.end());
    return true;
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
FrameParser::next(std::vector<uint8_t> &payload)
{
    if (_corrupt)
        return Result::Corrupt;
    if (_buf.size() - _pos < 4)
        return Result::Need;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(_buf[_pos + i]) << (8 * i);
    if (len > kMaxFrameBytes) {
        _corrupt = true;
        return Result::Corrupt;
    }
    if (_buf.size() - _pos - 4 < len)
        return Result::Need;
    payload.assign(_buf.begin() + static_cast<ptrdiff_t>(_pos + 4),
                   _buf.begin() + static_cast<ptrdiff_t>(_pos + 4 + len));
    _pos += 4 + len;
    return Result::Frame;
}

} // namespace draco::serve::wire
