/**
 * @file
 * The dracod wire protocol.
 *
 * Frames are a 4-byte little-endian payload length followed by the
 * payload; the first payload byte is the message type. Field encoding
 * uses the shared binio primitives: fixed-width little-endian integers
 * for ids and counts, LEB128 varints for values that are usually small
 * (PCs, arguments, retry hints), varint-length-prefixed strings for
 * names. Frames are capped at kMaxFrameBytes so a corrupt length can
 * never force a huge allocation; decoders are total — any malformed
 * payload returns false instead of crashing the daemon.
 *
 * Requests carry a client-chosen batchId that the reply echoes, so
 * clients may pipeline CheckBatch frames and match replies out of an
 * outbox rather than lock-stepping one frame at a time. Encode/decode
 * round-trips are bit-exact, which the wire tests assert.
 */

#ifndef DRACO_SERVE_WIRE_HH
#define DRACO_SERVE_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "os/seccomp_abi.hh"
#include "serve/types.hh"

namespace draco::serve::wire {

/**
 * Protocol version expected in Hello. Version 2 added the per-verdict
 * policy epoch to CheckBatchReply, the epoch/swap counters to
 * TenantStatsReply and ServiceStatsReply, and the UpdateProfile op.
 * Version 3 dropped the modeled busy-time field from TenantStatsReply.
 */
inline constexpr uint32_t kProtocolVersion = 3;

/** Upper bound on one frame's payload (decoder rejects beyond it). */
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** Requests one CheckBatch frame may carry (bounds the decoder). */
inline constexpr uint32_t kMaxBatchRequests = 8192;

/** Message type, first payload byte of every frame. */
enum class MsgType : uint8_t {
    Hello = 1,
    HelloReply = 2,
    CreateTenant = 3,
    CreateTenantReply = 4,
    CheckBatch = 5,
    CheckBatchReply = 6,
    TenantStatsReq = 7,
    TenantStatsReply = 8,
    EvictTenant = 9,
    EvictTenantReply = 10,
    Shutdown = 11,
    ShutdownReply = 12,
    ServiceStatsReq = 13,
    ServiceStatsReply = 14,
    UpdateProfile = 15,
    UpdateProfileReply = 16,
};

struct Hello {
    uint32_t version = kProtocolVersion;
};

struct HelloReply {
    uint32_t version = kProtocolVersion;
    uint32_t shards = 0;
};

struct CreateTenant {
    std::string name;
    std::string profile;       ///< Built-in catalog name.
    uint32_t maxInFlight = 0;  ///< 0 keeps the server default.
    uint8_t filterCopies = 1;
};

struct CreateTenantReply {
    TenantId tenantId = kInvalidTenant; ///< kInvalidTenant on failure.
    std::string error;                  ///< "" on success.
};

struct CheckBatch {
    uint64_t batchId = 0; ///< Echoed in the reply (pipelining).
    TenantId tenantId = kInvalidTenant;
    std::vector<os::SyscallRequest> reqs;
};

struct CheckBatchReply {
    uint64_t batchId = 0;
    std::vector<CheckResponse> resps;
};

struct TenantStatsReq {
    TenantId tenantId = kInvalidTenant;
};

struct TenantStatsReply {
    bool ok = false;
    TenantStats stats;
};

struct EvictTenant {
    TenantId tenantId = kInvalidTenant;
};

struct EvictTenantReply {
    bool ok = false;
};

// Shutdown and ShutdownReply carry no fields beyond the type byte.
// ServiceStatsReq likewise: it asks for the service-wide counters.

struct ServiceStatsReply {
    ServiceStatsSnapshot stats;
};

/**
 * Hot-swap tenantId's profile to the named built-in catalog entry.
 * Profiles cross the wire by name, like CreateTenant: the server
 * compiles (or content-shares) the new policy and its shard worker
 * publishes it at the tenant's next FIFO boundary.
 */
struct UpdateProfile {
    TenantId tenantId = kInvalidTenant;
    std::string profile; ///< Built-in catalog name of the new policy.
};

struct UpdateProfileReply {
    bool ok = false;
    uint64_t epoch = 0; ///< Epoch now serving (valid when ok).
    std::string error;  ///< "" on success.
};

/** @return The type byte of @p payload, or 0 when empty. */
MsgType peekType(const std::vector<uint8_t> &payload);

// ---- payload encoding (type byte included) ----

void encode(std::vector<uint8_t> &out, const Hello &msg);
void encode(std::vector<uint8_t> &out, const HelloReply &msg);
void encode(std::vector<uint8_t> &out, const CreateTenant &msg);
void encode(std::vector<uint8_t> &out, const CreateTenantReply &msg);
void encode(std::vector<uint8_t> &out, const CheckBatch &msg);
void encode(std::vector<uint8_t> &out, const CheckBatchReply &msg);
void encode(std::vector<uint8_t> &out, const TenantStatsReq &msg);
void encode(std::vector<uint8_t> &out, const TenantStatsReply &msg);
void encode(std::vector<uint8_t> &out, const EvictTenant &msg);
void encode(std::vector<uint8_t> &out, const EvictTenantReply &msg);
void encodeShutdown(std::vector<uint8_t> &out);
void encodeShutdownReply(std::vector<uint8_t> &out);
void encodeServiceStatsReq(std::vector<uint8_t> &out);
void encode(std::vector<uint8_t> &out, const ServiceStatsReply &msg);
void encode(std::vector<uint8_t> &out, const UpdateProfile &msg);
void encode(std::vector<uint8_t> &out, const UpdateProfileReply &msg);

// ---- payload decoding (false on any malformation) ----

bool decode(const std::vector<uint8_t> &payload, Hello &out);
bool decode(const std::vector<uint8_t> &payload, HelloReply &out);
bool decode(const std::vector<uint8_t> &payload, CreateTenant &out);
bool decode(const std::vector<uint8_t> &payload, CreateTenantReply &out);
bool decode(const std::vector<uint8_t> &payload, CheckBatch &out);
bool decode(const std::vector<uint8_t> &payload, CheckBatchReply &out);
bool decode(const std::vector<uint8_t> &payload, TenantStatsReq &out);
bool decode(const std::vector<uint8_t> &payload, TenantStatsReply &out);
bool decode(const std::vector<uint8_t> &payload, EvictTenant &out);
bool decode(const std::vector<uint8_t> &payload, EvictTenantReply &out);
bool decode(const std::vector<uint8_t> &payload, ServiceStatsReply &out);
bool decode(const std::vector<uint8_t> &payload, UpdateProfile &out);
bool decode(const std::vector<uint8_t> &payload, UpdateProfileReply &out);

// ---- frame I/O on a connected stream socket ----

/**
 * Write one length-prefixed frame, retrying short writes and EINTR.
 *
 * @return false on I/O error or oversized payload.
 */
bool writeFrame(int fd, const std::vector<uint8_t> &payload);

/**
 * Read one frame into @p payload.
 *
 * @return false on EOF, I/O error, or an over-limit length prefix.
 */
bool readFrame(int fd, std::vector<uint8_t> &payload);

/**
 * Append the framed form of @p payload (length prefix + bytes) to
 * @p stream — the buffer-building counterpart of writeFrame() for
 * non-blocking writers that stage output and flush when the socket is
 * ready.
 *
 * @return false (stream untouched) on an oversized payload.
 */
bool appendFrame(std::vector<uint8_t> &stream,
                 const std::vector<uint8_t> &payload);

/**
 * Incremental frame splitter for non-blocking readers.
 *
 * Feed whatever bytes arrived with append(); next() peels complete
 * frames off the front. A forged over-limit length prefix poisons the
 * parser (corrupt() stays true; next() returns Corrupt) before any
 * payload-sized allocation happens. Consumed bytes are compacted away
 * lazily, so buffering stays O(one frame + one read chunk).
 */
class FrameParser
{
  public:
    enum class Result : uint8_t {
        Frame,   ///< @p payload holds the next complete frame.
        Need,    ///< No complete frame buffered yet.
        Corrupt, ///< Over-limit length prefix; the stream is dead.
    };

    /** Buffer @p n incoming bytes. */
    void append(const uint8_t *data, size_t n);

    /** Extract the next frame into @p payload, if one is complete. */
    Result next(std::vector<uint8_t> &payload);

    /** @return true once an over-limit length prefix was seen. */
    bool corrupt() const { return _corrupt; }

    /** @return Bytes buffered and not yet consumed. */
    size_t buffered() const { return _buf.size() - _pos; }

  private:
    std::vector<uint8_t> _buf;
    size_t _pos = 0;
    bool _corrupt = false;
};

} // namespace draco::serve::wire

#endif // DRACO_SERVE_WIRE_HH
