/**
 * @file
 * The dracod wire protocol.
 *
 * Frames are a 4-byte little-endian payload length followed by the
 * payload; the first payload byte is the message type. Field encoding
 * uses the shared binio primitives: fixed-width little-endian integers
 * for ids, counts and every CheckBatch field, LEB128 varints for the
 * control plane's counters and epochs, varint-length-prefixed strings
 * for names. Frames are capped at kMaxFrameBytes so a corrupt length
 * can never force a huge allocation; decoders are total — any
 * malformed payload returns false instead of crashing the daemon.
 *
 * The data plane is fixed-size records. A CheckBatch carries one
 * 64-byte record per request laid out as the kernel's `seccomp_data`
 * (os::SeccompData: nr, arch, instruction pointer, six arguments), the
 * block a seccomp filter reads; its reply carries one 16-byte verdict
 * record per request. So each codec is one length check and one loop,
 * and a batch can be framed straight from, and decoded straight into,
 * the caller's arrays (encodeCheckBatch, decodeCheckBatchReply).
 *
 * Requests carry a client-chosen batchId that the reply echoes, so
 * clients may pipeline CheckBatch frames and match replies out of an
 * outbox rather than lock-stepping one frame at a time. Encode/decode
 * round-trips are bit-exact, which the wire tests assert.
 *
 * A Unix-socket connection may also move its lock-step CheckBatch
 * payloads off the socket into a shared-memory check slot (SlotOpen;
 * the layout is below). The payload bytes are the same; only the
 * carrier changes, and the socket stays the control plane.
 */

#ifndef DRACO_SERVE_WIRE_HH
#define DRACO_SERVE_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <span>
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
 * Version 4 made CheckBatch and CheckBatchReply fixed-size records:
 * `seccomp_data` requests and 16-byte verdicts. Version 5 added
 * SlotOpen and the shared-memory check slot; its records are v4's.
 */
inline constexpr uint32_t kProtocolVersion = 5;

/** Upper bound on one frame's payload (decoder rejects beyond it). */
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** Requests one CheckBatch frame may carry (bounds the decoder). */
inline constexpr uint32_t kMaxBatchRequests = 8192;

/** CheckBatch header: type u8 | batchId u64 | tenantId u32 | count u32. */
inline constexpr size_t kCheckBatchHeaderBytes = 1 + 8 + 4 + 4;

/**
 * One CheckBatch request record, the kernel's `seccomp_data`:
 * nr u32 | arch u32 | instruction_pointer u64 | args[6] u64. Decoders
 * reject an arch other than AUDIT_ARCH_X86_64 and an nr above 0xFFFF
 * (os::SyscallRequest::sid is 16 bits).
 */
inline constexpr size_t kRequestRecordBytes = sizeof(os::SeccompData);

/** CheckBatchReply header: type u8 | batchId u64 | count u32. */
inline constexpr size_t kCheckBatchReplyHeaderBytes = 1 + 8 + 4;

/**
 * One CheckBatchReply verdict record: status u8 | path u8 |
 * pad u16 = 0 | retryAfterUs u32 | epoch u64. Decoders reject a status
 * above ShuttingDown and a non-zero pad.
 */
inline constexpr size_t kVerdictRecordBytes = 16;

/*
 * The shared-memory check slot: one sealed memfd per Unix connection,
 * passed with SlotOpenReply, holding one request and one reply
 * payload. The client writes the request words and the request
 * payload (a CheckBatch, v4 bytes), then stores the request sequence
 * number; the daemon answers with the reply words and the
 * CheckBatchReply payload, then stores the reply sequence number
 * equal to the request's. A side that waits spins on the other's
 * sequence number for at most kSlotSpinNs, then sets its own sleeping
 * word and blocks on the socket; a publisher stores its sequence
 * number and then rings the peer, with a SlotBell frame on the
 * socket, only when that peer's sleeping word is set. Every word is
 * on its own cache line; everything is little-endian and read as an
 * atomic, since the peer may write any byte at any time.
 */

inline constexpr size_t kSlotRequestSeq = 0;  ///< u64, client writes.
inline constexpr size_t kSlotRequestLen = 8;  ///< u32 bytes, client.
inline constexpr size_t kSlotReplySeq = 64;   ///< u64, daemon writes.
inline constexpr size_t kSlotReplyLen = 72;   ///< u32 bytes, daemon.
inline constexpr size_t kSlotDaemonSleeping = 128; ///< u32, daemon.
inline constexpr size_t kSlotClientSleeping = 192; ///< u32, client.

/** Rounds @p n up to whole 4 KiB pages. */
inline constexpr size_t
slotPages(size_t n)
{
    return (n + 4095) & ~size_t{4095};
}

/** Where the request payload starts, after one page of words. */
inline constexpr size_t kSlotRequestOffset = 4096;
/** Request area: the largest CheckBatch payload fits. */
inline constexpr size_t kSlotRequestBytes =
    slotPages(kCheckBatchHeaderBytes + kMaxBatchRequests * kRequestRecordBytes);
/** Where the reply payload starts. */
inline constexpr size_t kSlotReplyOffset =
    kSlotRequestOffset + kSlotRequestBytes;
/** Reply area: the largest CheckBatchReply payload fits. */
inline constexpr size_t kSlotReplyBytes = slotPages(
    kCheckBatchReplyHeaderBytes + kMaxBatchRequests * kVerdictRecordBytes);
/** Size of the memfd; only the pages a batch touches become resident. */
inline constexpr size_t kSlotBytes = kSlotReplyOffset + kSlotReplyBytes;

/**
 * How long a side polls a slot before it sleeps on the socket, in ns.
 * It must outlast a lock-step round trip with the loop's other
 * clients ahead in line, or every wait ends in a sleep anyway. A
 * client that paces its batches this far apart gets no spin from
 * either side, only bells (serve/server.hh).
 */
inline constexpr uint64_t kSlotSpinNs = 20000;

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
    SlotOpen = 17,
    SlotOpenReply = 18,
    SlotBell = 19,
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

// SlotOpen carries no fields: it asks for this connection's check slot.

/**
 * Answers SlotOpen. When ok, the slot's memfd (kSlotBytes, sealed
 * against shrink, grow and further seals) rides on the frame's first
 * byte (SCM_RIGHTS). A refusal (TCP, a slot already open, no memfd)
 * carries none, and the client stays on the socket.
 */
struct SlotOpenReply {
    bool ok = false;
};

// SlotBell carries no fields: it wakes a peer whose sleeping word is set.

/** @return The type byte of @p payload, or 0 when empty. */
MsgType peekType(std::span<const uint8_t> payload);

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
void encodeSlotOpen(std::vector<uint8_t> &out);
void encode(std::vector<uint8_t> &out, const SlotOpenReply &msg);
void encodeSlotBell(std::vector<uint8_t> &out);

/**
 * Encode a CheckBatch straight from the caller's request array, with
 * no CheckBatch message in between (the lock-step client's path).
 */
void encodeCheckBatch(std::vector<uint8_t> &out, uint64_t batchId,
                      TenantId tenantId,
                      std::span<const os::SyscallRequest> reqs);

// ---- payload decoding (false on any malformation) ----

bool decode(std::span<const uint8_t> payload, Hello &out);
bool decode(std::span<const uint8_t> payload, HelloReply &out);
bool decode(std::span<const uint8_t> payload, CreateTenant &out);
bool decode(std::span<const uint8_t> payload, CreateTenantReply &out);
bool decode(std::span<const uint8_t> payload, CheckBatch &out);
bool decode(std::span<const uint8_t> payload, CheckBatchReply &out);
bool decode(std::span<const uint8_t> payload, TenantStatsReq &out);
bool decode(std::span<const uint8_t> payload, TenantStatsReply &out);
bool decode(std::span<const uint8_t> payload, EvictTenant &out);
bool decode(std::span<const uint8_t> payload, EvictTenantReply &out);
bool decode(std::span<const uint8_t> payload, ServiceStatsReply &out);
bool decode(std::span<const uint8_t> payload, UpdateProfile &out);
bool decode(std::span<const uint8_t> payload, UpdateProfileReply &out);
bool decode(std::span<const uint8_t> payload, SlotOpenReply &out);

/**
 * Decode a CheckBatchReply straight into @p resps.
 *
 * @return false on any malformation, or when the reply does not carry
 *         exactly resps.size() verdicts; @p resps is untouched unless
 *         the header and length check pass.
 */
bool decodeCheckBatchReply(std::span<const uint8_t> payload,
                           uint64_t &batchId,
                           std::span<CheckResponse> resps);

// ---- frame I/O on a connected stream socket ----

/**
 * Write one length-prefixed frame, header and payload in one sendmsg,
 * retrying short writes and EINTR.
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
 * Open a frame at the end of @p stream by reserving its length
 * prefix; encode the payload straight after it, then call endFrame().
 * This is how a buffered writer frames a message in place, with no
 * payload copy.
 *
 * @return The frame's start offset, to pass to endFrame().
 */
size_t beginFrame(std::vector<uint8_t> &stream);

/**
 * Close the frame opened at @p start: write its length prefix.
 *
 * @return false, with the frame removed from @p stream, when its
 *         payload exceeds kMaxFrameBytes.
 */
bool endFrame(std::vector<uint8_t> &stream, size_t start);

/**
 * Append the framed form of @p payload (length prefix + bytes) to
 * @p stream — the buffer-building counterpart of writeFrame() for
 * non-blocking writers that stage output and flush when the socket is
 * ready.
 *
 * @return false (stream untouched) on an oversized payload.
 */
bool appendFrame(std::vector<uint8_t> &stream,
                 std::span<const uint8_t> payload);

/**
 * Incremental frame splitter for non-blocking readers.
 *
 * Feed whatever bytes arrived with append(); next() peels complete
 * frames off the front as views into the parser's own buffer, so a
 * frame is decoded where it landed. A forged over-limit length prefix
 * poisons the parser (corrupt() stays true; next() returns Corrupt)
 * before any payload-sized allocation happens. Consumed bytes are
 * compacted away lazily, so buffering stays O(one frame + one read
 * chunk).
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

    /**
     * Point @p payload at the next frame, if one is complete. The view
     * stays valid until the next append().
     */
    Result next(std::span<const uint8_t> &payload);

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
