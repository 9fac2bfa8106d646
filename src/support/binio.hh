/**
 * @file
 * Shared little-endian binary encoding primitives.
 *
 * The `.dtrc` trace format, the `.devt` event-trace format, and the
 * dracod wire protocol all encode the same way: fixed-width
 * little-endian integers for headers and indices, LEB128 varints for
 * counts and ids, zigzag-mapped signed deltas for values that cluster
 * around a running predecessor, and varint-length-prefixed byte strings
 * for names. Keeping the primitives here guarantees the formats stay
 * bit-compatible with each other's framing and that a fix to bounds
 * checking lands in every decoder at once. Decoders read from a span,
 * so a block inside a larger file decodes in place, bounded by its own
 * end rather than the file's.
 */

#ifndef DRACO_SUPPORT_BINIO_HH
#define DRACO_SUPPORT_BINIO_HH

#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <vector>

namespace draco::binio {

/** Append @p v little-endian as 4 bytes. */
inline void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Append @p v little-endian as 8 bytes. */
inline void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Append one byte. */
inline void
putU8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

/** Append @p v little-endian as 2 bytes. */
inline void
putU16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xff));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

/** Append @p v little-endian as 4 bytes. */
inline void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

/** Append @p v little-endian as 8 bytes. */
inline void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

/** Append @p v as a LEB128 unsigned varint. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Append the zigzag-mapped signed delta @p now - @p prev as a varint. */
inline void
putDelta(std::vector<uint8_t> &out, uint64_t now, uint64_t prev)
{
    auto delta = static_cast<int64_t>(now - prev);
    auto zigzag = static_cast<uint64_t>((delta << 1) ^ (delta >> 63));
    putVarint(out, zigzag);
}

/**
 * Decode one varint from @p buf at @p pos (advanced past it).
 *
 * @return false when the buffer ends mid-varint or the value would
 *         exceed 64 bits.
 */
inline bool
takeVarint(std::span<const uint8_t> buf, size_t &pos, uint64_t &out)
{
    out = 0;
    unsigned shift = 0;
    while (pos < buf.size() && shift < 64) {
        uint8_t byte = buf[pos++];
        out |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
    return false;
}

/** Decode one byte from @p buf at @p pos (advanced past it). */
inline bool
takeU8(std::span<const uint8_t> buf, size_t &pos, uint8_t &out)
{
    if (pos >= buf.size())
        return false;
    out = buf[pos++];
    return true;
}

/** Decode a 2-byte little-endian integer from @p buf at @p pos. */
inline bool
takeU16(std::span<const uint8_t> buf, size_t &pos, uint16_t &out)
{
    if (pos + 2 > buf.size())
        return false;
    out = static_cast<uint16_t>(buf[pos] |
                                (static_cast<uint16_t>(buf[pos + 1])
                                 << 8));
    pos += 2;
    return true;
}

/** Decode a 4-byte little-endian integer from @p buf at @p pos. */
inline bool
takeU32(std::span<const uint8_t> buf, size_t &pos, uint32_t &out)
{
    if (pos + 4 > buf.size())
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= static_cast<uint32_t>(buf[pos + i]) << (8 * i);
    pos += 4;
    return true;
}

/** Decode an 8-byte little-endian integer from @p buf at @p pos. */
inline bool
takeU64(std::span<const uint8_t> buf, size_t &pos, uint64_t &out)
{
    if (pos + 8 > buf.size())
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<uint64_t>(buf[pos + i]) << (8 * i);
    pos += 8;
    return true;
}

/** Append @p s as a varint length followed by its bytes. */
inline void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putVarint(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

/**
 * Decode one length-prefixed string from @p buf at @p pos.
 *
 * @param maxLen Upper bound on the accepted length — decoders reading
 *        untrusted frames must bound names so a corrupt length byte
 *        cannot force a huge allocation.
 * @return false when the buffer ends short or the length exceeds
 *         @p maxLen.
 */
inline bool
takeString(std::span<const uint8_t> buf, size_t &pos,
           std::string &out, size_t maxLen = 4096)
{
    uint64_t len;
    if (!takeVarint(buf, pos, len))
        return false;
    if (len > maxLen || pos + len > buf.size())
        return false;
    out.assign(reinterpret_cast<const char *>(buf.data()) + pos,
               static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
    return true;
}

/** Decode one zigzag delta and apply it to @p prev. */
inline bool
takeDelta(std::span<const uint8_t> buf, size_t &pos, uint64_t prev,
          uint64_t &out)
{
    uint64_t zigzag;
    if (!takeVarint(buf, pos, zigzag))
        return false;
    auto delta = static_cast<int64_t>((zigzag >> 1) ^
                                      (~(zigzag & 1) + 1));
    out = prev + static_cast<uint64_t>(delta);
    return true;
}

/** Read exactly @p len bytes; @return false on short read. */
inline bool
readExact(std::istream &in, void *out, size_t len)
{
    in.read(static_cast<char *>(out), static_cast<std::streamsize>(len));
    return static_cast<size_t>(in.gcount()) == len && !in.bad();
}

/** Read a 4-byte little-endian integer. */
inline bool
readU32(std::istream &in, uint32_t &out)
{
    uint8_t bytes[4];
    if (!readExact(in, bytes, sizeof(bytes)))
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return true;
}

/** Read an 8-byte little-endian integer. */
inline bool
readU64(std::istream &in, uint64_t &out)
{
    uint8_t bytes[8];
    if (!readExact(in, bytes, sizeof(bytes)))
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return true;
}

} // namespace draco::binio

#endif // DRACO_SUPPORT_BINIO_HH
