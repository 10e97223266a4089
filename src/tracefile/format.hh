/**
 * @file
 * On-disk trace format primitives shared by TraceWriter and
 * TraceReader.
 *
 * A `.wtrace` file stores one workload execution's MicroOp stream so
 * experiments can re-simulate it under many machine configurations
 * without re-running the workload (record once, replay many — the
 * MARSSx86 methodology). Layout:
 *
 *     file   := fileHeader chunk* footer
 *     header := magic u32 | version u32 | payloadBytes u32 | crc u32
 *               | name | stack u8 | category u8 | scale f64le
 *               | region table (the CodeLayout snapshot)
 *     chunk  := opCount u32 (> 0) | payloadBytes u32 | crc u32
 *               | encoded ops
 *     footer := 0 u32 | payloadBytes u32 | crc u32
 *               | total ops | IoCounters | DataBehavior
 *
 * Ops are packed as a flags byte plus LEB128 varints; pc and memory
 * addresses are delta-encoded against the previous op in the chunk
 * (deltas reset at chunk boundaries so chunks decode independently).
 * Every payload carries a CRC-32 so truncation and bit rot surface as
 * clean errors instead of silently wrong simulations.
 */

#ifndef WCRT_TRACEFILE_FORMAT_HH
#define WCRT_TRACEFILE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/microop.hh"
#include "workloads/workload.hh"

namespace wcrt {

/** Identity of the run a trace file stores (the file-header fields). */
struct TraceMeta
{
    std::string workload;  //!< Table-2 style name, e.g. "H-WordCount"
    AppCategory category = AppCategory::DataAnalysis;
    StackKind stackKind = StackKind::Hadoop;
    double scale = 1.0;    //!< dataset scale the capture ran at
};

/** Error thrown for malformed, truncated or corrupt trace files. */
class TraceFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace tracefile {

/** File magic: "WTRC" little-endian. */
inline constexpr uint32_t magic = 0x43525457;

/** Current format version; bump on any layout change. */
inline constexpr uint32_t version = 1;

/** Default ops per chunk (64 Ki ops ≈ a few hundred KB encoded). */
inline constexpr uint32_t defaultChunkOps = 64 * 1024;

/** Fixed prefix of a chunk or footer: (opCount, payloadBytes, crc). */
inline constexpr size_t chunkPrefixBytes = 12;

/** @name Per-op flags byte layout. */
/** @{ */
inline constexpr uint8_t kindMask = 0x0f;
inline constexpr uint8_t purposeShift = 4;
inline constexpr uint8_t purposeMask = 0x30;
inline constexpr uint8_t takenBit = 0x40;
inline constexpr uint8_t extBit = 0x80;
/** @} */

/** @name Extension byte bits (present when extBit is set). */
/** @{ */
inline constexpr uint8_t extHasMem = 0x01;
inline constexpr uint8_t extHasSize = 0x02;
inline constexpr uint8_t extHasTarget = 0x04;
/** @} */

/** Instruction size assumed when no explicit size byte is stored. */
inline constexpr uint8_t defaultOpSize = 4;

/**
 * Upper bound on one op's encoded size: flags + extension + size
 * bytes, three 10-byte worst-case varints (pc, memAddr, target) and
 * the memSize byte. While at least this many payload bytes remain, a
 * decoder can run without per-byte bounds checks.
 */
inline constexpr size_t maxEncodedOpBytes = 3 + 3 * 10 + 1;

/**
 * CRC-32 (IEEE 802.3 polynomial) over a byte range. Slicing-by-8
 * implementation: decoding checksums every chunk, so this sits on the
 * replay hot path.
 */
uint32_t crc32(const uint8_t *data, size_t len);

/**
 * Store an LEB128-encoded unsigned value (1-10 bytes) at `out`.
 * @return One past the last byte written.
 */
inline uint8_t *
putVarint(uint8_t *out, uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *out++ = static_cast<uint8_t>(v);
    return out;
}

/** Store a zigzag LEB128-encoded signed delta at `out`. */
inline uint8_t *
putVarintSigned(uint8_t *out, int64_t v)
{
    uint64_t u = static_cast<uint64_t>(v);
    return putVarint(out, (u << 1) ^ static_cast<uint64_t>(v >> 63));
}

/** Append an LEB128-encoded unsigned value. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Append a zigzag LEB128-encoded signed delta. */
inline void
putVarintSigned(std::vector<uint8_t> &out, int64_t v)
{
    uint64_t u = static_cast<uint64_t>(v);
    putVarint(out, (u << 1) ^ static_cast<uint64_t>(v >> 63));
}

/** Append a length-prefixed string. */
void putString(std::vector<uint8_t> &out, const std::string &s);

/**
 * Bounds-checked decode cursor over an encoded payload. Throws
 * TraceFormatError on any overrun or malformed varint. The byte and
 * varint reads are inline: replay calls them several times per op.
 */
class Decoder
{
  public:
    Decoder(const uint8_t *data, size_t len) : cur(data), end(data + len)
    {}

    uint8_t
    u8()
    {
        if (cur == end)
            throwTruncated("u8");
        return *cur++;
    }

    uint64_t
    varint()
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (cur == end)
                throwTruncated("varint");
            uint8_t b = *cur++;
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        throwMalformedVarint();
    }

    int64_t
    varintSigned()
    {
        uint64_t u = varint();
        return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }

    std::string string();

    /** Bytes not yet consumed. */
    size_t remaining() const { return static_cast<size_t>(end - cur); }

  private:
    [[noreturn]] static void throwTruncated(const char *what);
    [[noreturn]] static void throwMalformedVarint();

    const uint8_t *cur;
    const uint8_t *end;
};

/** Default memory-operand presence implied by the op kind. */
constexpr bool
impliedHasMem(OpKind k)
{
    return k == OpKind::Load || k == OpKind::Store;
}

} // namespace tracefile

/** Human-readable op-kind name (dump/stats output). */
const char *toString(OpKind k);

} // namespace wcrt

#endif // WCRT_TRACEFILE_FORMAT_HH
