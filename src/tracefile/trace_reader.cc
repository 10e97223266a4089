#include "tracefile/trace_reader.hh"

#include <bit>
#include <cstring>

namespace wcrt {

using namespace tracefile;

namespace {

uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

double
getF64(Decoder &dec)
{
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= static_cast<uint64_t>(dec.u8()) << (8 * i);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** One decoded chunk header. */
struct ChunkHeader
{
    uint32_t opCount;
    uint32_t payloadBytes;
    uint32_t crc;
};

/**
 * Unchecked decode cursor for the chunk interior. The caller
 * guarantees at least maxEncodedOpBytes (34) remain before each op,
 * so the per-byte bounds checks the general Decoder pays are
 * unnecessary; only the malformed-varint guard stays. Must mirror
 * Decoder exactly.
 *
 * varint() is SWAR: one unaligned 8-byte load covers any 1-8-byte
 * varint (within an op, a varint starts at most 24 bytes in, so the
 * load stays inside the 34-byte window). The continuation bits are
 * found in parallel — `~word & 0x80..80` has a bit set at every byte
 * whose continuation bit is clear, countr_zero finds the terminator —
 * and the 7-bit groups are compacted with three shift/mask steps.
 * 9/10-byte varints (top-bit-heavy deltas; rare) take the byte-serial
 * slow path.
 */
struct FastCursor
{
    const uint8_t *p;

    uint8_t u8() { return *p++; }

    uint64_t
    varint()
    {
        uint64_t word;
        std::memcpy(&word, p, 8);
        uint64_t cont = ~word & 0x8080808080808080ull;
        if (cont == 0)
            return varintLong();
        unsigned terminator = std::countr_zero(cont) >> 3;  // byte index
        p += terminator + 1;
        // Keep bytes up to and including the terminator, drop the
        // continuation bits, then pack eight 7-bit groups into 56 bits.
        word &= cont ^ (cont - 1);
        word &= 0x7f7f7f7f7f7f7f7full;
        word = (word & 0x007f007f007f007full) |
               ((word & 0x7f007f007f007f00ull) >> 1);
        word = (word & 0x00003fff00003fffull) |
               ((word & 0x3fff00003fff0000ull) >> 2);
        word = (word & 0x000000000fffffffull) |
               ((word & 0x0fffffff00000000ull) >> 4);
        return word;
    }

    uint64_t
    varintLong()
    {
        uint64_t v = 0;
        int shift = 0;
        for (int i = 0; i < 10; ++i) {
            uint64_t b = p[i];
            v |= (b & 0x7f) << shift;
            shift += 7;
            if (!(b & 0x80)) {
                p += i + 1;
                return v;
            }
        }
        throw TraceFormatError("malformed varint (more than 10 bytes)");
    }

    int64_t
    varintSigned()
    {
        uint64_t u = varint();
        return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }
};

/** Checked cursor with the same surface, for the chunk tail. */
struct CheckedCursor
{
    Decoder &dec;

    uint8_t u8() { return dec.u8(); }
    uint64_t varint() { return dec.varint(); }
    int64_t varintSigned() { return dec.varintSigned(); }
};

/** Mutable handles on an OpBlock's field arrays for direct decode. */
struct BlockArrays
{
    OpKind *kinds;
    IntPurpose *purposes;
    uint64_t *pcs;
    uint8_t *sizes;
    uint64_t *memAddrs;
    uint8_t *memSizes;
    uint64_t *targets;
    uint8_t *takens;

    explicit BlockArrays(OpBlock &block)
        : kinds(block.rawKinds()), purposes(block.rawPurposes()),
          pcs(block.rawPcs()), sizes(block.rawSizes()),
          memAddrs(block.rawMemAddrs()), memSizes(block.rawMemSizes()),
          targets(block.rawTargets()), takens(block.rawTakens())
    {
    }
};

/**
 * Decode one encoded op through either cursor, scattering its fields
 * into the block's arrays at index `n` — no intermediate MicroOp.
 * Shared by the fast interior and the checked tail so the two paths
 * cannot drift apart.
 */
template <typename Cursor>
inline void
decodeOp(Cursor &cur, uint64_t &prev_pc, uint64_t &prev_mem,
         BlockArrays &a, size_t n, const std::string &path)
{
    uint8_t flags = cur.u8();
    uint8_t kind_bits = flags & kindMask;
    if (kind_bits >= numOpKinds)
        throw TraceFormatError("invalid op kind in trace: " + path);
    OpKind kind = static_cast<OpKind>(kind_bits);
    a.kinds[n] = kind;
    a.purposes[n] =
        static_cast<IntPurpose>((flags & purposeMask) >> purposeShift);
    a.takens[n] = (flags & takenBit) ? 1 : 0;

    bool has_mem;
    bool has_target;
    if (flags & extBit) {
        uint8_t ext = cur.u8();
        if (ext & ~(extHasMem | extHasSize | extHasTarget))
            throw TraceFormatError(
                "invalid op extension bits in trace: " + path);
        a.sizes[n] = (ext & extHasSize) ? cur.u8() : defaultOpSize;
        has_mem = ext & extHasMem;
        has_target = ext & extHasTarget;
    } else {
        a.sizes[n] = defaultOpSize;
        has_mem = impliedHasMem(kind);
        has_target = isControl(kind);
    }

    uint64_t pc = prev_pc + static_cast<uint64_t>(cur.varintSigned());
    a.pcs[n] = pc;
    prev_pc = pc;
    if (has_mem) {
        uint64_t mem =
            prev_mem + static_cast<uint64_t>(cur.varintSigned());
        a.memAddrs[n] = mem;
        prev_mem = mem;
        a.memSizes[n] = cur.u8();
    } else {
        a.memAddrs[n] = 0;
        a.memSizes[n] = 0;
    }
    if (has_target)
        a.targets[n] = pc + static_cast<uint64_t>(cur.varintSigned());
    else
        a.targets[n] = 0;
}

} // namespace

TraceReader::TraceReader(const std::string &path)
    : TraceReader(path, defaultReaderOptions())
{
}

TraceReader::TraceReader(const std::string &path,
                         const ReaderOptions &options)
    : filePath(path), readerOpts(options),
      src(openTraceSource(path, options.io))
{
    fileSize = src->size();
    readHeader();
    scanFooter();
}

TraceReader::TraceReader(std::unique_ptr<TraceSource> source,
                         const std::string &display_name,
                         const ReaderOptions &options)
    : filePath(display_name), readerOpts(options),
      src(std::move(source))
{
    src->seek(0);
    fileSize = src->size();
    readHeader();
    scanFooter();
}

void
TraceReader::readHeader()
{
    if (src->remaining() < 16)
        throw TraceFormatError("trace header truncated: " + filePath);
    const uint8_t *fixed = src->view(16);
    if (getU32(fixed) != magic)
        throw TraceFormatError("not a wtrace file (bad magic): " +
                               filePath);
    uint32_t file_version = getU32(fixed + 4);
    if (file_version != version)
        throw TraceFormatError(
            "unsupported trace version " + std::to_string(file_version) +
            " (expected " + std::to_string(version) + "): " + filePath);
    uint32_t payload_bytes = getU32(fixed + 8);
    uint32_t crc = getU32(fixed + 12);

    // Bound the declared length against the file before asking the
    // source for it: a corrupt header claiming ~4 GB must fail here,
    // not after a matching allocation (chunk payloads get the same
    // treatment in walkChunks).
    if (payload_bytes > src->remaining())
        throw TraceFormatError("trace header truncated: " + filePath);
    const uint8_t *payload = src->view(payload_bytes);
    if (crc32(payload, payload_bytes) != crc)
        throw TraceFormatError("trace header CRC mismatch: " + filePath);

    Decoder dec(payload, payload_bytes);
    fileMeta.workload = dec.string();
    fileMeta.stackKind = static_cast<StackKind>(dec.u8());
    fileMeta.category = static_cast<AppCategory>(dec.u8());
    fileMeta.scale = getF64(dec);
    uint64_t regions = dec.varint();
    regionTable.clear();
    regionTable.reserve(regions);
    for (uint64_t i = 0; i < regions; ++i) {
        CodeLayout::Function fn;
        fn.name = dec.string();
        fn.layer = static_cast<CodeLayer>(dec.u8());
        fn.base = dec.varint();
        fn.bytes = static_cast<uint32_t>(dec.varint());
        fn.profile.overheadOps = static_cast<uint32_t>(dec.varint());
        fn.profile.rotationBytes = static_cast<uint32_t>(dec.varint());
        regionTable.push_back(std::move(fn));
    }
    if (dec.remaining() != 0)
        throw TraceFormatError("trailing bytes in trace header: " +
                               filePath);
    firstChunk = src->offset();
}

uint64_t
TraceReader::walkChunks(TraceSink *sink)
{
    src->seek(firstChunk);
    // CrcMode applies to op-chunk payloads only; header and footer
    // CRCs are always verified.
    bool check_crc = readerOpts.crc == CrcMode::Always;
    uint64_t ops_seen = 0;
    uint64_t chunks_seen = 0;
    uint64_t payload_seen = 0;
    while (true) {
        if (src->remaining() < 12)
            throw TraceFormatError(
                "trace truncated (missing footer): " + filePath);
        const uint8_t *fixed = src->view(12);
        ChunkHeader hdr{getU32(fixed), getU32(fixed + 4),
                        getU32(fixed + 8)};
        if (hdr.payloadBytes > src->remaining())
            throw TraceFormatError("trace chunk truncated: " + filePath);
        // A valid op encodes to at least 2 bytes, so an opCount above
        // payloadBytes is structurally impossible; reject it before
        // sizing the decode block off an untrusted u32.
        if (hdr.opCount > hdr.payloadBytes)
            throw TraceFormatError(
                "trace chunk op count exceeds payload: " + filePath);

        if (hdr.opCount == 0) {
            // Footer chunk ends the file.
            const uint8_t *payload = src->view(hdr.payloadBytes);
            if (crc32(payload, hdr.payloadBytes) != hdr.crc)
                throw TraceFormatError("trace footer CRC mismatch: " +
                                       filePath);
            Decoder dec(payload, hdr.payloadBytes);
            footerOps = dec.varint();
            footerIo.diskReadBytes = dec.varint();
            footerIo.diskWriteBytes = dec.varint();
            footerIo.networkBytes = dec.varint();
            footerData.inputBytes = dec.varint();
            footerData.intermediateBytes = dec.varint();
            footerData.outputBytes = dec.varint();
            if (dec.remaining() != 0)
                throw TraceFormatError(
                    "trailing bytes in trace footer: " + filePath);
            if (src->remaining() != 0)
                throw TraceFormatError(
                    "trailing data after trace footer: " + filePath);
            if (footerOps != ops_seen)
                throw TraceFormatError(
                    "trace op count mismatch (footer says " +
                    std::to_string(footerOps) + ", chunks hold " +
                    std::to_string(ops_seen) + "): " + filePath);
            chunks = chunks_seen;
            payloadTotal = payload_seen;
            return ops_seen;
        }

        ++chunks_seen;
        payload_seen += hdr.payloadBytes;
        if (sink) {
            const uint8_t *pay = src->view(hdr.payloadBytes);
            if (check_crc) {
                if (crc32(pay, hdr.payloadBytes) != hdr.crc)
                    throw TraceFormatError(
                        "trace chunk CRC mismatch: " + filePath);
                ++crcChecks;
            }
            // Decode the whole chunk straight into the reusable SoA
            // block, then hand its view to the sink in one
            // consumeBatch call — no per-op virtual dispatch and no
            // intermediate MicroOp on the replay path. With MmapSource
            // `pay` points into the mapping, so decode is zero-copy.
            // The chunk interior decodes through the unchecked SWAR
            // fast cursor (maxEncodedOpBytes guarantees every read,
            // including the 8-byte varint loads, stays in bounds); the
            // tail falls back to the checked Decoder, so truncation
            // still surfaces as a clean error.
            if (block.capacity() < hdr.opCount)
                block = OpBlock(hdr.opCount);
            block.clear();
            BlockArrays arrays(block);
            uint64_t prev_pc = 0;
            uint64_t prev_mem = 0;
            const uint8_t *pay_end = pay + hdr.payloadBytes;
            FastCursor fast{pay};
            uint32_t i = 0;
            while (i < hdr.opCount &&
                   static_cast<size_t>(pay_end - fast.p) >=
                       maxEncodedOpBytes) {
                decodeOp(fast, prev_pc, prev_mem, arrays, i, filePath);
                ++i;
            }
            Decoder dec(fast.p,
                        static_cast<size_t>(pay_end - fast.p));
            CheckedCursor checked{dec};
            for (; i < hdr.opCount; ++i)
                decodeOp(checked, prev_pc, prev_mem, arrays, i,
                         filePath);
            if (dec.remaining() != 0)
                throw TraceFormatError(
                    "trailing bytes in trace chunk: " + filePath);
            block.setUsed(hdr.opCount);
            sink->consumeBatch(block.view());
        } else {
            // Validation scan: chunk bounds are checked above and the
            // payload CRC is verified on decode, so just skip ahead.
            src->skip(hdr.payloadBytes);
        }
        ops_seen += hdr.opCount;
    }
}

void
TraceReader::scanFooter()
{
    walkChunks(nullptr);
}

uint64_t
TraceReader::replayInto(TraceSink &sink)
{
    return walkChunks(&sink);
}

uint64_t
TraceReader::regionBytes() const
{
    uint64_t total = 0;
    for (const auto &fn : regionTable)
        total += fn.bytes;
    return total;
}

double
TraceReader::bytesPerOp() const
{
    return footerOps ? static_cast<double>(payloadTotal) /
                           static_cast<double>(footerOps)
                     : 0.0;
}

} // namespace wcrt
