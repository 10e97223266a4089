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
    : TraceReader(TraceBytes::map(path), path, options)
{
}

TraceReader::TraceReader(TraceBytes bytes,
                         const std::string &display_name,
                         const ReaderOptions &options)
    : readerOpts(options)
{
    auto f = std::make_shared<File>();
    f->path = display_name;
    f->bytes = std::move(bytes);
    readHeader(*f);
    file = f;
    f->totals = walkChunks(nullptr);
}

TraceReader::TraceReader(const TraceReader &other)
    : file(other.file), readerOpts(other.readerOpts)
{
}

void
TraceReader::readHeader(File &f)
{
    const std::string &path = f.path;
    const uint8_t *base = f.bytes.data();
    uint64_t size = f.bytes.size();
    if (size < 16)
        throw TraceFormatError("trace header truncated: " + path);
    if (getU32(base) != magic)
        throw TraceFormatError("not a wtrace file (bad magic): " + path);
    uint32_t file_version = getU32(base + 4);
    if (file_version != version)
        throw TraceFormatError(
            "unsupported trace version " + std::to_string(file_version) +
            " (expected " + std::to_string(version) + "): " + path);
    uint32_t payload_bytes = getU32(base + 8);
    uint32_t crc = getU32(base + 12);

    // Bound the declared length against the file before reading it:
    // a corrupt header claiming ~4 GB must fail here, not after a
    // read past the end (chunk payloads get the same treatment in
    // walkChunks).
    if (payload_bytes > size - 16)
        throw TraceFormatError("trace header truncated: " + path);
    const uint8_t *payload = base + 16;
    if (crc32(payload, payload_bytes) != crc)
        throw TraceFormatError("trace header CRC mismatch: " + path);

    Decoder dec(payload, payload_bytes);
    f.meta.workload = dec.string();
    f.meta.stackKind = static_cast<StackKind>(dec.u8());
    f.meta.category = static_cast<AppCategory>(dec.u8());
    f.meta.scale = getF64(dec);
    uint64_t regions = dec.varint();
    // Each region encodes to at least 6 bytes, so a count the unread
    // header bytes cannot hold is corrupt; reject it before sizing
    // the table off an untrusted u64.
    if (regions > dec.remaining() / 6)
        throw TraceFormatError("trace header truncated: " + path);
    f.regions.reserve(regions);
    for (uint64_t i = 0; i < regions; ++i) {
        CodeLayout::Function fn;
        fn.name = dec.string();
        fn.layer = static_cast<CodeLayer>(dec.u8());
        fn.base = dec.varint();
        fn.bytes = static_cast<uint32_t>(dec.varint());
        fn.profile.overheadOps = static_cast<uint32_t>(dec.varint());
        fn.profile.rotationBytes = static_cast<uint32_t>(dec.varint());
        f.regions.push_back(std::move(fn));
    }
    if (dec.remaining() != 0)
        throw TraceFormatError("trailing bytes in trace header: " + path);
    f.firstChunk = 16 + payload_bytes;
}

TraceReader::Totals
TraceReader::walkChunks(TraceSink *sink)
{
    const std::string &path = file->path;
    const uint8_t *base = file->bytes.data();
    uint64_t size = file->bytes.size();
    uint64_t pos = file->firstChunk;
    // CrcMode applies to op-chunk payloads only; header and footer
    // CRCs are always verified.
    bool check_crc = readerOpts.crc == CrcMode::Always;
    Totals seen;
    while (true) {
        if (size - pos < 12)
            throw TraceFormatError(
                "trace truncated (missing footer): " + path);
        const uint8_t *fixed = base + pos;
        pos += 12;
        ChunkHeader hdr{getU32(fixed), getU32(fixed + 4),
                        getU32(fixed + 8)};
        if (hdr.payloadBytes > size - pos)
            throw TraceFormatError("trace chunk truncated: " + path);
        // A valid op encodes to at least 2 bytes, so an opCount above
        // payloadBytes is structurally impossible; reject it before
        // sizing the decode block off an untrusted u32.
        if (hdr.opCount > hdr.payloadBytes)
            throw TraceFormatError(
                "trace chunk op count exceeds payload: " + path);
        const uint8_t *pay = base + pos;
        pos += hdr.payloadBytes;

        if (hdr.opCount == 0) {
            // Footer chunk ends the file.
            if (crc32(pay, hdr.payloadBytes) != hdr.crc)
                throw TraceFormatError("trace footer CRC mismatch: " + path);
            Decoder dec(pay, hdr.payloadBytes);
            uint64_t footer_ops = dec.varint();
            seen.io.diskReadBytes = dec.varint();
            seen.io.diskWriteBytes = dec.varint();
            seen.io.networkBytes = dec.varint();
            seen.data.inputBytes = dec.varint();
            seen.data.intermediateBytes = dec.varint();
            seen.data.outputBytes = dec.varint();
            if (dec.remaining() != 0)
                throw TraceFormatError(
                    "trailing bytes in trace footer: " + path);
            if (pos != size)
                throw TraceFormatError(
                    "trailing data after trace footer: " + path);
            if (footer_ops != seen.ops)
                throw TraceFormatError(
                    "trace op count mismatch (footer says " +
                    std::to_string(footer_ops) + ", chunks hold " +
                    std::to_string(seen.ops) + "): " + path);
            return seen;
        }

        ++seen.chunks;
        seen.payload += hdr.payloadBytes;
        seen.ops += hdr.opCount;
        // The validation scan (no sink) stops at the bounds checks
        // above; the payload CRC is verified on decode.
        if (!sink)
            continue;
        if (check_crc) {
            if (crc32(pay, hdr.payloadBytes) != hdr.crc)
                throw TraceFormatError("trace chunk CRC mismatch: " + path);
            ++crcChecks;
        }
        // Decode the whole chunk straight into the reusable SoA block,
        // then hand its view to the sink in one consumeBatch call — no
        // per-op virtual dispatch and no intermediate MicroOp on the
        // replay path. `pay` points into the shared byte view, so
        // decode is zero-copy. The chunk interior decodes through the
        // unchecked SWAR fast cursor (maxEncodedOpBytes guarantees
        // every read, including the 8-byte varint loads, stays in
        // bounds); the tail falls back to the checked Decoder, so
        // truncation still surfaces as a clean error.
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
               static_cast<size_t>(pay_end - fast.p) >= maxEncodedOpBytes) {
            decodeOp(fast, prev_pc, prev_mem, arrays, i, path);
            ++i;
        }
        Decoder dec(fast.p, static_cast<size_t>(pay_end - fast.p));
        CheckedCursor checked{dec};
        for (; i < hdr.opCount; ++i)
            decodeOp(checked, prev_pc, prev_mem, arrays, i, path);
        if (dec.remaining() != 0)
            throw TraceFormatError("trailing bytes in trace chunk: " + path);
        block.setUsed(hdr.opCount);
        sink->consumeBatch(block.view());
    }
}

uint64_t
TraceReader::replayInto(TraceSink &sink)
{
    return walkChunks(&sink).ops;
}

uint64_t
TraceReader::regionBytes() const
{
    uint64_t total = 0;
    for (const auto &fn : file->regions)
        total += fn.bytes;
    return total;
}

double
TraceReader::bytesPerOp() const
{
    const Totals &t = file->totals;
    return t.ops ? static_cast<double>(t.payload) /
                       static_cast<double>(t.ops)
                 : 0.0;
}

} // namespace wcrt
