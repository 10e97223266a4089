#include "tracefile/trace_writer.hh"

#include <cstring>

#include "base/logging.hh"

namespace wcrt {

using namespace tracefile;

namespace {

void
storeU32(uint8_t *out, uint32_t v)
{
    out[0] = static_cast<uint8_t>(v);
    out[1] = static_cast<uint8_t>(v >> 8);
    out[2] = static_cast<uint8_t>(v >> 16);
    out[3] = static_cast<uint8_t>(v >> 24);
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

void
putF64(std::vector<uint8_t> &out, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(bits >> (8 * i)));
}

/** Prefix `payload` with a (first, length, crc) frame header. */
std::vector<uint8_t>
framePayload(uint32_t first, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> frame;
    frame.reserve(chunkPrefixBytes + payload.size());
    putU32(frame, first);
    putU32(frame, static_cast<uint32_t>(payload.size()));
    putU32(frame, crc32(payload.data(), payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

} // namespace

namespace tracefile {

std::vector<uint8_t>
encodeHeaderFrame(const TraceMeta &meta, const CodeLayout &layout)
{
    std::vector<uint8_t> payload;
    putString(payload, meta.workload);
    payload.push_back(static_cast<uint8_t>(meta.stackKind));
    payload.push_back(static_cast<uint8_t>(meta.category));
    putF64(payload, meta.scale);
    putVarint(payload, layout.size());
    for (size_t i = 0; i < layout.size(); ++i) {
        const auto &fn = layout.function(FunctionId{
            static_cast<uint32_t>(i)});
        putString(payload, fn.name);
        payload.push_back(static_cast<uint8_t>(fn.layer));
        putVarint(payload, fn.base);
        putVarint(payload, fn.bytes);
        putVarint(payload, fn.profile.overheadOps);
        putVarint(payload, fn.profile.rotationBytes);
    }

    // The file header's fixed prefix carries (magic, version) where a
    // chunk carries (opCount, payloadBytes) — same 16-vs-12 byte shape
    // TraceReader::readHeader expects.
    std::vector<uint8_t> frame;
    frame.reserve(16 + payload.size());
    putU32(frame, magic);
    putU32(frame, version);
    putU32(frame, static_cast<uint32_t>(payload.size()));
    putU32(frame, crc32(payload.data(), payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

std::vector<uint8_t>
encodeFooterFrame(uint64_t total_ops, const IoCounters &io,
                  const DataBehavior &data)
{
    std::vector<uint8_t> payload;
    putVarint(payload, total_ops);
    putVarint(payload, io.diskReadBytes);
    putVarint(payload, io.diskWriteBytes);
    putVarint(payload, io.networkBytes);
    putVarint(payload, data.inputBytes);
    putVarint(payload, data.intermediateBytes);
    putVarint(payload, data.outputBytes);
    return framePayload(0, payload);  // opCount 0 marks the footer
}

ChunkEncoder::ChunkEncoder(uint32_t chunk_ops)
    : chunkOps(chunk_ops ? chunk_ops : defaultChunkOps),
      buf(chunkPrefixBytes)
{
}

std::span<const uint8_t>
ChunkEncoder::takeFrame()
{
    if (bufOps == 0)
        wcrt_panic("ChunkEncoder::takeFrame with no pending ops");
    size_t payload = len - chunkPrefixBytes;
    storeU32(buf.data(), bufOps);
    storeU32(buf.data() + 4, static_cast<uint32_t>(payload));
    storeU32(buf.data() + 8,
             crc32(buf.data() + chunkPrefixBytes, payload));
    std::span<const uint8_t> frame(buf.data(), len);
    len = chunkPrefixBytes;
    bufOps = 0;
    prevPc = 0;
    prevMem = 0;
    return frame;
}

} // namespace tracefile

TraceWriter::TraceWriter(const std::string &path_, const TraceMeta &meta,
                         const CodeLayout &layout, uint32_t chunk_ops)
    : out(path_, std::ios::binary | std::ios::trunc), path(path_),
      encoder(chunk_ops)
{
    if (!out)
        throw TraceFormatError("cannot open trace file for writing: " +
                               path);
    writeFrame(encodeHeaderFrame(meta, layout));
}

TraceWriter::~TraceWriter()
{
    if (!finished && out.is_open()) {
        try {
            finish();
        } catch (const TraceFormatError &e) {
            warn("trace writer teardown failed for ", path, ": ",
                 e.what());
        }
    }
}

void
TraceWriter::writeFrame(std::span<const uint8_t> f)
{
    out.write(reinterpret_cast<const char *>(f.data()),
              static_cast<std::streamsize>(f.size()));
    fileBytes += f.size();
}

void
TraceWriter::consume(const MicroOp &op)
{
    uint8_t taken = op.taken ? 1 : 0;
    consumeBatch(OpBlockView::of(op, &taken));
}

void
TraceWriter::consumeBatch(const OpBlockView &ops)
{
    if (finished)
        wcrt_panic("TraceWriter: ops consumed after finish");
    for (size_t i = 0; i < ops.count;) {
        i = encoder.add(ops, i);
        if (encoder.full())
            flushChunk();
    }
    totalOps += ops.count;
}

void
TraceWriter::flushChunk()
{
    if (encoder.pendingOps() == 0)
        return;
    std::span<const uint8_t> frame = encoder.takeFrame();
    writeFrame(frame);
    payloadTotal += frame.size() - chunkPrefixBytes;
}

void
TraceWriter::finish(const IoCounters &io, const DataBehavior &data)
{
    if (finished)
        return;
    flushChunk();
    writeFrame(encodeFooterFrame(totalOps, io, data));
    out.flush();
    if (!out)
        throw TraceFormatError("short write on trace file: " + path);
    out.close();
    finished = true;
}

} // namespace wcrt
