/**
 * @file
 * Writer-side `.wtrace` encoding: the shared frame encoders and the
 * file-backed TraceWriter sink.
 *
 * The encoding lives in three pieces — encodeHeaderFrame(),
 * ChunkEncoder and encodeFooterFrame() — each producing one complete
 * frame (fixed prefix + payload), so the frame layout stays in this
 * module. TraceWriter appends those frames to a file; tests build
 * hand-made streams from the same encoders.
 *
 * TraceWriter is a TraceSink: attach it wherever a SimCpu or
 * FootprintSweep would go — directly, or behind a TeeSink to capture
 * and simulate in one pass. The file header snapshots the run's
 * CodeLayout region table; the footer adds the I/O and data-behaviour
 * accounting once execute() finishes, so a replayed profile
 * reproduces the full WorkloadRun, not just the micro-architecture
 * counters.
 */

#ifndef WCRT_TRACEFILE_TRACE_WRITER_HH
#define WCRT_TRACEFILE_TRACE_WRITER_HH

#include <algorithm>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "sysmon/sysmon.hh"
#include "trace/code_layout.hh"
#include "tracefile/format.hh"

namespace wcrt {

namespace tracefile {

/**
 * Encode the complete file-header frame: the 16-byte fixed prefix
 * (magic, version, payload length, payload CRC) followed by the
 * header payload (run identity + region table).
 */
std::vector<uint8_t> encodeHeaderFrame(const TraceMeta &meta,
                                       const CodeLayout &layout);

/**
 * Encode the complete footer frame: the 12-byte chunk prefix with
 * opCount 0 followed by the accounting payload. `total_ops` must
 * equal the op count actually framed into the stream ahead of it —
 * readers reject the stream otherwise.
 */
std::vector<uint8_t> encodeFooterFrame(uint64_t total_ops,
                                       const IoCounters &io,
                                       const DataBehavior &data);

/**
 * Stateful op-to-chunk encoder: packs a block's ops into the format's
 * delta/varint encoding and frames them as complete chunks. One
 * instance encodes one stream; the pc/memAddr delta state resets at
 * every chunk boundary (takeFrame), matching the format rule that
 * chunks decode independently.
 *
 * add() reads the OpBlockView's columns directly — no MicroOp per op —
 * and writes through a raw cursor into a buffer that keeps
 * chunkPrefixBytes free in front of the payload, so takeFrame() frames
 * the chunk in place instead of copying the payload behind a prefix.
 * Per-op callers encode a one-op view (OpBlockView::of): one routine
 * encodes every op, so no delivery shape can drift from another.
 */
class ChunkEncoder
{
  public:
    explicit ChunkEncoder(uint32_t chunk_ops = defaultChunkOps);

    /**
     * Encode ops `from`, `from + 1`, ... of `ops` into the pending
     * chunk until it reaches its op budget or the view ends.
     *
     * @return The index of the next op to encode. Once full(), frame
     *         the chunk with takeFrame() before the next add().
     */
    size_t add(const OpBlockView &ops, size_t from);

    /** Ops encoded into the pending (unframed) chunk. */
    uint32_t pendingOps() const { return bufOps; }

    /** True when the pending chunk holds its whole op budget. */
    bool full() const { return bufOps == chunkOps; }

    /**
     * Frame the pending ops as one complete chunk: write the 12-byte
     * prefix in front of the payload and return the whole frame,
     * valid until the next add(). Resets the chunk state for the next
     * one. Must not be called with zero pending ops — an opCount of 0
     * is the footer marker.
     */
    std::span<const uint8_t> takeFrame();

  private:
    uint32_t chunkOps;
    //! Chunk prefix space, then the pending payload up to `len`; grows
    //! to the largest chunk seen and is never shrunk or cleared.
    std::vector<uint8_t> buf;
    size_t len = chunkPrefixBytes;
    uint32_t bufOps = 0;
    uint64_t prevPc = 0;
    uint64_t prevMem = 0;
};

// Inline so that a one-op call (TraceWriter's per-op consume())
// compiles down to one op's encoding instead of the general loop's
// setup.
inline size_t
ChunkEncoder::add(const OpBlockView &ops, size_t from)
{
    size_t n = std::min<size_t>(ops.count - from, chunkOps - bufOps);
    if (buf.size() < len + n * maxEncodedOpBytes)
        buf.resize(len + n * maxEncodedOpBytes);
    uint8_t *out = buf.data() + len;
    uint64_t prev_pc = prevPc;
    uint64_t prev_mem = prevMem;
    size_t end = from + n;
    for (size_t i = from; i < end; ++i) {
        OpKind kind = ops.kinds[i];
        uint64_t pc = ops.pcs[i];
        uint64_t mem = ops.memAddrs[i];
        uint8_t mem_size = ops.memSizes[i];
        uint64_t target = ops.targets[i];
        uint8_t size = ops.sizes[i];
        uint8_t flags = static_cast<uint8_t>(
            (static_cast<uint8_t>(kind) & kindMask) |
            ((static_cast<uint8_t>(ops.purposes[i]) << purposeShift) &
             purposeMask) |
            (ops.takens[i] ? takenBit : 0));
        bool control = isControl(kind);
        bool has_mem = mem_size != 0 || mem != 0;
        bool has_target = control || target != 0;

        // The compact form implies size 4, a memory operand exactly on
        // loads/stores and a target exactly on control transfers; any
        // other op spells its fields out in an extension byte.
        if (size == defaultOpSize && has_mem == impliedHasMem(kind) &&
            has_target == control) {
            *out++ = flags;
        } else {
            *out++ = flags | extBit;
            *out++ = static_cast<uint8_t>(
                (has_mem ? extHasMem : 0) |
                (size != defaultOpSize ? extHasSize : 0) |
                (has_target ? extHasTarget : 0));
            if (size != defaultOpSize)
                *out++ = size;
        }

        out = putVarintSigned(out, static_cast<int64_t>(pc - prev_pc));
        prev_pc = pc;
        if (has_mem) {
            out = putVarintSigned(out,
                                  static_cast<int64_t>(mem - prev_mem));
            prev_mem = mem;
            *out++ = mem_size;
        }
        if (has_target)
            out = putVarintSigned(out, static_cast<int64_t>(target - pc));
    }
    len = static_cast<size_t>(out - buf.data());
    bufOps += static_cast<uint32_t>(n);
    prevPc = prev_pc;
    prevMem = prev_mem;
    return end;
}

} // namespace tracefile

/** Streaming encoder for one trace file. */
class TraceWriter : public TraceSink
{
  public:
    /**
     * Open `path` and write the file header immediately.
     *
     * @param path Output file; an existing file is overwritten.
     * @param meta Run identity stored in the header.
     * @param layout Code layout whose region table the header carries.
     * @param chunk_ops Ops per chunk (tunes seek granularity vs
     *        header overhead).
     */
    TraceWriter(const std::string &path, const TraceMeta &meta,
                const CodeLayout &layout,
                uint32_t chunk_ops = tracefile::defaultChunkOps);

    /** Finishes the file (with empty accounting) if still open. */
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Encodes a one-op view through the batch path. */
    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: encodes the block's columns chunk by chunk,
     * honouring the same chunk boundaries as per-op emission (the
     * produced file is byte-identical for any block partitioning).
     */
    void consumeBatch(const OpBlockView &ops) override;

    /**
     * Flush the last chunk and write the footer. Must be the final
     * call; consume() afterwards is an error.
     *
     * @param io I/O volumes the run accumulated.
     * @param data Data-behaviour volumes the run accumulated.
     */
    void finish(const IoCounters &io = {}, const DataBehavior &data = {});

    /** Ops recorded so far. */
    uint64_t opsWritten() const { return totalOps; }

    /** File bytes emitted so far (headers + payloads). */
    uint64_t bytesWritten() const { return fileBytes; }

    /** Encoded payload bytes (excludes file/chunk headers). */
    uint64_t payloadBytes() const { return payloadTotal; }

  private:
    void flushChunk();
    void writeFrame(std::span<const uint8_t> frame);

    std::ofstream out;
    std::string path;
    tracefile::ChunkEncoder encoder;
    uint64_t totalOps = 0;
    uint64_t fileBytes = 0;
    uint64_t payloadTotal = 0;
    bool finished = false;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_WRITER_HH
