/**
 * @file
 * TraceReader: replays a `.wtrace` byte stream into any TraceSink.
 *
 * Opening a reader parses and validates the header (magic, version,
 * CRC), the region table and the footer, and indexes every op chunk
 * from its 12-byte prefix — every framing check happens there, once.
 * replayChunks() then streams the stored ops of any run of
 * consecutive chunks to a sink exactly as the live workload emitted
 * them, so SimCpu, FootprintSweep, MixCounter and SamplingSink all
 * work unchanged; the format resets its delta state at every chunk,
 * so a range decodes without its predecessors, and replayInto() is
 * the range of every chunk. Replay is block-based: each chunk
 * is decoded in slices of at most defaultOpBlockOps ops into one
 * fixed, reusable op block, and each slice reaches the sink in one
 * consumeBatch() call — a block-sized stretch of the stream per
 * virtual dispatch, never spanning two chunks, and a decode buffer
 * whose size no chunk header can change. The block is allocated on a
 * reader's first replay, so a reader opened only for its metadata
 * holds none. A reader can replay its bytes any number of times.
 *
 * Residency is bounded: once the open-time chunk walk is done the
 * reader releases the whole view's pages, and after decoding each
 * chunk it releases that chunk's payload (TraceBytes::releasePages(),
 * which explains why that is safe and leaves owned buffers alone). A
 * mapped trace therefore keeps about one boundary page per chunk
 * resident, not every page it decoded, and each replay faults its
 * pages back in from the page cache.
 *
 * The bytes are one immutable TraceBytes view
 * (tracefile/trace_source.hh): a memory-mapped file, decoded in place
 * with zero intermediate copies, or an owned in-memory buffer. A copy
 * of an open reader shares the bytes and the parsed header, region
 * table and footer, and decodes into its own block, so parallel
 * replay copies one reader per thread (see tracefile/replay.hh).
 * ReaderOptions selects whether replay checks per-chunk CRCs
 * (CrcMode); the default verifies everything.
 */

#ifndef WCRT_TRACEFILE_TRACE_READER_HH
#define WCRT_TRACEFILE_TRACE_READER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sysmon/sysmon.hh"
#include "trace/code_layout.hh"
#include "tracefile/format.hh"
#include "tracefile/trace_source.hh"

namespace wcrt {

/** Decoder and replayer for one trace. */
class TraceReader
{
  public:
    /**
     * Open `path` with the process-wide defaultReaderOptions() and
     * validate it. Throws TraceFormatError on a missing file, bad
     * magic, unsupported version, truncation or corruption.
     */
    explicit TraceReader(const std::string &path);

    /** Open `path` with an explicit CRC policy. */
    TraceReader(const std::string &path, const ReaderOptions &options);

    /**
     * Read an in-memory or already-mapped byte view, labelled
     * `display_name` in every error message and by path().
     */
    TraceReader(TraceBytes bytes, const std::string &display_name,
                const ReaderOptions &options = defaultReaderOptions());

    /**
     * Share `other`'s bytes, parsed metadata and options; the copy
     * decodes into its own block and counts its own CRC checks, so
     * copies may replay concurrently.
     */
    TraceReader(const TraceReader &other);
    TraceReader &operator=(const TraceReader &) = delete;

    /** Run identity stored in the header. */
    const TraceMeta &meta() const { return file->meta; }

    /** The capture run's CodeLayout snapshot. */
    const std::vector<CodeLayout::Function> &regions() const
    {
        return file->regions;
    }

    /** Total static code bytes in the region table. */
    uint64_t regionBytes() const;

    /** Ops stored in the trace (from the footer, no replay needed). */
    uint64_t opCount() const { return file->totals.ops; }

    /** I/O accounting of the captured run. */
    const IoCounters &io() const { return file->totals.io; }

    /** Data-behaviour accounting of the captured run. */
    const DataBehavior &data() const { return file->totals.data; }

    /** Trace size in bytes. */
    uint64_t fileBytes() const { return file->bytes.size(); }

    /** Encoded payload bytes across all op chunks. */
    uint64_t payloadBytes() const { return file->totals.payload; }

    /** Number of op chunks. */
    uint64_t chunkCount() const { return file->chunks.size(); }

    /**
     * Ops stored in op chunk `i` (from its prefix, no decode).
     * Throws std::out_of_range when `i >= chunkCount()`.
     */
    uint64_t chunkOps(uint64_t i) const
    {
        return file->chunks.at(i).opCount;
    }

    /** Encoded bytes per stored op. */
    double bytesPerOp() const;

    /**
     * Stream every op to `sink`, first to last: replayChunks() over
     * every chunk. Throws TraceFormatError on a CRC mismatch or a
     * malformed chunk. Returns the number of ops replayed.
     */
    uint64_t
    replayInto(TraceSink &sink)
    {
        return replayChunks(sink, 0, chunkCount());
    }

    /**
     * Stream the ops of chunks [first, last) to `sink`, in order,
     * checking each chunk's payload CRC per CrcMode and every op as
     * it decodes. Throws std::out_of_range when `first > last` or
     * `last > chunkCount()`, and TraceFormatError on a CRC mismatch
     * or a malformed chunk. Returns the number of ops replayed.
     */
    uint64_t replayChunks(TraceSink &sink, uint64_t first, uint64_t last);

    /** Path (or display name) this reader reads from. */
    const std::string &path() const { return file->path; }

    /** The policy this reader was opened with. */
    const ReaderOptions &options() const { return readerOpts; }

    /** Where the bytes live: "mmap" or "memory". */
    const char *ioName() const
    {
        return file->bytes.mapped() ? "mmap" : "memory";
    }

    /**
     * Cumulative chunk-payload CRC computations this reader has
     * performed across all replays — the observable of CrcMode
     * (tests and `trace_tool stats` read it).
     */
    uint64_t chunkCrcChecks() const { return crcChecks; }

  private:
    /** What a full chunk walk establishes: footer and chunk totals. */
    struct Totals
    {
        uint64_t ops = 0;
        uint64_t payload = 0;
        IoCounters io;
        DataBehavior data;
    };

    /** One op chunk's prefix fields and where its payload starts. */
    struct Chunk
    {
        uint64_t offset;  //!< payload offset in the byte view
        uint32_t opCount;
        uint32_t payloadBytes;
        uint32_t crc;
    };

    /** What opening parsed; immutable afterwards, shared by copies. */
    struct File
    {
        std::string path;
        TraceBytes bytes;
        TraceMeta meta;
        std::vector<CodeLayout::Function> regions;
        uint64_t firstChunk = 0;
        Totals totals;
        std::vector<Chunk> chunks;  //!< every op chunk, in file order
    };

    /** Parse and check the header and region table into `f`. */
    static void readHeader(File &f);

    /**
     * Walk all of `f`'s chunks from the first op chunk, checking every
     * bound, the footer and the op count, into `f.chunks` (file
     * order, payloads unread) and `f.totals`.
     */
    static void walkChunks(File &f);

    /**
     * Check (per CrcMode) and decode one op chunk into `sink`, then
     * release the chunk's payload pages. The block must exist.
     */
    void replayChunk(TraceSink &sink, const Chunk &chunk);

    std::shared_ptr<const File> file;
    ReaderOptions readerOpts;
    //! Fixed decode target, one slice at a time; made on first replay.
    std::optional<OpBlock> block;
    uint64_t crcChecks = 0;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_READER_HH
