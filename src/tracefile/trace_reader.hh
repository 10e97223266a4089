/**
 * @file
 * TraceReader: replays a `.wtrace` byte stream into any TraceSink.
 *
 * Opening a reader parses and validates the header (magic, version,
 * CRC), the region table and the footer; replayInto() then streams
 * every stored op to a sink exactly as the live workload emitted it,
 * so SimCpu, FootprintSweep, MixCounter and SamplingSink all work
 * unchanged. Replay is block-based: each chunk is decoded into a
 * reusable op block and handed to the sink with one consumeBatch()
 * call, so a chunk-sized stretch of the stream crosses the sink
 * boundary per virtual dispatch instead of a single op. A reader can
 * replay its bytes any number of times.
 *
 * The bytes are one immutable TraceBytes view
 * (tracefile/trace_source.hh): a memory-mapped file, decoded in place
 * with zero intermediate copies, or an in-memory buffer such as a
 * drained shm ring. A copy of an open reader shares the bytes and the
 * parsed header, region table and footer, and decodes into its own
 * block, so parallel replay copies one reader per thread (see
 * tracefile/replay.hh). ReaderOptions selects whether replay checks
 * per-chunk CRCs (CrcMode); the default verifies everything.
 */

#ifndef WCRT_TRACEFILE_TRACE_READER_HH
#define WCRT_TRACEFILE_TRACE_READER_HH

#include <memory>
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
     * Read an in-memory or already-mapped byte view — e.g. a drained
     * shm ring — labelled `display_name` in every error message and
     * by path().
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
    uint64_t chunkCount() const { return file->totals.chunks; }

    /** Encoded bytes per stored op. */
    double bytesPerOp() const;

    /**
     * Stream every op to `sink`, first to last. Throws
     * TraceFormatError on truncation or CRC mismatch. Returns the
     * number of ops replayed.
     */
    uint64_t replayInto(TraceSink &sink);

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
        uint64_t chunks = 0;
        IoCounters io;
        DataBehavior data;
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
    };

    /** Parse and check the header and region table into `f`. */
    static void readHeader(File &f);

    /**
     * Walk all chunks from the first op chunk, checking every bound,
     * the footer and the op count. `sink` may be null (the open-time
     * validation scan, which skips payloads).
     */
    Totals walkChunks(TraceSink *sink);

    std::shared_ptr<const File> file;
    ReaderOptions readerOpts;
    OpBlock block;  //!< reusable decode target, one chunk at a time
    uint64_t crcChecks = 0;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_READER_HH
