/**
 * @file
 * TraceReader: replays a `.wtrace` file into any TraceSink.
 *
 * Opening a reader parses and validates the file header (magic,
 * version, CRC) and the region table; replayInto() then streams every
 * stored op to a sink exactly as the live workload emitted it, so
 * SimCpu, FootprintSweep, MixCounter and SamplingSink all work
 * unchanged. Replay is block-based: each chunk is decoded into a
 * reusable op block and handed to the sink with one consumeBatch()
 * call, so a chunk-sized stretch of the stream crosses the sink
 * boundary per virtual dispatch instead of a single op. A reader can
 * replay its file any number of times; for parallel replay open one
 * reader per thread (see tracefile/replay.hh).
 *
 * File bytes arrive through a TraceSource (tracefile/trace_source.hh):
 * by default the file is memory-mapped and chunk payloads are decoded
 * straight out of the mapping with zero intermediate copies, with the
 * original buffered-ifstream path kept as the portable fallback.
 * ReaderOptions also selects whether replay checks per-chunk CRCs
 * (CrcMode); the default verifies everything.
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

/** Decoder and replayer for one trace file. */
class TraceReader
{
  public:
    /**
     * Open `path` with the process-wide defaultReaderOptions() and
     * validate the header. Throws TraceFormatError on a missing file,
     * bad magic, unsupported version or header corruption.
     */
    explicit TraceReader(const std::string &path);

    /** Open `path` with explicit io/CRC policy. */
    TraceReader(const std::string &path, const ReaderOptions &options);

    /**
     * Read from an already-open source — e.g. a drained ShmSource —
     * labelled `display_name` in every error message and by path().
     * The io policy does not apply (the transport is the source).
     */
    TraceReader(std::unique_ptr<TraceSource> source,
                const std::string &display_name,
                const ReaderOptions &options = defaultReaderOptions());

    /** Run identity stored in the header. */
    const TraceMeta &meta() const { return fileMeta; }

    /** The capture run's CodeLayout snapshot. */
    const std::vector<CodeLayout::Function> &regions() const
    {
        return regionTable;
    }

    /** Total static code bytes in the region table. */
    uint64_t regionBytes() const;

    /** Ops stored in the file (from the footer, no replay needed). */
    uint64_t opCount() const { return footerOps; }

    /** I/O accounting of the captured run. */
    const IoCounters &io() const { return footerIo; }

    /** Data-behaviour accounting of the captured run. */
    const DataBehavior &data() const { return footerData; }

    /** File size in bytes. */
    uint64_t fileBytes() const { return fileSize; }

    /** Encoded payload bytes across all op chunks. */
    uint64_t payloadBytes() const { return payloadTotal; }

    /** Number of op chunks. */
    uint64_t chunkCount() const { return chunks; }

    /** Encoded bytes per stored op. */
    double bytesPerOp() const;

    /**
     * Stream every op to `sink`, first to last. Throws
     * TraceFormatError on truncation or CRC mismatch. Returns the
     * number of ops replayed.
     */
    uint64_t replayInto(TraceSink &sink);

    /** Path this reader reads from. */
    const std::string &path() const { return filePath; }

    /** The policy this reader was opened with. */
    const ReaderOptions &options() const { return readerOpts; }

    /** Transport actually in use: "stream" or "mmap". */
    const char *ioName() const { return src->name(); }

    /**
     * Cumulative chunk-payload CRC computations this reader has
     * performed across all replays — the observable of CrcMode
     * (tests and `trace_tool stats` read it).
     */
    uint64_t chunkCrcChecks() const { return crcChecks; }

  private:
    void readHeader();
    void scanFooter();

    /**
     * Walk all chunks from the first op chunk. `sink` may be null
     * (validation/stats scan only). Returns ops visited.
     */
    uint64_t walkChunks(TraceSink *sink);

    std::string filePath;
    ReaderOptions readerOpts;
    std::unique_ptr<TraceSource> src;
    OpBlock block;  //!< reusable decode target, one chunk at a time
    uint64_t firstChunk = 0;
    uint64_t crcChecks = 0;
    TraceMeta fileMeta;
    std::vector<CodeLayout::Function> regionTable;
    IoCounters footerIo;
    DataBehavior footerData;
    uint64_t footerOps = 0;
    uint64_t fileSize = 0;
    uint64_t payloadTotal = 0;
    uint64_t chunks = 0;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_READER_HH
