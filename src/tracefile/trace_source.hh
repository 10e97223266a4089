/**
 * @file
 * TraceBytes: the one byte view every TraceReader parses.
 *
 * A trace's bytes are immutable once written, so they are held once
 * and shared: either a read-only mapping of a `.wtrace` file or an
 * owned in-memory buffer. Both feed the same parsing code, so decoded
 * ops and every TraceFormatError are bit-identical between them
 * (pinned by test). Copies of a TraceBytes share one mapping or
 * buffer, released with the last copy.
 *
 * Residency: a mapped view does not keep what it decoded. The reader
 * hands back the whole pages of every span it is done with
 * (releasePages(): the chunk walk at open, then each chunk after it
 * decodes), so a replayed trace holds about one boundary page per
 * chunk instead of the whole file. MADV_DONTNEED on a PROT_READ,
 * MAP_PRIVATE file mapping only drops page-table entries: no private
 * copy of a page can exist, the page cache keeps the bytes, and the
 * next touch faults the identical bytes back in. captureTrace()
 * writes a trace tmp-then-rename, so a mapped file never changes, and
 * reader copies sharing one mapping stay correct however their
 * releases and reads interleave. An owned buffer is never
 * released, because MADV_DONTNEED zero-fills anonymous pages.
 *
 * This header also carries the reader policy knobs: the chunk-CRC
 * policy (`CrcMode`) and the process-wide default ReaderOptions.
 */

#ifndef WCRT_TRACEFILE_TRACE_SOURCE_HH
#define WCRT_TRACEFILE_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tracefile/format.hh"

namespace wcrt {

/**
 * How a TraceReader reaches a file's bytes. Files are always mapped;
 * the enum, toString(TraceIo) and mmapAvailable() remain only for the
 * end-to-end benchmark's run manifest.
 */
enum class TraceIo : uint8_t {
    Auto,  //!< map the file
};

/**
 * How much CRC work a replay performs on op-chunk payloads. The
 * header and footer CRCs are always verified — they are tiny and
 * guard the metadata every consumer trusts — and structural
 * validation (bounds, op counts, footer totals, malformed varints)
 * is never elided; the mode covers only the per-chunk CRC-32
 * recomputation on the decode hot path.
 */
enum class CrcMode : uint8_t {
    Always,  //!< verify every chunk CRC on every replay (default)
    Never,   //!< trust chunk payloads outright
};

/** Reader policy: io transport + chunk-CRC policy. */
struct ReaderOptions
{
    TraceIo io = TraceIo::Auto;
    CrcMode crc = CrcMode::Always;
};

/** Manifest spelling of the io mode: "auto". */
const char *toString(TraceIo io);

/** CLI spelling of a CRC mode: always / never. */
const char *toString(CrcMode crc);

/**
 * Parse a CLI CRC mode name ("always", "never").
 * @return false when the name matches no mode (`out` untouched).
 */
bool parseCrcMode(const std::string &name, CrcMode &out);

/** Always true: every supported platform maps trace files. */
bool mmapAvailable();

/**
 * Process-wide default ReaderOptions, used by every TraceReader (and
 * therefore every replay runner) that is not handed explicit options.
 * `trace_tool --verify-crc=...` and `scenario_tool` set this once at
 * startup; the default is {Auto, Always}.
 */
ReaderOptions defaultReaderOptions();
void setDefaultReaderOptions(const ReaderOptions &opts);

/**
 * An immutable, shareable view of one trace's bytes. Copying is
 * cheap and thread-safe; the bytes live until the last copy goes.
 */
class TraceBytes
{
  public:
    /** An empty in-memory view. */
    TraceBytes() = default;

    /** Take ownership of an in-memory byte stream. */
    explicit TraceBytes(std::vector<uint8_t> bytes);

    /**
     * Map `path` read-only (MAP_PRIVATE, advised sequential). An
     * empty file gives an empty view. Throws TraceFormatError when
     * the file cannot be opened, sized or mapped.
     */
    static TraceBytes map(const std::string &path);

    const uint8_t *data() const { return base.get(); }
    uint64_t size() const { return length; }

    /** True for a file mapping, false for an in-memory buffer. */
    bool mapped() const { return isMapped; }

    /**
     * Drop the whole pages inside bytes [offset, offset + span)
     * from the process (MADV_DONTNEED); the partial pages at either
     * end stay. The bytes read the same afterwards — the next touch
     * faults them back in from the page cache — so this is safe while
     * other copies read the span. Does nothing for an in-memory
     * buffer.
     */
    void releasePages(uint64_t offset, uint64_t span) const;

  private:
    std::shared_ptr<const uint8_t> base;
    uint64_t length = 0;
    bool isMapped = false;
};

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_SOURCE_HH
