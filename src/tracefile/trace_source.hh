/**
 * @file
 * TraceSource: byte-level access to a `.wtrace` file for TraceReader.
 *
 * Two implementations share one pull interface. StreamSource wraps
 * the original `std::ifstream` path (one buffered copy per payload,
 * works everywhere); MmapSource maps the whole file once and hands
 * out pointers straight into the mapping, so the SWAR fast cursor
 * decodes chunk payloads with zero intermediate copies. Which one a
 * reader uses is a transport choice only: both sources feed the same
 * parsing code, so decoded ops and every TraceFormatError are
 * bit-identical between them (pinned by test).
 *
 * This header also carries the reader policy knobs: the io selection
 * (`TraceIo`) and the chunk-CRC policy (`CrcMode`).
 */

#ifndef WCRT_TRACEFILE_TRACE_SOURCE_HH
#define WCRT_TRACEFILE_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "tracefile/format.hh"

namespace wcrt {

/** How a TraceReader accesses the file's bytes. */
enum class TraceIo : uint8_t {
    Auto,    //!< mmap when the platform supports it, else stream
    Stream,  //!< buffered std::ifstream reads (the original path)
    Mmap,    //!< zero-copy memory mapping; error where unsupported
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

/** CLI spelling of an io mode: auto / stream / mmap. */
const char *toString(TraceIo io);

/** CLI spelling of a CRC mode: always / never. */
const char *toString(CrcMode crc);

/**
 * Parse a CLI io name ("auto", "stream", "mmap").
 * @return false when the name matches no mode (`out` untouched).
 */
bool parseTraceIo(const std::string &name, TraceIo &out);

/**
 * Parse a CLI CRC mode name ("always", "never").
 * @return false when the name matches no mode (`out` untouched).
 */
bool parseCrcMode(const std::string &name, CrcMode &out);

/** True when this build can memory-map trace files. */
bool mmapAvailable();

/**
 * Process-wide default ReaderOptions, used by every TraceReader (and
 * therefore every replay runner) that is not handed explicit options.
 * `trace_tool --io=... --verify-crc=...` and `scenario_tool` set this
 * once at startup; the default is {Auto, Always}.
 */
ReaderOptions defaultReaderOptions();
void setDefaultReaderOptions(const ReaderOptions &opts);

/**
 * Sequential byte access to one trace file. The cursor starts at 0;
 * view(n) returns a pointer to the next n bytes and advances. All
 * bounds discipline is the caller's: view/skip preconditions are
 * checked against remaining() by TraceReader before each call, so
 * both implementations fail identically on truncated files.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Total file bytes, fixed at open. */
    uint64_t size() const { return fileBytes; }

    /** Current cursor offset. */
    uint64_t offset() const { return pos; }

    /** Bytes from the cursor to end of file. */
    uint64_t remaining() const { return fileBytes - pos; }

    /** Move the cursor. Precondition: off <= size(). */
    virtual void seek(uint64_t off) = 0;

    /** Advance the cursor without touching the bytes. */
    void skip(uint64_t n) { seek(pos + n); }

    /**
     * Return the next `n` bytes and advance. Precondition:
     * n <= remaining(). The pointer stays valid until the next
     * view()/seek() call (StreamSource reuses its buffer) or for the
     * source's lifetime (MmapSource points into the mapping).
     */
    virtual const uint8_t *view(size_t n) = 0;

    /** Transport name for stats output: "stream" or "mmap". */
    virtual const char *name() const = 0;

  protected:
    uint64_t fileBytes = 0;
    uint64_t pos = 0;
};

/**
 * Open `path` through the requested transport. TraceIo::Auto picks
 * mmap when available. Throws TraceFormatError when the file cannot
 * be opened, or when TraceIo::Mmap is requested on a platform (or
 * file) that cannot be mapped.
 */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path,
                                             TraceIo io);

} // namespace wcrt

#endif // WCRT_TRACEFILE_TRACE_SOURCE_HH
