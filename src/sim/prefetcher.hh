/**
 * @file
 * Stream prefetcher model (the E5645's DCU/stream prefetchers).
 *
 * Big data workloads stream large inputs sequentially; without a
 * prefetch model every streamed line would charge a full memory
 * latency, which no 2010s core pays. The detector tracks per-page
 * forward streams; once a stream is confirmed it reports subsequent
 * line-sequential accesses as covered and tells the owner how far
 * ahead to fill the outer levels.
 */

#ifndef WCRT_SIM_PREFETCHER_HH
#define WCRT_SIM_PREFETCHER_HH

#include <array>
#include <cstdint>

namespace wcrt {

/** Prefetcher tunables. */
struct PrefetcherConfig
{
    bool enabled = true;
    uint32_t streams = 16;   //!< tracked concurrent streams (<= 32)
    uint32_t degree = 4;     //!< lines fetched ahead once confirmed
    uint32_t lineBytes = 64;
};

/**
 * Reference-pattern detector for forward streams. observe() costs one
 * subtract-and-compare per live entry, exact by three invariants. The
 * window is `lastLine + 1 .. lastLine + 4`, so "same line or in the
 * window" is `line - lastLine <= 4` unsigned. Entries never empty and
 * a miss fills the last free one, so the live entries are the suffix
 * `[streams - filled, streams)`. LRU state is read only on a miss, so
 * the victim search runs only then. Lines of at least 8 bytes keep
 * line ids below 2^61, so `lastLine + 4` never wraps.
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const PrefetcherConfig &config = {});

    /** Result of observing one demand access. */
    struct Advice
    {
        bool covered = false;       //!< line was inside a live stream
        uint32_t prefetchLines = 0; //!< lines to fill ahead
        uint64_t prefetchFrom = 0;  //!< first byte address to fill
    };

    /** Observe a demand data access and advise. */
    Advice observe(uint64_t addr);

    /** Streams confirmed so far (diagnostics). */
    uint64_t streamsConfirmed() const { return confirmed; }

    /** Accesses reported covered (diagnostics). */
    uint64_t coveredAccesses() const { return coveredCount; }

  private:
    struct Entry
    {
        uint64_t lastLine = 0;
        uint64_t lastUse = 0;
        uint8_t confidence = 0;
    };

    PrefetcherConfig cfg;
    uint32_t lineShift;  //!< log2(cfg.lineBytes); observe() is hot
    std::array<Entry, 32> table;
    uint32_t filled = 0;  //!< live entries, the table's suffix
    uint64_t tick = 0;
    uint64_t confirmed = 0;
    uint64_t coveredCount = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_PREFETCHER_HH
