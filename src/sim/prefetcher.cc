#include "sim/prefetcher.hh"

#include <bit>

#include "base/logging.hh"

namespace wcrt {

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig &config)
    : cfg(config)
{
    if (cfg.streams == 0 || cfg.streams > table.size())
        wcrt_fatal("stream prefetcher supports 1..", table.size(),
                   " streams");
    if (cfg.lineBytes < 8 || !std::has_single_bit(cfg.lineBytes))
        wcrt_fatal("stream prefetcher line size must be a power of "
                   "two of at least 8 bytes, got ", cfg.lineBytes);
    // observe() sits on the simulation hot path; a shift beats the
    // integer division a runtime line size would otherwise cost.
    lineShift = static_cast<uint32_t>(std::countr_zero(cfg.lineBytes));
}

StreamPrefetcher::Advice
StreamPrefetcher::observe(uint64_t addr)
{
    Advice advice;
    if (!cfg.enabled)
        return advice;

    ++tick;
    uint64_t line = addr >> lineShift;

    // First match by index over the filled suffix: the same line
    // (d == 0) or the stream window, the next line or a small forward
    // jitter (d in 1..4).
    for (uint32_t i = cfg.streams - filled; i < cfg.streams; ++i) {
        Entry &e = table[i];
        uint64_t d = line - e.lastLine;
        if (d > 4)
            continue;
        e.lastUse = tick;
        if (d == 0)
            return advice;  // re-touching the line keeps the stream warm
        e.lastLine = line;
        if (e.confidence < 4)
            ++e.confidence;
        if (e.confidence >= 2) {
            if (e.confidence == 2)
                ++confirmed;
            ++coveredCount;
            advice.covered = true;
            advice.prefetchLines = cfg.degree;
            advice.prefetchFrom = (line + 1) << lineShift;
        }
        return advice;
    }

    // New potential stream: the last free entry, else the least
    // recently used one (live entries' ticks are all distinct).
    Entry *victim = &table[0];
    if (filled < cfg.streams)
        victim = &table[cfg.streams - 1 - filled++];
    else
        for (uint32_t i = 1; i < cfg.streams; ++i)
            if (table[i].lastUse < victim->lastUse)
                victim = &table[i];
    *victim = Entry{line, tick, 0};
    return advice;
}

} // namespace wcrt
