#include "sim/cache.hh"

#include <bit>

#include "base/logging.hh"

namespace wcrt {

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    if (cfg.lineBytes == 0 || !std::has_single_bit(cfg.lineBytes))
        wcrt_fatal("cache '", cfg.name, "': line size must be a power "
                   "of two, got ", cfg.lineBytes);
    if (cfg.assoc == 0)
        wcrt_fatal("cache '", cfg.name, "': associativity must be >= 1");
    uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines == 0 || lines % cfg.assoc != 0)
        wcrt_fatal("cache '", cfg.name, "': size ", cfg.sizeBytes,
                   " not divisible into ", cfg.assoc, "-way sets of ",
                   cfg.lineBytes, "-byte lines");
    nSets = static_cast<uint32_t>(lines / cfg.assoc);
    setsPow2 = std::has_single_bit(nSets);
    lineShift = static_cast<uint32_t>(std::countr_zero(cfg.lineBytes));
    ways.assign(static_cast<size_t>(nSets) * cfg.assoc, Way{});
}

bool
Cache::access(uint64_t addr, bool is_write)
{
    return accessLine(addr >> lineShift, is_write);
}

bool
Cache::accessLine(uint64_t line, bool is_write)
{
    ++nAccesses;
    bool hit = touchLine(line, is_write);
    if (!hit)
        ++nMisses;
    return hit;
}

bool
Cache::prefetch(uint64_t addr)
{
    return touchLine(addr >> lineShift, false);
}

bool
Cache::touchLine(uint64_t line, bool is_write)
{
    ++tick;
    // Non-power-of-two set counts (e.g. the E5645's 12288-set L3) use
    // modulo indexing (see setOfLine); the full line id is the tag.
    uint32_t set = setOfLine(line);
    uint64_t tag = line;
    Way *base = &ways[static_cast<size_t>(set) * cfg.assoc];

    Way *victim = base;
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = tick;
            way.dirty = way.dirty || is_write;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick;
    victim->dirty = is_write;
    return false;
}

uint32_t
Cache::accessRange(uint64_t addr, uint32_t bytes, bool is_write)
{
    if (bytes == 0)
        bytes = 1;
    uint64_t first = addr >> lineShift;
    uint64_t last = (addr + bytes - 1) >> lineShift;
    uint32_t missing = 0;
    for (uint64_t line = first; line <= last; ++line) {
        if (!access(line << lineShift, is_write))
            ++missing;
    }
    return missing;
}

void
Cache::invalidate()
{
    for (auto &w : ways)
        w = Way{};
}

void
Cache::resetStats()
{
    nAccesses = 0;
    nMisses = 0;
}

double
Cache::missRatio() const
{
    return nAccesses
               ? static_cast<double>(nMisses) /
                     static_cast<double>(nAccesses)
               : 0.0;
}

} // namespace wcrt
