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
Cache::access(uint64_t addr)
{
    return accessLine(addr >> lineShift);
}

bool
Cache::accessLine(uint64_t line)
{
    ++nAccesses;
    bool hit = touchLine(line);
    if (!hit)
        ++nMisses;
    return hit;
}

bool
Cache::prefetch(uint64_t addr)
{
    return touchLine(addr >> lineShift);
}

bool
Cache::touchLine(uint64_t line)
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
    return false;
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
