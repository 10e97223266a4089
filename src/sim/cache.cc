#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace wcrt {

std::string
cacheGeometryError(uint64_t size_bytes, uint32_t assoc,
                   uint32_t line_bytes)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        return "line size must be a power of two, got " +
               std::to_string(line_bytes);
    if (assoc == 0)
        return "associativity must be >= 1";
    uint64_t lines = size_bytes / line_bytes;
    if (lines == 0 || lines % assoc != 0)
        return "size " + std::to_string(size_bytes) +
               " not divisible into " + std::to_string(assoc) +
               "-way sets of " + std::to_string(line_bytes) +
               "-byte lines";
    return "";
}

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    std::string err =
        cacheGeometryError(cfg.sizeBytes, cfg.assoc, cfg.lineBytes);
    if (!err.empty())
        wcrt_fatal("cache '", cfg.name, "': ", err);
    uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    nSets = static_cast<uint32_t>(lines / cfg.assoc);
    setsPow2 = std::has_single_bit(nSets);
    lineShift = static_cast<uint32_t>(std::countr_zero(cfg.lineBytes));
    ways.assign(static_cast<size_t>(nSets) * cfg.assoc, 0);
    valid.assign(nSets, 0);
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
    uint32_t set = setOfLine(line);
    uint64_t *base = &ways[static_cast<size_t>(set) * cfg.assoc];
    uint32_t &n = valid[set];
    if (base[0] == line && n != 0)
        return true;
    uint32_t w = 1;
    while (w < n && base[w] != line)
        ++w;
    bool hit = w < n;
    if (!hit)
        w = n < cfg.assoc ? n++ : n - 1;
    for (; w > 0; --w)
        base[w] = base[w - 1];
    base[0] = line;
    return hit;
}

void
Cache::invalidate()
{
    std::fill(valid.begin(), valid.end(), 0);
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
