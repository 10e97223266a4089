#include "sim/tlb.hh"

namespace wcrt {

namespace {

CacheConfig
toCacheConfig(const TlbConfig &cfg)
{
    CacheConfig c;
    c.name = cfg.name;
    c.sizeBytes = static_cast<uint64_t>(cfg.entries) * cfg.pageBytes;
    c.assoc = cfg.assoc;
    c.lineBytes = cfg.pageBytes;
    return c;
}

} // namespace

Tlb::Tlb(const TlbConfig &config) : cfg(config), tags(toCacheConfig(config))
{
}

bool
Tlb::access(uint64_t addr)
{
    return tags.access(addr);
}

} // namespace wcrt
