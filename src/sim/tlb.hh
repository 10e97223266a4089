/**
 * @file
 * TLB model built on the set-associative tag array.
 *
 * A TLB is a cache of page translations, so the model reuses the Cache
 * machinery with one "line" per page. Figures 5's ITLB/DTLB MPKI come
 * from these counters.
 */

#ifndef WCRT_SIM_TLB_HH
#define WCRT_SIM_TLB_HH

#include <string>

#include "sim/cache.hh"

namespace wcrt {

/** TLB geometry. */
struct TlbConfig
{
    std::string name = "tlb";
    uint32_t entries = 64;
    uint32_t assoc = 4;
    uint32_t pageBytes = 4096;
};

/**
 * Set-associative TLB with LRU replacement.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Translate one address; @return true on TLB hit. */
    bool access(uint64_t addr);

    /** Credit guaranteed same-page repeat hits (see Cache). */
    void creditRepeatHits(uint64_t n) { tags.creditRepeatHits(n); }

    uint64_t accesses() const { return tags.accesses(); }
    uint64_t misses() const { return tags.misses(); }
    double missRatio() const { return tags.missRatio(); }
    void resetStats() { tags.resetStats(); }
    const TlbConfig &config() const { return cfg; }

  private:
    TlbConfig cfg;
    Cache tags;
};

} // namespace wcrt

#endif // WCRT_SIM_TLB_HH
