/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * This is the workhorse behind Figures 4 and 6-9: a classic
 * tag-array-only model (no data storage) counting accesses and misses.
 * Loads and stores walk the tags alike (write-allocate), so store
 * misses appear in MPKI the way the paper's counters see them.
 */

#ifndef WCRT_SIM_CACHE_HH
#define WCRT_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wcrt {

/** Geometry and identity of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;
};

/**
 * Tag-only set-associative cache with true-LRU replacement.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line-aligned address.
     *
     * @param addr Byte address; the containing line is accessed.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /**
     * Access by precomputed line id (`addr >> lineShiftBits()`).
     * Equivalent to access(line << lineShiftBits()); lets batch sinks
     * hoist the shift out of the per-rung loops.
     *
     * @return true on hit.
     */
    bool accessLine(uint64_t line);

    /**
     * Install a line without touching the demand-access statistics
     * (hardware-prefetch fills).
     *
     * @return true when the line was already present.
     */
    bool prefetch(uint64_t addr);

    /**
     * Credit `n` accesses that are architecturally guaranteed hits
     * without walking the tag array: re-accesses of a line that is
     * still the MRU line *of its set* (no access or prefetch has
     * touched that set since). LRU order is relative within one set,
     * so skipping the recency update leaves the within-set ordering —
     * and thus all future behaviour — identical; only the hit/access
     * statistics need the credit.
     */
    void creditRepeatHits(uint64_t n) { nAccesses += n; }

    /** Drop all contents, keep statistics. */
    void invalidate();

    /** Reset statistics, keep contents. */
    void resetStats();

    const CacheConfig &config() const { return cfg; }
    uint64_t accesses() const { return nAccesses; }
    uint64_t misses() const { return nMisses; }

    /** Miss ratio in [0, 1]; 0 when never accessed. */
    double missRatio() const;

    /** Number of sets. */
    uint32_t sets() const { return nSets; }

    /** log2(line size): addr >> lineShiftBits() is the line id. */
    uint32_t lineShiftBits() const { return lineShift; }

  private:
    /** Lookup/fill without statistics; @return true on hit. */
    bool touchLine(uint64_t line);

    /** Set index for a line id. */
    uint32_t
    setOfLine(uint64_t line) const
    {
        return setsPow2 ? static_cast<uint32_t>(line & (nSets - 1))
                        : static_cast<uint32_t>(line % nSets);
    }

    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig cfg;
    uint32_t nSets;
    uint32_t lineShift;
    bool setsPow2 = true;
    std::vector<Way> ways;  //!< nSets * assoc, set-major
    uint64_t tick = 0;
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_CACHE_HH
