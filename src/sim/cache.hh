/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * This is the workhorse behind Figures 4 and 6-9: a classic
 * tag-array-only model (no data storage) counting accesses and misses.
 * Loads and stores walk the tags alike (write-allocate), so store
 * misses appear in MPKI the way the paper's counters see them.
 *
 * Each way holds a full 8-byte line id (the tag). A set keeps its
 * valid lines in recency order, MRU first, and a per-set count of
 * valid ways, so no line id (not even ~0 at 1-byte lines) can pass
 * for an empty way. A hit moves its line to the front and a miss
 * drops the last way of a full set: no timestamps, no victim search,
 * and re-touching the MRU line is one compare. This is exact true
 * LRU, because unique timestamps order a set's lines the same way and
 * empty ways fill first in both.
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
 * The geometry rule every cache model shares: why `size_bytes` cannot
 * be cut into `assoc`-way sets of `line_bytes`-byte lines, or "" when
 * it can. Lines must be a power of two bytes, sets at least one way
 * and the capacity a nonzero whole number of sets. A one-line,
 * one-way geometry puts the line size alone in question.
 */
std::string cacheGeometryError(uint64_t size_bytes, uint32_t assoc,
                               uint32_t line_bytes);

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
     * Credit `n` guaranteed hits without walking the tags: re-accesses
     * of a line still MRU of its set (nothing has touched that set
     * since). Touching it would change no state, only the statistics.
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

    /** Set index of a line id; modulo for non-power-of-two counts. */
    uint32_t
    setOfLine(uint64_t line) const
    {
        return setsPow2 ? static_cast<uint32_t>(line & (nSets - 1))
                        : static_cast<uint32_t>(line % nSets);
    }

    CacheConfig cfg;
    uint32_t nSets;
    uint32_t lineShift;
    bool setsPow2 = true;
    std::vector<uint64_t> ways;   //!< nSets * assoc line ids, MRU first
    std::vector<uint32_t> valid;  //!< valid ways per set
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_CACHE_HH
