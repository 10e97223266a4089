/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * This is the workhorse behind Figures 4 and 6-9: a classic
 * tag-array-only model (no data storage) counting accesses and misses.
 * Writes allocate (write-allocate, write-back abstraction) so store
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
     * @param is_write Marks the line dirty (accounting only).
     * @return true on hit.
     */
    bool access(uint64_t addr, bool is_write = false);

    /**
     * Access by precomputed line id (`addr >> lineShiftBits()`).
     * Equivalent to access(line << lineShiftBits(), is_write); lets
     * batch sinks hoist the shift out of the per-rung loops.
     *
     * @return true on hit.
     */
    bool accessLine(uint64_t line, bool is_write = false);

    /**
     * Access a byte range, touching every line it spans.
     *
     * @return Number of missing lines (0 = full hit).
     */
    uint32_t accessRange(uint64_t addr, uint32_t bytes, bool is_write);

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
     * touched that set since). Skipping the recency update then
     * leaves the within-set LRU ordering — and thus all future
     * behaviour — identical; only the hit/access statistics need the
     * credit. See setIndex() for the boundary condition.
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

    /**
     * Set index @p addr maps to. LRU order is relative within one
     * set, so an external repeat filter may skip (and credit) a
     * guaranteed hit on a line that is still MRU of its set — which
     * holds exactly until another access or prefetch touches the same
     * set. This accessor lets callers detect that boundary.
     */
    uint32_t
    setIndex(uint64_t addr) const
    {
        return setOfLine(addr >> lineShift);
    }

    /** Set index for a precomputed line id. */
    uint32_t
    setOfLine(uint64_t line) const
    {
        return setsPow2 ? static_cast<uint32_t>(line & (nSets - 1))
                        : static_cast<uint32_t>(line % nSets);
    }

    /** log2(line size): addr >> lineShiftBits() is the line id. */
    uint32_t lineShiftBits() const { return lineShift; }

  private:
    /** Lookup/fill without statistics; @return true on hit. */
    bool touchLine(uint64_t line, bool is_write);

    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
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
