/**
 * @file
 * Single-pass miss-ratio curves via Mattson LRU stack distances.
 *
 * The capacity sweeps behind Figures 6-9 ask one question per rung:
 * how many accesses miss in an LRU cache of capacity C? For fully
 * associative LRU the answer for *every* C falls out of one pass over
 * the trace: an access hits a cache of C lines exactly when its stack
 * distance — the number of distinct lines touched since the previous
 * access to the same line — is below C (Mattson's inclusion
 * property). This sink maintains an LRU stack per reference stream
 * (instruction / data / unified) as an order-statistic structure — a
 * bitmap with one bit per last-access time slot, a Fenwick tree over
 * the popcounts of its 64-slot words, and an open-addressing
 * line→slot map — and counts a distance histogram in O(log(N/64))
 * tree steps per reference. A capacity ladder of any length is then
 * a histogram walk: K rungs cost one profile pass instead of K cache
 * simulations.
 *
 * A profile tracks either all three streams or, when built for one
 * SweepKind, only that one — a single-curve caller pays for one
 * stack, not three. The batch path walks the block's pc / address
 * columns straight into each tracked stream, on the calling thread;
 * a line repeated back-to-back is caught by the stream's last-line
 * check and counted as a distance-zero reuse without touching the
 * tree. Like every sink, the profile never fans out: parallel MRC
 * work runs as independent replays (tracefile/replay.hh), and
 * profiles of consecutive stretches of one stream merge exactly with
 * absorb().
 *
 * What this profile is *not*: a set-associative model. The conflict
 * misses an 8-way rung sees do not exist here — though the gap runs
 * both ways, since a loop slightly wider than the capacity thrashes
 * fully-associative LRU where an uneven set mapping retains lines.
 * The replay layer's Verify mode (tracefile/replay.hh) measures that
 * divergence against the set-associative FootprintSweep oracle, and the
 * fully-associative equivalence is enforced bit-exactly by tests.
 */

#ifndef WCRT_SIM_STACK_DISTANCE_HH
#define WCRT_SIM_STACK_DISTANCE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/footprint.hh"
#include "trace/microop.hh"

namespace wcrt {

/**
 * Reuse-distance profile sink: one pass, whole miss-ratio curve.
 */
class StackDistanceProfile : public TraceSink
{
  public:
    /**
     * Profile all three reference streams.
     *
     * @param line_bytes Cache-line size the distances are counted in
     *        (paper: 64; must be a power of two).
     * @param workers Ignored: every stream profiles on the calling
     *        thread. Kept only for source compatibility with existing
     *        callers.
     * @param initial_slots Starting capacity of the time-slot space
     *        (rounded up to a power of two of at least 64). The
     *        profile compacts and regrows the slot space as the clock
     *        fills it; the default is sized so steady-state traces
     *        rarely compact. Tests shrink it to exercise the
     *        compaction path.
     */
    explicit StackDistanceProfile(uint32_t line_bytes = 64,
                                  unsigned workers = 0,
                                  size_t initial_slots = 1 << 16);

    /**
     * Profile only the `only` stream, on the calling thread. Its
     * accessors reject every other kind (wcrt_fatal). Results for
     * `only` are bit-identical to the three-stream profile's.
     */
    explicit StackDistanceProfile(SweepKind only,
                                  uint32_t line_bytes = 64,
                                  size_t initial_slots = 1 << 16);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: each tracked stream walks the block's pc /
     * address columns in per-op order.
     */
    void consumeBatch(const OpBlockView &ops) override;

    /**
     * Miss ratios of a fully-associative LRU cache at each capacity,
     * straight from the distance histogram: an access with distance d
     * hits every capacity of more than d lines. Identical to running
     * FootprintSweep with assoc = capacity/line_bytes at each rung —
     * but every rung is a histogram walk, so arbitrary ladders cost
     * nothing extra.
     */
    std::vector<double> missRatios(
        SweepKind kind, const std::vector<uint32_t> &sizes_kb) const;

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

    /** Accesses counted into one stream's profile. */
    uint64_t accesses(SweepKind kind) const;

    /** Compulsory (first-touch) misses of one stream. */
    uint64_t coldMisses(SweepKind kind) const;

    /** Distinct lines one stream touched (its total footprint). */
    uint64_t distinctLines(SweepKind kind) const;

    /**
     * The raw distance histogram of one stream: histogram(k)[d] =
     * accesses whose stack distance was exactly d distinct lines.
     * Cold misses are not in the histogram (see coldMisses()).
     */
    const std::vector<uint64_t> &histogram(SweepKind kind) const;

    /**
     * Fold in the profile of the stretch of the stream that directly
     * follows this one, so the result is bit-identical to one profile
     * of both stretches — the sequential merge of PARDA (Niu et al.,
     * "PARDA: A Fast Parallel Reuse Distance Analysis Algorithm",
     * IPDPS'12). A reuse whose previous access lies inside `later`
     * already has its exact distance there. Each of `later`'s first
     * touches is replayed, in order, on this stack: its depth is its
     * exact distance across the boundary, and a line this stack lacks
     * is a cold miss of the whole stream. `later`'s lines are then
     * re-stacked in `later`'s own recency order, uncounted, and its
     * histogram, totals and instructions are added. The cost is about
     * two stack moves per distinct line of `later`. Fatal when the
     * two profiles track different streams or line sizes.
     */
    void absorb(const StackDistanceProfile &later);

  private:
    /**
     * One reference stream's LRU stack profile.
     *
     * The stack is represented positionally: every live line owns one
     * set bit in a bitmap indexed by its last-access time slot, so
     * "distinct lines touched since slot p" is a rank query. A
     * Fenwick tree over the popcounts of the bitmap's 64-slot words
     * answers the whole words before p; a masked popcount of p's own
     * word finishes it. The clock allocates slots monotonically; when
     * it reaches the slot capacity every live slot is renumbered to
     * its bitmap rank (compact()) — order-preserving, so every later
     * distance is unchanged — and the slot space regrows to keep at
     * least half free, which makes compaction amortized O(1) per
     * access.
     */
    struct Stream
    {
        /** Open-addressing key sentinel; line ids are addr >> shift. */
        static constexpr uint64_t kEmptyKey = ~0ull;
        /** lastLine sentinel distinct from any real line id. */
        static constexpr uint64_t kNoLine = ~0ull - 1;
        /** touch() result for a line the stack did not hold. */
        static constexpr uint64_t kFirstTouch = ~0ull;

        std::vector<uint64_t> keys;  //!< line ids, kEmptyKey = free
        std::vector<uint64_t> vals;  //!< last-access time slot
        size_t live = 0;             //!< distinct lines seen
        std::vector<uint64_t> bits;  //!< one bit per live time slot
        std::vector<uint64_t> wordTree;  //!< 1-based BIT of popcounts
        uint64_t clock = 0;          //!< next unused time slot
        size_t slotCap = 0;          //!< bitmap capacity (slots)
        std::vector<uint64_t> hist;  //!< hist[d] = reuses at distance d
        uint64_t cold = 0;           //!< first-touch misses
        uint64_t total = 0;          //!< accesses profiled
        uint64_t lastLine = kNoLine; //!< back-to-back repeat check
        std::vector<uint64_t> firsts;  //!< first-touched lines, in order

        void init(size_t slots);
        void access(uint64_t line);
        void absorb(const Stream &later);

      private:
        /**
         * Move `line` to the top of the stack and return its depth
         * before the move, or kFirstTouch when it was not on the
         * stack (it is pushed). Counts nothing.
         */
        uint64_t touch(uint64_t line);
        /** Count one access whose touch() returned `d`. */
        void count(uint64_t line, uint64_t d);
        void bump(uint64_t d);
        void wordAdd(size_t word, int64_t delta);
        uint64_t wordPrefix(size_t words) const;
        size_t probe(uint64_t line) const;
        void growMapIfNeeded();
        void compact();
    };

    /** Feed one block's `kind` references into `st`, in op order. */
    void walk(Stream &st, SweepKind kind, const OpBlockView &batch) const;

    const Stream &streamFor(SweepKind kind) const;

    //! Indexed by SweepKind; only [firstKind, endKind) are tracked.
    std::array<Stream, 3> streams;
    size_t firstKind = 0;
    size_t endKind = 3;
    uint32_t lineShift = 6;
    uint32_t lineBytes = 64;
    uint64_t ops = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_STACK_DISTANCE_HH
