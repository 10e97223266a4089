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
 * Fenwick tree over last-access time slots plus an open-addressing
 * line→slot map — and counts a distance histogram in O(log N) per
 * distinct-line reference. A capacity ladder of any length is then a
 * histogram walk: K rungs cost one profile pass instead of K cache
 * simulations.
 *
 * The batch path reuses the block machinery it shares with the
 * FootprintSweep oracle (sim/line_runs.hh): each stream is shifted to
 * line ids and run-length compressed once, so only run heads reach the
 * tree — the count-1 tail of a run is a guaranteed distance-zero
 * reuse. The three streams are independent (separate stacks, maps and
 * histograms), so with a worker cap above 1 they profile in parallel
 * on the shared pool, bit-identical to the serial order.
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

#include <cstdint>
#include <vector>

#include "sim/footprint.hh"
#include "sim/line_runs.hh"
#include "trace/microop.hh"

namespace wcrt {

/**
 * Reuse-distance profile sink: one pass, whole miss-ratio curve.
 */
class StackDistanceProfile : public TraceSink
{
  public:
    /**
     * @param line_bytes Cache-line size the distances are counted in
     *        (paper: 64; must be a power of two).
     * @param workers Executor cap for the per-stream fan-out on the
     *        shared worker pool; 0 or 1 profiles all three streams on
     *        the calling thread (bit-identical either way).
     * @param initial_slots Starting capacity of the time-slot space
     *        (power of two). The profile compacts and regrows the
     *        slot space as the clock fills it; the default is sized
     *        so steady-state traces rarely compact. Tests shrink it
     *        to exercise the compaction path.
     */
    explicit StackDistanceProfile(uint32_t line_bytes = 64,
                                  unsigned workers = 0,
                                  size_t initial_slots = 1 << 16);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: one line-id + RLE pass per block (shared
     * with FootprintSweep), then each stream's run heads walk
     * that stream's stack tree — in parallel across the three streams
     * when a worker cap was given.
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

  private:
    /**
     * One reference stream's LRU stack profile.
     *
     * The stack is represented positionally: every live line owns one
     * set bit in a Fenwick tree indexed by its last-access time slot,
     * so "distinct lines touched since slot t" is a rank query
     * (live - prefix(t)) in O(log slots). The clock allocates slots
     * monotonically; when it reaches the slot capacity the live slots
     * are renumbered densely (compact()) — order-preserving, so every
     * later distance is unchanged — and the slot space regrows to
     * keep at least half free, which makes compaction amortized
     * O(log) per access.
     */
    struct Stream
    {
        /** Open-addressing key sentinel; line ids are addr >> shift. */
        static constexpr uint64_t kEmptyKey = ~0ull;
        /** lastLine sentinel distinct from any real line id. */
        static constexpr uint64_t kNoLine = ~0ull - 1;

        std::vector<uint64_t> keys;  //!< line ids, kEmptyKey = free
        std::vector<uint64_t> vals;  //!< last-access time slot
        size_t live = 0;             //!< distinct lines seen
        std::vector<uint64_t> fenwick;  //!< 1-based BIT over slots
        uint64_t clock = 0;          //!< next unused time slot
        size_t slotCap = 0;          //!< fenwick capacity (slots)
        std::vector<uint64_t> hist;  //!< hist[d] = reuses at distance d
        uint64_t cold = 0;           //!< first-touch misses
        uint64_t total = 0;          //!< accesses profiled
        uint64_t lastLine = kNoLine; //!< merges runs across blocks

        void init(size_t slots);
        void access(uint64_t line, uint32_t count);

      private:
        void bump(uint64_t d, uint64_t n);
        void fenAdd(size_t slot, int64_t delta);
        uint64_t fenPrefix(size_t slot) const;
        size_t probe(uint64_t line) const;
        void growMapIfNeeded();
        void compact();
    };

    const Stream &streamFor(SweepKind kind) const;

    Stream instrStream;
    Stream dataStream;
    Stream uniStream;
    LineRunStreams runs;  //!< per-block RLE scratch
    uint32_t lineShift = 6;
    uint32_t lineBytes = 64;
    unsigned poolCap = 0;  //!< executor cap on the shared pool
    uint64_t ops = 0;
};

} // namespace wcrt

#endif // WCRT_SIM_STACK_DISTANCE_HH
