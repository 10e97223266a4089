/**
 * @file
 * Cache-capacity sweep: the MARSSx86 experiment of Section 5.4.
 *
 * One trace pass drives a ladder of cache instances (16 KB ... 8 MB,
 * 8-way, 64-byte lines, like the paper's simulator configuration) for
 * the instruction side, the data side and a unified view. The
 * resulting miss-ratio-vs-capacity curves expose each workload's
 * instruction and data footprint: the capacity where the curve
 * flattens is the working-set size.
 *
 * The sweep is the set-associative reference oracle behind
 * `--mrc-mode=oracle|verify`; the default MRC path is the single-pass
 * stack-distance profile (sim/stack_distance.hh). It is kept plain on
 * purpose: each block is shifted to line ids and run-length compressed
 * once per stream — consecutive accesses to one line are guaranteed
 * MRU hits in every rung, so only run heads walk a tag array and each
 * tail is credited as hits — and each of the 3 x K (rung, stream)
 * caches is then walked whole, as one task on the process-wide
 * WorkerPool::shared() when a worker cap above 1 is given. Miss and
 * access counts stay bit-identical to the per-op path.
 */

#ifndef WCRT_SIM_FOOTPRINT_HH
#define WCRT_SIM_FOOTPRINT_HH

#include <optional>
#include <vector>

#include "sim/cache.hh"
#include "trace/microop.hh"

namespace wcrt {

/** Which reference stream a sweep curve describes. */
enum class SweepKind : uint8_t { Instruction, Data, Unified };

/**
 * Multi-capacity cache sweep sink.
 */
class FootprintSweep : public TraceSink
{
  public:
    /**
     * @param sizes_kb Cache capacities to ladder (ascending).
     * @param assoc Associativity of every rung (paper: 8).
     * @param line_bytes Line size (paper: 64).
     * @param workers Executor cap for the batch path on the shared
     *        worker pool (the consuming thread participates); 0 or 1
     *        runs every walk on the calling thread (bit-identical
     *        either way).
     */
    explicit FootprintSweep(std::vector<uint32_t> sizes_kb,
                            uint32_t assoc = 8,
                            uint32_t line_bytes = 64,
                            unsigned workers = 0);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: run-length compresses the block's three
     * reference streams once, then walks every (rung, stream) cache
     * over the run heads and credits each run's tail via
     * Cache::creditRepeatHits(). With a worker cap above 1 the whole-
     * cache walks run in parallel on the shared pool.
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** The capacities swept, in KB. */
    const std::vector<uint32_t> &sizesKb() const { return sizes; }

    /** Miss ratio at each capacity for one stream kind. */
    std::vector<double> missRatios(SweepKind kind) const;

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

  private:
    /**
     * `count` back-to-back accesses to `line` in one stream: accesses
     * 2..count re-touch the stream's most recently used line, so they
     * hit in every rung whatever their read/write sense.
     */
    struct LineRun
    {
        uint64_t line;
        uint32_t count;
    };

    std::vector<uint32_t> sizes;
    std::vector<Cache> icaches;
    std::vector<Cache> dcaches;
    std::vector<Cache> ucaches;
    unsigned poolCap = 0;  //!< executor cap on the shared pool
    //! One block's instruction / data / unified runs (the walk's stream
    //! index 0 / 1 / 2), reused across blocks.
    std::vector<LineRun> runs[3];
    uint32_t lineShift = 6;
    uint64_t ops = 0;
};

/** The paper's capacity ladder: 16 KB to 8192 KB, doubling. */
std::vector<uint32_t> paperSweepSizesKb();

/**
 * Capacity where a miss-ratio curve flattens — the working-set
 * (footprint) estimate the Figure 6-9 analyses quote. The knee is the
 * first capacity whose miss ratio is within 15% of the largest
 * capacity's floor (compulsory misses remain at any size, so the
 * floor is not zero).
 *
 * The final rung trivially matches its own floor, so it can never be
 * a knee: a curve that is still falling steeply into the last rung
 * has its knee *beyond* the ladder, and this returns nullopt rather
 * than masquerading the ladder's end as a measurement. Callers print
 * ">LAST KB" for that case.
 *
 * @param curve Miss ratios, one per capacity (indexed like sizes_kb).
 * @param sizes_kb Ascending capacity ladder.
 * @return The knee capacity in KB, or nullopt when the curve has not
 *         flattened within the ladder.
 */
std::optional<uint32_t> kneeCapacityKb(
    const std::vector<double> &curve,
    const std::vector<uint32_t> &sizes_kb);

} // namespace wcrt

#endif // WCRT_SIM_FOOTPRINT_HH
