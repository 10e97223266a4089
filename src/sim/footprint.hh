/**
 * @file
 * Cache-capacity sweep: the MARSSx86 experiment of Section 5.4.
 *
 * One trace pass drives a ladder of cache instances (16 KB ... 8 MB,
 * 8-way, 64-byte lines, like the paper's simulator configuration) for
 * one reference stream: the instruction side, the data side or a
 * unified view, as each of Figures 6-9 sweeps one. The resulting
 * miss-ratio-vs-capacity curve exposes the workload's footprint in
 * that stream: the capacity where the curve flattens is the
 * working-set size.
 *
 * The sweep is the set-associative reference oracle behind
 * `--mrc-mode=oracle|verify`; the default MRC path is the single-pass
 * stack-distance profile (sim/stack_distance.hh). It is kept plain on
 * purpose: each block is shifted to line ids and run-length compressed
 * once — consecutive accesses to one line are guaranteed MRU hits in
 * every rung, so only run heads walk a tag array and each tail is
 * credited as hits — and each rung's cache then walks the runs on the
 * calling thread. Miss and access counts stay bit-identical to the
 * per-op path. A caller wanting several streams tees one sweep per
 * stream; parallelism lives in the replay runners, never in a sink.
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
 * Multi-capacity cache sweep sink over one reference stream.
 */
class FootprintSweep : public TraceSink
{
  public:
    /**
     * @param kind Reference stream to sweep.
     * @param sizes_kb Cache capacities to ladder (ascending).
     * @param assoc Associativity of every rung (paper: 8).
     * @param line_bytes Line size (paper: 64).
     */
    FootprintSweep(SweepKind kind, std::vector<uint32_t> sizes_kb,
                   uint32_t assoc = 8, uint32_t line_bytes = 64);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: run-length compresses the block's `kind`
     * references once, then walks every rung's cache over the run
     * heads and credits each run's tail via Cache::creditRepeatHits().
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** The stream this sweep measures. */
    SweepKind kind() const { return stream; }

    /** The capacities swept, in KB. */
    const std::vector<uint32_t> &sizesKb() const { return sizes; }

    /** Miss ratio at each capacity, indexed like sizesKb(). */
    std::vector<double> missRatios() const;

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

  private:
    /**
     * `count` back-to-back accesses to `line` in the stream: accesses
     * 2..count re-touch the stream's most recently used line, so they
     * hit in every rung whatever their read/write sense.
     */
    struct LineRun
    {
        uint64_t line;
        uint32_t count;
    };

    /** Append one reference to the block's run buffer. */
    void extend(uint64_t line);

    SweepKind stream;
    std::vector<uint32_t> sizes;
    std::vector<Cache> caches;  //!< one per rung, indexed like sizes
    std::vector<LineRun> runs;  //!< one block's runs, reused
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
