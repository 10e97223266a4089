/**
 * @file
 * Shared per-block cache-line reference machinery for the capacity
 * sinks.
 *
 * Both miss-ratio paths — the rung-laddered FootprintSweep and the
 * single-pass StackDistanceProfile — consume the same three reference
 * streams (instruction, data, unified) and both want them as
 * run-length-compressed line ids rather than raw ops: consecutive
 * accesses to the same line are guaranteed MRU hits in any LRU cache
 * and distance-zero reuses in any stack profile, so only run heads
 * need real work. This module owns the block-level stage they share:
 * the one-pass address→line-id shift and run-length compression of
 * the three streams.
 */

#ifndef WCRT_SIM_LINE_RUNS_HH
#define WCRT_SIM_LINE_RUNS_HH

#include <cstdint>
#include <vector>

#include "trace/microop.hh"

namespace wcrt {

/**
 * One run-length-compressed reference: `count` back-to-back accesses
 * to `line`. Accesses 2..count re-touch the line while it is
 * necessarily still the most recently used line of the stream
 * (nothing intervened in this stream's access order), so every
 * consumer handles the head once and credits the tail — a guaranteed
 * hit in every cache rung, a distance-zero reuse in a stack profile.
 * Runs merge regardless of read/write sense.
 */
struct LineRun
{
    uint64_t line;
    uint32_t count;
};

/**
 * Per-block builder of the three RLE'd reference streams. Owns the
 * run vectors so a sink reuses one instance across blocks without
 * reallocating in steady state.
 */
class LineRunStreams
{
  public:
    /**
     * Rebuild the three streams from one block: instruction = every
     * op's pc line, data = the memory line of ops with an access,
     * unified = pc line then memory line per op (the exact order the
     * per-op path touches a unified cache).
     *
     * @param batch The block to compress.
     * @param line_shift log2(line size) for the address→line shift.
     */
    void build(const OpBlockView &batch, uint32_t line_shift);

    const std::vector<LineRun> &instr() const { return instrRuns; }
    const std::vector<LineRun> &data() const { return dataRuns; }
    const std::vector<LineRun> &unified() const { return uniRuns; }

    /** Stream by FootprintSweep's index convention (0/1/2 = i/d/u). */
    const std::vector<LineRun> &
    stream(size_t index) const
    {
        return index == 0 ? instrRuns : index == 1 ? dataRuns : uniRuns;
    }

  private:
    std::vector<LineRun> instrRuns;
    std::vector<LineRun> dataRuns;
    std::vector<LineRun> uniRuns;
};

} // namespace wcrt

#endif // WCRT_SIM_LINE_RUNS_HH
