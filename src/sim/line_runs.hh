/**
 * @file
 * Per-block cache-line reference runs for the FootprintSweep oracle.
 *
 * The sweep consumes three reference streams (instruction, data,
 * unified) and walks each of its 3×K (rung, stream) caches over them.
 * It wants them as run-length-compressed line ids rather than raw
 * ops: consecutive accesses to the same line are guaranteed MRU hits
 * in any LRU cache, so only run heads need a tag walk. Building the
 * runs once per block amortizes the address→line-id shift and the
 * compression over all K rungs. (StackDistanceProfile does not use
 * them: it profiles one stack per stream, walks the block's columns
 * directly and catches back-to-back repeats with its own last-line
 * check.)
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
 * (nothing intervened in this stream's access order), so the sweep
 * walks the head once and credits the tail as a guaranteed hit in
 * every cache rung. Runs merge regardless of read/write sense.
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
