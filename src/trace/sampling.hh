/**
 * @file
 * Segment sampling — the paper's Section 5.4 simulation methodology.
 *
 * MARSSx86 is too slow to execute whole Hadoop jobs, so the paper
 * simulates five 1% execution windows (map 0-1%, map 50-51%, map
 * 99-100%, reduce 0-1%, reduce 99-100%) and weights the results. This
 * sink reproduces that: it forwards only the ops falling inside the
 * configured windows (positions are fractions of an expected total),
 * letting capacity sweeps run at a fraction of the cost. The expected
 * length comes from a cheap counting pre-pass.
 */

#ifndef WCRT_TRACE_SAMPLING_HH
#define WCRT_TRACE_SAMPLING_HH

#include <cstdint>
#include <vector>

#include "trace/microop.hh"

namespace wcrt {

/** One sampling window, as fractions of the whole run. */
struct SampleWindow
{
    double begin = 0.0;  //!< inclusive, in [0, 1)
    double end = 0.0;    //!< exclusive, in (0, 1]
};

/** The paper's five windows (1% at the edges and middle of phases). */
std::vector<SampleWindow> paperSampleWindows();

/**
 * Sink forwarding only the ops inside the sample windows.
 */
class SamplingSink : public TraceSink
{
  public:
    /**
     * @param downstream Receives the sampled ops (not owned).
     * @param expected_ops Anticipated total trace length (from a
     *        counting pre-pass); window positions are scaled by it.
     * @param windows Sampling windows; must be disjoint and sorted.
     */
    SamplingSink(TraceSink &downstream, uint64_t expected_ops,
                 std::vector<SampleWindow> windows =
                     paperSampleWindows());

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: forwards each contiguous in-window slice of
     * the block downstream in one consumeBatch call, skipping
     * out-of-window stretches without touching the ops at all.
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** Ops seen in total. */
    uint64_t totalOps() const { return seen; }

    /** Ops forwarded downstream. */
    uint64_t sampledOps() const { return forwarded; }

    /** Fraction of the trace forwarded. */
    double sampledFraction() const;

  private:
    TraceSink &downstream;
    std::vector<std::pair<uint64_t, uint64_t>> ranges;  //!< op indices
    uint64_t seen = 0;
    uint64_t forwarded = 0;
    size_t cursor = 0;
};

/** Sink that only counts ops (the cheap pre-pass). */
class CountingSink : public TraceSink
{
  public:
    void consume(const MicroOp &) override { ++count; }

    void
    consumeBatch(const OpBlockView &ops) override
    {
        count += ops.count;
    }

    uint64_t ops() const { return count; }

  private:
    uint64_t count = 0;
};

} // namespace wcrt

#endif // WCRT_TRACE_SAMPLING_HH
