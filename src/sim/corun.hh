/**
 * @file
 * Co-run model: two workloads sharing the last-level cache.
 *
 * The paper's 45 metrics include off-core requests and snoop
 * responses, and its related work (Tang et al.) studies datacenter
 * resource sharing. This model makes both measurable: two recorded
 * `.wtrace` streams are replayed interleaved (proportionally to their
 * lengths) through private L1/L2 hierarchies into one shared L3. Each
 * lane decodes its trace one chunk at a time, so a co-run holds at
 * most one chunk of ops per lane whatever the traces' lengths. The
 * interesting outputs are each workload's solo-vs-co-run L3 MPKI (the
 * contention penalty) and the snoop traffic the sharing creates.
 */

#ifndef WCRT_SIM_CORUN_HH
#define WCRT_SIM_CORUN_HH

#include "sim/machine.hh"
#include "tracefile/trace_reader.hh"

namespace wcrt {

/** Per-workload co-run measurements. */
struct CoRunLane
{
    uint64_t instructions = 0;
    uint64_t l2Misses = 0;       //!< requests reaching the shared L3
    uint64_t l3MissesSolo = 0;   //!< with the L3 to itself
    uint64_t l3MissesShared = 0; //!< sharing the L3 with the co-runner

    double soloL3Mpki() const;
    double sharedL3Mpki() const;

    /** Shared / solo L3 MPKI (1.0 = no interference). */
    double degradation() const;
};

/** Result of one co-run experiment. */
struct CoRunResult
{
    CoRunLane a;
    CoRunLane b;
    uint64_t snoopHits = 0;  //!< shared-L3 hits on lines the other
                             //!< lane installed (cross-lane reuse)
};

/**
 * Replay two recorded traces through private L1/L2 and a shared L3.
 * Each lane replays its own copy of the reader, so the callers'
 * readers are left as they were. Throws TraceFormatError on a corrupt
 * chunk.
 *
 * @param machine Geometry for the private levels and the shared L3.
 * @param a First workload's trace.
 * @param b Second workload's trace.
 */
CoRunResult coRun(const MachineConfig &machine, const TraceReader &a,
                  const TraceReader &b);

} // namespace wcrt

#endif // WCRT_SIM_CORUN_HH
