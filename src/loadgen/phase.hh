/**
 * @file
 * Phase declarations and results for the traffic engine.
 *
 * A load run is a sequence of phases (the genny Orchestrator idiom):
 * typically warmup -> steady -> spike -> drain. Each phase fixes its
 * per-actor request count up front — never a wall-clock duration — so
 * the op schedule of a run is a pure function of (specs, seed) and
 * the engine's outputs stay deterministic whatever the host speed or
 * worker interleaving. Time enters only through the recorded
 * latencies and the achieved-throughput summary.
 */

#ifndef WCRT_LOADGEN_PHASE_HH
#define WCRT_LOADGEN_PHASE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/arrival.hh"
#include "loadgen/histogram.hh"

namespace wcrt {

/** One declared phase of a load run. */
struct PhaseSpec
{
    std::string name;          //!< "warmup", "steady", "spike", ...
    uint64_t opsPerActor = 0;  //!< requests each actor issues
    ArrivalSpec arrival;       //!< when those requests start
    bool record = true;        //!< false: run but discard metrics
};

/** Convenience constructors for the common shapes. */
PhaseSpec warmupPhase(uint64_t ops_per_actor);
PhaseSpec closedPhase(std::string name, uint64_t ops_per_actor);
PhaseSpec poissonPhase(std::string name, uint64_t ops_per_actor,
                       double rate_per_actor_hz);
PhaseSpec tokenBucketPhase(std::string name, uint64_t ops_per_actor,
                           double rate_per_actor_hz, uint32_t burst);

/** Measured outcome of one phase, merged over all actors. */
struct PhaseStats
{
    std::string name;
    ArrivalKind arrival = ArrivalKind::ClosedLoop;
    uint64_t requests = 0;      //!< requests issued (all actors)
    uint64_t traceOps = 0;      //!< dynamic instructions emitted
    uint64_t elapsedNs = 0;     //!< wall time of the phase
    double offeredRateHz = 0;   //!< aggregate open-loop target (0=closed)
    LatencyHistogram latency;   //!< per-request latency, merged

    /** Aggregate achieved request throughput (requests / elapsed). */
    double achievedRateHz() const;
};

} // namespace wcrt

#endif // WCRT_LOADGEN_PHASE_HH
