/**
 * @file
 * Arrival processes for the traffic engine: when each request of a
 * phase is supposed to start.
 *
 * Three processes cover the load-generation literature's standard
 * shapes (and genny's PhaseLoop rate controls):
 *
 *  - Closed loop: an actor issues the next request as soon as the
 *    previous one completed. Offered load adapts to service capacity,
 *    so a closed loop measures peak throughput, not queueing.
 *  - Open loop (Poisson): request i is due at a pre-drawn absolute
 *    offset from phase start, with exponential inter-arrival gaps.
 *    The schedule does not care how long service takes; latency is
 *    measured from the *scheduled* start, so queueing delay from an
 *    overloaded server accumulates into the tail percentiles instead
 *    of being coordinated-omission'd away.
 *  - Token bucket: open-loop arrivals clamped to a sustained rate
 *    with a configurable burst allowance — the shape produced by a
 *    rate limiter in front of a service.
 *
 * Every process is seeded and consumes its own Rng, so the schedule
 * for (spec, seed) is one deterministic sequence regardless of how
 * many actors run concurrently or how fast the host is.
 */

#ifndef WCRT_LOADGEN_ARRIVAL_HH
#define WCRT_LOADGEN_ARRIVAL_HH

#include <cstdint>

#include "base/rng.hh"

namespace wcrt {

/** The supported arrival shapes. */
enum class ArrivalKind : uint8_t {
    ClosedLoop,   //!< next op right after previous completion
    PoissonOpen,  //!< exponential inter-arrival gaps at a fixed rate
    TokenBucket,  //!< rate-limited open loop with burst capacity
};

/** Human-readable arrival-kind name. */
const char *toString(ArrivalKind k);

/** Declarative arrival configuration for one phase. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::ClosedLoop;
    double ratePerActorHz = 0.0;  //!< open-loop ops/sec per actor
    uint32_t burst = 1;           //!< token-bucket depth (>= 1)
};

/**
 * Stateful per-actor schedule generator. One instance per
 * (actor, phase); equal (spec, seed) pairs yield equal sequences.
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalSpec &spec, uint64_t seed);

    /** True for the open shapes (scheduled starts); false for closed. */
    bool openLoop() const { return spec.kind != ArrivalKind::ClosedLoop; }

    /**
     * Open-loop only: scheduled start of the next request as a
     * nanosecond offset from phase start. Monotonically non-decreasing.
     */
    uint64_t nextScheduleNs();

  private:
    ArrivalSpec spec;
    Rng rng;
    uint64_t clockNs = 0;   //!< last scheduled offset
    uint64_t issued = 0;    //!< requests scheduled so far
};

} // namespace wcrt

#endif // WCRT_LOADGEN_ARRIVAL_HH
