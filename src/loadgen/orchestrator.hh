/**
 * @file
 * The traffic orchestrator: N actors stepped through declared phases
 * against one traffic target, with latency percentiles per phase.
 *
 * Concurrency model: actors are not threads. Each phase is one
 * parallelFor() (base/worker_pool.hh) with one job per actor, so actor
 * execution shares the same pool (and the same --jobs cap
 * resolution) as every replay path in the toolkit — no ad-hoc
 * std::thread anywhere. Phase transitions are barriers: the
 * orchestrator returns from the phase's parallelFor (having helped
 * execute actors itself), merges the per-actor histograms, and only
 * then starts the next phase, so no actor can run phase p+1 work
 * while any actor is still inside phase p.
 *
 * Determinism: phases declare per-actor request *counts*, request
 * content comes from per-actor seeded Rng streams, and arrival
 * schedules are drawn from separate per-(actor, phase) seeded
 * streams. The set of requests issued — and the op stream each
 * session emits — is therefore a pure function of (target, phases,
 * config.seed), identical at jobs=1 and jobs=N; only the recorded
 * wall-clock latencies vary with the host.
 */

#ifndef WCRT_LOADGEN_ORCHESTRATOR_HH
#define WCRT_LOADGEN_ORCHESTRATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/actor.hh"
#include "loadgen/phase.hh"
#include "trace/microop.hh"

namespace wcrt {

/** Engine-level knobs of one load run. */
struct OrchestratorConfig
{
    unsigned actors = 1;     //!< concurrent sessions
    unsigned jobs = 0;       //!< executor cap (0 = hardware threads)
    uint64_t seed = 1;       //!< root seed for every derived stream
    /**
     * Where actor 0's op stream (across all phases) goes, or nullptr
     * to only count it. A TraceWriter here records the stream for
     * co-run interference studies against another workload's trace
     * via sim/corun. Not owned; it must outlive run().
     */
    TraceSink *actor0Sink = nullptr;
};

/** Everything one load run produced. */
struct TrafficResult
{
    std::string target;
    unsigned actors = 0;
    std::vector<PhaseStats> phases;  //!< recorded phases only
    uint64_t totalRequests = 0;      //!< including unrecorded phases
    uint64_t totalTraceOps = 0;      //!< emitted by all sessions
};

/**
 * Steps actors through phases; one instance per load run.
 */
class Orchestrator
{
  public:
    Orchestrator(TrafficTarget &target, std::vector<PhaseSpec> phases,
                 OrchestratorConfig config = {});

    /** Execute every phase in order and return the merged result. */
    TrafficResult run();

  private:
    void runActorPhase(ActorState &actor, const PhaseSpec &phase,
                       size_t phase_index);

    TrafficTarget &target;
    std::vector<PhaseSpec> phases;
    OrchestratorConfig cfg;
    std::vector<ActorState> actors;
    bool ran = false;
};

} // namespace wcrt

#endif // WCRT_LOADGEN_ORCHESTRATOR_HH
