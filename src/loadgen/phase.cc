#include "loadgen/phase.hh"

namespace wcrt {

PhaseSpec
warmupPhase(uint64_t ops_per_actor)
{
    PhaseSpec p;
    p.name = "warmup";
    p.opsPerActor = ops_per_actor;
    p.record = false;
    return p;
}

PhaseSpec
closedPhase(std::string name, uint64_t ops_per_actor)
{
    PhaseSpec p;
    p.name = std::move(name);
    p.opsPerActor = ops_per_actor;
    p.arrival.kind = ArrivalKind::ClosedLoop;
    return p;
}

PhaseSpec
poissonPhase(std::string name, uint64_t ops_per_actor,
             double rate_per_actor_hz)
{
    PhaseSpec p;
    p.name = std::move(name);
    p.opsPerActor = ops_per_actor;
    p.arrival.kind = ArrivalKind::PoissonOpen;
    p.arrival.ratePerActorHz = rate_per_actor_hz;
    return p;
}

PhaseSpec
tokenBucketPhase(std::string name, uint64_t ops_per_actor,
                 double rate_per_actor_hz, uint32_t burst)
{
    PhaseSpec p;
    p.name = std::move(name);
    p.opsPerActor = ops_per_actor;
    p.arrival.kind = ArrivalKind::TokenBucket;
    p.arrival.ratePerActorHz = rate_per_actor_hz;
    p.arrival.burst = burst;
    return p;
}

double
PhaseStats::achievedRateHz() const
{
    if (elapsedNs == 0)
        return 0.0;
    return static_cast<double>(requests) * 1e9 /
           static_cast<double>(elapsedNs);
}

} // namespace wcrt
