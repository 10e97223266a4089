#include "loadgen/arrival.hh"

#include <cmath>

#include "base/logging.hh"

namespace wcrt {

const char *
toString(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::ClosedLoop:
        return "closed";
      case ArrivalKind::PoissonOpen:
        return "poisson";
      case ArrivalKind::TokenBucket:
        return "token-bucket";
    }
    return "?";
}

namespace {

/** Exponential draw with the given mean (ns), capped away from inf. */
uint64_t
exponentialNs(Rng &rng, double mean_ns)
{
    // 1 - nextDouble() is in (0, 1], so the log is finite.
    double gap = -std::log(1.0 - rng.nextDouble()) * mean_ns;
    return static_cast<uint64_t>(gap);
}

} // namespace

ArrivalProcess::ArrivalProcess(const ArrivalSpec &spec, uint64_t seed)
    : spec(spec), rng(seed)
{
    if (openLoop() && !(spec.ratePerActorHz > 0.0))
        wcrt_fatal("open-loop arrival needs a positive rate, got ",
                   spec.ratePerActorHz);
    if (spec.kind == ArrivalKind::TokenBucket && spec.burst < 1)
        wcrt_fatal("token bucket needs burst >= 1");
}

uint64_t
ArrivalProcess::nextScheduleNs()
{
    const double mean_gap_ns = 1e9 / spec.ratePerActorHz;
    switch (spec.kind) {
      case ArrivalKind::PoissonOpen:
        clockNs += exponentialNs(rng, mean_gap_ns);
        break;
      case ArrivalKind::TokenBucket: {
        // Bucket starts full with `burst` tokens and refills one
        // every mean gap: request i is eligible once i - burst + 1
        // refills have happened, and never earlier than its
        // predecessor. The first `burst` requests go out at t = 0.
        uint64_t refill =
            issued + 1 > spec.burst
                ? static_cast<uint64_t>(
                      (issued + 1 - spec.burst) * mean_gap_ns)
                : 0;
        if (refill > clockNs)
            clockNs = refill;
        break;
      }
      case ArrivalKind::ClosedLoop:
        wcrt_fatal("closed-loop arrival has no schedule");
    }
    ++issued;
    return clockNs;
}

} // namespace wcrt
