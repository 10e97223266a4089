#include "loadgen/orchestrator.hh"

#include <chrono>
#include <thread>

#include "base/logging.hh"
#include "base/worker_pool.hh"

namespace wcrt {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t
nsSince(SteadyClock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - t0)
            .count());
}

/**
 * Wait until `deadline_ns` after `t0`. Sleeps for the bulk of a long
 * wait and yields across the remainder — open-loop schedules need
 * starts near the intended instant without burning a core on a pure
 * spin (actors share the pool with the service they are loading).
 * The sleep slack is generous: containerized hosts routinely overrun
 * sleep_for by multiple milliseconds, and an open-loop actor that
 * oversleeps every gap runs the whole phase behind schedule, so waits
 * below the slack are served by yielding alone.
 */
void
waitUntil(SteadyClock::time_point t0, uint64_t deadline_ns)
{
    constexpr uint64_t kSleepSlackNs = 5 * 1000 * 1000;
    uint64_t now = nsSince(t0);
    if (now + kSleepSlackNs < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            deadline_ns - now - kSleepSlackNs));
    }
    while (nsSince(t0) < deadline_ns)
        std::this_thread::yield();
}

} // namespace

Orchestrator::Orchestrator(TrafficTarget &target,
                           std::vector<PhaseSpec> phases,
                           OrchestratorConfig config)
    : target(target), phases(std::move(phases)), cfg(config)
{
    if (cfg.actors == 0)
        wcrt_fatal("orchestrator needs at least one actor");
    // Derive every per-actor stream from the root seed up front, on
    // this thread, so actor count — not scheduling — decides the
    // streams. Request and arrival streams are split separately:
    // arrival draws must never perturb request content.
    Rng root(cfg.seed);
    actors.resize(cfg.actors);
    for (unsigned a = 0; a < cfg.actors; ++a) {
        ActorState &st = actors[a];
        st.id = a;
        st.requestRng = Rng(root.next());
        st.arrivalSeed = root.next();
        st.session = target.startSession(
            a, root.next(), a == 0 ? cfg.actor0Sink : nullptr);
        if (!st.session)
            wcrt_fatal("target ", target.name(),
                       " produced no session for actor ", a);
    }
}

void
Orchestrator::runActorPhase(ActorState &actor, const PhaseSpec &phase,
                            size_t phase_index)
{
    // Fresh arrival process per (actor, phase): deterministic in the
    // pair, independent of everything that ran before.
    ArrivalProcess arrival(
        phase.arrival,
        actor.arrivalSeed +
            0x9e3779b97f4a7c15ull * (phase_index + 1));
    const auto t0 = SteadyClock::now();
    for (uint64_t i = 0; i < phase.opsPerActor; ++i) {
        uint64_t start_ns;
        if (arrival.openLoop()) {
            // Latency counts from the *scheduled* start: a request
            // the actor picks up late (the server saturated) has
            // been queueing since its arrival instant, and that
            // delay belongs in the tail percentiles.
            start_ns = arrival.nextScheduleNs();
            waitUntil(t0, start_ns);
        } else {
            start_ns = nsSince(t0);
        }
        actor.session->request(actor.requestRng);
        uint64_t end_ns = nsSince(t0);
        if (phase.record) {
            actor.latency.record(end_ns > start_ns ? end_ns - start_ns
                                                   : 0);
        }
        ++actor.phaseRequests;
    }
    actor.phaseElapsedNs = nsSince(t0);
}

TrafficResult
Orchestrator::run()
{
    if (ran)
        wcrt_fatal("an Orchestrator runs exactly once");
    ran = true;

    TrafficResult result;
    result.target = target.name();
    result.actors = cfg.actors;

    for (size_t p = 0; p < phases.size(); ++p) {
        const PhaseSpec &phase = phases[p];
        uint64_t ops_before = 0;
        for (ActorState &st : actors) {
            st.latency.clear();
            st.phaseRequests = 0;
            st.phaseElapsedNs = 0;
            ops_before += st.session->traceOps();
        }

        // One parallelFor per phase; its return is the phase barrier
        // (the orchestrator thread helps execute actors).
        const auto t0 = SteadyClock::now();
        parallelFor(actors.size(), [&](size_t a) {
            runActorPhase(actors[a], phase, p);
        }, cfg.jobs);
        const uint64_t elapsed = nsSince(t0);

        // Post-barrier merge on this thread: the per-actor metrics
        // path never shares a cache line, let alone a lock.
        PhaseStats stats;
        stats.name = phase.name;
        stats.arrival = phase.arrival.kind;
        stats.elapsedNs = elapsed;
        if (phase.arrival.kind != ArrivalKind::ClosedLoop) {
            stats.offeredRateHz =
                phase.arrival.ratePerActorHz * cfg.actors;
        }
        uint64_t ops_after = 0;
        for (ActorState &st : actors) {
            stats.requests += st.phaseRequests;
            stats.latency.merge(st.latency);
            ops_after += st.session->traceOps();
        }
        stats.traceOps = ops_after - ops_before;
        result.totalRequests += stats.requests;
        if (phase.record)
            result.phases.push_back(std::move(stats));
    }

    for (ActorState &st : actors)
        result.totalTraceOps += st.session->traceOps();
    return result;
}

} // namespace wcrt
