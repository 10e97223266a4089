/**
 * @file
 * Traffic-engine tests: histogram quantiles against a sorted-sample
 * oracle, arrival-process determinism, phase-barrier ordering, and
 * the closed/open-loop op-count invariants at jobs=1 vs jobs=N.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "base/rng.hh"
#include "loadgen/arrival.hh"
#include "loadgen/histogram.hh"
#include "loadgen/orchestrator.hh"
#include "loadgen/targets.hh"
#include "trace/sampling.hh"

namespace wcrt {
namespace {

// --------------------------------------------------------- histogram

TEST(LoadgenHistogram, ExactBelowSubBucketRange)
{
    LatencyHistogram h(5);
    for (uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 31u);
    // Every value below 2^subBits has its own bucket: quantiles are
    // exact order statistics here.
    EXPECT_EQ(h.quantile(0.5), 15u);
    EXPECT_EQ(h.quantile(1.0), 31u);
}

TEST(LoadgenHistogram, QuantilesTrackSortedOracleWithinRelativeError)
{
    // Log-normal-ish latency shape across five decades.
    Rng rng(42);
    std::vector<uint64_t> samples;
    LatencyHistogram h;
    for (int i = 0; i < 20000; ++i) {
        double v = std::exp(rng.nextGaussian() * 1.6 + 10.0);
        uint64_t ns = static_cast<uint64_t>(v);
        samples.push_back(ns);
        h.record(ns);
    }
    std::sort(samples.begin(), samples.end());
    const double err = 1.0 / 32.0;  // 2^-subBits for subBits = 5
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        uint64_t oracle = samples[std::min(rank ? rank - 1 : 0,
                                           samples.size() - 1)];
        uint64_t got = h.quantile(q);
        // The histogram returns an upper bucket bound: never below
        // the oracle's bucket, within the relative error above it.
        EXPECT_GE(got,
                  static_cast<uint64_t>(
                      static_cast<double>(oracle) * (1.0 - err)))
            << "q=" << q;
        EXPECT_LE(static_cast<double>(got),
                  static_cast<double>(oracle) * (1.0 + 2.0 * err))
            << "q=" << q;
    }
}

TEST(LoadgenHistogram, MergeMatchesSingleHistogram)
{
    Rng rng(7);
    LatencyHistogram whole, a, b;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.nextBelow(10u * 1000 * 1000);
        whole.record(v);
        (i % 2 ? a : b).record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.minValue(), whole.minValue());
    EXPECT_EQ(a.maxValue(), whole.maxValue());
    for (double q : {0.25, 0.5, 0.9, 0.99})
        EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
}

TEST(LoadgenHistogram, ClearDropsValuesKeepsShape)
{
    LatencyHistogram h(4);
    h.record(123456);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.subBucketBits(), 4u);
}

// ----------------------------------------------------------- arrival

TEST(LoadgenArrival, SameSeedSameSchedule)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::PoissonOpen;
    spec.ratePerActorHz = 50000;
    ArrivalProcess a(spec, 99), b(spec, 99), c(spec, 100);
    bool diverged = false;
    uint64_t prev = 0;
    for (int i = 0; i < 1000; ++i) {
        uint64_t va = a.nextScheduleNs();
        EXPECT_EQ(va, b.nextScheduleNs());
        if (va != c.nextScheduleNs())
            diverged = true;
        EXPECT_GE(va, prev);  // schedules never go backwards
        prev = va;
    }
    EXPECT_TRUE(diverged) << "different seeds produced one schedule";
}

TEST(LoadgenArrival, PoissonMeanGapApproximatesRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::PoissonOpen;
    spec.ratePerActorHz = 10000;  // mean gap 100us
    ArrivalProcess p(spec, 5);
    const int n = 20000;
    uint64_t last = 0;
    for (int i = 0; i < n; ++i)
        last = p.nextScheduleNs();
    double mean_gap = static_cast<double>(last) / n;
    EXPECT_NEAR(mean_gap, 100000.0, 5000.0);
}

TEST(LoadgenArrival, TokenBucketBoundsScheduleToRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::TokenBucket;
    spec.ratePerActorHz = 1000;  // 1ms sustained gap
    spec.burst = 8;
    ArrivalProcess p(spec, 11);
    // The first `burst` arrivals may all be immediate...
    for (uint32_t i = 0; i < spec.burst; ++i)
        EXPECT_EQ(p.nextScheduleNs(), 0u);
    // ...then the schedule is clamped to the sustained rate: arrival
    // i is never earlier than (i + 1 - burst) / rate.
    for (uint32_t i = spec.burst; i < 100; ++i) {
        uint64_t due = p.nextScheduleNs();
        uint64_t floor_ns =
            static_cast<uint64_t>(i + 1 - spec.burst) * 1000000ull;
        EXPECT_GE(due, floor_ns) << "arrival " << i;
    }
}

// ------------------------------------------------- orchestrator

/**
 * A test target whose sessions log (actor, global sequence) into a
 * shared journal — enough to observe the phase barrier from outside.
 */
class JournalTarget : public TrafficTarget
{
  public:
    struct Entry
    {
        uint64_t actor;
        uint64_t opIndex;  //!< per-session running request count
    };

    std::string name() const override { return "journal"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t actor_id, uint64_t, TraceSink *) override
    {
        return std::make_unique<Session>(*this, actor_id);
    }

    std::vector<Entry> entries;  //!< append-ordered request log
    std::mutex mtx;

  private:
    class Session : public ActorSession
    {
      public:
        Session(JournalTarget &t, uint64_t actor) : t(t), actor(actor)
        {
        }

        void
        request(Rng &) override
        {
            std::lock_guard<std::mutex> lk(t.mtx);
            t.entries.push_back({actor, ops++});
        }

        uint64_t traceOps() const override { return ops; }

      private:
        JournalTarget &t;
        uint64_t actor;
        uint64_t ops = 0;
    };
};

TEST(OrchestratorBarrier, NoActorEntersNextPhaseEarly)
{
    // Three equal-count phases: with per-session op indices, entry e
    // belongs to phase e.opIndex / kOps. The barrier guarantee is
    // that the journal is partitioned: every phase-p entry precedes
    // every phase-(p+1) entry, whatever the executor interleaving.
    constexpr uint64_t kOps = 50;
    JournalTarget target;
    std::vector<PhaseSpec> phases{closedPhase("p0", kOps),
                                  closedPhase("p1", kOps),
                                  closedPhase("p2", kOps)};
    OrchestratorConfig cfg;
    cfg.actors = 4;
    cfg.jobs = 4;
    Orchestrator orch(target, phases, cfg);
    TrafficResult res = orch.run();
    ASSERT_EQ(res.totalRequests, 3 * 4 * kOps);
    ASSERT_EQ(target.entries.size(), 3 * 4 * kOps);

    uint64_t current_phase = 0;
    for (const auto &e : target.entries) {
        uint64_t phase = e.opIndex / kOps;
        EXPECT_GE(phase, current_phase)
            << "actor " << e.actor << " ran phase " << phase
            << " work after phase " << current_phase << " began";
        current_phase = std::max(current_phase, phase);
    }
    ASSERT_EQ(res.phases.size(), 3u);
    for (const auto &ps : res.phases) {
        EXPECT_EQ(ps.requests, 4 * kOps);
        EXPECT_EQ(ps.latency.count(), 4 * kOps);
    }
}

TEST(OrchestratorDeterminism, OpCountsInvariantAcrossJobs)
{
    // The op stream must be a pure function of (target, phases,
    // seed): run the same spec strictly serial and with the full
    // pool, closed and open loop, and compare emitted op counts.
    auto run_once = [](unsigned jobs) {
        auto target = makeTrafficTarget("kv-get", 0.05);
        std::vector<PhaseSpec> phases{
            closedPhase("closed", 40),
            poissonPhase("open", 40, 200000.0),
            tokenBucketPhase("bucket", 40, 200000.0, 4),
        };
        OrchestratorConfig cfg;
        cfg.actors = 3;
        cfg.jobs = jobs;
        cfg.seed = 77;
        Orchestrator orch(*target, phases, cfg);
        return orch.run();
    };
    TrafficResult serial = run_once(1);
    TrafficResult pooled = run_once(4);
    EXPECT_EQ(serial.totalRequests, 3u * 3u * 40u);
    EXPECT_EQ(serial.totalRequests, pooled.totalRequests);
    EXPECT_EQ(serial.totalTraceOps, pooled.totalTraceOps);
    ASSERT_EQ(serial.phases.size(), pooled.phases.size());
    for (size_t i = 0; i < serial.phases.size(); ++i) {
        EXPECT_EQ(serial.phases[i].requests, pooled.phases[i].requests);
        EXPECT_EQ(serial.phases[i].traceOps,
                  pooled.phases[i].traceOps)
            << "phase " << serial.phases[i].name;
    }
}

TEST(OrchestratorDeterminism, SameSeedSameOps)
{
    auto total_ops = [](uint64_t seed) {
        auto target = makeTrafficTarget("sql-filter", 0.05);
        std::vector<PhaseSpec> phases{closedPhase("steady", 10)};
        OrchestratorConfig cfg;
        cfg.actors = 2;
        cfg.seed = seed;
        Orchestrator orch(*target, phases, cfg);
        return orch.run().totalTraceOps;
    };
    EXPECT_EQ(total_ops(5), total_ops(5));
    // Different seeds draw different predicates, so the filtered row
    // counts — and the traced op totals — move.
    EXPECT_NE(total_ops(5), total_ops(6));
}

TEST(OrchestratorRecording, RecordsActorZeroOnly)
{
    auto target = makeTrafficTarget("kv-get", 0.05);
    std::vector<PhaseSpec> phases{closedPhase("steady", 20)};
    OrchestratorConfig cfg;
    cfg.actors = 2;
    cfg.seed = 9;
    CountingSink actor0;
    cfg.actor0Sink = &actor0;
    Orchestrator orch(*target, phases, cfg);
    TrafficResult res = orch.run();
    EXPECT_GT(actor0.ops(), 0u);
    // Actor 0 emitted a strict subset of the run's op stream.
    EXPECT_LT(actor0.ops(), res.totalTraceOps);
}

TEST(OrchestratorTargets, RosterConstructsAndServes)
{
    for (const std::string &name : trafficTargetNames()) {
        auto target = makeTrafficTarget(name, 0.05);
        ASSERT_NE(target, nullptr) << name;
        EXPECT_EQ(target->name(), name);
        std::vector<PhaseSpec> phases{closedPhase("smoke", 3)};
        OrchestratorConfig cfg;
        cfg.actors = 2;
        Orchestrator orch(*target, phases, cfg);
        TrafficResult res = orch.run();
        EXPECT_EQ(res.totalRequests, 6u) << name;
        EXPECT_GT(res.totalTraceOps, 0u) << name;
        EXPECT_EQ(res.phases.front().latency.count(), 6u) << name;
    }
}

TEST(OrchestratorTargets, UnrecordedPhaseCountsButDoesNotReport)
{
    auto target = makeTrafficTarget("kv-get", 0.05);
    std::vector<PhaseSpec> phases{warmupPhase(5),
                                  closedPhase("steady", 7)};
    OrchestratorConfig cfg;
    cfg.actors = 2;
    Orchestrator orch(*target, phases, cfg);
    TrafficResult res = orch.run();
    ASSERT_EQ(res.phases.size(), 1u);
    EXPECT_EQ(res.phases.front().name, "steady");
    EXPECT_EQ(res.phases.front().requests, 2u * 7u);
    EXPECT_EQ(res.totalRequests, 2u * (5u + 7u));
}

TEST(OrchestratorTargets, OpStreamsPinnedForDefaultAndGeneratorDraws)
{
    // kv-get and sql-filter at jobs=1 with a fixed seed, drawing keys
    // and predicates on the actor Rng. The op counts are pinned
    // constants: a change to how a request reaches its target must
    // leave every request's stream as it was.
    struct Case
    {
        const char *target;
        uint64_t totalOps;
        std::vector<uint64_t> phaseOps;
    };
    const std::vector<Case> cases = {
        {"kv-get", 127866, {70141, 34752}},
        {"sql-filter", 43961, {22965, 12837}},
    };
    for (const Case &c : cases) {
        auto target = makeTrafficTarget(c.target, 0.05);
        std::vector<PhaseSpec> phases{warmupPhase(2),
                                      closedPhase("steady", 6),
                                      closedPhase("spike", 3)};
        OrchestratorConfig cfg;
        cfg.actors = 2;
        cfg.jobs = 1;
        cfg.seed = 5;
        TrafficResult res = Orchestrator(*target, phases, cfg).run();
        EXPECT_EQ(res.totalTraceOps, c.totalOps) << c.target;
        ASSERT_EQ(res.phases.size(), c.phaseOps.size()) << c.target;
        for (size_t i = 0; i < c.phaseOps.size(); ++i)
            EXPECT_EQ(res.phases[i].traceOps, c.phaseOps[i])
                << c.target << " phase " << res.phases[i].name;
    }
}

} // namespace
} // namespace wcrt
