#include "scenario/runner.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/profiler.hh"

namespace wcrt {

std::unique_ptr<TrafficTarget>
makeScenarioTarget(const ScenarioSpec &spec, double scale)
{
    // Every draw reads its generator at (scenario seed, actor, request
    // index), so a request stream is the same at any worker count.
    const uint64_t seed = spec.seed;
    auto gen = [&spec](const std::string &name) {
        return spec.generators.at(name);
    };
    RequestDraws draws;
    if (!spec.keyGen.empty()) {
        draws.key = [g = gen(spec.keyGen), seed](uint64_t actor,
                                                uint64_t request, Rng &) {
            return g.drawIndex({seed, actor, request});
        };
    }
    if (!spec.docGen.empty()) {
        draws.docBytes = [g = gen(spec.docGen), seed](
                             uint64_t actor, uint64_t request, Rng &) {
            return g.drawText({seed, actor, request}).size();
        };
    }
    if (!spec.queryGen.empty()) {
        draws.threshold = [g = gen(spec.queryGen), seed](
                              uint64_t actor, uint64_t request, Rng &) {
            return g.drawScalar({seed, actor, request});
        };
    }
    return makeTrafficTarget(spec.target, scale, std::move(draws));
}

SweepCellResult
averageSweep(const ScenarioSpec &spec,
             const std::vector<WorkloadEntry> &group, double scale,
             MrcMode mode, TraceCache &cache, unsigned jobs)
{
    SweepCellResult out;
    out.curve.assign(spec.sizesKb.size(), 0.0);
    if (group.empty())
        return out;
    // Capture and open serially on the calling thread, then run one
    // ladder per trace as runner jobs, biggest trace first; the sum
    // runs in roster order, so the average is bit-identical at any
    // worker count.
    std::vector<TraceReader> traces;
    traces.reserve(group.size());
    for (const auto &entry : group)
        traces.emplace_back(cache.ensure(
            entry.name, scale, [&] { return entry.make(scale); }));
    std::vector<ReplayItem> items;
    for (const TraceReader &trace : traces)
        items.push_back({&trace, 0, trace.chunkCount()});
    auto results = runReplays(items, [&](size_t, TraceReader &reader) {
        return replaySweepLadder(reader, spec.sweepKind, spec.sizesKb,
                                 mode, jobs, spec.assoc, spec.lineBytes);
    }, jobs);
    for (const MrcResult &r : results) {
        out.maxDivergence = std::max(out.maxDivergence, r.maxDivergence);
        for (size_t i = 0; i < out.curve.size(); ++i)
            out.curve[i] += r.ratios[i];
    }
    for (auto &v : out.curve)
        v /= static_cast<double>(group.size());
    return out;
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec &spec,
                               RunnerOptions opt)
    : spec(spec), opt(opt), cache(opt.traceDir)
{
}

std::vector<ScenarioCell>
ScenarioRunner::cells(std::vector<ScenarioIssue> &issues) const
{
    return expandScenario(spec, opt.baseScale, issues);
}

CellResult
ScenarioRunner::runCell(const ScenarioCell &cell)
{
    CellResult out;
    out.cell = cell;
    switch (spec.kind) {
      case ScenarioKind::Sweep:
        out.sweep = averageSweep(spec, cell.group.entries, cell.scale,
                                 cell.mode, cache, opt.jobs);
        break;
      case ScenarioKind::Traffic:
        out.traffic = runTrafficCell(cell);
        break;
      case ScenarioKind::Replay:
        out.replay = runReplayCell(cell);
        break;
    }
    return out;
}

TrafficCellResult
ScenarioRunner::runTrafficCell(const ScenarioCell &cell)
{
    TrafficCellResult out;

    bool needs_probe = false;
    for (const auto &p : spec.phases)
        needs_probe = needs_probe || p.rateX > 0.0;

    // Per-actor capacity mu1 from a strictly serial closed loop (the
    // service_latency idiom): rate-x phases offer fractions of what
    // one actor can actually serve, independent of host parallelism.
    if (needs_probe) {
        auto probe_target = makeScenarioTarget(spec, cell.scale);
        OrchestratorConfig pc;
        pc.actors = 1;
        pc.jobs = 1;
        pc.seed = spec.seed;
        std::vector<PhaseSpec> probe_phases{
            warmupPhase(spec.probeOps / 4 + 1),
            closedPhase("capacity-probe", spec.probeOps),
        };
        Orchestrator probe(*probe_target, probe_phases, pc);
        TrafficResult pr = probe.run();
        out.capacityHz = pr.phases.front().achievedRateHz();
        if (out.capacityHz <= 0.0)
            wcrt_fatal("capacity probe measured no throughput for"
                       " target ", spec.target);
    }

    auto target = makeScenarioTarget(spec, cell.scale);
    OrchestratorConfig cfg;
    cfg.actors = spec.actors;
    cfg.jobs = opt.jobs;
    cfg.seed = spec.seed;
    std::vector<PhaseSpec> phases;
    for (const auto &p : spec.phases) {
        double rate = p.rateHz > 0.0 ? p.rateHz
                                     : p.rateX * out.capacityHz;
        PhaseSpec ps;
        switch (p.arrival) {
          case ArrivalKind::ClosedLoop:
            ps = closedPhase(p.name, p.ops, p.thinkNs);
            break;
          case ArrivalKind::PoissonOpen:
            ps = poissonPhase(p.name, p.ops, rate);
            break;
          case ArrivalKind::TokenBucket:
            ps = tokenBucketPhase(p.name, p.ops, rate, p.burst);
            break;
        }
        ps.record = p.record;
        phases.push_back(std::move(ps));
    }
    Orchestrator run(*target, phases, cfg);
    out.result = run.run();
    return out;
}

ReplayCellResult
ScenarioRunner::runReplayCell(const ScenarioCell &cell)
{
    ReplayCellResult out;
    std::vector<std::string> paths;
    for (const auto &entry : cell.group.entries) {
        out.names.push_back(entry.name);
        paths.push_back(cache.ensure(
            entry.name, cell.scale,
            [&] { return entry.make(cell.scale); }));
    }
    for (WorkloadRun &run : profileTraces(paths, cell.machine, {},
                                          opt.jobs))
        out.reports.push_back(std::move(run.report));
    return out;
}

} // namespace wcrt
