#include "scenario/runner.hh"

#include <algorithm>

#include "core/profiler.hh"

namespace wcrt {

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
      case ScenarioKind::Replay:
        out.replay = runReplayCell(cell);
        break;
    }
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
