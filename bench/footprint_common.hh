/**
 * @file
 * Shared driver for the Figure 6-9 cache-capacity sweeps.
 *
 * Each figure averages miss-ratio-vs-capacity curves over the workload
 * groups of its checked-in scenario (the Hadoop representatives,
 * PARSEC, the MPI versions) on the paper's Atom-like in-order
 * simulator configuration. The average is scenario/runner.hh's
 * averageSweep(), the same routine a scenario_tool sweep cell runs, so
 * the two paths cannot drift apart.
 *
 * The sweeps are record-once/replay-many: each workload is captured
 * serially into the trace cache on first use, then the stored traces
 * are replayed as independent --jobs-capped jobs through the
 * --mrc-mode path (tracefile/replay.hh): the default single-pass
 * stack-distance profile, the per-rung set-associative oracle sweep
 * of the same stream, or verify (both, as two more independent
 * replays, reporting the maximum curve divergence). Replayed curves
 * are identical to live sweeps through the same model
 * (TraceFile.LiveAndReplayedSinksAgree).
 */

#ifndef WCRT_BENCH_FOOTPRINT_COMMON_HH
#define WCRT_BENCH_FOOTPRINT_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/footprint.hh"
#include "tracefile/replay.hh"

namespace wcrt::bench {

/**
 * The verify-mode gate the footprint figures share: print the worst
 * stack-vs-oracle divergence over the figure's groups against the
 * documented kMrcOracleDivergenceBound. Prints nothing outside verify
 * mode.
 *
 * @return true when the bound is exceeded (the figure exits 1).
 */
inline bool
divergenceExceeded(std::initializer_list<const SweepCellResult *> groups)
{
    if (benchOptions().mrcMode != MrcMode::Verify)
        return false;
    double worst = 0.0;
    for (const SweepCellResult *g : groups)
        worst = std::max(worst, g->maxDivergence);
    bool exceeded = worst > kMrcOracleDivergenceBound;
    std::cout << "max |stack - oracle| over "
              << (groups.size() == 2
                      ? std::string("both groups")
                      : "all " + std::to_string(groups.size()) +
                            " groups")
              << ": " << formatFixed(worst * 100, 3) << "% (bound "
              << formatFixed(kMrcOracleDivergenceBound * 100, 1)
              << "%): " << (exceeded ? "EXCEEDED" : "ok") << "\n";
    return exceeded;
}

/** Absolute path of a checked-in scenario file. */
inline std::string
scenarioFile(const std::string &name)
{
#ifdef WCRT_SCENARIO_DIR
    return std::string(WCRT_SCENARIO_DIR) + "/" + name;
#else
    return "scenarios/" + name;
#endif
}

/**
 * Load a checked-in scenario, fatally reporting every parse issue:
 * the scenarios/ files are part of the build, so a broken one is a
 * build defect, not a user error.
 */
inline ScenarioSpec
loadBenchScenario(const std::string &name)
{
    ScenarioParse parse = loadScenario(scenarioFile(name));
    if (!parse.ok())
        wcrt_fatal("bad scenario ", scenarioFile(name), ":\n",
                   parse.formatIssues());
    return std::move(parse.spec);
}

/**
 * One named group of a loaded scenario as a bench roster, honouring
 * the shared --filter flag like the hand-registered groups do.
 */
inline std::vector<WorkloadEntry>
benchGroup(const ScenarioSpec &spec, const std::string &group)
{
    const ScenarioGroup *g = spec.findGroup(group);
    if (!g)
        wcrt_fatal("scenario ", spec.source, " has no group '", group,
                   "'");
    std::vector<WorkloadEntry> out;
    for (const auto &e : g->entries)
        if (filterAllows(e.name))
            out.push_back(e);
    return out;
}

/**
 * One scenario group's averaged curve (averageSweep()) under the
 * bench's --filter, --mrc-mode and --jobs, from its trace cache.
 */
inline SweepCellResult
benchSweep(const ScenarioSpec &spec, const std::string &group,
           double scale)
{
    return averageSweep(spec, benchGroup(spec, group), scale,
                        benchOptions().mrcMode, benchTraceCache(),
                        benchOptions().jobs);
}

/** Print one figure: capacity ladder vs per-group curves. */
inline void
printSweepFigure(const std::string &title,
                 const std::vector<std::string> &group_names,
                 const std::vector<std::vector<double>> &curves)
{
    auto sizes = paperSweepSizesKb();
    std::vector<std::string> header{"cache KB"};
    for (const auto &g : group_names)
        header.push_back(g + " miss%");
    Table t(header);
    for (size_t i = 0; i < sizes.size(); ++i) {
        t.cell(static_cast<uint64_t>(sizes[i]));
        for (const auto &c : curves)
            t.cell(c[i] * 100.0, 3);
        t.endRow();
    }
    std::cout << title << "\n\n";
    t.print(std::cout);
}

/**
 * Human-readable footprint estimate for a paper-ladder curve: the
 * knee capacity ("~1024 KB"), or an explicit ">8192 KB (no knee
 * within ladder)" when the curve is still falling at the last rung —
 * the knee finder (sim/footprint.hh) no longer masquerades the
 * ladder's end as a measurement.
 */
inline std::string
kneeLabel(const std::vector<double> &curve)
{
    auto sizes = paperSweepSizesKb();
    char buf[64];
    if (auto knee = kneeCapacityKb(curve, sizes))
        std::snprintf(buf, sizeof(buf), "~%u KB", *knee);
    else
        std::snprintf(buf, sizeof(buf),
                      ">%u KB (no knee within ladder)", sizes.back());
    return buf;
}

} // namespace wcrt::bench

#endif // WCRT_BENCH_FOOTPRINT_COMMON_HH
