/**
 * @file
 * The scenario runner: executes expanded cells against the two trace
 * engines a scenario kind names. It composes existing machinery and
 * owns none of its own:
 *
 *  - sweep cells call averageSweep(), the one group average the
 *    fig6–9 benches call too, so a scenario-driven curve is
 *    bit-identical to the bench's for the same roster, scale and
 *    MrcMode.
 *  - replay cells profile each group member's cached trace on the
 *    cell's machine config through profileTraces().
 */

#ifndef WCRT_SCENARIO_RUNNER_HH
#define WCRT_SCENARIO_RUNNER_HH

#include <string>
#include <vector>

#include "core/trace_cache.hh"
#include "scenario/scenario.hh"
#include "sim/sim_cpu.hh"

namespace wcrt {

/** Engine-level knobs a scenario file does not decide. */
struct RunnerOptions
{
    unsigned jobs = 0;      //!< worker cap (0 = hardware threads)
    std::string traceDir;   //!< trace cache ("" = TraceCache default)
    double baseScale = 0.5; //!< WCRT_SCALE-style base dataset scale
};

/** One sweep cell's averaged miss-ratio curve. */
struct SweepCellResult
{
    std::vector<double> curve;   //!< averaged over the cell's group
    double maxDivergence = 0.0;  //!< verify mode: worst |stack-oracle|
};

/** One replay cell: a report per group member, in group order. */
struct ReplayCellResult
{
    std::vector<std::string> names;
    std::vector<CpuReport> reports;
};

/** The union of the two engines' outcomes for one cell. */
struct CellResult
{
    ScenarioCell cell;
    SweepCellResult sweep;
    ReplayCellResult replay;
};

/**
 * A workload group's average miss-ratio curve: each entry's trace
 * (captured serially into `cache` at `scale` on first use, then
 * opened) replayed across the spec's ladder — sweep kind, sizes,
 * associativity, line size — in `mode`, one replaySweepLadder() job
 * per trace through runReplays(), biggest trace first. Curves are
 * summed in roster order, then divided by the group size, so the
 * average is bit-identical at any worker count; an empty group yields
 * an all-zero curve. Sweep cells and the fig6–9 benches both average
 * through here.
 *
 * @param jobs Worker cap across the group's replays, also handed to
 *        each replaySweepLadder(), where it caps the trace's chunk
 *        ranges; a pool thread left idle by the group's last traces
 *        picks up their range replays.
 */
SweepCellResult averageSweep(const ScenarioSpec &spec,
                             const std::vector<WorkloadEntry> &group,
                             double scale, MrcMode mode,
                             TraceCache &cache, unsigned jobs);

/**
 * Executes one scenario's cells. Owns the trace cache, so a multi-cell
 * run pays one capture per (workload, scale) like the benches do.
 */
class ScenarioRunner
{
  public:
    explicit ScenarioRunner(const ScenarioSpec &spec,
                            RunnerOptions opt = {});

    /** Expand the run list (see expandScenario()). */
    std::vector<ScenarioCell> cells(
        std::vector<ScenarioIssue> &issues) const;

    /** Execute one cell through its kind's engine. */
    CellResult runCell(const ScenarioCell &cell);

    const ScenarioSpec &scenario() const { return spec; }
    const RunnerOptions &options() const { return opt; }

  private:
    ReplayCellResult runReplayCell(const ScenarioCell &cell);

    const ScenarioSpec &spec;
    RunnerOptions opt;
    TraceCache cache;
};

} // namespace wcrt

#endif // WCRT_SCENARIO_RUNNER_HH
