/**
 * @file
 * The semantic layer of the scenario DSL: a typed ScenarioSpec built
 * from a parsed document, resolved against the workload registry, and
 * a matrix expander that turns axis declarations into an ordered run
 * list.
 *
 * A scenario composes workload roster × dataset scale × software
 * stack (via named workload groups) × cache geometry or machine
 * config into data: one `.scn` file describes a trace-pipeline
 * experiment that would otherwise be a hand-written bench `main()`.
 * Two kinds dispatch to the two trace engines:
 *
 *  - `sweep`  -> averageSweep() group miss-ratio curves (MrcMode)
 *  - `replay` -> profileTraces() machine-model reports
 *
 * The `[matrix]` section declares axes (scale, group, mode, machine);
 * expansion is the odometer cross-product — the first declared axis
 * varies slowest — so "all stacks × all scales" is two lines, and CI
 * can iterate the resulting cells in a stable documented order.
 *
 * Like the structural parser, semantic validation accumulates every
 * issue it finds (unknown keys, unknown workload names, bad axis
 * values, empty expansions) instead of stopping at the first, so
 * `scenario_tool validate` shows a file's full damage in one run.
 */

#ifndef WCRT_SCENARIO_SCENARIO_HH
#define WCRT_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/parser.hh"
#include "sim/footprint.hh"
#include "sim/machine.hh"
#include "tracefile/replay.hh"
#include "workloads/registry.hh"

namespace wcrt {

/** Which engine a scenario drives. */
enum class ScenarioKind : uint8_t { Sweep, Replay };

/** Kind name as the DSL spells it: sweep / replay. */
const char *toString(ScenarioKind k);

/** A named workload group, resolved against the rosters. */
struct ScenarioGroup
{
    std::string name;
    std::vector<WorkloadEntry> entries;  //!< resolved, in file order
};

/** One matrix axis: name plus raw values in declaration order. */
struct ScenarioAxis
{
    std::string name;                 //!< scale | group | mode | machine
    std::vector<std::string> values;  //!< raw tokens
    int line = 0;                     //!< 0 for a default axis
};

/** A fully parsed, resolved scenario. */
struct ScenarioSpec
{
    std::string source;        //!< file name for messages
    std::string name;
    ScenarioKind kind = ScenarioKind::Sweep;
    double scaleFactor = 1.0;  //!< multiplies every cell's base scale

    // Sweep engine parameters.
    SweepKind sweepKind = SweepKind::Instruction;
    MrcMode mrcMode = MrcMode::StackDistance;
    std::vector<uint32_t> sizesKb;  //!< defaults to the paper ladder
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;

    // Replay engine parameters.
    std::vector<std::string> machines;  //!< default {xeon, atom}

    std::vector<ScenarioGroup> groups;
    std::vector<ScenarioAxis> axes;  //!< as declared in [matrix]

    const ScenarioGroup *findGroup(const std::string &name) const;
};

/** parseScenario()'s outcome: the spec plus every issue found. */
struct ScenarioParse
{
    ScenarioSpec spec;
    std::vector<ScenarioIssue> issues;  //!< structural + semantic

    bool ok() const { return issues.empty(); }

    /** All issues, one "source:line: message" per line. */
    std::string formatIssues() const;
};

/** Interpret a parsed document (structural issues are carried over). */
ScenarioParse parseScenario(const ScenarioDoc &doc);

/** Parse + interpret a file in one step. */
ScenarioParse loadScenario(const std::string &path);

/** One cell of the expanded run list. */
struct ScenarioCell
{
    size_t index = 0;
    std::string label;    //!< "group=Hadoop scale=0.25 mode=stack"
    double scale = 0.0;   //!< effective dataset scale
    ScenarioGroup group;  //!< the cell's workload roster
    MrcMode mode = MrcMode::StackDistance;  //!< sweep cells
    std::string machineName;                //!< replay cells
    MachineConfig machine;                  //!< replay cells
};

/**
 * Expand the matrix into the ordered run list: the cross-product of
 * every axis, first declared axis varying slowest. Axes the file does
 * not declare contribute their scenario-level default (base scale,
 * all groups, the mrc-mode key, the machines key). Axis values are
 * validated here; problems are appended to `issues` and yield an
 * empty list.
 *
 * @param spec Parsed scenario.
 * @param base_scale Environment base scale (WCRT_SCALE); a `scale`
 *        axis replaces it, and `spec.scaleFactor` always multiplies.
 * @param issues Accumulates expansion-time problems.
 */
std::vector<ScenarioCell> expandScenario(
    const ScenarioSpec &spec, double base_scale,
    std::vector<ScenarioIssue> &issues);

} // namespace wcrt

#endif // WCRT_SCENARIO_SCENARIO_HH
