/**
 * @file
 * The WCRT profiler: runs a workload on a machine model and collects
 * everything the paper measures — the 45 micro-architectural metrics,
 * the system-behaviour profile and the data-behaviour labels.
 *
 * This is the stand-in for the paper's per-node profiler (perf +
 * /proc sampling); the analyzer half of WCRT lives in analyzer.hh.
 */

#ifndef WCRT_CORE_PROFILER_HH
#define WCRT_CORE_PROFILER_HH

#include <string>
#include <vector>

#include "core/metrics.hh"
#include "sim/machine.hh"
#include "tracefile/trace_reader.hh"
#include "workloads/workload.hh"

namespace wcrt {

/** Everything one profiled run produced. */
struct WorkloadRun
{
    std::string name;
    AppCategory category = AppCategory::DataAnalysis;
    StackKind stackKind = StackKind::Hadoop;

    CpuReport report;             //!< micro-architecture counters
    MetricVector metrics{};       //!< the 45-metric vector
    IoCounters io;                //!< accumulated I/O volume
    DataBehavior data;            //!< input/intermediate/output
    SystemProfile sysProfile;     //!< derived utilization profile
    SystemBehavior sysBehavior = SystemBehavior::Hybrid;
};

/**
 * Run a workload against a machine configuration and collect the full
 * measurement set.
 *
 * @param workload The workload (setup() must not have been called).
 * @param machine Machine model to simulate.
 * @param node Node throughput model for system-behaviour analysis.
 */
WorkloadRun profileWorkload(Workload &workload,
                            const MachineConfig &machine,
                            const NodeModel &node = {});

/**
 * Run a workload through an arbitrary trace sink (cache sweeps, mix
 * counting). Returns the populated run environment accounting.
 */
RunEnv runThroughSink(Workload &workload, TraceSink &sink);

/**
 * Replay a stored trace against a machine configuration instead of
 * re-executing the workload. Produces the same WorkloadRun a live
 * profileWorkload() of the captured workload would: the op stream,
 * I/O volumes and data behaviour all come from the trace file.
 */
WorkloadRun profileWorkload(TraceReader &trace,
                            const MachineConfig &machine,
                            const NodeModel &node = {});

/**
 * Replay many stored traces against one machine configuration in
 * parallel (results in input order). Every trace is opened, and so
 * validated, before the first replay starts: a malformed file throws
 * TraceFormatError before any job runs. The replays then go through
 * runReplays() (tracefile/replay.hh), biggest trace first, on the
 * process-wide pool, so the cap composes with every other pooled
 * replay path instead of spawning its own threads.
 *
 * @param trace_paths Trace files to replay.
 * @param machine Machine model to simulate.
 * @param node Node throughput model for system-behaviour analysis.
 * @param threads Executor cap (0 → hardware threads, 1 → strictly
 *        serial on the caller).
 */
std::vector<WorkloadRun> profileTraces(
    const std::vector<std::string> &trace_paths,
    const MachineConfig &machine, const NodeModel &node = {},
    unsigned threads = 0);

} // namespace wcrt

#endif // WCRT_CORE_PROFILER_HH
