#include "core/profiler.hh"

#include <utility>

#include "tracefile/replay.hh"

namespace wcrt {

WorkloadRun
profileWorkload(Workload &workload, const MachineConfig &machine,
                const NodeModel &node)
{
    WorkloadRun run;
    run.name = workload.name();
    run.category = workload.category();
    run.stackKind = workload.stack();

    DriverFrame frame(workload);
    SimCpu cpu(machine);
    frame.run(cpu);

    run.report = cpu.report();
    run.metrics = toMetricVector(run.report);
    run.io = frame.env.io;
    run.data = frame.env.data;
    run.sysProfile = computeProfile(run.report.instructions, run.io,
                                    node);
    run.sysBehavior = classifySystemBehavior(run.sysProfile);
    return run;
}

RunEnv
runThroughSink(Workload &workload, TraceSink &sink)
{
    DriverFrame frame(workload);
    frame.run(sink);
    return std::move(frame.env);
}

WorkloadRun
profileWorkload(TraceReader &trace, const MachineConfig &machine,
                const NodeModel &node)
{
    WorkloadRun run;
    run.name = trace.meta().workload;
    run.category = trace.meta().category;
    run.stackKind = trace.meta().stackKind;

    SimCpu cpu(machine);
    trace.replayInto(cpu);

    run.report = cpu.report();
    run.metrics = toMetricVector(run.report);
    run.io = trace.io();
    run.data = trace.data();
    run.sysProfile = computeProfile(run.report.instructions, run.io,
                                    node);
    run.sysBehavior = classifySystemBehavior(run.sysProfile);
    return run;
}

std::vector<WorkloadRun>
profileTraces(const std::vector<std::string> &trace_paths,
              const MachineConfig &machine, const NodeModel &node,
              unsigned threads)
{
    // Open, and so validate, every trace before any replay starts;
    // the footers give the op counts the runner claims by.
    std::vector<TraceReader> traces;
    traces.reserve(trace_paths.size());
    for (const std::string &path : trace_paths)
        traces.emplace_back(path);
    std::vector<ReplayItem> items;
    for (const TraceReader &trace : traces)
        items.push_back({&trace, 0, trace.chunkCount()});
    return runReplays(items, [&](size_t, TraceReader &reader) {
        return profileWorkload(reader, machine, node);
    }, threads);
}

} // namespace wcrt
