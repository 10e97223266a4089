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
    std::vector<WorkloadRun> runs(trace_paths.size());
    parallelFor(trace_paths.size(), [&](size_t i) {
        TraceReader reader(trace_paths[i]);
        runs[i] = profileWorkload(reader, machine, node);
    }, threads);
    return runs;
}

} // namespace wcrt
