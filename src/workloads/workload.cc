#include "workloads/workload.hh"

namespace wcrt {

const char *
toString(AppCategory c)
{
    switch (c) {
      case AppCategory::Service:
        return "service";
      case AppCategory::DataAnalysis:
        return "data analysis";
      case AppCategory::InteractiveAnalysis:
        return "interactive analysis";
    }
    return "?";
}

const char *
toString(StackKind s)
{
    switch (s) {
      case StackKind::Hadoop:
        return "Hadoop";
      case StackKind::Spark:
        return "Spark";
      case StackKind::Mpi:
        return "MPI";
      case StackKind::Hive:
        return "Hive";
      case StackKind::Shark:
        return "Shark";
      case StackKind::Impala:
        return "Impala";
      case StackKind::HBase:
        return "HBase";
    }
    return "?";
}

DriverFrame::DriverFrame(Workload &workload) : workload(workload)
{
    workload.setup(env);
    driver = env.layout.addFunction("driver.main",
                                    CodeLayer::Application, 512);
}

void
DriverFrame::run(TraceSink &sink)
{
    Tracer tracer(env.layout, sink);
    tracer.call(driver);
    workload.execute(env, tracer);
    tracer.ret();
}

} // namespace wcrt
