/**
 * @file
 * Figure 3 — IPC of every workload and suite average on the E5645
 * model, with the paper's Section 5.2 comparison points: big data avg
 * ~1.28, PARSEC ~1.28, SPECFP ~1.1, SPECINT ~0.9, HPCC ~1.5, service
 * workloads lowest (H-Read ~0.8), query workloads up to ~1.7, plus
 * the MPI-vs-JVM IPC gap of Section 5.5 (~21%).
 */

#include "bench_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    double scale = benchScale();
    MachineConfig machine = xeonE5645();
    std::cout << "=== Figure 3: IPC on " << machine.name << " (scale "
              << scale << ") ===\n\n";

    auto reps = runRepresentatives(machine, scale);
    auto mpi = runMpiSuite(machine, scale);
    auto baselines = runBaselines(machine, scale);

    Table t({"workload", "IPC", "frontend-stall", "backend-stall"});
    auto row = [&](const std::string &name, const CpuReport &r) {
        t.cell(name)
            .cell(r.ipc, 2)
            .cell(r.frontendStallRatio, 2)
            .cell(r.backendStallRatio, 2);
        t.endRow();
    };
    for (const auto &run : reps)
        row(run.name, run.report);
    for (const auto &run : mpi)
        row(run.name, run.report);
    for (const auto &[suite, run] : baselines)
        row(suite, run.report);
    t.print(std::cout);

    auto ipc = [](const WorkloadRun &r) { return r.report.ipc; };
    std::cout << "\n--- Section 5.2 comparison ---\n";
    std::cout << "big data avg IPC: " << formatFixed(average(reps, ipc), 2)
              << "   (paper: 1.28)\n";
    for (const auto &[suite, run] : baselines)
        std::cout << suite << " IPC: " << formatFixed(run.report.ipc, 2)
                  << "\n";

    std::cout << "\nBy application category:\n";
    for (auto cat :
         {AppCategory::Service, AppCategory::DataAnalysis,
          AppCategory::InteractiveAnalysis}) {
        auto avg = averageByCategory(reps, cat, ipc);
        std::cout << "  " << toString(cat) << ": "
                  << (avg ? formatFixed(*avg, 2) : "n/a") << "\n";
    }
    std::cout << "By system behaviour:\n";
    for (auto b :
         {SystemBehavior::CpuIntensive, SystemBehavior::IoIntensive,
          SystemBehavior::Hybrid}) {
        auto avg = averageByBehavior(reps, b, ipc);
        std::cout << "  " << toString(b) << ": "
                  << (avg ? formatFixed(*avg, 2) : "n/a") << "\n";
    }

    // Section 5.5: the MPI vs JVM-stack IPC gap.
    double mpi_avg = average(mpi, ipc);
    double jvm_avg = average(reps, ipc);
    std::cout << "\nMPI avg IPC " << formatFixed(mpi_avg, 2)
              << " vs big data avg " << formatFixed(jvm_avg, 2)
              << " -> gap "
              << formatFixed((mpi_avg - jvm_avg) / mpi_avg * 100, 0)
              << "%   (paper: 1.4 vs 1.16, 21%)\n";
    return 0;
}
