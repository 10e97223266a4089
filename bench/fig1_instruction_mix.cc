/**
 * @file
 * Figure 1 — the retired-instruction breakdown of every workload and
 * comparison suite, plus the paper's Section 5.1 headline numbers:
 * big data branch ratio ~18.7%, integer ratio ~38%, the FP-capacity
 * waste (achieved vs peak GFLOPS) and the category/behaviour
 * sub-averages.
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
    std::cout << "=== Figure 1: instruction mix on " << machine.name
              << " (scale " << scale << ") ===\n\n";

    auto reps = runRepresentatives(machine, scale);
    auto baselines = runBaselines(machine, scale);

    Table t({"workload", "branch%", "load%", "store%", "integer%",
             "fp%", "other%"});
    auto row = [&](const std::string &name, const CpuReport &r) {
        t.cell(name)
            .cell(r.branchRatio * 100, 1)
            .cell(r.loadRatio * 100, 1)
            .cell(r.storeRatio * 100, 1)
            .cell(r.integerRatio * 100, 1)
            .cell(r.fpRatio * 100, 1)
            .cell(r.otherRatio * 100, 1);
        t.endRow();
    };
    for (const auto &run : reps)
        row(run.name, run.report);
    for (const auto &[suite, run] : baselines)
        row(suite, run.report);
    t.print(std::cout);

    auto branch = [](const WorkloadRun &r) {
        return r.report.branchRatio * 100;
    };
    auto integer = [](const WorkloadRun &r) {
        return r.report.integerRatio * 100;
    };

    std::cout << "\n--- Section 5.1 headline numbers ---\n";
    std::cout << "big data avg branch ratio:  "
              << formatFixed(average(reps, branch), 1)
              << "%   (paper: 18.7%)\n";
    std::cout << "big data avg integer ratio: "
              << formatFixed(average(reps, integer), 1)
              << "%   (paper: 38%)\n";

    auto dm = [](const WorkloadRun &r) {
        return r.report.dataMovementRatio * 100;
    };
    auto dmb = [](const WorkloadRun &r) {
        return r.report.dataMovementWithBranchRatio * 100;
    };
    std::cout << "data movement (ld/st+addr): "
              << formatFixed(average(reps, dm), 1)
              << "%   (paper: ~73%)\n";
    std::cout << "  ... including branches:   "
              << formatFixed(average(reps, dmb), 1)
              << "%   (paper: ~92%)\n";

    std::cout << "\nBy application category (branch% / integer%):\n";
    for (auto cat :
         {AppCategory::Service, AppCategory::DataAnalysis,
          AppCategory::InteractiveAnalysis}) {
        std::cout << "  " << toString(cat) << ": ";
        if (auto br = averageByCategory(reps, cat, branch))
            std::cout << formatFixed(*br, 1) << "% / "
                      << formatFixed(
                             *averageByCategory(reps, cat, integer), 1)
                      << "%\n";
        else
            std::cout << "n/a\n";
    }
    std::cout << "By system behaviour (branch% / integer%):\n";
    for (auto b :
         {SystemBehavior::CpuIntensive, SystemBehavior::IoIntensive,
          SystemBehavior::Hybrid}) {
        std::cout << "  " << toString(b) << ": ";
        if (auto br = averageByBehavior(reps, b, branch))
            std::cout << formatFixed(*br, 1) << "% / "
                      << formatFixed(*averageByBehavior(reps, b, integer),
                                     1)
                      << "%\n";
        else
            std::cout << "n/a\n";
    }

    // FP capacity implication: achieved GFLOPS vs machine peak.
    double peak = machine.core.frequencyGhz * machine.core.cores * 4.0;
    auto gflops = [](const WorkloadRun &r) { return r.report.gflops; };
    std::cout << "\nFP capacity: big data avg "
              << formatFixed(average(reps, gflops), 3)
              << " GFLOPS achieved vs " << formatFixed(peak, 1)
              << " GFLOPS peak (paper: ~0.1 vs 57.6)\n";
    return 0;
}
