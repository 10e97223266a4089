/**
 * @file
 * Figure 5 — ITLB / DTLB MPKI for every workload and suite, with the
 * paper's comparison points: big data ITLB avg ~0.05 (service ~0.2),
 * DTLB avg ~0.9 (service ~1.8).
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
    std::cout << "=== Figure 5: TLB MPKI (scale " << scale << ") ===\n\n";

    auto reps = runRepresentatives(machine, scale);
    auto baselines = runBaselines(machine, scale);

    Table t({"workload", "ITLB", "DTLB"});
    auto row = [&](const std::string &name, const CpuReport &r) {
        t.cell(name).cell(r.itlbMpki, 3).cell(r.dtlbMpki, 3);
        t.endRow();
    };
    for (const auto &run : reps)
        row(run.name, run.report);
    for (const auto &[suite, run] : baselines)
        row(suite, run.report);
    t.print(std::cout);

    auto itlb = [](const WorkloadRun &r) { return r.report.itlbMpki; };
    auto dtlb = [](const WorkloadRun &r) { return r.report.dtlbMpki; };

    std::cout << "\nbig data avg ITLB MPKI: "
              << formatFixed(average(reps, itlb), 3)
              << "   (paper: 0.05)\n";
    std::cout << "big data avg DTLB MPKI: "
              << formatFixed(average(reps, dtlb), 3)
              << "   (paper: 0.9)\n";

    std::cout << "\nBy application category (ITLB / DTLB):\n";
    for (auto cat :
         {AppCategory::Service, AppCategory::DataAnalysis,
          AppCategory::InteractiveAnalysis}) {
        std::cout << "  " << toString(cat) << ": ";
        if (auto it = averageByCategory(reps, cat, itlb))
            std::cout << formatFixed(*it, 3) << " / "
                      << formatFixed(*averageByCategory(reps, cat, dtlb), 3)
                      << "\n";
        else
            std::cout << "n/a\n";
    }
    std::cout << "By system behaviour (ITLB / DTLB):\n";
    for (auto b :
         {SystemBehavior::CpuIntensive, SystemBehavior::IoIntensive,
          SystemBehavior::Hybrid}) {
        std::cout << "  " << toString(b) << ": ";
        if (auto it = averageByBehavior(reps, b, itlb))
            std::cout << formatFixed(*it, 3) << " / "
                      << formatFixed(*averageByBehavior(reps, b, dtlb), 3)
                      << "\n";
        else
            std::cout << "n/a\n";
    }
    return 0;
}
