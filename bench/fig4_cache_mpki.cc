/**
 * @file
 * Figure 4 — L1I / L2 / L3 cache MPKI for every workload and suite
 * (plus the Table 3 machine configuration header), with the paper's
 * Section 5.3 comparison points: big data L1I avg ~15 (service ~51,
 * CloudSuite ~32), L2 avg ~11 (service ~32), L3 avg ~1.2 (lowest of
 * all suites).
 */

#include "bench_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    double scale = benchScale();
    MachineConfig m = xeonE5645();

    std::cout << "=== Table 3: node configuration ===\n";
    Table cfg({"component", "value"});
    cfg.cell("CPU type").cell(m.name).endRow();
    cfg.cell("cores").cell(std::to_string(m.core.cores) + " @ " +
                           formatFixed(m.core.frequencyGhz, 2) + " GHz");
    cfg.endRow();
    cfg.cell("L1 DCache").cell(std::to_string(m.l1d.sizeBytes / 1024) +
                               " KB, " + std::to_string(m.l1d.assoc) +
                               "-way");
    cfg.endRow();
    cfg.cell("L1 ICache").cell(std::to_string(m.l1i.sizeBytes / 1024) +
                               " KB, " + std::to_string(m.l1i.assoc) +
                               "-way");
    cfg.endRow();
    cfg.cell("L2 Cache").cell(std::to_string(m.l2.sizeBytes / 1024) +
                              " KB, " + std::to_string(m.l2.assoc) +
                              "-way");
    cfg.endRow();
    cfg.cell("L3 Cache").cell(
        std::to_string(m.l3.sizeBytes / 1024 / 1024) + " MB, " +
        std::to_string(m.l3.assoc) + "-way");
    cfg.endRow();
    cfg.print(std::cout);

    std::cout << "\n=== Figure 4: cache MPKI (scale " << scale
              << ") ===\n\n";

    auto reps = runRepresentatives(m, scale);
    auto mpi = runMpiSuite(m, scale);
    auto baselines = runBaselines(m, scale);

    Table t({"workload", "L1I", "L1D", "L2", "L3"});
    auto row = [&](const std::string &name, const CpuReport &r) {
        t.cell(name)
            .cell(r.l1iMpki, 2)
            .cell(r.l1dMpki, 2)
            .cell(r.l2Mpki, 2)
            .cell(r.l3Mpki, 2);
        t.endRow();
    };
    for (const auto &run : reps)
        row(run.name, run.report);
    for (const auto &run : mpi)
        row(run.name, run.report);
    for (const auto &[suite, run] : baselines)
        row(suite, run.report);
    t.print(std::cout);

    auto l1i = [](const WorkloadRun &r) { return r.report.l1iMpki; };
    auto l2 = [](const WorkloadRun &r) { return r.report.l2Mpki; };
    auto l3 = [](const WorkloadRun &r) { return r.report.l3Mpki; };

    std::cout << "\n--- Section 5.3 comparison ---\n";
    std::cout << "big data avg L1I MPKI: "
              << formatFixed(average(reps, l1i), 1)
              << "   (paper: 15, CloudSuite 32)\n";
    std::cout << "big data avg L2 MPKI:  "
              << formatFixed(average(reps, l2), 1) << "   (paper: 11)\n";
    std::cout << "big data avg L3 MPKI:  "
              << formatFixed(average(reps, l3), 2)
              << "   (paper: 1.2, lowest of all suites)\n";

    std::cout << "\nBy application category (L1I / L2 / L3):\n";
    for (auto cat :
         {AppCategory::Service, AppCategory::DataAnalysis,
          AppCategory::InteractiveAnalysis}) {
        std::cout << "  " << toString(cat) << ": ";
        if (auto l1 = averageByCategory(reps, cat, l1i))
            std::cout << formatFixed(*l1, 1) << " / "
                      << formatFixed(*averageByCategory(reps, cat, l2), 1)
                      << " / "
                      << formatFixed(*averageByCategory(reps, cat, l3), 2);
        else
            std::cout << "n/a";
        std::cout << (cat == AppCategory::Service
                          ? "   (paper: 51 / 32 / 1.2)"
                          : "")
                  << "\n";
    }
    std::cout << "By system behaviour (L1I / L2 / L3):\n";
    for (auto b :
         {SystemBehavior::CpuIntensive, SystemBehavior::IoIntensive,
          SystemBehavior::Hybrid}) {
        std::cout << "  " << toString(b) << ": ";
        if (auto l1 = averageByBehavior(reps, b, l1i))
            std::cout << formatFixed(*l1, 1) << " / "
                      << formatFixed(*averageByBehavior(reps, b, l2), 1)
                      << " / "
                      << formatFixed(*averageByBehavior(reps, b, l3), 2)
                      << "\n";
        else
            std::cout << "n/a\n";
    }

    // Section 5.5 contrast.
    std::cout << "\nMPI avg L1I MPKI "
              << formatFixed(average(mpi, l1i), 1)
              << " vs JVM-stack big data "
              << formatFixed(average(reps, l1i), 1)
              << "   (paper: 3.4 vs 12.6)\n";
    return 0;
}
