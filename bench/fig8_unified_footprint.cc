/**
 * @file
 * Figure 8 — unified (instruction + data) cache miss ratio versus
 * capacity for the Hadoop workloads and PARSEC. The paper's finding:
 * the curves converge past 1024 KB, i.e. shared-level capacity
 * requirements are not significantly different.
 */

#include <cmath>

#include "footprint_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesAll | kBenchUsesMrcMode);
    ScenarioSpec scn = loadBenchScenario("fig8_unified.scn");
    double scale = benchScale() * scn.scaleFactor;
    SweepCellResult hadoop_sweep = benchSweep(scn, "Hadoop", scale);
    SweepCellResult parsec_sweep = benchSweep(scn, "PARSEC", scale);
    const std::vector<double> &hadoop = hadoop_sweep.curve;
    const std::vector<double> &parsec = parsec_sweep.curve;

    printSweepFigure(
        "=== Figure 8: unified cache miss ratio vs capacity ===",
        {"Hadoop", "PARSEC"}, {hadoop, parsec});

    auto sizes = paperSweepSizesKb();
    double max_gap = 0.0;
    for (size_t i = 0; i < sizes.size(); ++i) {
        if (sizes[i] >= 1024)
            max_gap = std::max(max_gap,
                               std::abs(hadoop[i] - parsec[i]));
    }
    std::cout << "\nMax |Hadoop - PARSEC| gap past 1024 KB: "
              << formatFixed(max_gap * 100, 3)
              << "% (paper: curves close after 1024 KB)\n";

    // Verify mode is a CI gate here as in fig6: a stack-vs-oracle
    // gap past the documented bound fails the run.
    return divergenceExceeded({&hadoop_sweep, &parsec_sweep}) ? 1 : 0;
}
