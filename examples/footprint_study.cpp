/**
 * @file
 * Scenario: "how much I-cache does my stack need?" — the paper's
 * Section 5.4 methodology as an API walkthrough: sweep cache
 * capacities for any workload and locate its instruction and data
 * working sets.
 *
 * Usage: example_footprint_study [workload-name] [scale]
 */

#include <cstdlib>
#include <iostream>

#include "base/table.hh"
#include "core/profiler.hh"
#include "sim/footprint.hh"
#include "workloads/registry.hh"

using namespace wcrt;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "H-WordCount";
    double scale = argc > 2 ? std::atof(argv[2]) : 0.3;

    WorkloadPtr workload = findWorkload(name).make(scale);
    std::cout << "Cache-capacity sweep for " << workload->name()
              << " (Atom-like in-order config, 8-way, 64 B lines)\n\n";

    // One sweep per reference stream, all fed by one execution.
    auto sizes = paperSweepSizesKb();
    FootprintSweep isweep(SweepKind::Instruction, sizes);
    FootprintSweep dsweep(SweepKind::Data, sizes);
    FootprintSweep usweep(SweepKind::Unified, sizes);
    TeeSink tee;
    tee.addSink(&isweep);
    tee.addSink(&dsweep);
    tee.addSink(&usweep);
    runThroughSink(*workload, tee);

    auto icurve = isweep.missRatios();
    auto dcurve = dsweep.missRatios();
    auto ucurve = usweep.missRatios();

    Table t({"capacity KB", "I-miss %", "D-miss %", "unified-miss %"});
    for (size_t i = 0; i < sizes.size(); ++i) {
        t.cell(static_cast<uint64_t>(sizes[i]))
            .cell(icurve[i] * 100, 3)
            .cell(dcurve[i] * 100, 3)
            .cell(ucurve[i] * 100, 3);
        t.endRow();
    }
    t.print(std::cout);

    // Working-set estimate: first capacity within 15% of the floor.
    auto knee = [&](const std::vector<double> &curve) {
        for (size_t i = 0; i < curve.size(); ++i)
            if (curve[i] <= curve.back() * 1.15 + 1e-6)
                return sizes[i];
        return sizes.back();
    };
    std::cout << "\nEstimated instruction working set: ~" << knee(icurve)
              << " KB\n";
    std::cout << "Estimated data working set:        ~" << knee(dcurve)
              << " KB\n";
    std::cout << "\n(" << isweep.instructions()
              << " instructions swept through "
              << sizes.size() * 3 << " cache instances.)\n";
    return 0;
}
