/**
 * @file
 * Figure 9 — instruction cache miss ratio versus capacity for the
 * MPI-implemented big data workloads next to Hadoop and PARSEC. The
 * paper's Section 5.5 finding: the MPI curves sit on top of PARSEC,
 * i.e. the thin stack's instruction footprint matches traditional
 * workloads — the big footprints come from the software stacks.
 */

#include "footprint_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesAll | kBenchUsesMrcMode);
    ScenarioSpec scn = loadBenchScenario("fig9_mpi.scn");
    double scale = benchScale() * scn.scaleFactor;
    SweepCellResult hadoop = benchSweep(scn, "Hadoop", scale);
    SweepCellResult parsec = benchSweep(scn, "PARSEC", scale);
    SweepCellResult mpi = benchSweep(scn, "MPI", scale);

    printSweepFigure(
        "=== Figure 9: instruction cache miss ratio vs capacity ===",
        {"Hadoop", "PARSEC", "MPI"},
        {hadoop.curve, parsec.curve, mpi.curve});

    std::cout << "\nFootprint estimates: Hadoop "
              << kneeLabel(hadoop.curve) << ", PARSEC "
              << kneeLabel(parsec.curve) << ", MPI "
              << kneeLabel(mpi.curve)
              << " (paper: MPI tracks PARSEC, far below Hadoop)\n";

    // Verify mode is a CI gate here as in fig6-8: a stack-vs-oracle
    // gap past the documented bound fails the run.
    return divergenceExceeded({&hadoop, &parsec, &mpi}) ? 1 : 0;
}
