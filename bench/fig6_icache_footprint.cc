/**
 * @file
 * Figure 6 — instruction cache miss ratio versus cache capacity for
 * the Hadoop workloads and PARSEC on the Atom-like in-order simulator
 * configuration. The paper's finding: the Hadoop instruction footprint
 * is ~1024 KB while PARSEC's is ~128 KB.
 *
 * Every curve is replayed from the trace cache through --mrc-mode:
 * stack (default) replays each trace once into the single-pass
 * stack-distance profile, oracle into the per-rung set-associative
 * sweep, and verify into both as independent jobs, enforcing the
 * documented stack-vs-oracle divergence bound — the CI equivalence
 * gate. That a replayed sink matches the same sink fed live is pinned
 * by test (TraceFile.LiveAndReplayedSinksAgree), not re-run here.
 */

#include "footprint_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesAll | kBenchUsesMrcMode);
    // Roster, sweep kind and scale factor come from the checked-in
    // scenario — the same file scenario_tool runs, so the two paths
    // cannot drift apart.
    ScenarioSpec scn = loadBenchScenario("fig6_icache.scn");
    double scale = benchScale() * scn.scaleFactor;
    auto hadoop = benchSweep(scn, "Hadoop", scale);
    auto parsec = benchSweep(scn, "PARSEC", scale);

    printSweepFigure(
        "=== Figure 6: instruction cache miss ratio vs capacity ===",
        {"Hadoop", "PARSEC"}, {hadoop.curve, parsec.curve});

    std::cout << "\nmrc mode: " << toString(benchOptions().mrcMode)
              << "\n";
    std::cout << "Hadoop instruction footprint "
              << kneeLabel(hadoop.curve) << " (paper: ~1024 KB)\n";
    std::cout << "PARSEC instruction footprint "
              << kneeLabel(parsec.curve) << " (paper: ~128 KB)\n";

    return divergenceExceeded({&hadoop, &parsec}) ? 1 : 0;
}
