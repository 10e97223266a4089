/**
 * @file
 * Figure 6 — instruction cache miss ratio versus cache capacity for
 * the Hadoop workloads and PARSEC on the Atom-like in-order simulator
 * configuration. The paper's finding: the Hadoop instruction footprint
 * is ~1024 KB while PARSEC's is ~128 KB.
 *
 * This bench also demonstrates the trace subsystem's record-once/
 * replay-many contract on one workload: a single captured execution
 * feeds the whole 10-point capacity ladder, the replayed miss ratios
 * are checked against a live run of the same curve model for exact
 * equality, and the wall clock of the replayed ladder is compared
 * against serially re-executing the workload once per capacity (the
 * no-trace world). The checks follow --mrc-mode: stack (default)
 * checks replay-vs-live bit-identity of the single-pass profile;
 * oracle additionally checks against the serial per-rung
 * re-execution (all three are the same 8-way model); verify replays
 * the trace into profile and oracle as two independent jobs, checks
 * both identities and enforces the documented stack-vs-oracle
 * divergence bound — the CI equivalence gate.
 */

#include <chrono>
#include <cmath>

#include "footprint_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One live single-capacity execution per rung: the no-trace cost. */
std::vector<double>
serialReexecutionSweep(const WorkloadEntry &entry, double scale)
{
    std::vector<double> curve;
    for (uint32_t kb : paperSweepSizesKb()) {
        WorkloadPtr w = entry.make(scale);
        FootprintSweep sweep(SweepKind::Instruction, {kb});
        runThroughSink(*w, sweep);
        curve.push_back(sweep.missRatios()[0]);
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesAll | kBenchUsesMrcMode);
    MrcMode mode = benchOptions().mrcMode;
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

    std::cout << "\nmrc mode: " << toString(mode) << "\n";
    std::cout << "Hadoop instruction footprint "
              << kneeLabel(hadoop.curve) << " (paper: ~1024 KB)\n";
    std::cout << "PARSEC instruction footprint "
              << kneeLabel(parsec.curve) << " (paper: ~128 KB)\n";

    bool diverged = divergenceExceeded({&hadoop, &parsec});

    auto group = benchGroup(scn, "Hadoop");
    if (group.empty())
        return diverged ? 1 : 0;
    const WorkloadEntry &demo = group.front();
    auto sizes = paperSweepSizesKb();
    std::cout << "\n--- record-once/replay-many on " << demo.name
              << " (" << toString(mode) << " mode) ---\n";

    // The no-trace world: one live execution per capacity, serially.
    auto t0 = std::chrono::steady_clock::now();
    auto serial_curve = serialReexecutionSweep(demo, scale);
    double serial_s = seconds(t0);

    // The live one-pass ladder through the active mode's model.
    t0 = std::chrono::steady_clock::now();
    auto live_curve = liveSweep(demo, SweepKind::Instruction, scale);
    double live_s = seconds(t0);

    // Record once...
    TraceCache &cache = benchTraceCache();
    bool captured = false;
    t0 = std::chrono::steady_clock::now();
    std::string path = cache.ensure(
        demo.name, scale, [&] { return demo.make(scale); }, &captured);
    double capture_s = seconds(t0);

    // ...replay the whole ladder from the trace through the mode.
    t0 = std::chrono::steady_clock::now();
    MrcResult replay = replaySweepLadder(path, SweepKind::Instruction,
                                         sizes, mode,
                                         benchOptions().jobs);
    double replay_s = seconds(t0);

    // Replay must reproduce the live run of the same model exactly,
    // in every mode. The serial per-rung re-execution is the 8-way
    // oracle model, so it only enters the bit-identity check when an
    // oracle curve exists: replay.ratios in oracle mode,
    // replay.oracleRatios in verify mode.
    size_t mismatches = 0;
    const std::vector<double> *oracle_curve = nullptr;
    if (mode == MrcMode::ShardedOracle)
        oracle_curve = &replay.ratios;
    else if (mode == MrcMode::Verify)
        oracle_curve = &replay.oracleRatios;
    for (size_t i = 0; i < sizes.size(); ++i) {
        if (replay.ratios[i] != live_curve[i])
            ++mismatches;
        if (oracle_curve && (*oracle_curve)[i] != serial_curve[i])
            ++mismatches;
    }
    std::cout << "replayed vs live miss ratios: "
              << (mismatches == 0 ? "identical at all " : "MISMATCH at ")
              << (mismatches == 0 ? sizes.size() : mismatches)
              << " capacities\n";
    if (mode == MrcMode::Verify) {
        bool demo_diverged =
            replay.maxDivergence > kMrcOracleDivergenceBound;
        diverged = diverged || demo_diverged;
        std::cout << "demo max |stack - oracle|: "
                  << formatFixed(replay.maxDivergence * 100, 3)
                  << "% (bound "
                  << formatFixed(kMrcOracleDivergenceBound * 100, 1)
                  << "%): " << (demo_diverged ? "EXCEEDED" : "ok")
                  << "\n";
    }
    std::cout << "serial re-execution (" << sizes.size()
              << " live runs):  " << formatFixed(serial_s, 3) << " s\n";
    std::cout << "live one-pass ladder (1 live run): "
              << formatFixed(live_s, 3) << " s\n";
    std::cout << "trace capture ("
              << (captured ? "cold, 1 live run" : "cache hit")
              << "):      " << formatFixed(capture_s, 3) << " s\n";
    std::cout << "replayed " << sizes.size() << "-rung ladder ("
              << toString(mode) << "):  " << formatFixed(replay_s, 3)
              << " s\n";
    std::cout << "speedup vs serial re-execution: "
              << formatFixed(serial_s / std::max(replay_s, 1e-9), 1)
              << "x (replay only), "
              << formatFixed(serial_s /
                                 std::max(capture_s + replay_s, 1e-9),
                             1)
              << "x (capture + replay)\n";
    return (mismatches == 0 && !diverged) ? 0 : 1;
}
