/**
 * @file
 * Ablation — analytic pipeline vs cycle-level in-order core, plus the
 * segment-sampling validation of the paper's Section 5.4 methodology.
 *
 * Part 1 runs a set of workloads through both core models on the Atom
 * configuration: they share cache/TLB/branch components, so the
 * comparison isolates the cycle-accounting method. The analytic model
 * is what the figure benches use; the detailed model bounds its error.
 *
 * Part 2 runs the capacity sweep on full traces vs the paper's five
 * 1% sample windows and reports how close the sampled miss ratios get
 * — the justification for simulating segments instead of whole jobs.
 *
 * Both parts are capture-then-replay: each workload executes once
 * into the trace cache and every model consumes the stored stream, so
 * adding a model costs one replay, not another execution. The stored
 * op count also replaces Part 2's counting pre-pass.
 */

#include "bench_common.hh"
#include "sim/footprint.hh"
#include "sim/inorder_core.hh"
#include "trace/sampling.hh"
#include "tracefile/trace_reader.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesFilter | kBenchUsesTraceDir);
    double scale = benchScale() * 0.5;
    TraceCache &cache = benchTraceCache();
    auto tracePath = [&](const char *name) {
        const WorkloadEntry &entry = findWorkload(name);
        return cache.ensure(entry.name, scale,
                            [&] { return entry.make(scale); });
    };

    std::cout << "=== Part 1: analytic vs cycle-level in-order core "
                 "(Atom config, scale "
              << scale << ") ===\n\n";
    Table t({"workload", "analytic IPC", "detailed IPC", "ratio",
             "load-use stall%", "frontend stall%"});
    for (const char *name :
         {"M-WordCount", "H-WordCount", "S-WordCount", "H-Read",
          "S-Kmeans"}) {
        if (!filterAllows(name))
            continue;
        std::string path = tracePath(name);

        TraceReader analytic_reader(path);
        WorkloadRun analytic = profileWorkload(analytic_reader,
                                               atomD510());

        TraceReader detailed_reader(path);
        InOrderCore core(atomD510());
        detailed_reader.replayInto(core);
        InOrderReport detailed = core.report();

        t.cell(name)
            .cell(analytic.report.ipc, 2)
            .cell(detailed.ipc, 2)
            .cell(analytic.report.ipc / std::max(detailed.ipc, 1e-9), 2)
            .cell(detailed.loadUseStallCycles / detailed.cycles * 100,
                  1)
            .cell(detailed.frontendStallCycles / detailed.cycles * 100,
                  1);
        t.endRow();
    }
    t.print(std::cout);
    std::cout << "\n(The models share caches/TLBs/predictors; ratios "
                 "near 1 validate the analytic accounting the figure "
                 "benches use.)\n";

    std::cout << "\n=== Part 2: whole-trace vs 5x1% segment sampling "
                 "(Section 5.4 methodology) ===\n\n";
    Table s({"workload", "full L1I miss% @32KB", "sampled",
             "full @256KB", "sampled", "sample frac"});
    for (const char *name : {"H-WordCount", "H-NaiveBayes"}) {
        if (!filterAllows(name))
            continue;
        std::vector<uint32_t> sizes{32, 256};
        std::string path = tracePath(name);

        TraceReader full_reader(path);
        FootprintSweep full(SweepKind::Instruction, sizes);
        full_reader.replayInto(full);
        auto full_curve = full.missRatios();

        // The stored op count replaces the counting pre-pass.
        TraceReader sampled_reader(path);
        FootprintSweep sampled_sweep(SweepKind::Instruction, sizes);
        SamplingSink sampler(sampled_sweep, sampled_reader.opCount());
        sampled_reader.replayInto(sampler);
        auto sampled_curve = sampled_sweep.missRatios();

        s.cell(name)
            .cell(full_curve[0] * 100, 3)
            .cell(sampled_curve[0] * 100, 3)
            .cell(full_curve[1] * 100, 3)
            .cell(sampled_curve[1] * 100, 3)
            .cell(sampler.sampledFraction(), 3);
        s.endRow();
    }
    s.print(std::cout);
    std::cout << "\n(Five 1% windows approximate the whole-trace miss "
                 "ratios at ~5% of the simulation cost — the paper's "
                 "MARSSx86 methodology. Each window starts with cold "
                 "caches, so sampled ratios carry the classic warm-up "
                 "bias, most visible at large capacities.)\n";
    return 0;
}
