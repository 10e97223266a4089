/**
 * @file
 * Section 5.5 — the software-stack impact study: the same six
 * algorithms implemented on MPI vs Hadoop vs Spark, with the paper's
 * headline contrasts:
 *  - L1I MPKI: M-WordCount ~2 vs H-WordCount ~7 vs S-WordCount ~17
 *    (an order of magnitude between thin and deep stacks);
 *  - suite averages: MPI ~3.4 vs Hadoop/Spark ~12.6;
 *  - IPC: M-WordCount ~1.8 vs 1.1 / 0.9; suite gap ~21%;
 *  - L2/L3: M-WordCount 0.8/0.1 vs Hadoop 8.4/1.9 vs Spark 16/2.7.
 *
 * An ablation sweep then scales the framework code size to show the
 * front-end stalls track the stack's instruction footprint.
 */

#include "bench_common.hh"
#include "workloads/text_workloads.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesTraceDir | kBenchUsesJobs);
    double scale = benchScale();
    MachineConfig machine = xeonE5645();
    std::cout << "=== Section 5.5: software stack impact (scale "
              << scale << ") ===\n\n";

    // Each algorithm's roster entries on MPI, Hadoop and Spark.
    struct Algo
    {
        const char *name;
        const char *entries[3];
    };
    const Algo algos[] = {
        {"WordCount", {"M-WordCount", "H-WordCount", "S-WordCount"}},
        {"Grep", {"M-Grep", "H-Grep", "S-Grep"}},
        {"Sort", {"M-Sort", "H-Sort@wiki", "S-Sort"}},
        {"Kmeans", {"M-Kmeans", "H-Kmeans", "S-Kmeans"}},
        {"PageRank", {"M-PageRank", "H-PageRank", "S-PageRank"}},
        {"Bayes", {"M-Bayes", "H-NaiveBayes", "S-NaiveBayes"}},
    };
    const StackKind stacks[] = {StackKind::Mpi, StackKind::Hadoop,
                                StackKind::Spark};
    const double code_scales[] = {0.25, 0.5, 1.0, 2.0, 4.0};

    // The ablation's Hadoop WordCount variants join the roster entries
    // under cache keys no roster name uses, so one cached, parallel
    // replay profiles all of them.
    std::vector<WorkloadEntry> entries;
    for (const auto &algo : algos)
        for (const char *name : algo.entries)
            entries.push_back(findWorkload(name));
    for (double cs : code_scales) {
        entries.push_back(
            {"H-WordCount-codeScale" + formatFixed(cs, 2), 0, 0,
             [cs](double s) -> WorkloadPtr {
                 auto w = std::make_unique<TextWorkload>(
                     TextAlgorithm::WordCount, StackKind::Hadoop, s);
                 MapReduceConfig cfg;
                 cfg.useCombiner = true;
                 cfg.codeScale = cs;
                 w->setHadoopConfig(cfg);
                 return w;
             }});
    }
    std::vector<WorkloadRun> runs =
        profileEntriesCached(entries, machine, scale);

    Table t({"algorithm", "stack", "IPC", "L1I", "L2", "L3",
             "frontend-stall"});
    std::map<StackKind, Summary> ipc_by_stack, l1i_by_stack;
    size_t next = 0;
    for (const auto &algo : algos) {
        for (StackKind stack : stacks) {
            const WorkloadRun &run = runs[next++];
            t.cell(algo.name)
                .cell(toString(stack))
                .cell(run.report.ipc, 2)
                .cell(run.report.l1iMpki, 1)
                .cell(run.report.l2Mpki, 1)
                .cell(run.report.l3Mpki, 2)
                .cell(run.report.frontendStallRatio, 2);
            t.endRow();
            ipc_by_stack[stack].add(run.report.ipc);
            l1i_by_stack[stack].add(run.report.l1iMpki);
        }
    }
    t.print(std::cout);

    std::cout << "\n--- Suite averages ---\n";
    for (StackKind stack : stacks) {
        std::cout << toString(stack) << ": IPC "
                  << formatFixed(ipc_by_stack[stack].mean(), 2)
                  << ", L1I MPKI "
                  << formatFixed(l1i_by_stack[stack].mean(), 1) << "\n";
    }
    double gap = (ipc_by_stack[StackKind::Mpi].mean() -
                  (ipc_by_stack[StackKind::Hadoop].mean() +
                   ipc_by_stack[StackKind::Spark].mean()) /
                      2.0) /
                 ipc_by_stack[StackKind::Mpi].mean();
    std::cout << "MPI vs JVM-stack IPC gap: " << formatFixed(gap * 100, 0)
              << "%   (paper: 21%)\n";
    std::cout << "L1I ratio (JVM avg / MPI): "
              << formatFixed((l1i_by_stack[StackKind::Hadoop].mean() +
                              l1i_by_stack[StackKind::Spark].mean()) /
                                 2.0 /
                                 std::max(l1i_by_stack[StackKind::Mpi]
                                              .mean(),
                                          0.01),
                             1)
              << "x   (paper: 12.6 / 3.4 = 3.7x; per-workload up to "
                 "an order of magnitude)\n";

    // Ablation: scale the Hadoop framework's code size.
    std::cout << "\n=== Ablation: Hadoop framework code-size scale ===\n"
              << "(WordCount; codeScale multiplies every framework "
                 "function's bytes)\n\n";
    Table ab({"codeScale", "IPC", "L1I MPKI", "frontend-stall"});
    for (double cs : code_scales) {
        const WorkloadRun &run = runs[next++];
        ab.cell(formatFixed(cs, 2))
            .cell(run.report.ipc, 2)
            .cell(run.report.l1iMpki, 1)
            .cell(run.report.frontendStallRatio, 2);
        ab.endRow();
    }
    ab.print(std::cout);
    return 0;
}
