/**
 * @file
 * Extension — the shared-nothing scale-out behaviour behind the
 * paper's Section 1 framing ("scale-out solutions, which add more
 * nodes, are widely adopted"): the same jobs across 1..8 nodes.
 *
 * Two properties should emerge:
 *  - per-node micro-architecture is shard-invariant (which is the
 *    methodological justification for the paper's per-node counters
 *    and for this reproduction's single-node profiling), and
 *  - wall-clock speedup is near-linear for compute-dominated jobs and
 *    bends for shuffle-heavy ones as the exchange grows.
 *
 * Speedup is the one-node row's wall time over each row's: the
 * one-node cluster runs the whole job on seed 7, the same run a
 * single-node reference would be.
 */

#include "bench_common.hh"
#include "core/cluster.hh"
#include "workloads/text_workloads.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesNone);
    double scale = benchScale() * 2.0;  // cluster shards divide this
    std::cout << "=== Extension: shared-nothing scale-out (total scale "
              << scale << ") ===\n\n";

    struct Job
    {
        const char *name;
        TextAlgorithm algo;
        StackKind stack;
    };
    const Job jobs[] = {
        {"H-WordCount (compute-leaning)", TextAlgorithm::WordCount,
         StackKind::Hadoop},
        {"H-Sort (shuffle-heavy)", TextAlgorithm::Sort,
         StackKind::Hadoop},
    };

    for (const auto &job : jobs) {
        std::cout << "--- " << job.name << " ---\n";
        Table t({"nodes", "speedup", "network s", "node IPC",
                 "node L1I MPKI"});
        double one_node_wall = 0.0;
        for (uint32_t nodes : {1u, 2u, 5u, 8u}) {
            ClusterConfig cluster;
            cluster.nodes = nodes;
            ClusterRun run = profileOnCluster(
                [&](double shard, uint64_t seed) -> WorkloadPtr {
                    return std::make_unique<TextWorkload>(
                        job.algo, job.stack, shard, seed);
                },
                xeonE5645(), scale, cluster);
            if (nodes == 1)
                one_node_wall = run.wallSeconds;
            t.cell(static_cast<uint64_t>(nodes))
                .cell(one_node_wall / run.wallSeconds, 2)
                .cell(run.networkSeconds, 4)
                .cell(run.averageIpc(), 2)
                .cell(run.averageL1iMpki(), 1);
            t.endRow();
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Per-node IPC and L1I stay ~flat across cluster sizes: "
                 "the paper's per-node counters (and this repo's "
                 "single-node profiling) measure a shard-size-invariant "
                 "quantity.\n";
    return 0;
}
