/**
 * @file
 * Ablation — shared-LLC interference between big data workloads.
 *
 * The paper's metric set includes off-core requests and snoop
 * responses, and its related work (Tang et al., ISCA'11) measures how
 * sharing the memory subsystem degrades datacenter applications. This
 * bench quantifies it with the co-run model: each pair of workloads
 * shares the E5645's 12 MB L3, and the table reports each side's L3
 * MPKI solo vs shared, plus cross-lane snoop hits. The six workloads
 * come from the bench trace cache: each is captured at most once and
 * its trace serves all three L3 sizes.
 */

#include "bench_common.hh"
#include "sim/corun.hh"

using namespace wcrt;
using namespace wcrt::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv, kBenchUsesTraceDir);
    double scale = benchScale() * 0.5;
    std::cout << "=== Ablation: shared-L3 co-run interference (scale "
              << scale << ") ===\n\n";

    struct Pair
    {
        const char *a;
        const char *b;
    };
    const Pair pairs[] = {
        {"H-Read", "H-WordCount"},    // service + analytics
        {"S-WordCount", "S-Sort"},    // two JVM analytics
        {"M-WordCount", "M-Sort"},    // two thin-stack analytics
    };
    std::map<std::string, TraceReader> traces;
    for (const auto &pair : pairs) {
        for (const char *name : {pair.a, pair.b}) {
            const WorkloadEntry &entry = findWorkload(name);
            traces.try_emplace(
                name, benchTraceCache().ensure(name, scale, [&] {
                    return entry.make(scale);
                }));
        }
    }

    // At MB-scale inputs the full 12 MB L3 holds both working sets, so
    // the interesting sweep is the shared capacity: the paper-class
    // contention appears once the co-runners overflow the LLC.
    for (uint64_t l3_mb : {12ull, 3ull, 1ull}) {
        MachineConfig machine = xeonE5645();
        machine.l3.sizeBytes = l3_mb * 1024 * 1024;
        std::cout << "--- shared L3 = " << l3_mb << " MB ---\n";
        Table t({"pair", "lane", "solo L3 MPKI", "co-run L3 MPKI",
                 "degradation", "snoop evictions"});
        for (const auto &pair : pairs) {
            CoRunResult r =
                coRun(machine, traces.at(pair.a), traces.at(pair.b));

            std::string label =
                std::string(pair.a) + " + " + pair.b;
            t.cell(label)
                .cell(pair.a)
                .cell(r.a.soloL3Mpki(), 2)
                .cell(r.a.sharedL3Mpki(), 2)
                .cell(r.a.degradation(), 2)
                .cell(r.snoopHits);
            t.endRow();
            t.cell("")
                .cell(pair.b)
                .cell(r.b.soloL3Mpki(), 2)
                .cell(r.b.sharedL3Mpki(), 2)
                .cell(r.b.degradation(), 2)
                .cell(std::string(""));
            t.endRow();
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Degradation > 1 means the co-runner evicted this "
                 "workload's L3 lines — the resource-sharing effect the "
                 "off-core metrics capture. At the E5645's full 12 MB "
                 "the MB-scale working sets co-exist; contention "
                 "emerges as the shared capacity shrinks.\n";
    return 0;
}
