/**
 * @file
 * Scenario: "simulating my workload twice is too slow" — capture the
 * op stream once into a `.wtrace` file, then replay it against as
 * many machine configurations as you like, in parallel, without ever
 * re-executing the workload.
 *
 * Usage: example_trace_replay [workload] [scale]
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "base/table.hh"
#include "core/profiler.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_reader.hh"
#include "workloads/registry.hh"

using namespace wcrt;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "H-WordCount@wiki";
    double scale = argc > 2 ? std::atof(argv[2]) : 0.3;
    std::string path =
        (std::filesystem::temp_directory_path() / "example.wtrace")
            .string();

    // 1. Execute once, recording the stream.
    const WorkloadEntry &entry = findWorkload(name);
    WorkloadPtr w = entry.make(scale);
    auto t0 = std::chrono::steady_clock::now();
    CaptureResult cap = captureTrace(*w, path, scale);
    auto t1 = std::chrono::steady_clock::now();
    std::cout << "captured " << name << ": " << cap.ops << " ops -> "
              << cap.fileBytes << " bytes ("
              << std::chrono::duration<double>(t1 - t0).count()
              << " s)\n";

    TraceReader reader(path);
    std::cout << "stored at " << reader.bytesPerOp()
              << " bytes/op across " << reader.chunkCount()
              << " chunks\n\n";

    // 2. Replay the one stream across several machines in parallel.
    std::vector<MachineConfig> machines{xeonE5645(), atomD510(),
                                        atomInOrderSim(32),
                                        atomInOrderSim(128)};
    t0 = std::chrono::steady_clock::now();
    auto reports = replayOnConfigs(reader, machines);
    t1 = std::chrono::steady_clock::now();

    Table t({"machine", "IPC", "L1I MPKI", "L2 MPKI"});
    for (const auto &r : reports) {
        t.cell(r.machine)
            .cell(r.ipc, 2)
            .cell(r.l1iMpki, 1)
            .cell(r.l2Mpki, 1);
        t.endRow();
    }
    t.print(std::cout);
    std::cout << "\nreplayed on " << machines.size() << " configs in "
              << std::chrono::duration<double>(t1 - t0).count()
              << " s using " << replayWorkers(0) << " workers\n";

    std::filesystem::remove(path);
    return 0;
}
