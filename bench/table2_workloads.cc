/**
 * @file
 * Table 2 — the seventeen representative workloads with their
 * application category, measured data-processing behaviour and
 * measured system behaviour, next to the paper's labels. The
 * profiles are replays of the trace cache fig1-5 fill.
 */

#include "bench_common.hh"

using namespace wcrt;
using namespace wcrt::bench;

namespace {

/** The paper's Table-2 labels for comparison. */
struct PaperRow
{
    const char *behavior;
    const char *data;
};

PaperRow
paperRow(int table2_id)
{
    switch (table2_id) {
      case 1:
        return {"IO-Intensive", "Output=Input, no Intermediate"};
      case 2:
        return {"IO-Intensive", "Output<Input, Intermediate<Input"};
      case 3:
        return {"IO-Intensive", "Output<Input, no Intermediate"};
      case 4:
        return {"Hybrid", "Output=Input, no Intermediate"};
      case 5:
        return {"IO-Intensive", "Output<<Input, Intermediate<Input"};
      case 6:
        return {"Hybrid", "Output=Input, Intermediate=Input"};
      case 7:
        return {"CPU-Intensive", "Output<<Input, Intermediate<<Input"};
      case 8:
        return {"Hybrid", "Output<<Input, no Intermediate"};
      case 9:
        return {"IO-Intensive", "Output<Input, no Intermediate"};
      case 10:
        return {"IO-Intensive", "Output=Input, Intermediate=Input"};
      case 11:
        return {"CPU-Intensive", "Output=Input, Intermediate=Input"};
      case 12:
        return {"Hybrid", "Output<<Input, no Intermediate"};
      case 13:
        return {"CPU-Intensive", "Output>Input, Intermediate>Input"};
      case 14:
        return {"IO-Intensive", "Output<<Input, Intermediate<<Input"};
      case 15:
        return {"CPU-Intensive", "Output<<Input, Intermediate<<Input"};
      case 16:
        return {"CPU-Intensive", "Output<<Input, Intermediate<<Input"};
      case 17:
        return {"Hybrid", "Output=Input, Intermediate=Input"};
      default:
        return {"?", "?"};
    }
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    double scale = benchScale();
    MachineConfig machine = xeonE5645();
    std::cout << "=== Table 2: the 17 representative workloads (scale "
              << scale << ") ===\n\n";

    Table t({"id", "workload", "represents", "category",
             "sys-behaviour (measured)", "sys (paper)",
             "data behaviour (measured)", "data (paper)"});

    const auto entries = filtered(representativeWorkloads());
    const auto runs = runRepresentatives(machine, scale);
    int matches = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const WorkloadEntry &entry = entries[i];
        const WorkloadRun &run = runs[i];
        PaperRow paper = paperRow(entry.table2Id);
        std::string measured_sys = toString(run.sysBehavior);
        if (measured_sys == paper.behavior)
            ++matches;
        t.cell(static_cast<uint64_t>(entry.table2Id))
            .cell(run.name)
            .cell(static_cast<uint64_t>(entry.represents))
            .cell(toString(run.category))
            .cell(measured_sys)
            .cell(paper.behavior)
            .cell(run.data.describe())
            .cell(paper.data);
        t.endRow();
    }
    t.print(std::cout);

    std::cout << "\nSystem-behaviour labels matching the paper: "
              << matches << "/" << entries.size() << "\n";
    std::cout << "(Deviations at small dataset scale are expected for "
                 "the data-volume labels: the fixed vocabulary/output "
                 "sizes loom larger against MB-scale inputs than "
                 "against the paper's 128 GB.)\n";
    return 0;
}
