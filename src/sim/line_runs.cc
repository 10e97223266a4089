#include "sim/line_runs.hh"

namespace wcrt {

void
LineRunStreams::build(const OpBlockView &batch, uint32_t line_shift)
{
    instrRuns.clear();
    dataRuns.clear();
    uniRuns.clear();
    auto extend = [](std::vector<LineRun> &runs, uint64_t line) {
        if (!runs.empty() && runs.back().line == line)
            ++runs.back().count;
        else
            runs.push_back(LineRun{line, 1});
    };
    for (size_t i = 0; i < batch.count; ++i) {
        uint64_t pc_line = batch.pcs[i] >> line_shift;
        extend(instrRuns, pc_line);
        extend(uniRuns, pc_line);
        if (batch.memSizes[i] != 0) {
            uint64_t mem_line = batch.memAddrs[i] >> line_shift;
            extend(dataRuns, mem_line);
            extend(uniRuns, mem_line);
        }
    }
}

} // namespace wcrt
