#include "sim/footprint.hh"

#include "base/logging.hh"
#include "base/worker_pool.hh"

namespace wcrt {

std::vector<uint32_t>
paperSweepSizesKb()
{
    return {16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};
}

std::optional<uint32_t>
kneeCapacityKb(const std::vector<double> &curve,
               const std::vector<uint32_t> &sizes_kb)
{
    if (curve.empty() || curve.size() != sizes_kb.size())
        return std::nullopt;
    double floor_ratio = curve.back();
    // The last rung always satisfies the predicate against its own
    // floor, so only earlier rungs count as knees; a curve that first
    // enters the floor band at the final rung is still falling and
    // its knee lies beyond the ladder.
    for (size_t i = 0; i + 1 < curve.size(); ++i) {
        if (curve[i] <= floor_ratio * 1.15 + 1e-6)
            return sizes_kb[i];
    }
    return std::nullopt;
}

FootprintSweep::FootprintSweep(std::vector<uint32_t> sizes_kb,
                               uint32_t assoc, uint32_t line_bytes,
                               unsigned workers)
    : sizes(std::move(sizes_kb)), poolCap(workers)
{
    if (sizes.empty())
        wcrt_fatal("footprint sweep needs at least one capacity");
    for (uint32_t kb : sizes) {
        CacheConfig cfg{"sweep", static_cast<uint64_t>(kb) * 1024,
                        assoc, line_bytes};
        icaches.emplace_back(cfg);
        dcaches.emplace_back(cfg);
        ucaches.emplace_back(cfg);
    }
    // Every rung shares the line size, so one shift serves all of
    // them (the Cache constructor has already validated power-of-two).
    lineShift = icaches.front().lineShiftBits();
}

void
FootprintSweep::consume(const MicroOp &op)
{
    ++ops;
    for (size_t k = 0; k < sizes.size(); ++k) {
        icaches[k].access(op.pc);
        ucaches[k].access(op.pc);
        if (op.memSize > 0) {
            dcaches[k].access(op.memAddr);
            ucaches[k].access(op.memAddr);
        }
    }
}

void
FootprintSweep::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    if (batch.count == 0)
        return;
    // Run-length compression of the three reference streams, built
    // once for all K rungs: instruction = every op's pc line, data =
    // the line of each memory access, unified = pc line then memory
    // line per op (the per-op path's order). A run's tail re-touches
    // the line its head just made MRU of its set, so every rung walks
    // only run heads.
    auto extend = [](std::vector<LineRun> &stream, uint64_t line) {
        if (!stream.empty() && stream.back().line == line)
            ++stream.back().count;
        else
            stream.push_back(LineRun{line, 1});
    };
    for (auto &stream : runs)
        stream.clear();
    for (size_t i = 0; i < batch.count; ++i) {
        uint64_t pc_line = batch.pcs[i] >> lineShift;
        extend(runs[0], pc_line);
        extend(runs[2], pc_line);
        if (batch.memSizes[i] != 0) {
            uint64_t mem_line = batch.memAddrs[i] >> lineShift;
            extend(runs[1], mem_line);
            extend(runs[2], mem_line);
        }
    }

    // Every (rung, stream) cache is independent: each task walks one
    // whole cache, so the counts are bit-identical to a sequential
    // walk however the pool schedules the tasks (a cap of 0 or 1 runs
    // them all on this thread).
    auto walk = [&](size_t task) {
        size_t k = task / 3;
        size_t stream = task % 3;
        Cache &c = stream == 0   ? icaches[k]
                   : stream == 1 ? dcaches[k]
                                 : ucaches[k];
        uint64_t credits = 0;
        for (const LineRun &r : runs[stream]) {
            c.accessLine(r.line);
            credits += r.count - 1;
        }
        c.creditRepeatHits(credits);
    };
    WorkerPool::shared().runBounded(sizes.size() * 3, poolCap, walk);
}

std::vector<double>
FootprintSweep::missRatios(SweepKind kind) const
{
    const std::vector<Cache> *set = nullptr;
    switch (kind) {
      case SweepKind::Instruction:
        set = &icaches;
        break;
      case SweepKind::Data:
        set = &dcaches;
        break;
      case SweepKind::Unified:
        set = &ucaches;
        break;
    }
    std::vector<double> out;
    out.reserve(set->size());
    for (const auto &c : *set)
        out.push_back(c.missRatio());
    return out;
}

} // namespace wcrt
