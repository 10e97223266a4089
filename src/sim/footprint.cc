#include "sim/footprint.hh"

#include "base/logging.hh"

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

FootprintSweep::FootprintSweep(SweepKind kind,
                               std::vector<uint32_t> sizes_kb,
                               uint32_t assoc, uint32_t line_bytes)
    : stream(kind), sizes(std::move(sizes_kb))
{
    if (sizes.empty())
        wcrt_fatal("footprint sweep needs at least one capacity");
    for (uint32_t kb : sizes)
        caches.emplace_back(CacheConfig{
            "sweep", static_cast<uint64_t>(kb) * 1024, assoc,
            line_bytes});
    // Every rung shares the line size, so one shift serves all of
    // them (the Cache constructor has already validated power-of-two).
    lineShift = caches.front().lineShiftBits();
}

void
FootprintSweep::consume(const MicroOp &op)
{
    ++ops;
    for (Cache &c : caches) {
        if (stream != SweepKind::Data)
            c.access(op.pc);
        if (stream != SweepKind::Instruction && op.memSize > 0)
            c.access(op.memAddr);
    }
}

void
FootprintSweep::extend(uint64_t line)
{
    if (!runs.empty() && runs.back().line == line)
        ++runs.back().count;
    else
        runs.push_back(LineRun{line, 1});
}

void
FootprintSweep::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    if (batch.count == 0)
        return;
    // Run-length compression of the stream, built once for all K
    // rungs in the per-op path's order: instruction = every op's pc
    // line, data = the line of each memory access, unified = pc line
    // then memory line per op. A run's tail re-touches the line its
    // head just made MRU of its set, so every rung walks only run
    // heads.
    runs.clear();
    switch (stream) {
      case SweepKind::Instruction:
        for (size_t i = 0; i < batch.count; ++i)
            extend(batch.pcs[i] >> lineShift);
        break;
      case SweepKind::Data:
        for (size_t i = 0; i < batch.count; ++i)
            if (batch.memSizes[i] != 0)
                extend(batch.memAddrs[i] >> lineShift);
        break;
      case SweepKind::Unified:
        for (size_t i = 0; i < batch.count; ++i) {
            extend(batch.pcs[i] >> lineShift);
            if (batch.memSizes[i] != 0)
                extend(batch.memAddrs[i] >> lineShift);
        }
        break;
    }
    for (Cache &c : caches) {
        uint64_t credits = 0;
        for (const LineRun &r : runs) {
            c.accessLine(r.line);
            credits += r.count - 1;
        }
        c.creditRepeatHits(credits);
    }
}

std::vector<double>
FootprintSweep::missRatios() const
{
    std::vector<double> out;
    out.reserve(caches.size());
    for (const Cache &c : caches)
        out.push_back(c.missRatio());
    return out;
}

} // namespace wcrt
