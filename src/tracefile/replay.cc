#include "tracefile/replay.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

namespace wcrt {

uint64_t
ReplayItem::ops() const
{
    uint64_t total = 0;
    for (uint64_t c = first; c < last; ++c)
        total += trace->chunkOps(c);
    return total;
}

std::vector<size_t>
claimOrder(const std::vector<ReplayItem> &items)
{
    std::vector<uint64_t> ops;
    ops.reserve(items.size());
    for (const ReplayItem &item : items)
        ops.push_back(item.ops());
    std::vector<size_t> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return ops[a] > ops[b]; });
    return order;
}

std::vector<CpuReport>
replayOnConfigs(const TraceReader &trace,
                const std::vector<MachineConfig> &configs,
                unsigned threads)
{
    std::vector<ReplayItem> items(configs.size(),
                                  {&trace, 0, trace.chunkCount()});
    return runReplays(items, [&](size_t i, TraceReader &reader) {
        SimCpu cpu(configs[i]);
        reader.replayInto(cpu);
        return cpu.report();
    }, threads);
}

const char *
toString(MrcMode mode)
{
    switch (mode) {
      case MrcMode::StackDistance:
        return "stack";
      case MrcMode::ShardedOracle:
        return "oracle";
      default:
        return "verify";
    }
}

bool
parseMrcMode(const std::string &name, MrcMode &out)
{
    if (name == "stack") {
        out = MrcMode::StackDistance;
    } else if (name == "oracle") {
        out = MrcMode::ShardedOracle;
    } else if (name == "verify") {
        out = MrcMode::Verify;
    } else {
        return false;
    }
    return true;
}

namespace {

/**
 * Cut `trace`'s chunks into `ranges` consecutive runs of about equal
 * op counts: range r covers chunks [cuts[r], cuts[r + 1]).
 */
std::vector<uint64_t>
chunkCuts(const TraceReader &trace, size_t ranges)
{
    std::vector<uint64_t> cuts(ranges + 1, trace.chunkCount());
    cuts[0] = 0;
    uint64_t prefix = 0;
    size_t r = 1;
    for (uint64_t c = 0; c < trace.chunkCount() && r < ranges; ++c) {
        prefix += trace.chunkOps(c);
        if (prefix * ranges >= trace.opCount() * r)
            cuts[r++] = c + 1;
    }
    return cuts;
}

} // namespace

MrcResult
replaySweepLadder(const TraceReader &trace, SweepKind kind,
                  const std::vector<uint32_t> &sizes_kb, MrcMode mode,
                  unsigned threads, uint32_t assoc, uint32_t line_bytes)
{
    MrcResult result;
    if (sizes_kb.empty())
        return result;

    // Every job replays from its own copy of the reader: the
    // stack-distance profile as one job per consecutive chunk range —
    // as many ranges as the worker cap, so the cut depends only on the
    // trace and the request — and the oracle sweep, when the mode has
    // one, over the whole trace. The range profiles then merge in
    // order into the profile one pass would have built.
    std::vector<ReplayItem> items;
    std::vector<StackDistanceProfile> parts;
    if (mode != MrcMode::ShardedOracle) {
        size_t ranges = std::max<uint64_t>(
            1, std::min<uint64_t>(replayWorkers(threads),
                                  trace.chunkCount()));
        std::vector<uint64_t> cuts = chunkCuts(trace, ranges);
        for (size_t r = 0; r < ranges; ++r)
            items.push_back({&trace, cuts[r], cuts[r + 1]});
        parts.assign(ranges, StackDistanceProfile(kind, line_bytes));
    }
    std::optional<FootprintSweep> sweep;
    if (mode != MrcMode::StackDistance) {
        sweep.emplace(kind, sizes_kb, assoc, line_bytes);
        items.push_back({&trace, 0, trace.chunkCount()});
    }
    runReplays(items, [&](size_t i, TraceReader &reader) {
        if (i < parts.size())
            return reader.replayChunks(parts[i], items[i].first,
                                       items[i].last);
        return reader.replayInto(*sweep);
    }, threads);

    if (!parts.empty()) {
        StackDistanceProfile &profile = parts.front();
        for (size_t r = 1; r < parts.size(); ++r)
            profile.absorb(parts[r]);
        result.ratios = profile.missRatios(kind, sizes_kb);
        result.accesses = profile.accesses(kind);
        result.distinctLines = profile.distinctLines(kind);
    }
    if (sweep)
        (parts.empty() ? result.ratios : result.oracleRatios) =
            sweep->missRatios();
    if (!parts.empty() && sweep) {
        for (size_t i = 0; i < result.ratios.size(); ++i)
            result.maxDivergence = std::max(
                result.maxDivergence,
                std::abs(result.ratios[i] - result.oracleRatios[i]));
    }
    return result;
}

MrcResult
replaySweepLadder(const std::string &trace_path, SweepKind kind,
                  const std::vector<uint32_t> &sizes_kb, MrcMode mode,
                  unsigned threads, uint32_t assoc, uint32_t line_bytes)
{
    return replaySweepLadder(TraceReader(trace_path), kind, sizes_kb,
                             mode, threads, assoc, line_bytes);
}

} // namespace wcrt
