#include "tracefile/replay.hh"

#include <algorithm>
#include <cmath>
#include <optional>

namespace wcrt {

std::vector<CpuReport>
replayOnConfigs(const TraceReader &trace,
                const std::vector<MachineConfig> &configs,
                unsigned threads)
{
    std::vector<CpuReport> reports(configs.size());
    parallelFor(configs.size(), [&](size_t i) {
        TraceReader reader(trace);
        SimCpu cpu(configs[i]);
        reader.replayInto(cpu);
        reports[i] = cpu.report();
    }, threads);
    return reports;
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

MrcResult
replaySweepLadder(const TraceReader &trace, SweepKind kind,
                  const std::vector<uint32_t> &sizes_kb, MrcMode mode,
                  unsigned threads, uint32_t assoc, uint32_t line_bytes)
{
    MrcResult result;
    if (sizes_kb.empty())
        return result;

    // The mode's sinks, each replayed from its own copy of the reader:
    // Verify's profile and sweep are two independent jobs. Every
    // chunk decodes the same way in both, so the comparison cannot be
    // skewed by the second pass.
    std::optional<StackDistanceProfile> profile;
    std::optional<FootprintSweep> sweep;
    std::vector<TraceSink *> sinks;
    if (mode != MrcMode::ShardedOracle)
        sinks.push_back(&profile.emplace(kind, line_bytes));
    if (mode != MrcMode::StackDistance)
        sinks.push_back(&sweep.emplace(kind, sizes_kb, assoc,
                                       line_bytes));
    parallelFor(sinks.size(), [&](size_t i) {
        TraceReader reader(trace);
        reader.replayInto(*sinks[i]);
    }, threads);

    if (profile) {
        result.ratios = profile->missRatios(kind, sizes_kb);
        result.accesses = profile->accesses(kind);
        result.distinctLines = profile->distinctLines(kind);
    }
    if (sweep)
        (profile ? result.oracleRatios : result.ratios) =
            sweep->missRatios();
    if (profile && sweep) {
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
