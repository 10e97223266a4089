#include "tracefile/replay.hh"

#include <cmath>
#include <exception>
#include <mutex>

#include "base/worker_pool.hh"

namespace wcrt {

unsigned
replayWorkers(unsigned requested)
{
    if (requested > 0)
        return requested;
    return WorkerPool::hardwareWorkers();
}

void
parallelFor(size_t count, const std::function<void(size_t)> &job,
            unsigned threads)
{
    if (count == 0)
        return;
    // The one resolution of the worker request on this path: every
    // runner below delegates here, so a --jobs value can never be
    // interpreted differently by the cap and by the pool.
    size_t workers = std::min<size_t>(replayWorkers(threads), count);
    if (workers <= 1) {
        // Strictly serial fast path: no pool, no ticket, exceptions
        // propagate directly.
        for (size_t i = 0; i < count; ++i)
            job(i);
        return;
    }

    // Fan out over the process-wide pool with a bounded-claim ticket:
    // at most `workers` executors (this thread plus workers - 1 pool
    // threads) run jobs concurrently, and this thread participates
    // until every index is claimed. Jobs may throw (replays surface
    // TraceFormatError on corrupt files); the first exception is
    // captured and rethrown after the ticket settles so the pool
    // threads never unwind.
    std::exception_ptr first_error;
    std::mutex error_mutex;
    WorkerPool &pool = WorkerPool::shared();
    pool.runBounded(count, static_cast<unsigned>(workers),
                    [&](size_t i) {
        try {
            job(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
        }
    });
    if (first_error)
        std::rethrow_exception(first_error);
}

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

    // One decode pass total in every mode. The stack-distance profile
    // tracks only the requested stream, on the calling thread; the
    // oracle sweep spreads its (rung, stream) walks over the shared
    // pool per block. The worker request is resolved exactly once,
    // here, and handed down to the oracle as its executor cap.
    unsigned workers = replayWorkers(threads);
    unsigned sink_workers = workers > 1 ? workers : 0;
    TraceReader reader(trace);
    switch (mode) {
      case MrcMode::StackDistance: {
        StackDistanceProfile profile(kind, line_bytes);
        reader.replayInto(profile);
        result.ratios = profile.missRatios(kind, sizes_kb);
        result.accesses = profile.accesses(kind);
        result.distinctLines = profile.distinctLines(kind);
        break;
      }
      case MrcMode::ShardedOracle: {
        FootprintSweep sweep(sizes_kb, assoc, line_bytes, sink_workers);
        reader.replayInto(sweep);
        result.ratios = sweep.missRatios(kind);
        break;
      }
      case MrcMode::Verify: {
        // One decode, two sinks: the tee delivers every block to both
        // the profile and the sweep, so the comparison can never be
        // skewed by two decodes seeing different chunk boundaries.
        StackDistanceProfile profile(kind, line_bytes);
        FootprintSweep sweep(sizes_kb, assoc, line_bytes, sink_workers);
        TeeSink tee;
        tee.addSink(&profile);
        tee.addSink(&sweep);
        reader.replayInto(tee);
        result.ratios = profile.missRatios(kind, sizes_kb);
        result.accesses = profile.accesses(kind);
        result.distinctLines = profile.distinctLines(kind);
        result.oracleRatios = sweep.missRatios(kind);
        for (size_t i = 0; i < result.ratios.size(); ++i)
            result.maxDivergence = std::max(
                result.maxDivergence,
                std::abs(result.ratios[i] - result.oracleRatios[i]));
        break;
      }
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
