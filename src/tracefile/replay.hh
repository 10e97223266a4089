/**
 * @file
 * The replay runner and what runs on it: multi-config replay and the
 * MRC ladder.
 *
 * One captured trace can feed any number of sinks, and N traces can
 * feed one configuration (profileTraces() in core/profiler) — each
 * replay is an independent read-only pass over immutable trace bytes,
 * so they parallelize perfectly. Every such fan-out goes through one
 * runner, runReplays(), over (reader, chunk range) items: each job
 * replays its own copy of the item's reader into its own sink through
 * parallelFor() (base/worker_pool.hh), items are claimed heaviest
 * first, and results always come back in input order, so parallel
 * runs are bit-identical to serial ones. The callers hand it open
 * TraceReaders, so a trace is opened and validated once. No sink
 * fans out internally: all replay parallelism is independent (reader
 * copy, sink) jobs. A job may replay only a run of consecutive
 * chunks: the MRC ladder profiles chunk ranges as separate jobs and
 * merges the range profiles, in order, into exactly the one-pass
 * profile.
 */

#ifndef WCRT_TRACEFILE_REPLAY_HH
#define WCRT_TRACEFILE_REPLAY_HH

#include <string>
#include <type_traits>
#include <vector>

#include "base/worker_pool.hh"
#include "sim/footprint.hh"
#include "sim/machine.hh"
#include "sim/sim_cpu.hh"
#include "sim/stack_distance.hh"
#include "tracefile/trace_reader.hh"

namespace wcrt {

/** One replay job's input: chunks [first, last) of an open trace. */
struct ReplayItem
{
    const TraceReader *trace = nullptr;
    uint64_t first = 0;
    uint64_t last = 0;

    /** Ops the item replays, from the chunk prefixes (no decode). */
    uint64_t ops() const;
};

/**
 * The order runReplays() claims `items` in: descending op count, ties
 * in input order. The biggest replays start first, so the pool's last
 * claims are its shortest jobs and no long job starts late.
 */
std::vector<size_t> claimOrder(const std::vector<ReplayItem> &items);

/**
 * The one replay runner: run `job(i, reader)` once per item as
 * parallelFor() jobs, claimed in claimOrder(). `reader` is the job's
 * own copy of `*items[i].trace`, from which the job replays
 * items[i]'s chunks into a sink of its own; the copy, and the decode
 * block it allocates, live only as long as the job. Returns the job
 * results indexed like `items`, so the result is the same at every
 * worker count. The first exception a job throws is rethrown here.
 *
 * @param threads Worker cap (0 → hardware threads, 1 → strictly
 *        serial on the caller, in claim order).
 */
template <typename Job>
auto
runReplays(const std::vector<ReplayItem> &items, const Job &job,
           unsigned threads = 0)
{
    using Result = std::invoke_result_t<const Job &, size_t,
                                        TraceReader &>;
    // vector<bool> packs bits, so writes of distinct results would race.
    static_assert(!std::is_same_v<Result, bool>);
    std::vector<Result> results(items.size());
    std::vector<size_t> order = claimOrder(items);
    parallelFor(order.size(), [&](size_t k) {
        size_t i = order[k];
        TraceReader reader(*items[i].trace);
        results[i] = job(i, reader);
    }, threads);
    return results;
}

/**
 * Replay one trace into a SimCpu per machine configuration, in
 * parallel. Results are indexed like `configs`.
 */
std::vector<CpuReport> replayOnConfigs(
    const TraceReader &trace, const std::vector<MachineConfig> &configs,
    unsigned threads = 0);

/**
 * How a miss-ratio curve (MRC) is computed from a trace.
 *
 * StackDistance is the primary path: a Mattson reuse-distance
 * profile of the one requested stream, from which the whole curve —
 * any ladder — falls out of the distance histogram (fully-associative
 * LRU; sim/stack_distance.hh). The profile is built as consecutive
 * chunk ranges, one per worker, and merged exactly
 * (StackDistanceProfile::absorb), so every worker count gives the
 * one-pass histogram bit for bit. ShardedOracle is
 * the validation path: the set-associative FootprintSweep reference
 * oracle over the same one stream, bit-exact for the paper's 8-way
 * rungs, at the cost of one tag walk per rung (the enumerator keeps
 * its historical name; the oracle walks each cache whole and no
 * longer shards it). Verify runs both — the oracle as one more
 * replay of the whole trace — and reports the maximum divergence
 * between the curves.
 */
enum class MrcMode : uint8_t { StackDistance, ShardedOracle, Verify };

/** Mode name as the CLI flags spell it: stack / oracle / verify. */
const char *toString(MrcMode mode);

/**
 * Parse a CLI mode name ("stack", "oracle", "verify").
 * @return false when the name matches no mode (`out` untouched).
 */
bool parseMrcMode(const std::string &name, MrcMode &out);

/**
 * Documented divergence bound between the fully-associative
 * stack-distance curve and the 8-way oracle on the paper's
 * ladder. The gap runs both ways: the stack curve avoids the
 * oracle's conflict misses, but a loop slightly wider than a rung
 * thrashes fully-associative LRU where an uneven set mapping still
 * retains lines — so neither curve dominates. On every workload
 * roster and synthetic stream measured the absolute gap stays under
 * this bound (most rungs are far closer; the gap peaks at the
 * smallest capacities). Verify-mode consumers (fig6's CI check,
 * tests) enforce it.
 */
inline constexpr double kMrcOracleDivergenceBound = 0.06;

/** A miss-ratio curve computed by one replaySweepLadder mode. */
struct MrcResult
{
    /**
     * Miss ratio per capacity: the stack-distance curve in
     * StackDistance and Verify modes, the set-associative sweep's in
     * ShardedOracle mode.
     */
    std::vector<double> ratios;
    /** The oracle's curve — filled in Verify mode only. */
    std::vector<double> oracleRatios;
    /** max |ratios - oracleRatios| over the ladder (Verify only). */
    double maxDivergence = 0.0;
    /**
     * References the stack-distance profile counted in the measured
     * stream, and the distinct lines among them (StackDistance and
     * Verify modes; 0 in ShardedOracle mode).
     */
    uint64_t accesses = 0;
    uint64_t distinctLines = 0;
};

/**
 * Replay one trace across a cache-capacity ladder in the selected
 * MrcMode. The mode's sinks — the stack-distance profile, the oracle
 * sweep, or both in Verify — each measure only the `kind` stream and
 * each replay from their own copy of the reader, as runReplays()
 * jobs; a sink itself never fans out. The profile runs as
 * min(worker cap, chunk count) jobs over consecutive chunk ranges of
 * about equal op counts, merged in order afterwards; Verify's oracle
 * sweep is one more job over the whole trace, which as the heaviest
 * item is claimed first.
 *
 * @param trace Open captured trace.
 * @param kind Which reference stream to measure.
 * @param sizes_kb Capacity ladder in KB.
 * @param mode Curve computation path (see MrcMode).
 * @param threads Worker cap across the mode's replays (0 → hardware
 *        threads); it also sets the profile's chunk ranges (one
 *        per worker, at most one per chunk), so 1 profiles the
 *        whole trace in one pass.
 * @param assoc Oracle associativity (paper: 8); the stack-distance
 *        curve is fully associative by construction.
 * @param line_bytes Line size (paper: 64).
 */
MrcResult replaySweepLadder(const TraceReader &trace, SweepKind kind,
                            const std::vector<uint32_t> &sizes_kb,
                            MrcMode mode, unsigned threads = 0,
                            uint32_t assoc = 8,
                            uint32_t line_bytes = 64);

/** Open `trace_path` and run the ladder on it. */
MrcResult replaySweepLadder(const std::string &trace_path,
                            SweepKind kind,
                            const std::vector<uint32_t> &sizes_kb,
                            MrcMode mode, unsigned threads = 0,
                            uint32_t assoc = 8,
                            uint32_t line_bytes = 64);

} // namespace wcrt

#endif // WCRT_TRACEFILE_REPLAY_HH
