/**
 * @file
 * Parallel multi-config replay runner.
 *
 * One captured trace can feed any number of machine configurations,
 * and N traces can feed one configuration (profileTraces() in
 * core/profiler) — each replay is an independent read-only pass over
 * a file, so they parallelize perfectly. The helpers here fan jobs
 * out over the process-wide WorkerPool::shared() (each job opens its
 * own TraceReader) and always return results in input order, so
 * parallel runs are bit-identical to serial ones. No path spawns
 * ad-hoc threads: a `threads` request is resolved exactly once
 * (0 = hardware, 1 = strictly serial on the caller, N = bounded-claim
 * cap on the shared pool) and the calling thread always participates
 * in its own fan-out.
 */

#ifndef WCRT_TRACEFILE_REPLAY_HH
#define WCRT_TRACEFILE_REPLAY_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/footprint.hh"
#include "sim/machine.hh"
#include "sim/sim_cpu.hh"
#include "sim/stack_distance.hh"
#include "tracefile/trace_reader.hh"

namespace wcrt {

/** Worker count actually used for a request (0 → hardware threads). */
unsigned replayWorkers(unsigned requested = 0);

/**
 * Run `count` independent jobs on the shared worker pool, with the
 * caller participating. job(i) is invoked exactly once for every i in
 * [0, count); the first exception any job throws is rethrown on the
 * caller after the ticket settles. A resolved worker count of 1 (or
 * count == 1) bypasses the pool entirely and runs serially.
 *
 * @param count Number of jobs.
 * @param job Callable receiving the job index; must be thread-safe
 *        with respect to the other indices.
 * @param threads Worker cap (0 → hardware threads); resolved once via
 *        replayWorkers() — the single source of the worker count.
 */
void parallelFor(size_t count, const std::function<void(size_t)> &job,
                 unsigned threads = 0);

/**
 * Replay one trace into a SimCpu per machine configuration, in
 * parallel. Results are indexed like `configs`.
 */
std::vector<CpuReport> replayOnConfigs(
    const std::string &trace_path,
    const std::vector<MachineConfig> &configs, unsigned threads = 0);

/**
 * How a miss-ratio curve (MRC) is computed from a trace.
 *
 * StackDistance is the primary path: one decode pass feeds a
 * Mattson reuse-distance profile of the one requested stream and the
 * whole curve — any ladder — falls out of the distance histogram
 * (fully-associative LRU; sim/stack_distance.hh). ShardedOracle is the validation path: the
 * set-associative FootprintSweep reference oracle, bit-exact for the
 * paper's 8-way rungs, at the cost of one tag walk per rung (the
 * enumerator keeps its historical name; the oracle walks each cache
 * whole and no longer shards it). Verify runs both over a single
 * decode pass and reports the maximum divergence between the curves.
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
 * MrcMode: one decode pass in every mode (Verify tees the decoded
 * blocks into both sinks). The stack-distance profile tracks only the
 * `kind` stream, on the calling thread; the worker cap reaches only
 * the oracle sweep, which spreads its (rung, stream) walks over the
 * shared pool.
 *
 * @param trace_path Captured trace.
 * @param kind Which reference stream to measure.
 * @param sizes_kb Capacity ladder in KB.
 * @param mode Curve computation path (see MrcMode).
 * @param threads Oracle worker cap (0 → hardware threads).
 * @param assoc Oracle associativity (paper: 8); the stack-distance
 *        curve is fully associative by construction.
 * @param line_bytes Line size (paper: 64).
 */
MrcResult replaySweepLadder(const std::string &trace_path,
                            SweepKind kind,
                            const std::vector<uint32_t> &sizes_kb,
                            MrcMode mode, unsigned threads = 0,
                            uint32_t assoc = 8,
                            uint32_t line_bytes = 64);

} // namespace wcrt

#endif // WCRT_TRACEFILE_REPLAY_HH
