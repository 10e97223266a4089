/**
 * @file
 * Shared scaffolding for the per-figure/per-table bench binaries.
 *
 * Every bench runs some set of workloads through the Xeon E5645 model
 * and prints paper-style rows. The dataset scale is read from the
 * WCRT_SCALE environment variable (default 0.5) so a full bench sweep
 * stays laptop-fast while larger runs remain one variable away.
 *
 * Workload executions are recorded once into a trace cache (see
 * core/trace_cache.hh) and replayed from disk afterwards, in parallel
 * across workloads — so repeated bench runs and multi-figure sweeps
 * pay one capture per (workload, scale) instead of one execution per
 * figure. Every binary accepts:
 *
 *     --filter=SUBSTR   run only workloads whose name contains SUBSTR
 *     --list            print the roster and exit
 *     --trace-dir=DIR   trace cache directory (default: WCRT_TRACE_DIR
 *                       or <tmp>/wcrt-traces)
 *     --jobs=N          cap replay worker threads (default: hardware)
 *
 * The capacity-sweep figures (6-9) additionally accept:
 *
 *     --mrc-mode=MODE   miss-ratio-curve path: stack (single-pass
 *                       stack-distance profile, the default), oracle
 *                       (per-rung set-associative sweep), or verify
 *                       (both, reporting the curve divergence)
 */

#ifndef WCRT_BENCH_BENCH_COMMON_HH
#define WCRT_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/summary.hh"
#include "base/table.hh"
#include "baselines/baselines.hh"
#include "cli_flags.hh"
#include "core/profiler.hh"
#include "core/trace_cache.hh"
#include "tracefile/replay.hh"
#include "workloads/registry.hh"

namespace wcrt::bench {

/**
 * Which shared flags a bench binary actually consults. Passed to
 * initBench() so a flag the binary parses but never reads draws a
 * warning instead of silently doing nothing (a `--trace-dir` on a
 * bench that generates live would otherwise look honoured).
 */
enum BenchFlagUse : unsigned {
    kBenchUsesNone = 0,
    kBenchUsesFilter = 1u << 0,
    kBenchUsesTraceDir = 1u << 1,
    kBenchUsesJobs = 1u << 2,
    //! Deliberately outside kBenchUsesAll: only the capacity-sweep
    //! figures compute miss-ratio curves, so every other bench keeps
    //! warning on --mrc-mode instead of silently accepting it.
    kBenchUsesMrcMode = 1u << 3,
    kBenchUsesAll =
        kBenchUsesFilter | kBenchUsesTraceDir | kBenchUsesJobs,
};

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    std::string filter;    //!< substring filter on workload names
    bool list = false;     //!< print the roster and exit
    std::string traceDir;  //!< trace cache override ("" = default)
    unsigned jobs = 0;     //!< replay worker cap (0 = hardware)
    //! Miss-ratio-curve path for the sweep figures (--mrc-mode).
    MrcMode mrcMode = MrcMode::StackDistance;
    bool mrcModeSet = false;  //!< --mrc-mode given on the command line
};

/** The options initBench() parsed. */
inline BenchOptions &
benchOptions()
{
    static BenchOptions options;
    return options;
}

/** Print every workload name the shared rosters offer. */
inline void
printRoster(std::ostream &os)
{
    os << "representative workloads:\n";
    for (const auto &e : representativeWorkloads())
        os << "  " << e.name << "\n";
    os << "MPI implementations:\n";
    for (const auto &e : mpiWorkloads())
        os << "  " << e.name << "\n";
    os << "baseline suites:\n";
    for (const auto &e : baselineWorkloads())
        os << "  " << e.name << " (" << toString(e.suite) << ")\n";
    os << "full roster: " << fullRoster().size() << " workloads\n";
}

/**
 * Parse the shared bench flags. Call first in every main();
 * `--list` and `--help` print and exit here.
 *
 * @param uses BenchFlagUse mask of the flags this binary reads; a
 *        flag given on the command line but absent from the mask
 *        warns on stderr rather than being silently ignored.
 */
inline void
initBench(int argc, char **argv, unsigned uses = kBenchUsesAll)
{
    BenchOptions &opt = benchOptions();
    auto value = [&](const char *arg, const char *name, int &i) {
        return flagValue(arg, name, argc, argv, i);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            opt.list = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::cout << "usage: " << argv[0]
                      << " [--filter=SUBSTR] [--list]"
                         " [--trace-dir=DIR] [--jobs=N]";
            if (uses & kBenchUsesMrcMode)
                std::cout << " [--mrc-mode=stack|oracle|verify]";
            std::cout << "\n";
            std::exit(0);
        } else if (const char *v = value(arg, "--filter", i)) {
            opt.filter = v;
        } else if (const char *v2 = value(arg, "--trace-dir", i)) {
            opt.traceDir = v2;
        } else if (const char *v3 = value(arg, "--jobs", i)) {
            opt.jobs = parseJobs(v3);
        } else if (const char *v4 = value(arg, "--mrc-mode", i)) {
            if (!parseMrcMode(v4, opt.mrcMode))
                wcrt_fatal("unknown --mrc-mode: ", v4,
                           " (stack, oracle or verify)");
            opt.mrcModeSet = true;
        } else {
            wcrt_fatal("unknown bench argument: ", arg,
                       " (try --help)");
        }
    }
    auto warn_unused = [&](const char *flag) {
        std::cerr << "warning: " << argv[0] << " ignores " << flag
                  << " (flag parsed but not used by this bench)\n";
    };
    if (!opt.filter.empty() && !(uses & kBenchUsesFilter))
        warn_unused("--filter");
    if (!opt.traceDir.empty() && !(uses & kBenchUsesTraceDir))
        warn_unused("--trace-dir");
    if (opt.jobs != 0 && !(uses & kBenchUsesJobs))
        warn_unused("--jobs");
    if (opt.mrcModeSet && !(uses & kBenchUsesMrcMode))
        warn_unused("--mrc-mode");
    // A malformed WCRT_SCALE fails here, before the bench prints.
    benchScale();
    if (opt.list) {
        printRoster(std::cout);
        std::exit(0);
    }
}

/** True when `name` passes the --filter option. */
inline bool
filterAllows(const std::string &name)
{
    const std::string &f = benchOptions().filter;
    return f.empty() || name.find(f) != std::string::npos;
}

/** The subset of `entries` passing --filter. */
inline std::vector<WorkloadEntry>
filtered(const std::vector<WorkloadEntry> &entries)
{
    std::vector<WorkloadEntry> out;
    for (const auto &e : entries)
        if (filterAllows(e.name))
            out.push_back(e);
    return out;
}

/** The bench process's trace cache (honours --trace-dir). */
inline TraceCache &
benchTraceCache()
{
    static TraceCache cache(benchOptions().traceDir);
    return cache;
}

/**
 * Record-once/replay-many profiling: ensure a cached trace per entry
 * (capturing serially on miss), then replay them against `machine` in
 * parallel. Results are indexed like `entries` and identical to live
 * profileWorkload() runs.
 */
inline std::vector<WorkloadRun>
profileEntriesCached(const std::vector<WorkloadEntry> &entries,
                     const MachineConfig &machine, double scale)
{
    TraceCache &cache = benchTraceCache();
    std::vector<std::string> paths;
    paths.reserve(entries.size());
    for (const auto &e : entries)
        paths.push_back(cache.ensure(
            e.name, scale, [&] { return e.make(scale); }));
    return profileTraces(paths, machine, {}, benchOptions().jobs);
}

/** Profile every representative workload on a machine. */
inline std::vector<WorkloadRun>
runRepresentatives(const MachineConfig &machine, double scale)
{
    return profileEntriesCached(filtered(representativeWorkloads()),
                                machine, scale);
}

/** Profile the six MPI implementations. */
inline std::vector<WorkloadRun>
runMpiSuite(const MachineConfig &machine, double scale)
{
    return profileEntriesCached(filtered(mpiWorkloads()), machine,
                                scale);
}

/** Profile the comparison suites; returns (suite label, run). */
inline std::vector<std::pair<std::string, WorkloadRun>>
runBaselines(const MachineConfig &machine, double scale)
{
    std::vector<WorkloadEntry> entries;
    std::vector<std::string> suites;
    for (const auto &e : baselineWorkloads()) {
        if (filterAllows(e.name)) {
            entries.push_back(WorkloadEntry{e.name, 0, 0, e.make});
            suites.push_back(toString(e.suite));
        }
    }
    auto profiled = profileEntriesCached(entries, machine, scale);

    std::vector<std::pair<std::string, WorkloadRun>> runs;
    runs.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i)
        runs.emplace_back(std::move(suites[i]), std::move(profiled[i]));
    return runs;
}

/** Average a field over a set of runs. */
template <typename Getter>
double
average(const std::vector<WorkloadRun> &runs, Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        s.add(get(r));
    return s.mean();
}

/**
 * Average over the runs matching a category, or nullopt when none
 * does: an empty class has no average, and a printed 0 would read as
 * a measurement. Callers print "n/a" for it.
 */
template <typename Getter>
std::optional<double>
averageByCategory(const std::vector<WorkloadRun> &runs, AppCategory cat,
                  Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        if (r.category == cat)
            s.add(get(r));
    if (s.count() == 0)
        return std::nullopt;
    return s.mean();
}

/**
 * Average over the runs matching a system behaviour class, or nullopt
 * when none does (see averageByCategory()).
 */
template <typename Getter>
std::optional<double>
averageByBehavior(const std::vector<WorkloadRun> &runs,
                  SystemBehavior behavior, Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        if (r.sysBehavior == behavior)
            s.add(get(r));
    if (s.count() == 0)
        return std::nullopt;
    return s.mean();
}

} // namespace wcrt::bench

#endif // WCRT_BENCH_BENCH_COMMON_HH
