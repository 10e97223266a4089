/**
 * @file
 * The benchmark's three workloads, each one of the toolkit's real user
 * paths:
 *  - characterize-77: capture the 77-entry roster, then profileTraces
 *    on the Xeon model and reduceWorkloads to 17 clusters (Section 3);
 *  - mrc-ladder: the stack-distance miss-ratio ladders of Figures 6-8;
 *  - capture-17: recording Table 2's representatives into a cold trace
 *    cache, the write path every bench takes on first use.
 *
 * A workload splits into setup (untimed by the passes, reported as
 * setup_s), the timed calls of one pass, an untimed check of that
 * pass's outputs, and — in the traced run only — a decomposition that
 * times each layer's public calls one at a time.
 */

#ifndef WCRT_PERFBENCH_WORKLOADS_HH
#define WCRT_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

/** Settings shared by every workload of one run. */
struct RunSettings
{
    uint64_t seed = 1;     //!< dataset seed for seedable constructors
    unsigned jobs = 1;     //!< worker cap of every parallel call (nproc)
    std::string scratch;   //!< fresh per-run directory for traces
};

/** Per-layer metrics by name, filled by the traced run. */
using LayerMetrics = std::map<std::string, double>;

/** One benchmark workload. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Dataset scale of every roster entry. */
    virtual double scale() const = 0;

    /** How the dataset seed reaches the roster (for the manifest). */
    virtual std::string seedUse() const = 0;

    /**
     * Prepare the inputs of the timed passes. Called several times;
     * each call starts from nothing and the last one's inputs are used.
     */
    virtual void setup(SpanLog *log, Outcome &out) = 0;

    /** The timed calls of one pass. Never throws: failures are kept
     *  for check(). */
    virtual void run(SpanLog *log) = 0;

    /**
     * Check the pass run() just made against the trace op counts, the
     * output invariants and the first pass. Returns the micro-ops the
     * pass consumed or produced.
     */
    virtual uint64_t check(Outcome &out) = 0;

    /** Timed clean-up that belongs to the pass. */
    virtual void finish() {}

    /**
     * Traced run only, after the traced pass: time each layer's public
     * calls on their own and fill the per-layer metrics this workload
     * exercises.
     */
    virtual void decompose(SpanLog &log, Outcome &out,
                           LayerMetrics &m) = 0;

    /** Digest of every simulated or recorded output of the first pass. */
    virtual std::string digest() const = 0;
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build the named workload; null when the name is unknown. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            const RunSettings &settings);

} // namespace perfbench

#endif // WCRT_PERFBENCH_WORKLOADS_HH
