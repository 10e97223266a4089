/**
 * @file
 * Concrete traffic targets: the service-stack entry points the
 * traffic engine can drive per request, and the wiring from the
 * workload registry.
 *
 * Three granularities:
 *
 *  - "kv-get": one Zipfian GET through the HBase-style region-server
 *    read path per request — the paper's H-Read (#1) as sustained
 *    traffic instead of a fixed-count batch loop.
 *  - "sql-filter": one vectorized filter + project query over the
 *    e-commerce ORDER table per request, with a per-request random
 *    predicate — the Impala-style interactive-analysis op.
 *
 *    Both draw their per-request parameters from the actor's Rng.
 *  - "workload:<roster name>": any workload registered in
 *    workloads/registry driven as a macro-request (one full
 *    execute() per request) — job submissions as a traffic stream.
 *
 * Shared target state is built once and immutable afterwards; every
 * mutable piece (engine, tracer, RunEnv) lives in the per-actor
 * session, so sessions never synchronize.
 */

#ifndef WCRT_LOADGEN_TARGETS_HH
#define WCRT_LOADGEN_TARGETS_HH

#include <memory>
#include <string>
#include <vector>

#include "loadgen/actor.hh"

namespace wcrt {

/** The fine-grained traffic target names. */
const std::vector<std::string> &trafficTargetNames();

/**
 * Build a traffic target by name: one of trafficTargetNames(), or
 * "workload:<name>" for any entry lookupWorkload() resolves. Exits
 * through wcrt_fatal on an unknown name.
 *
 * @param name Target name.
 * @param scale Dataset scale (same meaning as workload scale).
 */
std::unique_ptr<TrafficTarget> makeTrafficTarget(const std::string &name,
                                                 double scale);

} // namespace wcrt

#endif // WCRT_LOADGEN_TARGETS_HH
