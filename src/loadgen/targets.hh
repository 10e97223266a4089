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
 *    Both take their per-request parameters from RequestDraws: the
 *    built-in draws on the actor's Rng, or a caller's (the scenario
 *    runner passes its seeded generators).
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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "loadgen/actor.hh"

namespace wcrt {

/** The fine-grained traffic target names. */
const std::vector<std::string> &trafficTargetNames();

/**
 * One per-request draw, evaluated at (actor, the session's request
 * index) with the actor's request Rng. The built-in draws consume the
 * Rng; a counter-based draw may ignore it and depend on the position
 * alone.
 */
template <typename T>
using RequestDraw =
    std::function<T(uint64_t actor, uint64_t request, Rng &rng)>;

/**
 * The per-request draws of kv-get and sql-filter. An empty draw keeps
 * the target's built-in one.
 */
struct RequestDraws
{
    /** kv-get key rank, taken modulo the key count (built-in: Zipf
     *  0.9 over the keys). */
    RequestDraw<uint64_t> key;
    /** kv-get response-document bytes, added to the session's network
     *  counter (built-in: none). */
    RequestDraw<uint64_t> docBytes;
    /** sql-filter predicate threshold, `amount > x` (built-in:
     *  uniform [1, 501)). */
    RequestDraw<double> threshold;
};

/**
 * Build a traffic target by name: one of trafficTargetNames(), or
 * "workload:<name>" for any entry findWorkload() resolves. Panics on
 * an unknown name.
 *
 * @param name Target name.
 * @param scale Dataset scale (same meaning as workload scale).
 * @param draws Per-request draws; workload targets ignore them.
 */
std::unique_ptr<TrafficTarget> makeTrafficTarget(
    const std::string &name, double scale, RequestDraws draws = {});

} // namespace wcrt

#endif // WCRT_LOADGEN_TARGETS_HH
