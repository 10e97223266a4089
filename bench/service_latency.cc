/**
 * @file
 * Latency-vs-offered-throughput curves over the service stack, driven
 * by the traffic engine (src/loadgen).
 *
 * For each traffic target the bench measures closed-loop capacity
 * first (actors re-issue as fast as the service completes), then
 * sweeps an open-loop Poisson schedule across fractions of that
 * capacity — below, near and past saturation — recording per-request
 * latency into HDR-style histograms. Open-loop latency is measured
 * from the *scheduled* arrival instant, so queueing delay past
 * saturation accumulates into the tail: p99 is expected to rise
 * monotonically along the offered-load axis. A token-bucket phase
 * shows the rate-limited shape, and a co-run row replays the recorded
 * kv-get op stream against the analytics stream through a shared L3
 * (sim/corun) to quantify interference between a latency-critical
 * service and a batch job. Both streams go to per-process temp
 * `.wtrace` files, deleted once the row is printed.
 *
 * Flags (own parser — this binary does not take the shared bench
 * flags, and says so rather than silently ignoring them):
 *
 *     --json FILE   also emit google-benchmark-shaped JSON. Rows with
 *                   items_per_second (deterministic jobs=1 closed-loop
 *                   throughput) feed the CI perf gate; latency rows
 *                   carry p99 as counters only, so the gate skips
 *                   their noisy values.
 *     --target T    one target (kv-get, sql-filter, workload:<name>);
 *                   default runs kv-get and sql-filter.
 *     --actors N    concurrent sessions (default 4).
 *     --jobs N      executor cap on the shared pool (0 = hardware).
 *     --ops N       steady-phase requests per actor (0 = per-target
 *                   default).
 *
 * Dataset scale comes from WCRT_SCALE (default 0.5), like every other
 * bench binary.
 */

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "cli_flags.hh"
#include "loadgen/orchestrator.hh"
#include "loadgen/targets.hh"
#include "sim/corun.hh"
#include "sim/machine.hh"
#include "tracefile/trace_writer.hh"

using namespace wcrt;
using bench::benchScale;

namespace {

struct Options
{
    std::string jsonPath;
    std::string target;   //!< empty = default pair
    unsigned actors = 4;
    unsigned jobs = 0;
    uint64_t ops = 0;     //!< 0 = per-target default
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto value = [&](const char *arg, const char *name, int &i) {
        return bench::flagValue(arg, name, argc, argv, i);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            std::cout << "usage: " << argv[0]
                      << " [--json FILE] [--target T] [--actors N]"
                         " [--jobs N] [--ops N]\n"
                         "targets: kv-get, sql-filter,"
                         " workload:<roster name>\n";
            std::exit(0);
        } else if (const char *v = value(arg, "--json", i)) {
            opt.jsonPath = v;
        } else if (const char *v2 = value(arg, "--target", i)) {
            opt.target = v2;
        } else if (const char *v3 = value(arg, "--actors", i)) {
            opt.actors = static_cast<unsigned>(
                bench::parseCount("--actors", v3, 1, 1u << 16));
        } else if (const char *v4 = value(arg, "--jobs", i)) {
            opt.jobs = bench::parseJobs(v4);
        } else if (const char *v5 = value(arg, "--ops", i)) {
            opt.ops = bench::parseCount("--ops", v5, 0, 1ull << 40);
        } else {
            wcrt_fatal("unknown service_latency argument: ", arg,
                       " (try --help)");
        }
    }
    // A malformed WCRT_SCALE fails here, before the bench prints.
    benchScale();
    return opt;
}

/** Steady-phase requests per actor when --ops is not given. */
uint64_t
defaultOps(const std::string &target)
{
    if (target == "kv-get")
        return 2000;  // one GET per request: cheap, count high
    if (target == "sql-filter")
        return 120;   // one full filter+project scan per request
    return 16;        // workload:<name> macro-requests are heavy
}

/** One JSON row, gbench-shaped so check_perf/perf_trend can read it. */
struct JsonRow
{
    std::string name;
    double realTimeNs = 0;
    double itemsPerSecond = -1;  //!< < 0: omit (info-only row)
    std::vector<std::pair<std::string, double>> counters;
};

std::vector<JsonRow> g_json;

void
emitJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        wcrt_fatal("cannot write ", path);
    out << "{\n  \"context\": {\n"
        << "    \"executable\": \"service_latency\",\n"
        << "    \"num_cpus\": "
        << std::thread::hardware_concurrency() << "\n  },\n"
        << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < g_json.size(); ++i) {
        const JsonRow &r = g_json[i];
        out << "    {\n      \"name\": \"" << r.name << "\",\n"
            << "      \"run_name\": \"" << r.name << "\",\n"
            << "      \"run_type\": \"iteration\",\n"
            << "      \"iterations\": 1,\n"
            << "      \"real_time\": " << r.realTimeNs << ",\n"
            << "      \"cpu_time\": " << r.realTimeNs << ",\n"
            << "      \"time_unit\": \"ns\"";
        if (r.itemsPerSecond >= 0)
            out << ",\n      \"items_per_second\": "
                << r.itemsPerSecond;
        for (const auto &[key, val] : r.counters)
            out << ",\n      \"" << key << "\": " << val;
        out << "\n    }" << (i + 1 < g_json.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
}

/** Latency columns of one recorded phase, appended to `t`. */
void
phaseRow(Table &t, const std::string &target, const PhaseStats &ps,
         double capacity_hz)
{
    t.cell(target)
        .cell(ps.name)
        .cell(toString(ps.arrival))
        .cell(ps.offeredRateHz, 0)
        .cell(ps.achievedRateHz(), 0)
        .cell(capacity_hz > 0 ? ps.offeredRateHz / capacity_hz : 0.0,
              2)
        .cell(static_cast<uint64_t>(ps.latency.quantile(0.50)))
        .cell(static_cast<uint64_t>(ps.latency.quantile(0.90)))
        .cell(static_cast<uint64_t>(ps.latency.quantile(0.99)))
        .cell(static_cast<uint64_t>(ps.latency.quantile(0.999)))
        .cell(ps.requests);
    t.endRow();
}

/** Sanitized fragment of a target name for JSON row names. */
std::string
rowKey(const std::string &target)
{
    std::string out;
    for (char c : target)
        out.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? c
                          : '_');
    return out;
}

/** The full curve for one target; rows appended to the shared table. */
void
runTarget(const std::string &name, const Options &opt, Table &t)
{
    double scale = benchScale();
    uint64_t steady_ops = opt.ops ? opt.ops : defaultOps(name);

    // Per-actor service capacity mu1, from a strictly serial closed
    // loop (one actor, jobs=1). This anchors the open-loop sweep:
    // each actor's Poisson rate is a fraction of the rate one actor
    // can actually serve, so a fraction above 1 saturates every actor
    // individually — true whether the host runs the actors on
    // separate cores or serializes them on one. This run is also the
    // perf-gate row: a fixed request sequence whose throughput is
    // comparable across runs the way the micro_sim rows are.
    auto serial_target = makeTrafficTarget(name, scale);
    OrchestratorConfig serial_cfg;
    serial_cfg.actors = 1;
    serial_cfg.jobs = 1;
    serial_cfg.seed = 1;
    std::vector<PhaseSpec> serial_phases{
        warmupPhase(steady_ops / 4 + 1),
        closedPhase("serial", steady_ops),
    };
    Orchestrator serial_run(*serial_target, serial_phases, serial_cfg);
    TrafficResult serial = serial_run.run();
    const PhaseStats &sp = serial.phases.front();
    double mu1 = sp.achievedRateHz();
    phaseRow(t, name, sp, mu1 * opt.actors);
    JsonRow gate;
    gate.name = "SL_" + rowKey(name) + "Closed";
    gate.realTimeNs = static_cast<double>(sp.elapsedNs);
    gate.itemsPerSecond = mu1;
    gate.counters = {
        {"p50_ns", static_cast<double>(sp.latency.quantile(0.50))},
        {"p99_ns", static_cast<double>(sp.latency.quantile(0.99))},
    };
    g_json.push_back(std::move(gate));

    // Open-loop sweep across the saturation knee. Each fraction is a
    // phase of the same run: the orchestrator barriers between them,
    // so one phase's queue backlog cannot leak into the next phase's
    // scheduled arrivals. Latencies count from the scheduled start,
    // so the overload points accumulate queueing delay into the tail
    // and p99 rises toward (and past) saturation.
    OrchestratorConfig cfg;
    cfg.actors = opt.actors;
    cfg.jobs = opt.jobs;
    cfg.seed = 1;
    const double fractions[] = {0.4, 0.9, 1.3, 1.8};
    auto curve_target = makeTrafficTarget(name, scale);
    std::vector<PhaseSpec> phases{warmupPhase(steady_ops / 4 + 1)};
    for (double f : fractions) {
        std::ostringstream pn;
        pn << "poisson-" << f << "x";
        phases.push_back(
            poissonPhase(pn.str(), steady_ops, f * mu1));
    }
    phases.push_back(tokenBucketPhase("token-bucket-0.9x", steady_ops,
                                      0.9 * mu1, 32));
    Orchestrator curve_run(*curve_target, phases, cfg);
    TrafficResult curve = curve_run.run();
    for (const PhaseStats &ps : curve.phases) {
        phaseRow(t, name, ps, mu1 * opt.actors);
        JsonRow row;
        row.name = "SL_" + rowKey(name) + "_" + ps.name;
        row.realTimeNs = static_cast<double>(ps.elapsedNs);
        row.counters = {
            {"offered_hz", ps.offeredRateHz},
            {"achieved_hz", ps.achievedRateHz()},
            {"p50_ns",
             static_cast<double>(ps.latency.quantile(0.50))},
            {"p99_ns",
             static_cast<double>(ps.latency.quantile(0.99))},
        };
        g_json.push_back(std::move(row));
    }
}

/**
 * Interference co-run: the kv-get service's op stream (actor 0,
 * recorded during a closed-loop run) against the analytics stream,
 * sharing the modelled L3.
 */
void
runCoRun()
{
    double scale = benchScale();
    // Record actor 0 of a one-actor closed-loop run to a temp trace.
    auto record_stream = [&](const std::string &name, uint64_t ops) {
        std::string path =
            (std::filesystem::temp_directory_path() /
             ("wcrt-corun-" + name + "-" + std::to_string(::getpid()) +
              ".wtrace"))
                .string();
        TraceMeta meta;
        meta.workload = name;
        meta.scale = scale;
        TraceWriter writer(path, meta, CodeLayout{});
        auto target = makeTrafficTarget(name, scale);
        OrchestratorConfig cfg;
        cfg.actors = 1;
        cfg.jobs = 1;
        cfg.seed = 1;
        cfg.actor0Sink = &writer;
        std::vector<PhaseSpec> phases{closedPhase("record", ops)};
        Orchestrator run(*target, phases, cfg);
        run.run();
        writer.finish();
        return path;
    };
    // A few hundred requests give the shared-L3 model plenty of
    // resident lines; the full steady counts add no extra signal.
    std::string service = record_stream("kv-get", 256);
    std::string batch = record_stream("sql-filter", 32);

    CoRunResult r =
        coRun(xeonE5645(), TraceReader(service), TraceReader(batch));
    std::filesystem::remove(service);
    std::filesystem::remove(batch);
    Table t({"lane", "instructions", "solo-L3-MPKI", "shared-L3-MPKI",
             "degradation"});
    t.cell("kv-get (service)")
        .cell(r.a.instructions)
        .cell(r.a.soloL3Mpki(), 3)
        .cell(r.a.sharedL3Mpki(), 3)
        .cell(r.a.degradation(), 2);
    t.endRow();
    t.cell("sql-filter (batch)")
        .cell(r.b.instructions)
        .cell(r.b.soloL3Mpki(), 3)
        .cell(r.b.sharedL3Mpki(), 3)
        .cell(r.b.degradation(), 2);
    t.endRow();
    std::cout << "co-run interference (shared L3, snoop hits "
              << r.snoopHits << "):\n";
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::cout << "=== Service latency under load (scale "
              << benchScale() << ", actors " << opt.actors
              << ", jobs "
              << (opt.jobs ? std::to_string(opt.jobs) : "hardware")
              << ") ===\n\n";

    Table t({"target", "phase", "arrival", "offered/s", "achieved/s",
             "load", "p50ns", "p90ns", "p99ns", "p999ns", "requests"});
    std::vector<std::string> targets;
    if (!opt.target.empty())
        targets.push_back(opt.target);
    else
        targets = trafficTargetNames();
    for (const std::string &name : targets)
        runTarget(name, opt, t);
    t.print(std::cout);
    std::cout << "\n";

    if (opt.target.empty())
        runCoRun();

    if (!opt.jsonPath.empty()) {
        emitJson(opt.jsonPath);
        std::cout << "wrote " << g_json.size() << " JSON rows to "
                  << opt.jsonPath << "\n";
    }
    return 0;
}
