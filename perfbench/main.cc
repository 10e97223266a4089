/**
 * @file
 * End-to-end benchmark of the WCRT pipeline: record → replay → MRC →
 * reduce, measured per workload and, in a traced run, layer by layer.
 *
 *   wcrt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --scratch DIR [--report FILE] [--git-rev REV]
 *
 * Untraced (--trace 0): set up several times, then run timed passes for
 * S seconds and print the end-to-end metrics. Traced (--trace 1): the
 * same passes, then one pass with spans around every public call, then
 * the per-layer decomposition calls, and print the per-layer metrics.
 * Every trace goes under DIR, which the caller creates fresh and
 * removes. The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "base/worker_pool.hh"
#include "tracefile/trace_source.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
    std::string report;
    std::string gitRev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "wcrt_perfbench: " << why
              << "\nusage: wcrt_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--report FILE] "
                 "[--git-rev REV]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace" && (v == "0" || v == "1"))
                a.trace = v == "1";
            else if (flag == "--scratch")
                a.scratch = v;
            else if (flag == "--report")
                a.report = v;
            else if (flag == "--git-rev")
                a.gitRev = v;
            else
                usage("bad flag " + flag + " " + v);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty() || a.scratch.empty())
        usage("--workload and --scratch are required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** One timed pass of the untraced loop. */
struct Pass
{
    double wall = 0.0;
    double cpu = 0.0;
    double peakRss = 0.0;  //!< MB; includes setup if the reset failed
    uint64_t ops = 0;
};

/** Run one pass; only run() and finish() are timed, not check(). */
Pass
timedPass(BenchWorkload &w, SpanLog *log, Outcome &out)
{
    Pass p;
    resetPeakRss();
    double w0 = wallNow(), c0 = cpuNow();
    w.run(log);
    double w1 = wallNow(), c1 = cpuNow();
    p.peakRss = peakRssMb();
    p.ops = w.check(out);
    double w2 = wallNow(), c2 = cpuNow();
    w.finish();
    double w3 = wallNow(), c3 = cpuNow();
    p.wall = (w1 - w0) + (w3 - w2);
    p.cpu = (c1 - c0) + (c3 - c2);
    return p;
}

struct Metric
{
    const char *name;
    const char *unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"mops_per_s", "Mops/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics. A workload that never calls a layer reports 0 for
 * it: sim.sd_* runs on mrc-ladder only, core.reduce_s and stats.* on
 * characterize-77 only.
 */
const Metric kPerLayer[] = {
    {"tracefile.open_s", "s"},
    {"tracefile.decode_s", "s"},
    {"tracefile.decode_mops_per_s", "Mops/s"},
    {"tracefile.crc_s", "s"},
    {"tracefile.bytes_read", "bytes"},
    {"tracefile.bytes_written", "bytes"},
    {"tracefile.bytes_per_op", "bytes/op"},
    {"tracefile.encode_write_s", "s"},
    {"workloads.setup_s", "s"},
    {"trace.emit_s", "s"},
    {"sim.simcpu_s", "s"},
    {"sim.simcpu_mops_per_s", "Mops/s"},
    {"sim.sd_serial_s", "s"},
    {"sim.sd_parallel_s", "s"},
    {"sim.sd_speedup", "ratio"},
    {"sim.sd_accesses.instr", "count"},
    {"sim.sd_accesses.data", "count"},
    {"sim.sd_accesses.unified", "count"},
    {"sim.sd_distinct_lines.instr", "count"},
    {"sim.sd_distinct_lines.data", "count"},
    {"sim.sd_distinct_lines.unified", "count"},
    {"core.item_s_p50", "s"},
    {"core.item_s_max", "s"},
    {"core.straggler_ratio", "ratio"},
    {"core.reduce_s", "s"},
    {"stats.pca_s", "s"},
    {"stats.kmeans_s", "s"},
    {"core.capture_s", "s"},
    {"core.trace_cache_misses", "count"},
    {"base.pool_busy_ratio", "ratio"},
    {"base.pool_idle_s", "s"},
    {"fail_ratio", "fraction"},
    {"bench.tracing_overhead_ratio", "ratio"},
    {"bench.unaccounted_cpu_s", "s"},
};

/**
 * Median over setup and pass spans of the TraceCache::ensure time each
 * one spent: the cost of capturing the roster once.
 */
double
captureSeconds(const SpanLog &log)
{
    const auto &spans = log.spans();
    std::vector<double> rounds;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != -1)
            continue;
        double sum = 0.0;
        bool any = false;
        for (const auto &s : spans) {
            if (s.parent == static_cast<int>(i) &&
                s.name == "core.TraceCache.ensure") {
                sum += s.seconds();
                any = true;
            }
        }
        if (any)
            rounds.push_back(sum);
    }
    return rounds.empty() ? 0.0 : median(rounds);
}

std::string
manifestJson(const Args &a, const BenchWorkload &w, unsigned jobs)
{
    wcrt::ReaderOptions ro = wcrt::defaultReaderOptions();
    std::ostringstream o;
    o << "{\"git_rev\": " << jsonString(a.gitRev)
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
      << ", \"nproc\": " << wcrt::WorkerPool::hardwareWorkers()
      << ", \"jobs\": " << jobs
      << ", \"workload\": " << jsonString(a.workload)
      << ", \"scale\": " << jsonNumber(w.scale())
      << ", \"seed\": " << a.seed
      << ", \"seed_use\": " << jsonString(w.seedUse())
      << ", \"reader_io\": " << jsonString(wcrt::toString(ro.io))
      << ", \"reader_io_in_use\": "
      << jsonString(wcrt::mmapAvailable() ? "mmap" : "stream")
      << ", \"reader_crc\": " << jsonString(wcrt::toString(ro.crc))
      << ", \"seconds\": " << jsonNumber(a.seconds)
      << ", \"trace\": " << (a.trace ? 1 : 0) << "}";
    return o.str();
}

std::string
metricsJson(const Metric *defs, size_t n, const LayerMetrics &values)
{
    std::ostringstream o;
    o << "{";
    for (size_t i = 0; i < n; ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        o << (i ? ", " : "") << jsonString(defs[i].name)
          << ": {\"value\": " << jsonNumber(v)
          << ", \"unit\": " << jsonString(defs[i].unit) << "}";
    }
    return o.str() + "}";
}

std::string
spansJson(const SpanLog &log)
{
    std::ostringstream o;
    o << "[";
    const auto &spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        o << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
          << ", \"name\": " << jsonString(s.name)
          << ", \"item\": " << jsonString(s.item)
          << ", \"parent\": " << s.parent
          << ", \"start\": " << jsonNumber(s.start)
          << ", \"end\": " << jsonNumber(s.end)
          << ", \"cpu\": " << jsonNumber(s.cpuSeconds())
          << ", \"self\": "
          << jsonNumber(log.selfSeconds(static_cast<int>(i))) << "}";
    }
    return o.str() + "]";
}

int
runBenchmark(const Args &a)
{
    unsigned jobs = wcrt::WorkerPool::hardwareWorkers();
    RunSettings settings{a.seed, jobs, a.scratch};
    std::unique_ptr<BenchWorkload> w = makeWorkload(a.workload, settings);
    if (!w)
        usage("unknown workload " + a.workload);

    Outcome out;
    SpanLog log;
    SpanLog *traced = a.trace ? &log : nullptr;
    std::string manifest = manifestJson(a, *w, jobs);
    std::cout << "manifest " << manifest << "\n";

    // Set up several times; setup_s is the median.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        double t0 = wallNow();
        span(traced, "bench.setup", "", [&] { w->setup(traced, out); });
        setups.push_back(wallNow() - t0);
    }

    // Untraced timed passes for the requested time.
    std::vector<Pass> passes;
    double start = wallNow();
    do {
        passes.push_back(timedPass(*w, nullptr, out));
    } while (wallNow() - start < a.seconds);

    std::vector<double> walls, cpus, rss, rates, busy, idle;
    for (const Pass &p : passes) {
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
        rss.push_back(p.peakRss);
        rates.push_back(static_cast<double>(p.ops) / p.wall / 1e6);
        busy.push_back(p.cpu / (p.wall * jobs));
        idle.push_back(p.wall * jobs - p.cpu);
    }
    double wallMedian = median(walls);

    LayerMetrics e2e = {
        {"setup_s", median(setups)},
        {"mops_per_s", median(rates)},
        {"cpu_s", median(cpus)},
        {"peak_rss_mb", median(rss)},
    };

    LayerMetrics layers;
    std::map<std::string, double> passSelf;
    if (a.trace) {
        int id = log.open("bench.pass", "");
        Pass tp = timedPass(*w, traced, out);
        log.close(id);
        double accounted = 0.0;
        for (const auto &s : log.spans())
            if (s.parent == id)
                accounted += s.cpuSeconds();
        passSelf = log.selfByLayer(id);

        w->decompose(log, out, layers);
        layers["core.straggler_ratio"] =
            layers["core.item_s_max"] / wallMedian;
        layers["core.capture_s"] = captureSeconds(log);
        layers["base.pool_busy_ratio"] = median(busy);
        layers["base.pool_idle_s"] = median(idle);
        layers["bench.tracing_overhead_ratio"] = tp.wall / wallMedian;
        layers["bench.unaccounted_cpu_s"] = tp.cpu - accounted;
    }
    layers["fail_ratio"] = static_cast<double>(out.failed()) /
                           static_cast<double>(out.attempted());

    std::cout << "workload " << a.workload << ": " << passes.size()
              << " timed passes, median pass " << wallMedian << " s, "
              << kSetups << " setups\n";
    for (const Metric &m : kEndToEnd)
        std::cout << "  " << m.name << " = " << jsonNumber(e2e[m.name])
                  << " " << m.unit << "\n";
    std::cout << "  fail_ratio = " << jsonNumber(layers["fail_ratio"])
              << " (" << out.failed() << " of " << out.attempted()
              << " items)\n";
    if (a.trace) {
        for (const Metric &m : kPerLayer)
            std::cout << "  " << m.name << " = "
                      << jsonNumber(layers[m.name]) << " " << m.unit
                      << "\n";
        std::cout << "  traced pass self time by layer:";
        for (const auto &[layer, secs] : passSelf)
            std::cout << " " << layer << "=" << jsonNumber(secs) << "s";
        std::cout << "\n";
    }
    for (const auto &r : out.reasons())
        std::cout << "  FAILED " << r << "\n";
    std::cout << "digest " << a.workload << " " << w->digest() << "\n";

    if (!a.report.empty()) {
        std::ofstream rep(a.report);
        rep << "{\"manifest\": " << manifest
            << ",\n \"digest\": " << jsonString(w->digest())
            << ",\n \"passes\": [";
        for (size_t i = 0; i < passes.size(); ++i)
            rep << (i ? ", " : "") << "{\"wall_s\": "
                << jsonNumber(passes[i].wall) << ", \"cpu_s\": "
                << jsonNumber(passes[i].cpu) << ", \"peak_rss_mb\": "
                << jsonNumber(passes[i].peakRss) << ", \"ops\": "
                << passes[i].ops << "}";
        rep << "],\n \"setups_s\": [";
        for (size_t i = 0; i < setups.size(); ++i)
            rep << (i ? ", " : "") << jsonNumber(setups[i]);
        rep << "],\n \"end_to_end\": "
            << metricsJson(kEndToEnd, std::size(kEndToEnd), e2e)
            << ",\n \"per_layer\": "
            << metricsJson(kPerLayer, std::size(kPerLayer), layers)
            << ",\n \"spans\": " << spansJson(log) << "}\n";
        if (!rep)
            std::cerr << "wcrt_perfbench: cannot write " << a.report
                      << "\n";
    }

    std::cout << "{\"correct\": " << (out.failed() ? "false" : "true")
              << ", \"attempted\": " << out.attempted()
              << ", \"failed\": " << out.failed() << ", \"metrics\": "
              << (a.trace ? metricsJson(kPerLayer, std::size(kPerLayer),
                                        layers)
                          : metricsJson(kEndToEnd, std::size(kEndToEnd),
                                        e2e))
              << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "wcrt_perfbench: " << e.what() << "\n";
        return 1;
    }
}
