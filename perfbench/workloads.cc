#include "workloads.hh"

#include <array>
#include <exception>
#include <filesystem>
#include <functional>

#include "base/worker_pool.hh"
#include "baselines/baselines.hh"
#include "core/analyzer.hh"
#include "core/profiler.hh"
#include "core/trace_cache.hh"
#include "sim/machine.hh"
#include "sim/stack_distance.hh"
#include "stats/kmeans.hh"
#include "stats/pca.hh"
#include "trace/sampling.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_reader.hh"
#include "workloads/ml_workloads.hh"
#include "workloads/query_workloads.hh"
#include "workloads/registry.hh"
#include "workloads/service_workloads.hh"
#include "workloads/text_workloads.hh"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wcrt;

namespace {

/** A roster entry with its scale and seed already bound. */
struct RosterItem
{
    std::string name;
    std::function<WorkloadPtr()> make;
};

using Roster = std::vector<RosterItem>;

/** The registry's 77 entries; their seed is fixed at 7 in registry.cc. */
Roster
fullRosterAt(double scale)
{
    Roster out;
    for (const auto &e : fullRoster())
        out.push_back({e.name, [&e, scale] { return e.make(scale); }});
    return out;
}

/**
 * Table 2's representatives (and PARSEC-like), built directly so the
 * run's seed reaches every constructor that takes one. The entries
 * mirror registry.cc's representativeWorkloads(), which binds seed 7.
 */
RosterItem
seeded(const std::string &name, double scale, uint64_t seed)
{
    using TA = TextAlgorithm;
    using MA = MlAlgorithm;
    using QK = QueryKind;
    using SK = StackKind;
    auto text = [=](TA a, SK s) -> std::function<WorkloadPtr()> {
        return [=] {
            return std::make_unique<TextWorkload>(a, s, scale, seed);
        };
    };
    auto ml = [=](MA a, SK s) -> std::function<WorkloadPtr()> {
        return [=] { return std::make_unique<MlWorkload>(a, s, scale, seed); };
    };
    auto sql = [=](QK q, SK s) -> std::function<WorkloadPtr()> {
        return [=] {
            return std::make_unique<QueryWorkload>(q, s, scale, seed);
        };
    };
    std::function<WorkloadPtr()> make;
    if (name == "H-Read")
        make = [=] {
            return std::make_unique<HBaseReadWorkload>(scale, seed);
        };
    else if (name == "H-Difference")
        make = sql(QK::Difference, SK::Hive);
    else if (name == "I-SelectQuery")
        make = sql(QK::SelectQuery, SK::Impala);
    else if (name == "H-TPC-DS-query3")
        make = sql(QK::TpcdsQ3, SK::Hive);
    else if (name == "S-WordCount")
        make = text(TA::WordCount, SK::Spark);
    else if (name == "I-OrderBy")
        make = sql(QK::OrderBy, SK::Impala);
    else if (name == "H-Grep")
        make = text(TA::Grep, SK::Hadoop);
    else if (name == "S-TPC-DS-query10")
        make = sql(QK::TpcdsQ10, SK::Shark);
    else if (name == "S-Project")
        make = sql(QK::Project, SK::Shark);
    else if (name == "S-OrderBy")
        make = sql(QK::OrderBy, SK::Shark);
    else if (name == "S-Kmeans")
        make = ml(MA::KMeans, SK::Spark);
    else if (name == "S-TPC-DS-query8")
        make = sql(QK::TpcdsQ8, SK::Shark);
    else if (name == "S-PageRank")
        make = ml(MA::PageRank, SK::Spark);
    else if (name == "S-Grep")
        make = text(TA::Grep, SK::Spark);
    else if (name == "H-WordCount")
        make = text(TA::WordCount, SK::Hadoop);
    else if (name == "H-NaiveBayes")
        make = ml(MA::NaiveBayes, SK::Hadoop);
    else if (name == "S-Sort")
        make = text(TA::Sort, SK::Spark);
    else if (name == "PARSEC-like") {
        // The baseline kernels take no seed.
        auto entry = baselineSuite(BaselineSuite::Parsec).at(0);
        make = [entry, scale] { return entry.make(scale); };
    } else {
        throw std::logic_error("no seeded constructor for " + name);
    }
    return {name, std::move(make)};
}

Roster
seededRoster(const std::vector<std::string> &names, double scale,
             uint64_t seed)
{
    Roster out;
    for (const auto &n : names)
        out.push_back(seeded(n, scale, seed));
    return out;
}

/** What a trace file holds, read back through TraceReader. */
struct TraceInfo
{
    std::string name;
    std::string path;
    uint64_t ops = 0;
    uint64_t fileBytes = 0;
    uint64_t payloadBytes = 0;
    uint64_t chunks = 0;

    uint64_t
    digest() const
    {
        return Digest().add(ops).add(fileBytes).add(payloadBytes)
            .add(chunks).value();
    }
};

TraceInfo
inspect(const std::string &name, const std::string &path)
{
    TraceReader r(path);
    return {name, path, r.opCount(), r.fileBytes(), r.payloadBytes(),
            r.chunkCount()};
}

/**
 * Item digests of the first time each item was seen; every later
 * result of the same item must match bit for bit.
 */
class Reference
{
  public:
    /** Empty when `value` matches (or sets) the reference. */
    std::string
    compare(const std::string &key, uint64_t value)
    {
        auto [it, fresh] = first.emplace(key, value);
        if (fresh || it->second == value)
            return "";
        return "output differs from the first pass";
    }

    /** Digest over every reference in key order. */
    std::string
    digest() const
    {
        Digest d;
        for (const auto &[k, v] : first)
            d.add(k).add(v);
        return d.hex();
    }

  private:
    std::map<std::string, uint64_t> first;
};

/** One round of TraceCache::ensure over a roster, into a fresh dir. */
struct CaptureRound
{
    std::vector<std::string> paths;    //!< "" where ensure threw
    std::vector<std::string> errors;   //!< what ensure threw, per item
    std::vector<bool> captured;        //!< ensure's out-flag, per item
};

CaptureRound
ensureAll(const Roster &roster, double scale, const std::string &dir,
          SpanLog *log)
{
    CaptureRound round;
    TraceCache cache(dir);
    for (const auto &item : roster) {
        bool captured = false;
        std::string path, error;
        try {
            path = span(log, "core.TraceCache.ensure", item.name, [&] {
                return cache.ensure(item.name, scale, item.make,
                                    &captured);
            });
        } catch (const std::exception &e) {
            error = e.what();
        }
        round.paths.push_back(path);
        round.errors.push_back(error);
        round.captured.push_back(captured);
    }
    return round;
}

/**
 * Check one capture round item by item: ensure returned, captured
 * into the fresh directory, the file reads back, and its counts match
 * the first capture of the item.
 */
std::vector<TraceInfo>
checkRound(const Roster &roster, const CaptureRound &round,
           Reference &ref, Outcome &out)
{
    std::vector<TraceInfo> traces;
    for (size_t i = 0; i < roster.size(); ++i) {
        const std::string &name = roster[i].name;
        std::string why = round.errors[i];
        TraceInfo info{name, round.paths[i]};
        if (why.empty() && !round.captured[i])
            why = "trace cache hit in a fresh directory";
        if (why.empty()) {
            try {
                info = inspect(name, round.paths[i]);
                why = ref.compare("capture/" + name, info.digest());
            } catch (const std::exception &e) {
                why = e.what();
            }
        }
        out.item(why.empty(), "capture " + name, why);
        traces.push_back(info);
    }
    return traces;
}

uint64_t
sumOps(const std::vector<TraceInfo> &traces)
{
    uint64_t n = 0;
    for (const auto &t : traces)
        n += t.ops;
    return n;
}

/**
 * Time setup, emission and capture of each roster entry on their own:
 * Workload::setup on a fresh instance, runThroughSink into a counting
 * sink, and captureTrace. Traces land in `dir` and are left there.
 */
std::vector<TraceInfo>
decomposeCapture(const Roster &roster, double scale,
                 const std::string &dir, SpanLog &log, Outcome &out,
                 LayerMetrics &m)
{
    fs::create_directories(dir);
    std::vector<TraceInfo> traces;
    uint64_t written = 0;
    for (const auto &item : roster) {
        std::string why;
        std::string path = (fs::path(dir) / (std::to_string(
                               traces.size()) + ".wtrace")).string();
        TraceInfo info{item.name, path};
        try {
            WorkloadPtr fresh = item.make();
            span(&log, "workloads.setup", item.name, [&] {
                RunEnv env;
                fresh->setup(env);
            });
            WorkloadPtr emitter = item.make();
            CountingSink counter;
            span(&log, "trace.runThroughSink", item.name,
                 [&] { runThroughSink(*emitter, counter); });
            WorkloadPtr recorded = item.make();
            CaptureResult cr =
                span(&log, "tracefile.captureTrace", item.name, [&] {
                    return captureTrace(*recorded, path, scale);
                });
            info = inspect(item.name, path);
            written += cr.fileBytes;
            if (cr.ops != info.ops)
                why = "CaptureResult.ops " + std::to_string(cr.ops) +
                      " != re-opened opCount " + std::to_string(info.ops);
            else if (counter.ops() != cr.ops)
                why = "emitted " + std::to_string(counter.ops()) +
                      " ops but recorded " + std::to_string(cr.ops);
        } catch (const std::exception &e) {
            why = e.what();
        }
        out.item(why.empty(), "decompose capture " + item.name, why);
        traces.push_back(info);
    }
    double setup = log.total("workloads.setup");
    double emit = log.total("trace.runThroughSink");
    m["workloads.setup_s"] = setup;
    m["trace.emit_s"] = emit - setup;
    m["tracefile.encode_write_s"] =
        log.total("tracefile.captureTrace") - emit;
    m["tracefile.bytes_written"] = static_cast<double>(written);
    return traces;
}

constexpr std::array<SweepKind, 3> kKinds = {
    SweepKind::Instruction, SweepKind::Data, SweepKind::Unified};

const char *
kindName(SweepKind k)
{
    switch (k) {
    case SweepKind::Instruction:
        return "instr";
    case SweepKind::Data:
        return "data";
    case SweepKind::Unified:
        return "unified";
    }
    return "?";
}

/** What the replay decomposition produced per trace. */
struct ReplayOutputs
{
    std::vector<MetricVector> metrics;  //!< profileWorkload, per trace
    //! Stack-distance curves per trace and kind (withSd only).
    std::vector<std::array<std::vector<double>, 3>> curves;
};

/**
 * Time each replay layer per trace, serially: TraceReader open, decode
 * into a counting sink (CRC Always, then Never), SimCpu replay,
 * profileWorkload and — withSd — the stack-distance profile at one
 * worker and at `jobs` workers.
 */
ReplayOutputs
decomposeReplay(const std::vector<TraceInfo> &traces, unsigned jobs,
                bool withSd, SpanLog &log, Outcome &out, LayerMetrics &m)
{
    ReplayOutputs res;
    auto sizes = paperSweepSizesKb();
    std::array<uint64_t, 3> accesses{}, distinct{};
    uint64_t ops = 0, payload = 0;
    for (const auto &t : traces) {
        std::string why;
        auto expect = [&](uint64_t got, const char *what) {
            if (why.empty() && got != t.ops)
                why = std::string(what) + " replayed " +
                      std::to_string(got) + " of " +
                      std::to_string(t.ops) + " ops";
        };
        try {
            auto reader = span(&log, "tracefile.open", t.name, [&] {
                return std::make_unique<TraceReader>(t.path);
            });
            ops += reader->opCount();
            payload += reader->payloadBytes();

            CountingSink decoded;
            span(&log, "tracefile.decode", t.name,
                 [&] { reader->replayInto(decoded); });
            expect(decoded.ops(), "decode");

            TraceReader trusting(t.path, {TraceIo::Auto, CrcMode::Never});
            CountingSink unchecked;
            span(&log, "tracefile.decode_crc_never", t.name,
                 [&] { trusting.replayInto(unchecked); });
            expect(unchecked.ops(), "decode without CRC");

            uint64_t simulated =
                span(&log, "sim.SimCpu.replay", t.name, [&] {
                    SimCpu cpu(xeonE5645());
                    reader->replayInto(cpu);
                    return cpu.report().instructions;
                });
            expect(simulated, "SimCpu");

            WorkloadRun run = span(&log, "core.profileWorkload", t.name,
                                   [&] {
                                       return profileWorkload(
                                           *reader, xeonE5645());
                                   });
            expect(run.report.instructions, "profileWorkload");
            res.metrics.push_back(run.metrics);

            if (withSd) {
                StackDistanceProfile serial(64, 1);
                span(&log, "sim.sd_serial", t.name,
                     [&] { reader->replayInto(serial); });
                StackDistanceProfile pooled(64, jobs);
                span(&log, "sim.sd_parallel", t.name,
                     [&] { reader->replayInto(pooled); });
                expect(serial.instructions(), "stack distance");
                expect(pooled.instructions(), "pooled stack distance");
                std::array<std::vector<double>, 3> curves;
                for (size_t k = 0; k < kKinds.size(); ++k) {
                    curves[k] = serial.missRatios(kKinds[k], sizes);
                    accesses[k] += serial.accesses(kKinds[k]);
                    distinct[k] += serial.distinctLines(kKinds[k]);
                    if (why.empty() &&
                        pooled.missRatios(kKinds[k], sizes) != curves[k])
                        why = "pooled stack-distance curve differs";
                }
                res.curves.push_back(curves);
            }
        } catch (const std::exception &e) {
            why = e.what();
        }
        out.item(why.empty(), "decompose replay " + t.name, why);
    }

    double decode = log.total("tracefile.decode");
    double simcpu = log.total("sim.SimCpu.replay") - decode;
    auto items = log.durations("core.profileWorkload");
    m["tracefile.open_s"] = log.total("tracefile.open");
    m["tracefile.decode_s"] = decode;
    m["tracefile.decode_mops_per_s"] = static_cast<double>(ops) / decode / 1e6;
    m["tracefile.crc_s"] = decode - log.total("tracefile.decode_crc_never");
    m["tracefile.bytes_per_op"] =
        static_cast<double>(payload) / static_cast<double>(ops);
    m["sim.simcpu_s"] = simcpu;
    m["sim.simcpu_mops_per_s"] = static_cast<double>(ops) / simcpu / 1e6;
    m["core.item_s_p50"] = items.empty() ? 0.0 : median(items);
    m["core.item_s_max"] = maximum(items);
    if (withSd) {
        double serial = log.total("sim.sd_serial") - decode;
        double pooled = log.total("sim.sd_parallel") - decode;
        m["sim.sd_serial_s"] = serial;
        m["sim.sd_parallel_s"] = pooled;
        m["sim.sd_speedup"] = serial / pooled;
        for (size_t k = 0; k < kKinds.size(); ++k) {
            std::string kind = kindName(kKinds[k]);
            m["sim.sd_accesses." + kind] = static_cast<double>(accesses[k]);
            m["sim.sd_distinct_lines." + kind] =
                static_cast<double>(distinct[k]);
        }
    }
    return res;
}

/** Common base of the two workloads that replay captured traces. */
class ReplayWorkload : public BenchWorkload
{
  public:
    ReplayWorkload(const RunSettings &s, Roster r, double sc)
        : settings(s), roster(std::move(r)), rosterScale(sc)
    {
    }

    double scale() const override { return rosterScale; }

    /** Capture the roster into a fresh directory with TraceCache. */
    void
    setup(SpanLog *log, Outcome &out) override
    {
        // The shared pool is built lazily on first use; build it here
        // so no timed pass pays for thread creation.
        span(log, "base.WorkerPool.shared", "",
             [] { return WorkerPool::shared().workerCount(); });
        if (!dir.empty())
            fs::remove_all(dir);
        dir = (fs::path(settings.scratch) /
               ("setup-" + std::to_string(rounds++))).string();
        CaptureRound round = ensureAll(roster, rosterScale, dir, log);
        traces = checkRound(roster, round, ref, out);
        misses = 0;
        for (bool c : round.captured)
            misses += c;
    }

  protected:
    /** Fill the per-layer metrics common to both replay workloads. */
    ReplayOutputs
    decomposeTraces(SpanLog &log, Outcome &out, LayerMetrics &m,
                    bool withSd, uint64_t replaysPerPass)
    {
        ReplayOutputs res =
            decomposeReplay(traces, settings.jobs, withSd, log, out, m);
        std::string redo = (fs::path(settings.scratch) / "decompose")
                               .string();
        decomposeCapture(roster, rosterScale, redo, log, out, m);
        fs::remove_all(redo);
        uint64_t bytes = 0;
        for (const auto &t : traces)
            bytes += t.fileBytes;
        m["tracefile.bytes_read"] =
            static_cast<double>(bytes * replaysPerPass);
        m["core.trace_cache_misses"] = static_cast<double>(misses);
        return res;
    }

    RunSettings settings;
    Roster roster;
    double rosterScale;
    std::string dir;                //!< the current setup's traces
    std::vector<TraceInfo> traces;  //!< roster order
    uint64_t misses = 0;            //!< captures in the last setup
    unsigned rounds = 0;
    Reference ref;
};

/** Section 3: 77 traces → 45-metric vectors → 17 clusters. */
class Characterize77 : public ReplayWorkload
{
  public:
    explicit Characterize77(const RunSettings &s)
        : ReplayWorkload(s, fullRosterAt(0.25), 0.25)
    {
    }

    std::string
    seedUse() const override
    {
        return "ignored: fullRoster() binds seed 7 in registry.cc";
    }

    void
    run(SpanLog *log) override
    {
        runs.clear();
        report = {};
        error.clear();
        try {
            std::vector<std::string> paths, names;
            for (const auto &t : traces) {
                paths.push_back(t.path);
                names.push_back(t.name);
            }
            runs = span(log, "core.profileTraces", "", [&] {
                return profileTraces(paths, xeonE5645(), {},
                                     settings.jobs);
            });
            std::vector<MetricVector> metrics;
            for (const auto &r : runs)
                metrics.push_back(r.metrics);
            AnalyzerOptions opts;
            opts.clusters = 17;
            report = span(log, "core.reduceWorkloads", "", [&] {
                return reduceWorkloads(names, metrics, opts);
            });
        } catch (const std::exception &e) {
            error = e.what();
        }
    }

    uint64_t
    check(Outcome &out) override
    {
        for (size_t i = 0; i < traces.size(); ++i) {
            const TraceInfo &t = traces[i];
            std::string why = error;
            if (why.empty() && runs.size() != traces.size())
                why = "profileTraces returned " +
                      std::to_string(runs.size()) + " runs";
            if (why.empty() && runs[i].report.instructions != t.ops)
                why = "replayed " +
                      std::to_string(runs[i].report.instructions) +
                      " of " + std::to_string(t.ops) + " ops";
            if (why.empty())
                why = ref.compare("profile/" + t.name,
                                  profileDigest(runs[i].metrics));
            out.item(why.empty(), "profile " + t.name, why);
        }
        std::string why = error.empty() ? partitionError() : error;
        if (why.empty())
            why = ref.compare("reduce", reduceDigest(report));
        out.item(why.empty(), "reduce", why);
        return sumOps(traces);
    }

    void
    decompose(SpanLog &log, Outcome &out, LayerMetrics &m) override
    {
        ReplayOutputs res = decomposeTraces(log, out, m, false, 1);
        for (size_t i = 0; i < res.metrics.size(); ++i) {
            // A serial profile must equal the pooled one bit for bit.
            std::string why = ref.compare("profile/" + traces[i].name,
                                          profileDigest(res.metrics[i]));
            out.item(why.empty(), "serial profile " + traces[i].name,
                     why);
        }

        std::vector<std::string> names;
        for (const auto &t : traces)
            names.push_back(t.name);
        Matrix samples(res.metrics.size(), numMetrics);
        for (size_t r = 0; r < res.metrics.size(); ++r)
            for (size_t c = 0; c < numMetrics; ++c)
                samples.at(r, c) = res.metrics[r][c];
        std::string why;
        try {
            Matrix projected = span(&log, "stats.pca", "", [&] {
                Normalized z = zscore(samples);
                return fitPca(z.data, AnalyzerOptions{}.pcaVarianceTarget)
                    .project(z.data);
            });
            span(&log, "stats.kmeans", "",
                 [&] { return kMeans(projected, 17, {.seed = 42}); });
            AnalyzerOptions opts;
            opts.clusters = 17;
            SubsetReport again = span(&log, "core.reduce", "", [&] {
                return reduceWorkloads(names, res.metrics, opts);
            });
            why = ref.compare("reduce", reduceDigest(again));
        } catch (const std::exception &e) {
            why = e.what();
        }
        out.item(why.empty(), "decompose reduce", why);
        m["core.reduce_s"] = log.total("core.reduce");
        m["stats.pca_s"] = log.total("stats.pca");
        m["stats.kmeans_s"] = log.total("stats.kmeans");
    }

    std::string digest() const override { return ref.digest(); }

  private:
    static uint64_t
    profileDigest(const MetricVector &metrics)
    {
        Digest d;
        for (double v : metrics)
            d.add(v);
        return d.value();
    }

    static uint64_t
    reduceDigest(const SubsetReport &r)
    {
        Digest d;
        d.add(static_cast<uint64_t>(r.retainedComponents))
            .add(r.explainedVariance)
            .add(r.silhouetteScore)
            .add(r.wcss);
        for (const auto &c : r.clusters) {
            d.add(c.representative);
            for (const auto &mbr : c.members)
                d.add(mbr);
        }
        return d.value();
    }

    /** Empty when the report has 17 clusters partitioning the roster. */
    std::string
    partitionError() const
    {
        if (report.clusters.size() != 17)
            return std::to_string(report.clusters.size()) +
                   " clusters, expected 17";
        std::map<std::string, int> seen;
        for (const auto &c : report.clusters)
            for (const auto &mbr : c.members)
                ++seen[mbr];
        for (const auto &t : traces)
            if (seen[t.name] != 1)
                return t.name + " is in " + std::to_string(seen[t.name]) +
                       " clusters";
        if (seen.size() != traces.size())
            return "clusters name workloads outside the roster";
        return "";
    }

    std::vector<WorkloadRun> runs;
    SubsetReport report;
    std::string error;
};

/** Figures 6-8: stack-distance MRC ladders for each stream kind. */
class MrcLadder : public ReplayWorkload
{
  public:
    explicit MrcLadder(const RunSettings &s)
        : ReplayWorkload(s,
                         seededRoster({"H-Difference", "H-TPC-DS-query3",
                                       "H-Grep", "H-WordCount",
                                       "H-NaiveBayes", "PARSEC-like"},
                                      0.25, s.seed),
                         0.25)
    {
    }

    std::string
    seedUse() const override
    {
        return "passed to every Hadoop constructor; PARSEC-like takes "
               "none";
    }

    void
    run(SpanLog *log) override
    {
        results.clear();
        auto sizes = paperSweepSizesKb();
        for (const auto &t : traces) {
            for (SweepKind kind : kKinds) {
                Result r;
                try {
                    r.ratios = span(log, "tracefile.replaySweepLadder",
                                    itemName(t, kind), [&] {
                                        return replaySweepLadder(
                                                   t.path, kind, sizes,
                                                   MrcMode::StackDistance,
                                                   settings.jobs)
                                            .ratios;
                                    });
                } catch (const std::exception &e) {
                    r.error = e.what();
                }
                results.push_back(std::move(r));
            }
        }
    }

    uint64_t
    check(Outcome &out) override
    {
        size_t rungs = paperSweepSizesKb().size();
        for (size_t i = 0; i < traces.size(); ++i) {
            for (size_t k = 0; k < kKinds.size(); ++k) {
                const Result &r = results.at(i * kKinds.size() + k);
                std::string item = itemName(traces[i], kKinds[k]);
                std::string why = r.error.empty() ? curveError(r.ratios,
                                                               rungs)
                                                  : r.error;
                if (why.empty())
                    why = ref.compare("mrc/" + item, curveDigest(r.ratios));
                out.item(why.empty(), "mrc " + item, why);
            }
        }
        return sumOps(traces) * kKinds.size();
    }

    void
    decompose(SpanLog &log, Outcome &out, LayerMetrics &m) override
    {
        ReplayOutputs res =
            decomposeTraces(log, out, m, true, kKinds.size());
        for (size_t i = 0; i < res.curves.size(); ++i) {
            for (size_t k = 0; k < kKinds.size(); ++k) {
                // A profile replayed straight into the sink must give
                // the curve replaySweepLadder gave.
                std::string item = itemName(traces[i], kKinds[k]);
                std::string why = ref.compare(
                    "mrc/" + item, curveDigest(res.curves[i][k]));
                out.item(why.empty(), "direct mrc " + item, why);
            }
        }
    }

    std::string digest() const override { return ref.digest(); }

  private:
    struct Result
    {
        std::vector<double> ratios;
        std::string error;
    };

    static std::string
    itemName(const TraceInfo &t, SweepKind kind)
    {
        return t.name + "/" + kindName(kind);
    }

    static uint64_t
    curveDigest(const std::vector<double> &ratios)
    {
        Digest d;
        for (double v : ratios)
            d.add(v);
        return d.value();
    }

    /** Empty when the curve has every rung, in [0, 1], never rising. */
    static std::string
    curveError(const std::vector<double> &ratios, size_t rungs)
    {
        if (ratios.size() != rungs)
            return std::to_string(ratios.size()) + " rungs, expected " +
                   std::to_string(rungs);
        for (size_t i = 0; i < ratios.size(); ++i) {
            if (!(ratios[i] >= 0.0 && ratios[i] <= 1.0))
                return "miss ratio outside [0, 1] at rung " +
                       std::to_string(i);
            if (i && ratios[i] > ratios[i - 1])
                return "miss ratio rises at rung " + std::to_string(i);
        }
        return "";
    }

    std::vector<Result> results;  //!< trace-major, kind-minor
};

/** Table 2's 17 representatives captured into a cold trace cache. */
class Capture17 : public BenchWorkload
{
  public:
    explicit Capture17(const RunSettings &s)
        : settings(s),
          roster(seededRoster(names(), 0.5, s.seed))
    {
    }

    double scale() const override { return 0.5; }

    std::string
    seedUse() const override
    {
        return "passed to every constructor";
    }

    /**
     * The traces are what a pass produces, so there is nothing to
     * capture up front. Setup generates every entry's datasets once,
     * which grows the heap and warms the generators, so the first pass
     * does not pay for that alone.
     */
    void
    setup(SpanLog *log, Outcome &) override
    {
        span(log, "base.WorkerPool.shared", "",
             [] { return WorkerPool::shared().workerCount(); });
        for (const auto &item : roster) {
            WorkloadPtr w = item.make();
            RunEnv env;
            w->setup(env);
        }
    }

    void
    run(SpanLog *log) override
    {
        dir = (fs::path(settings.scratch) /
               ("capture-" + std::to_string(rounds++))).string();
        round = ensureAll(roster, 0.5, dir, log);
    }

    uint64_t
    check(Outcome &out) override
    {
        traces = checkRound(roster, round, ref, out);
        misses = 0;
        for (bool c : round.captured)
            misses += c;
        return sumOps(traces);
    }

    void finish() override { fs::remove_all(dir); }

    void
    decompose(SpanLog &log, Outcome &out, LayerMetrics &m) override
    {
        std::string redo = (fs::path(settings.scratch) / "decompose")
                               .string();
        std::vector<TraceInfo> fresh =
            decomposeCapture(roster, 0.5, redo, log, out, m);
        for (const auto &t : fresh) {
            std::string why = ref.compare("capture/" + t.name, t.digest());
            out.item(why.empty(), "captureTrace " + t.name, why);
        }
        decomposeReplay(fresh, settings.jobs, false, log, out, m);
        fs::remove_all(redo);
        m["tracefile.bytes_read"] = 0.0;  // a capture pass reads nothing
        m["core.trace_cache_misses"] = static_cast<double>(misses);
    }

    std::string digest() const override { return ref.digest(); }

  private:
    static std::vector<std::string>
    names()
    {
        std::vector<std::string> out;
        for (const auto &e : representativeWorkloads())
            out.push_back(e.name);
        return out;
    }

    RunSettings settings;
    Roster roster;
    std::string dir;  //!< the current pass's trace cache
    CaptureRound round;
    std::vector<TraceInfo> traces;
    uint64_t misses = 0;
    unsigned rounds = 0;
    Reference ref;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "characterize-77", "mrc-ladder", "capture-17"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, const RunSettings &settings)
{
    if (name == "characterize-77")
        return std::make_unique<Characterize77>(settings);
    if (name == "mrc-ladder")
        return std::make_unique<MrcLadder>(settings);
    if (name == "capture-17")
        return std::make_unique<Capture17>(settings);
    return nullptr;
}

} // namespace perfbench
