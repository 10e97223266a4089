#include "loadgen/targets.hh"

#include "base/logging.hh"
#include "datagen/datasets.hh"
#include "stack/kvstore/store.hh"
#include "stack/run_env.hh"
#include "stack/sql/vectorized.hh"
#include "trace/sampling.hh"
#include "trace/tracer.hh"
#include "workloads/registry.hh"

namespace wcrt {

namespace {

/** Dataset-generation seed of the kv-get and sql-filter datasets. */
constexpr uint64_t kDatasetSeed = 7;

/**
 * Session scaffolding shared by the concrete targets: a private
 * RunEnv, a sink (counting, or the caller's recorder) and a Tracer.
 * Subclass constructors register their code regions against env.layout
 * before buildTracer().
 */
class SessionBase : public ActorSession
{
  public:
    explicit SessionBase(TraceSink *record) : record(record) {}

    uint64_t traceOps() const override { return tracer->opCount(); }

  protected:
    /** Call once the session's code layout is fully registered. */
    void
    buildTracer()
    {
        tracer = std::make_unique<Tracer>(
            env.layout, record ? *record : counting);
    }

    RunEnv env;
    std::unique_ptr<Tracer> tracer;

  private:
    CountingSink counting;
    TraceSink *record;
};

// ---------------------------------------------------------------- kv-get

/** The H-Read region server as a per-request target. */
class KvGetTarget : public TrafficTarget
{
  public:
    explicit KvGetTarget(double scale)
        : catalog(heap, scale, kDatasetSeed), data(catalog.profSearch()),
          keys(data.keys.size(), 0.9)
    {
    }

    std::string name() const override { return "kv-get"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const KvGetTarget &t, TraceSink *record)
            : SessionBase(record), target(t), store(env.layout, t.data)
        {
            buildTracer();
        }

        void
        request(Rng &rng) override
        {
            store.get(*tracer, env, target.keys.sample(rng));
        }

      private:
        const KvGetTarget &target;
        KvStore store;
    };

    VirtualHeap heap;  //!< owns the shared dataset's addresses
    DatasetCatalog catalog;
    KvDataset data;    //!< immutable once built
    ZipfSampler keys;  //!< per-request key rank, Zipf 0.9
};

// ------------------------------------------------------------- sql-filter

/** A vectorized filter + project query as a per-request target. */
class SqlFilterTarget : public TrafficTarget
{
  public:
    explicit SqlFilterTarget(double scale)
        : catalog(heap, scale, kDatasetSeed),
          orders(catalog.ecommerceOrders())
    {
        allRows.reserve(orders.rows);
        for (uint64_t r = 0; r < orders.rows; ++r)
            allRows.push_back(r);
    }

    std::string name() const override { return "sql-filter"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const SqlFilterTarget &t, TraceSink *record)
            : SessionBase(record), target(t), engine(env.layout)
        {
            buildTracer();
        }

        void
        request(Rng &rng) override
        {
            // SELECT order_id, amount FROM orders WHERE amount > x —
            // x uniform in [1, 501) per request, so selectivity (and
            // the projected row count) varies with the request stream.
            double x = 1.0 + rng.nextDouble() * 500.0;
            Selection sel = engine.filterFloat64(
                env, *tracer, target.orders, "amount", target.allRows,
                [x](double v) { return v > x; });
            engine.project(env, *tracer, target.orders,
                           {"order_id", "amount"}, sel);
        }

      private:
        const SqlFilterTarget &target;
        VectorizedEngine engine;
    };

    VirtualHeap heap;
    DatasetCatalog catalog;
    DataTable orders;   //!< immutable once built
    Selection allRows;  //!< the scan-everything selection
};

// -------------------------------------------------------- workload:<name>

/** Any registry entry as a macro-request (one execute() per request). */
class WorkloadTarget : public TrafficTarget
{
  public:
    WorkloadTarget(const WorkloadEntry &entry, double scale)
        : entry(entry), scale(scale)
    {
    }

    std::string name() const override
    {
        return "workload:" + entry.name;
    }

    std::unique_ptr<ActorSession> startSession(
        uint64_t, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(entry, scale, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const WorkloadEntry &entry, double scale,
                TraceSink *record)
            : SessionBase(record), workload(entry.make(scale))
        {
            workload->setup(env);
            buildTracer();
        }

        void
        request(Rng &) override
        {
            // A request is one job submission; the workload's own
            // seeded generators decide its op stream.
            workload->execute(env, *tracer);
        }

      private:
        WorkloadPtr workload;
    };

    const WorkloadEntry &entry;
    double scale;
};

} // namespace

const std::vector<std::string> &
trafficTargetNames()
{
    static const std::vector<std::string> names = {"kv-get",
                                                   "sql-filter"};
    return names;
}

std::unique_ptr<TrafficTarget>
makeTrafficTarget(const std::string &name, double scale)
{
    if (name == "kv-get")
        return std::make_unique<KvGetTarget>(scale);
    if (name == "sql-filter")
        return std::make_unique<SqlFilterTarget>(scale);
    constexpr const char *prefix = "workload:";
    if (name.rfind(prefix, 0) == 0) {
        std::string workload = name.substr(std::string(prefix).size());
        const WorkloadEntry *entry = lookupWorkload(workload);
        if (!entry)
            wcrt_fatal("unknown workload '", workload,
                       "' in traffic target ", name);
        return std::make_unique<WorkloadTarget>(*entry, scale);
    }
    wcrt_fatal("unknown traffic target: ", name,
               " (try kv-get, sql-filter or workload:<roster name>)");
    return nullptr;
}

} // namespace wcrt
