#include "loadgen/targets.hh"

#include <utility>

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
 * RunEnv, a sink (counting, or the caller's recorder) and a Tracer,
 * plus the (actor, request) position of the next per-request draw.
 * Subclass constructors register their code regions against env.layout
 * before buildTracer().
 */
class SessionBase : public ActorSession
{
  public:
    SessionBase(uint64_t actor, TraceSink *record)
        : actor(actor), record(record)
    {
    }

    uint64_t traceOps() const override { return tracer->opCount(); }

  protected:
    /** Call once the session's code layout is fully registered. */
    void
    buildTracer()
    {
        tracer = std::make_unique<Tracer>(
            env.layout, record ? *record : counting);
    }

    /** This request's index; advances once per request. */
    uint64_t nextRequest() { return requests++; }

    RunEnv env;
    std::unique_ptr<Tracer> tracer;
    const uint64_t actor;

  private:
    uint64_t requests = 0;
    CountingSink counting;
    TraceSink *record;
};

// ---------------------------------------------------------------- kv-get

/** The H-Read region server as a per-request target. */
class KvGetTarget : public TrafficTarget
{
  public:
    KvGetTarget(double scale, RequestDraws draws)
        : catalog(heap, scale, kDatasetSeed), data(catalog.profSearch()),
          keyDraw(std::move(draws.key)),
          docBytes(std::move(draws.docBytes))
    {
        if (!keyDraw) {
            keyDraw = [zipf = ZipfSampler(data.keys.size(), 0.9)](
                          uint64_t, uint64_t, Rng &rng) {
                return zipf.sample(rng);
            };
        }
    }

    std::string name() const override { return "kv-get"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t actor_id, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, actor_id, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const KvGetTarget &t, uint64_t actor, TraceSink *record)
            : SessionBase(actor, record), target(t),
              store(env.layout, t.data)
        {
            buildTracer();
        }

        void
        request(Rng &rng) override
        {
            uint64_t n = nextRequest();
            store.get(*tracer, env,
                      target.keyDraw(actor, n, rng) %
                          target.data.keys.size());
            // The response document travels the wire: account its
            // bytes like the stack engines account their I/O.
            if (target.docBytes)
                env.io.networkBytes += target.docBytes(actor, n, rng);
        }

      private:
        const KvGetTarget &target;
        KvStore store;
    };

    VirtualHeap heap;  //!< owns the shared dataset's addresses
    DatasetCatalog catalog;
    KvDataset data;                  //!< immutable once built
    RequestDraw<uint64_t> keyDraw;   //!< const after construction
    RequestDraw<uint64_t> docBytes;  //!< optional
};

// ------------------------------------------------------------- sql-filter

/** A vectorized filter + project query as a per-request target. */
class SqlFilterTarget : public TrafficTarget
{
  public:
    SqlFilterTarget(double scale, RequestDraws draws)
        : catalog(heap, scale, kDatasetSeed),
          orders(catalog.ecommerceOrders()),
          threshold(std::move(draws.threshold))
    {
        allRows.reserve(orders.rows);
        for (uint64_t r = 0; r < orders.rows; ++r)
            allRows.push_back(r);
        if (!threshold) {
            threshold = [](uint64_t, uint64_t, Rng &rng) {
                return 1.0 + rng.nextDouble() * 500.0;
            };
        }
    }

    std::string name() const override { return "sql-filter"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t actor_id, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, actor_id, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const SqlFilterTarget &t, uint64_t actor,
                TraceSink *record)
            : SessionBase(actor, record), target(t), engine(env.layout)
        {
            buildTracer();
        }

        void
        request(Rng &rng) override
        {
            // SELECT order_id, amount FROM orders WHERE amount > x —
            // x drawn per request, so selectivity (and the projected
            // row count) varies with the request stream.
            double x = target.threshold(actor, nextRequest(), rng);
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
    DataTable orders;               //!< immutable once built
    Selection allRows;              //!< the scan-everything selection
    RequestDraw<double> threshold;  //!< const after construction
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
        uint64_t actor_id, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(entry, scale, actor_id, record);
    }

  private:
    class Session : public SessionBase
    {
      public:
        Session(const WorkloadEntry &entry, double scale, uint64_t actor,
                TraceSink *record)
            : SessionBase(actor, record), workload(entry.make(scale))
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
makeTrafficTarget(const std::string &name, double scale,
                  RequestDraws draws)
{
    if (name == "kv-get")
        return std::make_unique<KvGetTarget>(scale, std::move(draws));
    if (name == "sql-filter")
        return std::make_unique<SqlFilterTarget>(scale, std::move(draws));
    constexpr const char *prefix = "workload:";
    if (name.rfind(prefix, 0) == 0) {
        const WorkloadEntry &entry =
            findWorkload(name.substr(std::string(prefix).size()));
        return std::make_unique<WorkloadTarget>(entry, scale);
    }
    wcrt_fatal("unknown traffic target: ", name,
               " (try kv-get, sql-filter or workload:<roster name>)");
    return nullptr;
}

} // namespace wcrt
