/**
 * @file
 * The workload abstraction every benchmark implementation satisfies.
 *
 * A workload owns its dataset generation and its trace emission; the
 * runner (core/profiler) supplies the machine model and collects the
 * 45 metrics plus system/data behaviour. Table 2's columns map onto
 * this interface: name/abbreviation, application category, software
 * stack, data behaviour (accounted in RunEnv) and system behaviour
 * (derived by sysmon from the I/O counters).
 */

#ifndef WCRT_WORKLOADS_WORKLOAD_HH
#define WCRT_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>

#include "stack/run_env.hh"
#include "trace/tracer.hh"

namespace wcrt {

/** The paper's three application categories (Section 3.2.3). */
enum class AppCategory : uint8_t {
    Service,
    DataAnalysis,
    InteractiveAnalysis,
};

/** Human-readable category name. */
const char *toString(AppCategory c);

/** Software stacks a workload can be implemented on. */
enum class StackKind : uint8_t {
    Hadoop,  //!< MapReduce engine (JVM-like deep stack)
    Spark,   //!< RDD engine (JVM-like, deeper)
    Mpi,     //!< native thin stack
    Hive,    //!< SQL compiled onto the MapReduce engine
    Shark,   //!< SQL compiled onto the RDD engine
    Impala,  //!< SQL on the native vectorized executor
    HBase,   //!< KV-store service path
};

/** Human-readable stack name. */
const char *toString(StackKind s);

/**
 * One runnable benchmark.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Table-2 style name, e.g. "S-WordCount". */
    virtual std::string name() const = 0;

    /** Application category. */
    virtual AppCategory category() const = 0;

    /** Software stack this implementation uses. */
    virtual StackKind stack() const = 0;

    /**
     * Generate datasets and register all code regions (engine and app)
     * against the environment. Must be called exactly once, before
     * execute().
     */
    virtual void setup(RunEnv &env) = 0;

    /** Run the workload, emitting the trace through `t`. */
    virtual void execute(RunEnv &env, Tracer &t) = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/**
 * The frame every workload run executes in: setup(), then execute()
 * inside one Application-layer `driver.main` function (512 B). Live
 * profiles and trace captures both run through it, so a replayed
 * trace reproduces a live run op for op.
 */
class DriverFrame
{
  public:
    /** Run workload.setup() and register driver.main. */
    explicit DriverFrame(Workload &workload);

    /**
     * Execute the workload inside driver.main, emitting into `sink`
     * through a Tracer over env.layout. A sink that snapshots the
     * layout (a trace writer) is built from env.layout before this.
     */
    void run(TraceSink &sink);

    RunEnv env;  //!< the run's layout, heap and I/O / data accounting

  private:
    Workload &workload;
    FunctionId driver;
};

} // namespace wcrt

#endif // WCRT_WORKLOADS_WORKLOAD_HH
