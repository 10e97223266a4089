/**
 * @file
 * Persistent worker pool with caller-participating completion waits,
 * and parallelFor(), the one fan-out entry point built on it.
 *
 * Every parallel path in the toolkit has the same shape: `count`
 * independent jobs, each a replay of its own reader copy into its own
 * sink (runReplays() in tracefile/replay.hh, which runs multi-config
 * and many-trace replay, the MRC ladder's chunk-range profiles and
 * Verify's oracle sweep, and a sweep group's traces). No sink fans
 * out internally. Each goes through
 * parallelFor(), which resolves the worker request once
 * (replayWorkers()) and runs the jobs through runBounded(); pool
 * threads and the calling thread claim indices from a shared atomic
 * counter, so the caller never idles while work remains and a pool of
 * zero threads degenerates to plain sequential execution on the
 * caller. runBounded() returns once every index has finished
 * executing — not merely been claimed.
 *
 * One process-wide pool (shared(), lazily built with
 * hardwareWorkers() - 1 threads) serves every entry point, so no
 * measured path pays per-call thread spawn/join churn. A user-facing
 * worker cap (--jobs=N) becomes runBounded()'s cap: the task carries
 * a budget of pool-thread claim slots, so at most `cap - 1` pool
 * threads join the always-helping caller regardless of how wide the
 * shared pool is.
 *
 * Nesting is deadlock-free by construction: the caller always helps
 * with its own task's indices before sleeping, so a pool thread that
 * runs a sub-task from inside a job (a ladder's range replays
 * inside a pooled sweep-group job) makes progress on that sub-task
 * itself and only sleeps once every index is claimed by threads that
 * are actively executing them.
 */

#ifndef WCRT_BASE_WORKER_POOL_HH
#define WCRT_BASE_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wcrt {

/**
 * Fixed-size thread pool executing index-parallel tasks.
 */
class WorkerPool
{
  public:
    /** Work item: called once per index in [0, count). */
    using Job = std::function<void(size_t)>;

    /** @param workers Pool threads; 0 = all work runs on the caller. */
    explicit WorkerPool(unsigned workers);

    /** Joins the threads. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned workerCount() const { return threads; }

    /**
     * Concurrency the hardware advertises, always >= 1.
     * hardware_concurrency() is allowed to return 0 when the hardware
     * cannot be probed; fall back to a small count so callers sizing
     * pools or caps never see zero.
     */
    static unsigned hardwareWorkers();

    /**
     * The process-wide pool: lazily constructed on first use with
     * hardwareWorkers() - 1 threads (the waiting caller is the +1
     * executor). Every parallelFor() shares it, so thread creation
     * happens once per process instead of once per call.
     */
    static WorkerPool &shared();

    /**
     * Run `job` once per index in [0, count) and return when every
     * index has finished. The job must be safe to call concurrently
     * for distinct indices. The task runs on at most `cap` concurrent
     * executors, one of which is the calling thread; `cap <= 1`
     * therefore runs strictly serially on the caller.
     */
    void
    runBounded(size_t count, unsigned cap, Job job)
    {
        wait(submitBounded(count, cap > 0 ? cap - 1 : 0,
                           std::move(job)));
    }

  private:
    /** One submitted task; shared by submitter and workers. */
    struct Task
    {
        Job job;
        size_t count = 0;
        std::atomic<size_t> next{0};       //!< next unclaimed index
        std::atomic<size_t> remaining{0};  //!< indices not yet finished
        /**
         * Pool-thread claim budget (the bounded-claim ticket). Every
         * pool thread must win one slot before it may execute indices
         * of this task; the waiting submitter is exempt and always
         * participates.
         */
        std::atomic<unsigned> slots{0};
    };

    /** Handle for waiting on a submitted task. */
    using Ticket = std::shared_ptr<Task>;

    /**
     * Queue `job` with a bounded-claim ticket: at most `pool_claims`
     * pool threads will ever execute indices of this task, however
     * wide the pool is. The caller must then wait() (and thereby
     * help), so the observed concurrency is at most
     * `pool_claims + 1`. `pool_claims == 0` queues nothing for the
     * pool threads; wait() runs the whole task on the caller.
     */
    Ticket submitBounded(size_t count, unsigned pool_claims, Job job);

    /** True once every index of `t` has finished executing. */
    bool
    done(const Ticket &t) const
    {
        return t->remaining.load(std::memory_order_acquire) == 0;
    }

    /**
     * Help execute unclaimed indices of `t`, then block until every
     * claimed index has finished. On return all of the job's effects
     * are visible to the caller.
     */
    void wait(const Ticket &t);

    void workerLoop();

    /** Claim and run one index of `t`; false when fully claimed. */
    bool helpOne(const Ticket &t);

    /** Win one pool-thread claim slot of `t`; false when exhausted. */
    static bool claimSlot(const Ticket &t);

    unsigned threads = 0;
    std::vector<std::thread> pool;
    mutable std::mutex mtx;
    std::condition_variable workReady;  //!< claimable work queued
    std::condition_variable workDone;   //!< some task completed
    std::vector<Ticket> queue;          //!< tasks with work outstanding
    bool stopping = false;
};

/** Worker count actually used for a request (0 → hardware threads). */
unsigned replayWorkers(unsigned requested = 0);

/**
 * Run `count` independent jobs on the shared worker pool, with the
 * caller participating. job(i) is invoked exactly once for every i in
 * [0, count); the first exception any job throws is rethrown on the
 * caller after the ticket settles. A resolved worker count of 1 (or
 * count == 1) bypasses the pool entirely and runs serially.
 *
 * @param count Number of jobs.
 * @param job Callable receiving the job index; must be thread-safe
 *        with respect to the other indices.
 * @param threads Worker cap (0 → hardware threads); resolved once via
 *        replayWorkers() — the single source of the worker count.
 */
void parallelFor(size_t count, const std::function<void(size_t)> &job,
                 unsigned threads = 0);

} // namespace wcrt

#endif // WCRT_BASE_WORKER_POOL_HH
