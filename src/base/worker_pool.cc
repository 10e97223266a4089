#include "base/worker_pool.hh"

#include <algorithm>
#include <exception>

namespace wcrt {

WorkerPool::WorkerPool(unsigned workers) : threads(workers)
{
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        pool.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    workReady.notify_all();
    for (auto &t : pool)
        t.join();
}

unsigned
WorkerPool::hardwareWorkers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 2 : hw;
}

WorkerPool &
WorkerPool::shared()
{
    // One executor slot belongs to the thread that calls wait(), so
    // hardware minus one pool threads saturates the machine without
    // oversubscribing it. A single-core host gets an empty pool and
    // every task degenerates to serial execution in wait().
    static WorkerPool instance(hardwareWorkers() - 1);
    return instance;
}

WorkerPool::Ticket
WorkerPool::submitBounded(size_t count, unsigned pool_claims, Job job)
{
    auto task = std::make_shared<Task>();
    task->job = std::move(job);
    task->count = count;
    task->remaining.store(count, std::memory_order_relaxed);
    task->slots.store(pool_claims, std::memory_order_relaxed);
    if (count == 0)
        return task;
    if (pool_claims == 0) {
        // Nothing for the pool threads to claim: the ticket never
        // enters the queue and wait() runs it serially on the caller.
        return task;
    }
    {
        std::lock_guard<std::mutex> lock(mtx);
        queue.push_back(task);
    }
    if (!pool.empty())
        workReady.notify_all();
    return task;
}

bool
WorkerPool::claimSlot(const Ticket &t)
{
    unsigned s = t->slots.load(std::memory_order_relaxed);
    while (s > 0) {
        if (t->slots.compare_exchange_weak(s, s - 1,
                                           std::memory_order_relaxed))
            return true;
    }
    return false;
}

bool
WorkerPool::helpOne(const Ticket &t)
{
    size_t i = t->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= t->count)
        return false;
    t->job(i);
    // The release half of this RMW chain is what publishes every job's
    // effects to whoever observes remaining == 0 with an acquire load.
    if (t->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mtx);
        queue.erase(std::remove(queue.begin(), queue.end(), t),
                    queue.end());
        workDone.notify_all();
    }
    return true;
}

void
WorkerPool::wait(const Ticket &t)
{
    // The submitter is exempt from the bounded-claim budget: it always
    // participates, which both guarantees forward progress when
    // pool_claims == 0 and makes nested waits from pool threads
    // deadlock-free (the waiter works instead of merely sleeping).
    while (helpOne(t)) {
    }
    if (done(t))
        return;
    // Indices claimed by pool threads are still running; sleep until
    // the last one counts remaining down to zero.
    std::unique_lock<std::mutex> lock(mtx);
    workDone.wait(lock, [&] { return done(t); });
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mtx);
    while (true) {
        Ticket task;
        // Fully-claimed tasks stay queued until their last index
        // retires (completion prunes them), so the predicate hunts for
        // a task that still has claimable indices rather than trusting
        // queue emptiness. Bounded tickets additionally require
        // winning a claim slot here, under the lock, so no more pool
        // threads than the ticket's budget ever pass.
        workReady.wait(lock, [&] {
            if (stopping)
                return true;
            for (const auto &q : queue) {
                if (q->next.load(std::memory_order_relaxed) <
                        q->count &&
                    claimSlot(q)) {
                    task = q;
                    return true;
                }
            }
            return false;
        });
        if (stopping)
            return;
        lock.unlock();
        while (helpOne(task)) {
        }
        task.reset();
        lock.lock();
    }
}

unsigned
replayWorkers(unsigned requested)
{
    if (requested > 0)
        return requested;
    return WorkerPool::hardwareWorkers();
}

void
parallelFor(size_t count, const std::function<void(size_t)> &job,
            unsigned threads)
{
    if (count == 0)
        return;
    // The one resolution of a worker request: every fan-out delegates
    // here, so a --jobs value can never be interpreted differently by
    // the cap and by the pool.
    size_t workers = std::min<size_t>(replayWorkers(threads), count);
    if (workers <= 1) {
        // Strictly serial fast path: no pool, no ticket, exceptions
        // propagate directly.
        for (size_t i = 0; i < count; ++i)
            job(i);
        return;
    }

    // Fan out over the process-wide pool with a bounded-claim ticket:
    // at most `workers` executors (this thread plus workers - 1 pool
    // threads) run jobs concurrently, and this thread participates
    // until every index is claimed. Jobs may throw (replays surface
    // TraceFormatError on corrupt files); the first exception is
    // captured and rethrown after the ticket settles so the pool
    // threads never unwind.
    std::exception_ptr first_error;
    std::mutex error_mutex;
    WorkerPool::shared().runBounded(
        count, static_cast<unsigned>(workers), [&](size_t i) {
            try {
                job(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        });
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace wcrt
