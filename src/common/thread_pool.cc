#include "common/thread_pool.hh"

#include <cstdlib>
#include <memory>
#include <string>

#include "common/telemetry/trace_session.hh"

namespace prime {

namespace {

/** Set while a thread is executing pool work: permanently on worker
 *  threads, and on the calling thread for the span of its own
 *  parallelFor participation.  Nested parallelFor calls from inside a
 *  body then run inline instead of re-entering (and deadlocking) the
 *  pool. */
thread_local bool tls_in_pool = false;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back(
            [this, name = "pool-worker-" + std::to_string(i)] {
                workerLoop(name);
            });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

int
ThreadPool::defaultThreadCount()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup; the
    // simulator never calls setenv/putenv after startup.
    if (const char *env = std::getenv("PRIME_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
ThreadPool::runJob(const std::function<void(std::size_t)> &body,
                   std::size_t size)
{
    std::size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < size) {
        // Each claimed index is one traced task on this thread's lane.
        PRIME_SPAN(telemetry::globalTrace(), "pool.task", "pool");
        body(i);
    }
}

void
ThreadPool::workerLoop(const std::string &lane)
{
    telemetry::setTraceThreadName(lane);
    tls_in_pool = true;
    std::uint64_t seen = 0;
    for (;;) {
        UniqueLock lock(mutex_);
        while (!stop_ && generation_ == seen)
            wake_.wait(lock);
        if (stop_)
            return;
        seen = generation_;
        --pending_;
        ++running_;
        // Snapshot the job under the lock; the pointee stays valid
        // until this worker's matching --running_ below (parallelFor
        // clears body_ only after done_ observed running_ == 0).
        const std::function<void(std::size_t)> *body = body_;
        const std::size_t size = jobSize_;
        lock.unlock();

        runJob(*body, size);

        lock.lock();
        --running_;
        if (pending_ == 0 && running_ == 0)
            done_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Sequential fallback: no workers, a trivially small job, or a
    // nested call from inside a pool job (which must not block, or --
    // on the calling thread -- self-deadlock on serialMutex_).
    if (workers_.empty() || n == 1 || tls_in_pool) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    MutexLock serial(serialMutex_);
    {
        MutexLock lock(mutex_);
        body_ = &body;
        jobSize_ = n;
        next_.store(0, std::memory_order_relaxed);
        pending_ = static_cast<int>(workers_.size());
        ++generation_;
    }
    wake_.notify_all();

    tls_in_pool = true;
    runJob(body, n);  // the caller is a full participant
    tls_in_pool = false;

    UniqueLock lock(mutex_);
    while (pending_ != 0 || running_ != 0)
        done_.wait(lock);
    body_ = nullptr;
    jobSize_ = 0;
}

namespace {

Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool PRIME_GUARDED_BY(g_pool_mutex);
int g_requested_threads PRIME_GUARDED_BY(g_pool_mutex) = 0;

} // namespace

ThreadPool &
ThreadPool::global()
{
    MutexLock lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_requested_threads);
    return *g_pool;
}

void
ThreadPool::setGlobalThreadCount(int n)
{
    MutexLock lock(g_pool_mutex);
    g_requested_threads = n > 0 ? n : 0;
    g_pool.reset();  // rebuilt at the new size on next global() use
}

} // namespace prime
