/**
 * @file
 * Fixed-size worker thread pool for batch simulation workloads.
 *
 * The pool owns N worker threads that drain a FIFO task queue.  Tasks
 * are arbitrary callables; a task that throws does not kill its worker
 * or hang the pool -- the first exception is captured and rethrown from
 * wait().
 *
 * Thread-count selection (resolveThreads): an explicit request wins;
 * otherwise the PDR_THREADS environment variable; otherwise the
 * hardware concurrency.  PDR_THREADS=1 gives fully serial execution on
 * the calling pattern's own pool.
 */

#ifndef PDR_EXEC_THREAD_POOL_HH
#define PDR_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdr::exec {

/** A fixed pool of worker threads draining a shared task queue. */
class ThreadPool
{
  public:
    /** Create the pool; `threads` <= 0 means resolveThreads(0). */
    explicit ThreadPool(int threads = 0);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int size() const { return int(workers_.size()); }

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.  If any task threw,
     * rethrows the first captured exception (the pool stays usable).
     */
    void wait();

    /**
     * Thread count for a request: `requested` > 0 wins, then the
     * PDR_THREADS environment variable, then hardware concurrency
     * (always at least 1).  A PDR_THREADS that is set but not a
     * positive integer throws std::invalid_argument.
     */
    static int resolveThreads(int requested = 0);

    /**
     * Size of the ThreadPool whose worker is the calling thread, or 0
     * when called from outside any pool.  Nested parallelism (e.g. a
     * partitioned network simulation running inside a sweep worker)
     * uses this to share one machine budget instead of multiplying
     * thread counts.
     */
    static int currentPoolSize();

  private:
    void workerLoop(int pool_size);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wakeWorker_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;  //!< Queued + currently executing.
    std::exception_ptr firstError_;
    bool stop_ = false;
};

} // namespace pdr::exec

#endif // PDR_EXEC_THREAD_POOL_HH
