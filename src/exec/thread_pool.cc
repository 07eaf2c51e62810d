#include "exec/thread_pool.hh"

#include <climits>

#include "common/parse.hh"

namespace pdr::exec {

namespace {

/** Size of the pool owning the calling thread (0 outside any pool). */
thread_local int tlsPoolSize = 0;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    int n = resolveThreads(threads);
    workers_.reserve(n);
    for (int i = 0; i < n; i++)
        workers_.emplace_back([this, n] { workerLoop(n); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeWorker_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        inFlight_++;
    }
    wakeWorker_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (auto v = envCount("PDR_THREADS", INT_MAX))
        return int(v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? int(hw) : 1;
}

int
ThreadPool::currentPoolSize()
{
    return tlsPoolSize;
}

void
ThreadPool::workerLoop(int pool_size)
{
    tlsPoolSize = pool_size;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeWorker_.wait(lock,
                             [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;     // stop_ set and nothing left to drain.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (--inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

} // namespace pdr::exec
