/** @file Tests for the fixed worker thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "exec/thread_pool.hh"

using namespace pdr;
using exec::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; i++)
        pool.submit([&count] { count++; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; i++) {
        pool.submit([&count, i] {
            if (i == 3)
                throw std::runtime_error("task failed");
            count++;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 9);

    // The pool survives the error and accepts further work.
    pool.submit([&count] { count++; });
    pool.wait();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 8; i++)
            pool.submit([&count] { count++; });
        pool.wait();
        EXPECT_EQ(count.load(), 8 * (round + 1));
    }
}

TEST(ThreadPool, ResolveThreadsPrefersExplicitThenEnv)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3);

    setenv("PDR_THREADS", "5", 1);
    EXPECT_EQ(ThreadPool::resolveThreads(0), 5);
    EXPECT_EQ(ThreadPool::resolveThreads(2), 2);

    // Anything but a positive integer is an error naming the variable,
    // not a silent fallback to the default pool; an explicit request
    // never reads it, and empty means unset.
    for (const char *bad : {"garbage", "4x", "0", "-3"}) {
        SCOPED_TRACE(bad);
        setenv("PDR_THREADS", bad, 1);
        EXPECT_THROW(ThreadPool::resolveThreads(0), std::invalid_argument);
        EXPECT_EQ(ThreadPool::resolveThreads(2), 2);
    }
    setenv("PDR_THREADS", "", 1);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);

    unsetenv("PDR_THREADS");
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
}
