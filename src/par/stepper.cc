#include "par/stepper.hh"

#include <climits>

#include "common/logging.hh"
#include "common/parse.hh"
#include "exec/thread_pool.hh"
#include "prof/profiler.hh"

namespace pdr::par {

int
resolveWorkers(int requested)
{
    int w = requested;
    if (w <= 0) {
        auto v = envCount("PDR_PAR_WORKERS", INT_MAX);
        w = v ? int(v) : 1;
    }
    // Nested parallelism: a sweep already fans simulations across a
    // pool; share the machine instead of multiplying by it.  Results
    // are worker-count-independent, so clamping is pure scheduling.
    int pool = exec::ThreadPool::currentPoolSize();
    if (pool > 1) {
        unsigned hw = std::thread::hardware_concurrency();
        int budget = std::max(1, int(hw > 0 ? hw : 1) / pool);
        w = std::min(w, budget);
    }
    return std::max(1, w);
}

void
SpinBarrier::arrive()
{
    unsigned gen = generation_.load(std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_acq_rel) == n_ - 1) {
        count_.store(0, std::memory_order_relaxed);
        generation_.store(gen + 1, std::memory_order_release);
        return;
    }
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins > 4096) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

ParallelStepper::ParallelStepper(net::Network &net, const ParConfig &cfg)
    : net_(net), part_(net.lattice(), cfg.workers, cfg.scheme),
      W_(part_.workers()), barrier_(part_.workers())
{
    if (W_ == 1)
        return;     // Degenerate: plain Network::step(), no gang.

    // Classify channels: producer and consumer in different blocks ->
    // staged mode, drained by the consumer's worker after the phase
    // barrier.
    flitDrain_.resize(std::size_t(W_));
    creditDrain_.resize(std::size_t(W_));
    for (std::size_t i = 0; i < net_.numFlitChans(); i++) {
        int p = part_.ownerOfComp(net_.flitChanProducer(i));
        int c = part_.ownerOfComp(net_.flitChanConsumer(i));
        if (p != c) {
            net_.flitChan(i).setStaged(true);
            flitDrain_[std::size_t(c)].push_back(&net_.flitChan(i));
            crossChans_++;
        }
    }
    for (std::size_t i = 0; i < net_.numCreditChans(); i++) {
        int p = part_.ownerOfComp(net_.creditChanProducer(i));
        int c = part_.ownerOfComp(net_.creditChanConsumer(i));
        if (p != c) {
            net_.creditChan(i).setStaged(true);
            creditDrain_[std::size_t(c)].push_back(&net_.creditChan(i));
            crossChans_++;
        }
    }

    threads_.reserve(std::size_t(W_ - 1));
    for (int w = 1; w < W_; w++)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ParallelStepper::~ParallelStepper()
{
    if (W_ == 1)
        return;

    stop_.store(true, std::memory_order_release);
    barrier_.arrive();      // Release the gang into the stop check.
    for (auto &t : threads_)
        t.join();

    // Restore serial stepping: direct channel mode (staging buffers
    // are empty between cycles).
    for (auto &list : flitDrain_) {
        for (auto *c : list)
            c->setStaged(false);
    }
    for (auto &list : creditDrain_) {
        for (auto *c : list)
            c->setStaged(false);
    }
}

void
ParallelStepper::runSlice(int w)
{
    const Block &b = part_.blocks()[std::size_t(w)];
    if (mode_ != TagMode::Ordered)
        net_.tickSources(b.nodeLo, b.nodeHi);
    net_.tickRouters(b.routerLo, b.routerHi);
    net_.tickSinks(b.nodeLo, b.nodeHi);
}

void
ParallelStepper::drainSlice(int w)
{
    for (auto *c : flitDrain_[std::size_t(w)])
        c->drainStaged();
    for (auto *c : creditDrain_[std::size_t(w)])
        c->drainStaged();
}

void
ParallelStepper::workerLoop(int w)
{
    // Profiler marks: the cycle-start park (and the shutdown wait) is
    // accounted to the Barrier phase left open by the previous
    // iteration (or by Profiler construction, which opens Barrier for
    // workers 1..W-1).  Reading prof_ is race-free: it is written by
    // worker 0 before its first step() and published by that cycle's
    // start-barrier release.
    for (;;) {
        barrier_.arrive();      // Cycle start (or shutdown).
        if (stop_.load(std::memory_order_acquire))
            return;
        if (prof_)
            prof_->mark(w, prof::Profiler::Phase::Tick);
        runSlice(w);
        if (prof_)
            prof_->mark(w, prof::Profiler::Phase::Barrier);
        barrier_.arrive();      // Phase A done everywhere.
        if (prof_)
            prof_->mark(w, prof::Profiler::Phase::Drain);
        drainSlice(w);
        if (prof_)
            prof_->mark(w, prof::Profiler::Phase::Barrier);
        barrier_.arrive();      // Phase B done everywhere.
    }
}

void
ParallelStepper::step()
{
    if (W_ == 1) {
        if (prof_) {
            prof_->mark(0, prof::Profiler::Phase::Tick);
            net_.step();
            prof_->mark(0, prof::Profiler::Phase::Idle);
        } else {
            net_.step();
        }
        return;
    }
    // The gang is parked at the cycle-start barrier: the state a
    // serial step() audits before its tick phases.
    if (net_.auditEnabled())
        net_.auditCycle();
    if (prof_)
        prof_->mark(0, prof::Profiler::Phase::Tick);

    // Classify the cycle's tagging before any source runs: each
    // source creates at most one packet per cycle, so numNodes bounds
    // the tryTag() calls.  On an Ordered (quota-boundary) cycle the
    // whole source phase runs here, serially in node order, exactly
    // like Network::step() would.
    mode_ = net_.controller().tagMode(net_.now(),
                                     std::uint64_t(
                                         net_.lattice().numNodes()));
    if (mode_ == TagMode::Ordered)
        net_.tickSources(0, net_.lattice().numNodes());

    barrier_.arrive();          // Release the gang into phase A.
    runSlice(0);
    if (prof_)
        prof_->mark(0, prof::Profiler::Phase::Barrier);
    barrier_.arrive();
    if (prof_)
        prof_->mark(0, prof::Profiler::Phase::Drain);
    drainSlice(0);
    if (prof_)
        prof_->mark(0, prof::Profiler::Phase::Barrier);
    barrier_.arrive();
    net_.finishCycle();
    if (prof_)
        prof_->mark(0, prof::Profiler::Phase::Idle);
}

void
ParallelStepper::stepTo(sim::Cycle limit, net::EpochObserver *obs)
{
    net_.drive(limit, [this] { step(); }, nullptr, obs);
}

void
ParallelStepper::run(sim::Cycle n)
{
    stepTo(net_.now() + n);
}

} // namespace pdr::par
