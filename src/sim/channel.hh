/**
 * @file
 * Fixed-latency channels (delay lines) connecting routers.
 *
 * A channel models a pipelined wire: items pushed at cycle t with a
 * latency L become visible to the receiver at cycle t + L.  Both the
 * flit path and the backward credit path are channels; the paper's
 * experiments vary the credit channel's propagation latency (Figure 18).
 *
 * Senders may add extra delay per push (e.g. the crossbar-traversal
 * stage between switch allocation and the wire).
 *
 * Channels participate in activity-driven ticking: a channel may be
 * told (watch) which component consumes it, and every push then lowers
 * that component's wake time to the item's ready cycle.  nextReady()
 * exposes the earliest in-flight ready time so a component going idle
 * can report when its inputs next demand attention.  Credit channels
 * are watched exactly like flit channels: a credit return is a wake
 * event, which is what lets a router (or source) blocked on zero
 * credits clear its wake entry and sleep until the credit that ends
 * the stall arrives (see Router::nextWake / Source::nextWake).
 *
 * Partitioned stepping (src/par/) puts channels that cross a worker
 * boundary into *staged* mode: push() then appends to a private
 * single-producer staging buffer instead of the live queue, and
 * drainStaged() -- called by the consumer's worker after the per-cycle
 * barrier -- merges the staged items and applies the deferred wake-table
 * updates.  Because items pushed at cycle t are deliverable at t+1 or
 * later, draining at the end of cycle t is indistinguishable from the
 * serial immediate push, and the min() wake update reproduces the
 * serial wake table exactly whatever the intra-cycle tick order was.
 */

#ifndef PDR_SIM_CHANNEL_HH
#define PDR_SIM_CHANNEL_HH

#include <deque>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sim/types.hh"

namespace pdr::sim {

/** A fixed-latency delay line carrying items of type T. */
template <typename T>
class Channel
{
  public:
    explicit Channel(Cycle latency = 1) : latency_(latency)
    {
        pdr_assert(latency >= 1);
    }

    /** Wire propagation latency in cycles. */
    Cycle latency() const { return latency_; }

    /**
     * Wire up wake notification: pushes lower `(*wake_at)[comp]` to the
     * pushed item's ready cycle, scheduling the consuming component.
     */
    void
    watch(std::vector<Cycle> *wake_at, std::size_t comp)
    {
        wakeAt_ = wake_at;
        comp_ = comp;
    }

    /**
     * Push an item at cycle `now`; it is deliverable at
     * now + latency + extra.  Pushes must be issued in nondecreasing
     * ready order (guaranteed when `extra` is constant per sender).
     */
    void
    push(const T &item, Cycle now, Cycle extra = 0)
    {
        Cycle ready = now + latency_ + extra;
        if (staging_) {
            // Cross-partition push: buffer privately (only the single
            // producer touches staged_) and defer the queue merge and
            // wake update to drainStaged() after the cycle barrier.
            pdr_assert(staged_.empty() ||
                       staged_.back().ready <= ready);
            staged_.push_back({ready, item});
            return;
        }
        pdr_assert(q_.empty() || q_.back().ready <= ready);
        q_.push_back({ready, item});
        if (wakeAt_ && ready < (*wakeAt_)[comp_])
            (*wakeAt_)[comp_] = ready;
    }

    /**
     * Enter/leave staged (cross-partition) mode.  Must be toggled
     * between cycles, with the staging buffer drained.
     */
    void
    setStaged(bool on)
    {
        pdr_assert(staged_.empty());
        staging_ = on;
    }

    bool staged() const { return staging_; }

    /**
     * Merge staged pushes into the live queue and apply their deferred
     * wake-table updates.  Called by the consumer's worker after the
     * phase barrier, so it never races the producer or consumer.
     */
    void
    drainStaged()
    {
        for (const Entry &e : staged_) {
            pdr_assert(q_.empty() || q_.back().ready <= e.ready);
            q_.push_back(e);
            if (wakeAt_ && e.ready < (*wakeAt_)[comp_])
                (*wakeAt_)[comp_] = e.ready;
        }
        staged_.clear();
    }

    /** Pop the next item if it has arrived by cycle `now`. */
    std::optional<T>
    pop(Cycle now)
    {
        if (q_.empty() || q_.front().ready > now)
            return std::nullopt;
        T item = q_.front().item;
        q_.pop_front();
        return item;
    }

    /** Items still in flight. */
    std::size_t inFlight() const { return q_.size(); }

    bool empty() const { return q_.empty(); }

    /** Earliest ready cycle in flight; CycleNever when empty. */
    Cycle
    nextReady() const
    {
        return q_.empty() ? CycleNever : q_.front().ready;
    }

    /**
     * Visit every in-flight item as fn(ready, item), oldest first
     * (read-only; the invariant auditor counts queue contents with
     * this).  Staged items are not visited, and need not be: the
     * auditor runs at every worker count, but always on worker 0 with
     * the gang parked after the drain, when every staging buffer is
     * empty.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        for (const Entry &e : q_)
            fn(e.ready, e.item);
    }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    Cycle latency_;
    std::deque<Entry> q_;
    std::vector<Entry> staged_;             //!< Cross-partition buffer.
    std::vector<Cycle> *wakeAt_ = nullptr;  //!< Consumer wake table.
    std::size_t comp_ = 0;                  //!< Consumer component id.
    bool staging_ = false;                  //!< Crosses a partition.
};

} // namespace pdr::sim

#endif // PDR_SIM_CHANNEL_HH
