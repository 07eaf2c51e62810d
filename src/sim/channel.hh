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
 * Storage is a power-of-two ring (sim::Ring) that starts with room for
 * a few items and doubles only when a push finds it full, so no bound
 * on the items in flight has to be proven: a standalone test may queue
 * as many as it likes, and a network channel settles at the depth its
 * latency needs and never allocates again.
 *
 * Arrival masks: a channel may also be told (watchArrivals) a word and
 * a bit of its consuming router.  Every push that lands in the live
 * queue sets that bit, so the router reads only the ports whose bit is
 * set and clears a bit when it empties that port's channel: a set bit
 * is exactly a non-empty live queue.  The channel keeps a pointer to
 * the word, as it keeps one into the wake table, so the consumer must
 * not move after wiring.
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
 * The arrival bit follows the live queue: a staged push leaves it
 * alone and drainStaged() sets it on the consumer's worker, so the
 * arrival word, like the wake entry, is written only by the consumer's
 * worker or while the gang is parked (an ordered source phase).
 */

#ifndef PDR_SIM_CHANNEL_HH
#define PDR_SIM_CHANNEL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace pdr::sim {

/** A fixed-latency delay line carrying items of type T. */
template <typename T>
class Channel
{
  public:
    explicit Channel(Cycle latency = 1)
        : latency_(latency), q_(kInitialCapacity)
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
     * Wire up arrival flagging: every push that lands in the live
     * queue sets bit `bit` of `*word` (the consuming router's
     * flit- or credit-arrival mask).
     */
    void
    watchArrivals(std::uint64_t *word, int bit)
    {
        pdr_assert(bit >= 0 && bit < 64);
        arrivals_ = word;
        arrivalBit_ = std::uint64_t(1) << bit;
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
        append({ready, item});
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
     * wake-table and arrival-bit updates.  Called by the consumer's
     * worker after the phase barrier, so it never races the producer
     * or consumer.
     */
    void
    drainStaged()
    {
        for (const Entry &e : staged_)
            append(e);
        staged_.clear();
    }

    /** Pop the next item if it has arrived by cycle `now`. */
    std::optional<T>
    pop(Cycle now)
    {
        if (q_.empty() || q_.front().ready > now)
            return std::nullopt;
        T item = q_.front().item;
        q_.pop();
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
        q_.forEach([&](const Entry &e) { fn(e.ready, e.item); });
    }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    /** Ring slots before the first growth: enough for a 1-cycle link
     *  behind the crossbar stage (at most three items in flight);
     *  longer paths grow once or twice and stay there. */
    static constexpr std::size_t kInitialCapacity = 4;

    /** Enqueue on the live ring, flag the arrival and lower the
     *  consumer's wake entry. */
    void
    append(const Entry &e)
    {
        pdr_assert(q_.empty() || q_.back().ready <= e.ready);
        q_.push(e);
        if (arrivals_)
            *arrivals_ |= arrivalBit_;
        if (wakeAt_ && e.ready < (*wakeAt_)[comp_])
            (*wakeAt_)[comp_] = e.ready;
    }

    Cycle latency_;
    Ring<Entry> q_;
    std::vector<Entry> staged_;             //!< Cross-partition buffer.
    std::vector<Cycle> *wakeAt_ = nullptr;  //!< Consumer wake table.
    std::size_t comp_ = 0;                  //!< Consumer component id.
    std::uint64_t *arrivals_ = nullptr;     //!< Consumer arrival mask.
    std::uint64_t arrivalBit_ = 0;          //!< This channel's bit.
    bool staging_ = false;                  //!< Crosses a partition.
};

} // namespace pdr::sim

#endif // PDR_SIM_CHANNEL_HH
