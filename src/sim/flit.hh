/**
 * @file
 * Flits, credits, packet descriptors and the router input-buffer FIFO.
 *
 * Packets are segmented into flits: one head (carrying the destination
 * used by the routing logic), body flits, and one tail (which releases
 * the resources the head acquired).  Single-flit packets are head+tail
 * at once.  The vc field mirrors the vcid carried in a flit's header: it
 * names the virtual channel of the *link the flit is currently on* and
 * is rewritten at each hop when the switch allocator forwards the flit
 * (Section 3.1).
 *
 * Flits are values: the queue a flit sits in (a source's injection
 * channel, a router input FIFO, a link, an ejection channel) owns it,
 * and each hand-off copies it into the next queue.
 */

#ifndef PDR_SIM_FLIT_HH
#define PDR_SIM_FLIT_HH

#include <vector>

#include "common/logging.hh"
#include "sim/types.hh"

namespace pdr::sim {

/** Flit type field. */
enum class FlitType : std::uint8_t
{
    Head,
    Body,
    Tail,
    HeadTail,   //!< Single-flit packet.
};

/** True for Head and HeadTail. */
inline bool isHead(FlitType t)
{
    return t == FlitType::Head || t == FlitType::HeadTail;
}

/** True for Tail and HeadTail. */
inline bool isTail(FlitType t)
{
    return t == FlitType::Tail || t == FlitType::HeadTail;
}

/** Longest packet Flit::seq can number (traffic.packet_length cap). */
constexpr int MaxPacketLength = 256;

/** One flow-control digit.  Fields are ordered widest first so the
 *  record packs without padding holes; every hop copies it. */
struct Flit
{
    PacketId packet = 0;
    Cycle ctime = 0;        //!< Packet creation time (head's value used).
    /** Per-hop bookkeeping, not part of the "wire" format: earliest
     *  tick for the next pipeline action. */
    Cycle eligible = 0;
    NodeId src = Invalid;
    NodeId dest = Invalid;
    /** Intermediate node of two-phase oblivious routing (Valiant);
     *  Invalid for single-phase routings.  Chosen at injection. */
    NodeId inter = Invalid;
    int vc = 0;             //!< VC id on the current link.
    FlitType type = FlitType::Head;
    /** Deadlock-avoidance VC class (e.g. torus dateline: 0 before the
     *  dateline, 1 after).  Updated by the routing function as the
     *  packet progresses; always 0 on a plain mesh. */
    std::uint8_t vclass = 0;
    std::uint8_t seq = 0;   //!< Position within the packet (0-based).
    bool measured = false;  //!< Belongs to the measurement sample space.
};

static_assert(sizeof(Flit) <= 48, "Flit is copied on every hop");

/** A credit returned upstream when a flit leaves an input buffer. */
struct Credit
{
    int vc = 0;             //!< Which VC's buffer was freed.
};

const char *toString(FlitType t);

/**
 * Fixed-capacity FIFO of flits (a router input buffer): capacity fixed
 * at construction (the buffer depth), a plain ring over contiguous
 * storage, no allocation after init().
 */
class FlitFifo
{
  public:
    /** Set the capacity; clears the queue.  Allocate-once. */
    void
    init(int capacity)
    {
        pdr_assert(capacity >= 1);
        ring_.assign(std::size_t(capacity), Flit{});
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    int size() const { return size_; }
    int capacity() const { return int(ring_.size()); }

    /** The oldest flit, in place (not a copy). */
    Flit &
    front()
    {
        pdr_assert(size_ > 0);
        return ring_[head_];
    }

    void
    push(const Flit &f)
    {
        pdr_assert(size_ < int(ring_.size()));
        std::size_t tail = head_ + std::size_t(size_);
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail] = f;
        size_++;
    }

    Flit
    pop()
    {
        pdr_assert(size_ > 0);
        Flit f = ring_[head_];
        head_++;
        if (head_ >= ring_.size())
            head_ = 0;
        size_--;
        return f;
    }

  private:
    std::vector<Flit> ring_;
    std::size_t head_ = 0;
    int size_ = 0;
};

} // namespace pdr::sim

#endif // PDR_SIM_FLIT_HH
