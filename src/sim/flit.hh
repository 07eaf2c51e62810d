/**
 * @file
 * Flits, credits and packet descriptors.
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

#include <cstdint>

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

} // namespace pdr::sim

#endif // PDR_SIM_FLIT_HH
