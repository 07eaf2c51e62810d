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
 */

#ifndef PDR_SIM_FLIT_HH
#define PDR_SIM_FLIT_HH

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

/** One flow-control digit. */
struct Flit
{
    PacketId packet = 0;
    FlitType type = FlitType::Head;
    int vc = 0;             //!< VC id on the current link.
    /** Deadlock-avoidance VC class (e.g. torus dateline: 0 before the
     *  dateline, 1 after).  Updated by the routing function as the
     *  packet progresses; always 0 on a plain mesh. */
    std::uint8_t vclass = 0;
    NodeId src = Invalid;
    NodeId dest = Invalid;
    /** Intermediate node of two-phase oblivious routing (Valiant);
     *  Invalid for single-phase routings.  Chosen at injection. */
    NodeId inter = Invalid;
    std::uint8_t seq = 0;   //!< Position within the packet (0-based).
    Cycle ctime = 0;        //!< Packet creation time (head's value used).
    bool measured = false;  //!< Belongs to the measurement sample space.

    // Per-hop bookkeeping (not part of the "wire" format).
    Cycle eligible = 0;     //!< Earliest tick for the next pipeline action.
};

/** A credit returned upstream when a flit leaves an input buffer. */
struct Credit
{
    int vc = 0;             //!< Which VC's buffer was freed.
};

const char *toString(FlitType t);

} // namespace pdr::sim

#endif // PDR_SIM_FLIT_HH
