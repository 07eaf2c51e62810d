#include "traffic/sink.hh"

#include "common/logging.hh"

namespace pdr::traffic {

Sink::Sink(sim::NodeId node, int packet_length, int num_vcs,
           MeasureController &ctrl, FlitChannel *from_router,
           stats::LatencyStats &latency)
    : node_(node), packetLength_(packet_length), ctrl_(ctrl),
      in_(from_router), latency_(latency), vcs_(std::size_t(num_vcs))
{
    pdr_assert(num_vcs >= 1);
}

void
Sink::tick(sim::Cycle now)
{
    while (auto r = in_->pop(now)) {
        const sim::Flit &f = *r;
        pdr_assert(f.dest == node_);
        pdr_assert(f.vc >= 0 && f.vc < int(vcs_.size()));
        totalFlits_++;
        if (now >= ctrl_.warmup())
            measuredFlits_++;

        // A flit continues its VC's packet at the next seq, or is a
        // head at seq 0 on an idle VC.
        VcSlot &slot = vcs_[std::size_t(f.vc)];
        if (slot.nextSeq == 0) {
            pdr_assert(sim::isHead(f.type) && f.seq == 0);
            slot.packet = f.packet;
        } else {
            pdr_assert(f.packet == slot.packet &&
                       int(f.seq) == slot.nextSeq);
        }

        if (sim::isTail(f.type)) {
            pdr_assert(int(f.seq) == packetLength_ - 1);
            slot.nextSeq = 0;
            packets_++;
            sim::Cycle lat = now - f.ctime;
            latency_.record(double(lat), f.measured);
            if (f.measured)
                ctrl_.taggedReceived(now);
            if (recording_)
                log_.push_back({f.packet, node_, now, lat});
        } else {
            slot.nextSeq = int(f.seq) + 1;
        }
    }
}

} // namespace pdr::traffic
