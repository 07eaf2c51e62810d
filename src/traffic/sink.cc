#include "traffic/sink.hh"

#include "common/logging.hh"

namespace pdr::traffic {

Sink::Sink(sim::NodeId node, int packet_length, MeasureController &ctrl,
           FlitChannel *from_router, stats::LatencyStats &latency)
    : node_(node), packetLength_(packet_length), ctrl_(ctrl),
      in_(from_router), latency_(latency)
{
}

void
Sink::tick(sim::Cycle now)
{
    while (auto r = in_->pop(now)) {
        const sim::Flit &f = *r;
        pdr_assert(f.dest == node_);
        totalFlits_++;
        if (now >= ctrl_.warmup())
            measuredFlits_++;

        // Flits of a packet must arrive in order on one VC.
        int expected = 0;
        auto it = expectSeq_.find(f.packet);
        if (it != expectSeq_.end())
            expected = it->second;
        pdr_assert(int(f.seq) == expected);

        if (sim::isTail(f.type)) {
            pdr_assert(expected == packetLength_ - 1);
            if (it != expectSeq_.end())
                expectSeq_.erase(it);
            packets_++;
            sim::Cycle lat = now - f.ctime;
            latency_.record(double(lat), f.measured);
            if (f.measured)
                ctrl_.taggedReceived(now);
            if (trace_)
                trace_->push_back({f.packet, node_, now, lat});
        } else {
            expectSeq_[f.packet] = expected + 1;
        }
    }
}

} // namespace pdr::traffic
