#include "telem/sampler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "net/network.hh"
#include "telem/trace.hh"

namespace pdr::telem {

StreamSampler::StreamSampler(const net::Network &net, std::ostream *out)
    : net_(net), out_(out), windowEnd_(net.now()),
      prevSnap_(CounterSnapshot::sample(net, net.now())),
      prevLat_(net.latency()), prevFlits_(net.deliveredFlits()),
      prevPackets_(net.deliveredPackets())
{
}

void
StreamSampler::sampleWindow(sim::Cycle at, TraceWriter *trace)
{
    pdr_assert(at > windowEnd_);
    emitWindow(at, trace);
}

void
StreamSampler::emitWindow(sim::Cycle at, TraceWriter *trace)
{
    const sim::Cycle win = at - windowEnd_;
    const auto &cat = counterCatalog();

    CounterSnapshot snap = CounterSnapshot::sample(net_, at);
    CounterSnapshot d = snap.deltaSince(prevSnap_);
    stats::LatencyStats lat = net_.latency();
    stats::LatencyStats dlat = lat.deltaSince(prevLat_);
    const std::uint64_t flits = net_.deliveredFlits();
    const std::uint64_t packets = net_.deliveredPackets();
    const std::uint64_t dflits = flits - prevFlits_;
    const std::uint64_t dpackets = packets - prevPackets_;
    const double nodes = double(net_.lattice().numNodes());
    const double rate = double(dflits) / (double(win) * nodes);

    summary_.windows++;
    summary_.peakWindowRate = std::max(summary_.peakWindowRate, rate);

    if (trace && trace->active()) {
        trace->counterEvent(TraceWriter::kRouterPid, "delivered_flits",
                            at, "flits", double(dflits));
        trace->counterEvent(TraceWriter::kRouterPid, "pool_live", at,
                            "live",
                            double(net_.flitsInFlight()));
    }

    if (out_) {
        std::string rec = csprintf(
            "{\"type\": \"window\", \"cycle\": %llu, "
            "\"window\": %llu, \"flits\": %llu, "
            "\"packets\": %llu, \"rate\": %.6g, "
            "\"lat_count\": %llu, \"lat_mean\": %.6g, "
            "\"lat_p50\": %.6g, \"lat_p95\": %.6g, "
            "\"lat_p99\": %.6g, \"lat_min\": %.6g, "
            "\"lat_max\": %.6g, \"pool_live\": %zu",
            (unsigned long long)at, (unsigned long long)win,
            (unsigned long long)dflits,
            (unsigned long long)dpackets, rate,
            (unsigned long long)dlat.count(), dlat.mean(),
            dlat.percentile(50.0), dlat.percentile(95.0),
            dlat.percentile(99.0), dlat.min(), dlat.max(),
            net_.flitsInFlight());
        for (std::size_t c = 0; c < cat.size(); c++) {
            rec += csprintf(", \"%s\": %llu", cat[c].name,
                            (unsigned long long)d.total(c));
        }
        // Per-router activity in the window (flits forwarded): one
        // array entry per router, index order -- the windowed form of
        // the teardown heatmap.
        const std::size_t fo = std::size_t(counterIndex("flits_out"));
        rec += ", \"router_flits\": [";
        for (std::size_t r = 0; r < d.numRouters(); r++) {
            rec += csprintf("%s%llu", r ? "," : "",
                            (unsigned long long)d.value(r, fo));
        }
        rec += "]}";
        *out_ << rec << "\n";
    }

    windowEnd_ = at;
    prevSnap_ = std::move(snap);
    prevLat_ = lat;
    prevFlits_ = flits;
    prevPackets_ = packets;
}

void
StreamSampler::emitHeatmap(sim::Cycle end)
{
    // One row per router with its end-of-run counter totals and
    // lattice coordinates: exactly the per-router load map an
    // adaptive repartitioner consumes (ROADMAP.md, adaptive
    // repartitioning).
    const auto &cat = counterCatalog();
    const auto &lat = net_.lattice();
    for (std::size_t r = 0; r < prevSnap_.numRouters(); r++) {
        std::string rec = csprintf(
            "{\"type\": \"router\", \"cycle\": %llu, \"id\": %zu, "
            "\"coords\": [",
            (unsigned long long)end, r);
        for (int dim = 0; dim < lat.dims(); dim++) {
            rec += csprintf("%s%d", dim ? "," : "",
                            lat.coordOf(sim::NodeId(r), dim));
        }
        rec += "]";
        for (std::size_t c = 0; c < cat.size(); c++) {
            rec += csprintf(", \"%s\": %llu", cat[c].name,
                            (unsigned long long)prevSnap_.value(r, c));
        }
        rec += "}";
        *out_ << rec << "\n";
    }
}

void
StreamSampler::finish(sim::Cycle end, TraceWriter *trace)
{
    if (end > windowEnd_)
        emitWindow(end, trace);        // Final partial window.
    summary_.flits = prevFlits_;
    summary_.packets = prevPackets_;

    if (out_) {
        emitHeatmap(end);
        *out_ << csprintf(
            "{\"type\": \"summary\", \"cycles\": %llu, "
            "\"windows\": %llu, \"flits\": %llu, \"packets\": %llu, "
            "\"peak_window_rate\": %.6g}\n",
            (unsigned long long)end,
            (unsigned long long)summary_.windows,
            (unsigned long long)summary_.flits,
            (unsigned long long)summary_.packets,
            summary_.peakWindowRate);
        out_->flush();
    }
}

} // namespace pdr::telem
