#include "traffic/source.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pdr::traffic {

Source::Source(sim::NodeId node, const SourceConfig &cfg,
               const TrafficPattern &pattern, MeasureController &ctrl,
               FlitChannel *to_router, CreditChannel *credits_back)
    : node_(node), cfg_(cfg), pattern_(pattern), ctrl_(ctrl),
      out_(to_router), creditIn_(credits_back),
      rng_(cfg.seed ^ (0xabcd1234ULL * (node + 1))),
      nextId_((sim::PacketId(node) << 40) + 1)
{
    pdr_assert(cfg.numVcs >= 1);
    pdr_assert(cfg.packetLength >= 1);
    pdr_assert(cfg.packetRate >= 0.0 && cfg.packetRate <= 1.0);
    pdr_assert((cfg.burstOn > 0.0) == (cfg.burstOff > 0.0));
    if (cfg.burstOn > 0.0) {
        pdr_assert(cfg.burstOn >= 1.0 && cfg.burstOff >= 1.0);
        // ON-state rate scaled so the long-run mean stays packetRate
        // (duty cycle burstOn / (burstOn + burstOff)), capped at one
        // packet per cycle.
        onRate_ = std::min(1.0, cfg.packetRate *
                                    (cfg.burstOn + cfg.burstOff) /
                                    cfg.burstOn);
    } else {
        onRate_ = cfg.packetRate;
    }
    streams_.resize(cfg.numVcs);
    credits_.assign(cfg.numVcs, cfg.bufDepth);
}

int
Source::active() const
{
    int n = 0;
    for (const auto &s : streams_)
        n += s.busy ? 1 : 0;
    return n;
}

void
Source::tick(sim::Cycle now)
{
    applyCredits(now);
    // Once the sample quota is full no draw touches shared state, so
    // inject() draws arrivals on demand instead of queueing them all.
    if (!ctrl_.quotaFull())
        catchUp(now);
    inject(now);
}

void
Source::catchUp(sim::Cycle now)
{
    // Generation order across cycles matters (each cycle's draws come
    // off one RNG stream in sequence); order against credit handling
    // does not (draw() never reads credits), so skipped cycles replay
    // exactly.
    if (cfg_.packetRate <= 0.0) {
        nextGen_ = now + 1;     // A zero-rate cycle draws nothing.
        return;
    }
    PendingPacket p;
    while (nextGen_ <= now)
        if (draw(nextGen_++, p))
            queue_.push_back(p);
}

sim::Cycle
Source::nextWake(sim::Cycle now) const
{
    if (cfg_.packetRate > 0.0) {
        // Tagging-sensitive span: each creation calls tryTag(), which
        // consumes the shared sample quota in serial node order, so
        // draws cannot be deferred -- tick every cycle until the
        // quota fills (fullness is sticky, so a full reading here
        // stays full for every later cycle).
        if (now + 1 >= ctrl_.warmup() && !ctrl_.quotaFull())
            return now + 1;
    }

    // Outside that span draws replay lazily, so a tick is needed only
    // when injection could happen: some VC has a credit and either
    // holds/awaits work now or could lazily create it (packetRate).
    if (cfg_.packetRate > 0.0 || !queue_.empty() || active() != 0) {
        for (int vc = 0; vc < cfg_.numVcs; vc++)
            if (credits_[vc] > 0)
                return now + 1;
    }

    // No usable credit: sleep until one arrives (or until the warmup
    // boundary, where the tagging-sensitive span begins).
    sim::Cycle t = creditIn_ ? creditIn_->nextReady() : sim::CycleNever;
    if (cfg_.packetRate > 0.0 && now + 1 < ctrl_.warmup())
        t = std::min(t, ctrl_.warmup());
    return std::max(t, now + 1);
}

void
Source::applyCredits(sim::Cycle now)
{
    if (!creditIn_)
        return;
    while (auto c = creditIn_->pop(now)) {
        pdr_assert(c->vc >= 0 && c->vc < cfg_.numVcs);
        credits_[c->vc]++;
        pdr_assert(credits_[c->vc] <= cfg_.bufDepth);
    }
}

bool
Source::draw(sim::Cycle now, PendingPacket &p)
{
    if (cfg_.packetRate <= 0.0)
        return false;
    if (cfg_.burstOn > 0.0) {
        // Two-state MMPP: one transition draw per cycle (geometric
        // dwell times), then a Bernoulli arrival draw only while ON.
        // Every cycle is drawn exactly once and in cycle order --
        // immediately, replayed by catchUp() after a sleep, or on
        // demand by pull() -- so this stream is identical under every
        // schedule.
        double leave =
            1.0 / (burstState_ ? cfg_.burstOn : cfg_.burstOff);
        if (rng_.bernoulli(leave))
            burstState_ = !burstState_;
        if (!burstState_ || !rng_.bernoulli(onRate_))
            return false;
    } else if (!rng_.bernoulli(cfg_.packetRate)) {
        return false;
    }
    p.id = nextId_++;
    p.dest = pattern_.pick(node_, rng_);
    pdr_assert(p.dest != node_);
    // Deterministic routings draw nothing here, keeping the RNG stream
    // identical to the historical behavior.
    p.routing = cfg_.routing
                    ? cfg_.routing->initPacket(node_, p.dest, rng_)
                    : router::PacketInit{};
    p.ctime = now;
    p.measured = ctrl_.tryTag(now);
    created_++;
    return true;
}

bool
Source::pull(sim::Cycle now, PendingPacket &p)
{
    if (!queue_.empty()) {
        p = queue_.front();
        queue_.pop_front();
        return true;
    }
    // Empty queue: draw the next arrival created by `now`, if any.
    // While tick() still queues eagerly nextGen_ is already past now.
    while (nextGen_ <= now)
        if (draw(nextGen_++, p))
            return true;
    return false;
}

void
Source::inject(sim::Cycle now)
{
    // Assign packets to idle injection VCs (round-robin), in creation
    // order: queued ones first, then on-demand draws (see pull).
    for (int k = 0; k < cfg_.numVcs; k++) {
        int vc = (rrAssign_ + k) % cfg_.numVcs;
        auto &s = streams_[vc];
        if (s.busy)
            continue;
        if (!pull(now, s.pkt))
            break;
        s.busy = true;
        s.nextSeq = 0;
        rrAssign_ = (vc + 1) % cfg_.numVcs;
    }

    // Send at most one flit this cycle, round-robin over the active
    // streams that have a downstream buffer available.
    for (int k = 0; k < cfg_.numVcs; k++) {
        int vc = (rrVc_ + k) % cfg_.numVcs;
        auto &s = streams_[vc];
        if (!s.busy || credits_[vc] <= 0)
            continue;

        sim::Flit f;
        f.packet = s.pkt.id;
        int len = cfg_.packetLength;
        if (len == 1)
            f.type = sim::FlitType::HeadTail;
        else if (s.nextSeq == 0)
            f.type = sim::FlitType::Head;
        else if (s.nextSeq == len - 1)
            f.type = sim::FlitType::Tail;
        else
            f.type = sim::FlitType::Body;
        f.vc = vc;
        f.vclass = s.pkt.routing.vclass;
        f.src = node_;
        f.dest = s.pkt.dest;
        f.inter = s.pkt.routing.inter;
        f.seq = std::uint8_t(s.nextSeq);
        f.ctime = s.pkt.ctime;
        f.measured = s.pkt.measured;

        out_->push(f, now);
        credits_[vc]--;
        flitsSent_++;
        s.nextSeq++;
        if (s.nextSeq == len)
            s.busy = false;
        rrVc_ = (vc + 1) % cfg_.numVcs;
        break;
    }
}

} // namespace pdr::traffic
