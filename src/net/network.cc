#include "net/network.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr::net {

std::string
NetworkConfig::resolvedRouting() const
{
    if (routing != "auto")
        return routing;
    return TopologyRegistry::instance().at(topology).defaultRouting;
}

Lattice
NetworkConfig::makeLattice() const
{
    return TopologyRegistry::instance().at(topology).make(k);
}

double
NetworkConfig::capacity() const
{
    return makeLattice().uniformCapacity();
}

bool
operator==(const NetworkConfig &a, const NetworkConfig &b)
{
    return a.k == b.k && a.topology == b.topology &&
           a.routing == b.routing && a.router == b.router &&
           a.linkLatency == b.linkLatency &&
           a.creditLatency == b.creditLatency &&
           a.injectionRate == b.injectionRate &&
           a.packetLength == b.packetLength &&
           a.burstOn == b.burstOn && a.burstOff == b.burstOff &&
           a.pattern == b.pattern && a.permfile == b.permfile &&
           a.seed == b.seed && a.warmup == b.warmup &&
           a.samplePackets == b.samplePackets && a.audit == b.audit;
}

void
NetworkConfig::validate() const
{
    Lattice lat = makeLattice();
    (void)traffic::makePattern(pattern, {lat, permfile});
    auto routing_fn =
        RoutingRegistry::instance().at(resolvedRouting())(lat);
    validateWith(lat, *routing_fn);
}

void
NetworkConfig::validateWith(const Lattice &lat,
                            const router::RoutingFunction &routing_fn)
    const
{
    router.validate();
    if (router.numPorts != 0 && router.numPorts != lat.numPorts()) {
        throw std::invalid_argument(csprintf(
            "router.num_ports: topology '%s' routers need %d ports "
            "(or 0 = derive from the topology), got %d",
            topology.c_str(), lat.numPorts(), router.numPorts));
    }
    // Negated comparison so NaN is rejected too.
    if (!(injectionRate >= 0.0 && injectionRate <= 1.0)) {
        throw std::invalid_argument(csprintf(
            "traffic.injection_rate %.3f out of [0, 1] "
            "flits/node/cycle", injectionRate));
    }
    if (packetLength < 1 || packetLength > sim::MaxPacketLength) {
        throw std::invalid_argument(csprintf(
            "traffic.packet_length must be in [1, %d] (flits are "
            "numbered by a one-byte seq), got %d",
            sim::MaxPacketLength, packetLength));
    }
    if ((burstOn > 0.0) != (burstOff > 0.0)) {
        throw std::invalid_argument(
            "traffic.burst_on and traffic.burst_off must both be set "
            "(> 0) or both be 0");
    }
    if (burstOn > 0.0 && (burstOn < 1.0 || burstOff < 1.0)) {
        throw std::invalid_argument(csprintf(
            "traffic.burst_on / traffic.burst_off are mean state dwell "
            "times and must be >= 1 cycle, got %.3f / %.3f", burstOn,
            burstOff));
    }
    // Wraparound rings need the dateline VC classes, randomized
    // oblivious routings a class per order/phase -- each routing knows
    // its own requirement.
    if (router.numVcs < routing_fn.minVcs()) {
        throw std::invalid_argument(csprintf(
            "net.routing=%s on topology '%s' needs >= %d VCs per "
            "channel for dateline/class deadlock avoidance, got %d "
            "(wormhole routers cannot run a torus deadlock-free)",
            resolvedRouting().c_str(), topology.c_str(),
            routing_fn.minVcs(), router.numVcs));
    }
}

Network::Network(const NetworkConfig &cfg)
    : cfg_(cfg),
      mesh_(cfg.makeLattice()),
      ctrl_(cfg.warmup, cfg.samplePackets),
      pattern_(traffic::makePattern(cfg.pattern,
                                    {mesh_, cfg.permfile}))
{
    routing_ =
        RoutingRegistry::instance().at(cfg_.resolvedRouting())(mesh_);
    cfg_.validateWith(mesh_, *routing_);
    cfg_.router.numPorts = mesh_.numPorts();  // Resolve 0 = auto.

    if (cfg_.audit || sim::Auditor::envEnabled())
        auditor_ = std::make_unique<sim::Auditor>();

    int routers = mesh_.numRouters();
    int nodes = mesh_.numNodes();
    int dims = mesh_.dims();
    // Everyone runs at cycle 0.
    wakeAt_.assign(std::size_t(2 * nodes + routers), 0);

    // Count the directed inter-router links so every slab can be
    // reserved exactly; growing a slab later would invalidate the
    // channel pointers already handed to components.
    int edges = 0;
    for (sim::NodeId id = 0; id < routers; id++)
        for (int port = 0; port < dims; port++)
            if (mesh_.neighbor(id, port) != sim::Invalid)
                edges += 2;
    flitChans_.reserve(std::size_t(edges + 2 * nodes));  // links+inj+ej
    creditChans_.reserve(std::size_t(edges + nodes));    // links+inj

    routers_.reserve(std::size_t(routers));
    for (sim::NodeId id = 0; id < routers; id++)
        routers_.emplace_back(id, cfg_.router, *routing_);

    // Inter-router links: one flit channel and one reverse credit
    // channel per directed edge (wrap links included on a torus).
    // Ports [0, dims) are the plus directions, so every undirected
    // edge is visited exactly once.
    for (sim::NodeId id = 0; id < routers; id++) {
        for (int port = 0; port < dims; port++) {
            sim::NodeId nb = mesh_.neighbor(id, port);
            if (nb == sim::Invalid)
                continue;
            int rport = mesh_.opposite(port);

            // id --(port)--> nb
            auto *f1 = newFlitChan(cfg_.linkLatency, rtrComp(id),
                                   rtrComp(nb));
            auto *c1 = newCreditChan(cfg_.creditLatency, rtrComp(nb),
                                     rtrComp(id));
            routers_[id].connectOutput(port, f1, c1, false);
            routers_[nb].connectInput(rport, f1, c1);
            if (auditor_) {
                auditLinks_.push_back({id, sim::Invalid, port, nb,
                                       rport, flitChans_.size() - 1,
                                       creditChans_.size() - 1});
            }

            // nb --(rport)--> id
            auto *f2 = newFlitChan(cfg_.linkLatency, rtrComp(nb),
                                   rtrComp(id));
            auto *c2 = newCreditChan(cfg_.creditLatency, rtrComp(id),
                                     rtrComp(nb));
            routers_[nb].connectOutput(rport, f2, c2, false);
            routers_[id].connectInput(port, f2, c2);
            if (auditor_) {
                auditLinks_.push_back({nb, sim::Invalid, rport, id,
                                       port, flitChans_.size() - 1,
                                       creditChans_.size() - 1});
            }
        }
    }

    // Sources and sinks on the local ports (one per hosted node).
    sources_.reserve(std::size_t(nodes));
    sinks_.reserve(std::size_t(nodes));
    sinkLatency_.resize(std::size_t(nodes));
    traffic::SourceConfig scfg;
    scfg.numVcs = cfg_.router.numVcs;
    scfg.bufDepth = cfg_.router.bufDepth;
    scfg.packetLength = cfg_.packetLength;
    scfg.packetRate = cfg_.injectionRate / cfg_.packetLength;
    scfg.burstOn = cfg_.burstOn;
    scfg.burstOff = cfg_.burstOff;
    scfg.seed = cfg_.seed;
    scfg.routing = routing_.get();

    for (sim::NodeId node = 0; node < nodes; node++) {
        sim::NodeId r = mesh_.routerOf(node);
        int lport = mesh_.localPort(mesh_.localIndexOf(node));

        // Injection credits take one cycle of wire plus one of the
        // source's credit stage.
        const sim::Cycle wire = 1, source_stage = 1;
        auto *inj = newFlitChan(1, srcComp(node), rtrComp(r));
        auto *inj_credit = newCreditChan(wire + source_stage, rtrComp(r),
                                         srcComp(node));
        routers_[r].connectInput(lport, inj, inj_credit);
        sources_.emplace_back(node, scfg, *pattern_, ctrl_, inj,
                              inj_credit);
        if (auditor_) {
            auditLinks_.push_back({sim::Invalid, node, sim::Invalid, r,
                                   lport, flitChans_.size() - 1,
                                   creditChans_.size() - 1});
        }

        auto *ej = newFlitChan(1, rtrComp(r), snkComp(node));
        routers_[r].connectOutput(lport, ej, nullptr, true);
        sinks_.emplace_back(node, cfg_.packetLength, cfg_.router.numVcs,
                            ctrl_, ej, sinkLatency_[node]);
    }

    pdr_assert(int(flitChans_.size()) == edges + 2 * nodes);
    pdr_assert(int(creditChans_.size()) == edges + nodes);
}

Network::FlitChannel *
Network::newFlitChan(sim::Cycle latency, std::size_t producer,
                     std::size_t consumer)
{
    pdr_assert(flitChans_.size() < flitChans_.capacity());
    flitChans_.emplace_back(latency);
    flitChans_.back().watch(&wakeAt_, consumer);
    flitProducer_.push_back(producer);
    flitConsumer_.push_back(consumer);
    return &flitChans_.back();
}

Network::CreditChannel *
Network::newCreditChan(sim::Cycle latency, std::size_t producer,
                       std::size_t consumer)
{
    pdr_assert(creditChans_.size() < creditChans_.capacity());
    creditChans_.emplace_back(latency);
    creditChans_.back().watch(&wakeAt_, consumer);
    creditProducer_.push_back(producer);
    creditConsumer_.push_back(consumer);
    return &creditChans_.back();
}

void
Network::forceTickAll(bool on)
{
    forceTickAll_ = on;
    if (!on) {
        // Re-arm the schedule: wake everything, components re-report
        // their real wake times after the next tick.
        std::fill(wakeAt_.begin(), wakeAt_.end(), now_);
    }
}

void
Network::recordDeliveries(bool on)
{
    for (auto &s : sinks_)
        s.recordDeliveries(on);
}

std::vector<traffic::Delivery>
Network::takeDeliveries()
{
    // Each log is in its sink's ejection order, so node order plus a
    // stable sort by cycle is the order a serial step() ejects in.
    std::vector<traffic::Delivery> out;
    for (auto &s : sinks_)
        s.takeDeliveries(out);
    std::stable_sort(out.begin(), out.end(),
                     [](const traffic::Delivery &a,
                        const traffic::Delivery &b) { return a.at < b.at; });
    return out;
}

void
Network::tickSources(sim::NodeId lo, sim::NodeId hi)
{
    for (sim::NodeId i = lo; i < hi; i++) {
        if (forceTickAll_) {
            sources_[i].tick(now_);
        } else if (wakeAt_[srcComp(i)] <= now_) {
            sources_[i].tick(now_);
            wakeAt_[srcComp(i)] = sources_[i].nextWake(now_);
        }
    }
}

void
Network::tickRouters(sim::NodeId lo, sim::NodeId hi)
{
    for (sim::NodeId i = lo; i < hi; i++) {
        if (forceTickAll_) {
            routers_[i].tick(now_);
        } else if (wakeAt_[rtrComp(i)] <= now_) {
            routers_[i].tick(now_);
            wakeAt_[rtrComp(i)] = routers_[i].nextWake(now_);
        } else {
            continue;
        }
        if (tickWeights_)
            (*tickWeights_)[std::size_t(i)]++;
    }
}

void
Network::tickSinks(sim::NodeId lo, sim::NodeId hi)
{
    for (sim::NodeId i = lo; i < hi; i++) {
        if (forceTickAll_) {
            sinks_[i].tick(now_);
        } else if (wakeAt_[snkComp(i)] <= now_) {
            sinks_[i].tick(now_);
            wakeAt_[snkComp(i)] = sinks_[i].nextWake();
        }
    }
}

void
Network::step()
{
    // Components communicate only through >= 1 cycle channels, so the
    // order within a cycle is immaterial; sources / routers / sinks is
    // the natural reading order.  A component whose wake time has not
    // come provably does nothing this cycle (its inputs are empty and
    // its own state is at a fixed point), so it is skipped; channel
    // pushes during this cycle lower wake times for later cycles only
    // (latency >= 1), never for the current one.
    if (auditor_)
        auditCycle();
    tickSources(0, mesh_.numNodes());
    tickRouters(0, mesh_.numRouters());
    tickSinks(0, mesh_.numNodes());
    now_++;
}

std::string
Network::componentName(std::size_t comp) const
{
    std::size_t nodes = std::size_t(mesh_.numNodes());
    std::size_t routers = std::size_t(mesh_.numRouters());
    if (comp < nodes)
        return csprintf("source %zu", comp);
    if (comp < nodes + routers)
        return csprintf("router %zu", comp - nodes);
    pdr_assert(comp < 2 * nodes + routers);
    return csprintf("sink %zu", comp - nodes - routers);
}

void
Network::auditCycle()
{
    // Checks are counted in bulk and diagnostics built only on the
    // failure path -- the audited hot loop must not allocate.
    std::uint64_t checks = 0;

    // [AUD-WAKE] Wake-table exactness: no consumer may be scheduled to
    // sleep past an item in flight on a channel it consumes.  Under
    // forceTickAll the wake table is not maintained, so the check only
    // applies to the skipping schedule (whose correctness it proves).
    if (!forceTickAll_) {
        for (std::size_t i = 0; i < flitChans_.size(); i++) {
            sim::Cycle ready = flitChans_[i].nextReady();
            if (ready == sim::CycleNever)
                continue;
            checks++;
            if (wakeAt_[flitConsumer_[i]] > ready) {
                auditor_->fail(
                    now_, componentName(flitConsumer_[i]), "AUD-WAKE",
                    csprintf("sleeps until cycle %llu, past a flit in "
                             "flight ready at cycle %llu (broken "
                             "nextWake or missed Channel::watch)",
                             (unsigned long long)
                                 wakeAt_[flitConsumer_[i]],
                             (unsigned long long)ready));
            }
        }
        for (std::size_t i = 0; i < creditChans_.size(); i++) {
            sim::Cycle ready = creditChans_[i].nextReady();
            if (ready == sim::CycleNever)
                continue;
            checks++;
            if (wakeAt_[creditConsumer_[i]] > ready) {
                auditor_->fail(
                    now_, componentName(creditConsumer_[i]),
                    "AUD-WAKE",
                    csprintf("sleeps until cycle %llu, past a credit "
                             "in flight ready at cycle %llu (broken "
                             "nextWake or missed Channel::watch)",
                             (unsigned long long)
                                 wakeAt_[creditConsumer_[i]],
                             (unsigned long long)ready));
            }
        }
    }

    // [AUD-WAKE], arrival masks: a router reads only the ports whose
    // arrival bit is set, so a clear bit over a non-empty channel
    // hides its items just as a late wake entry does.  The masks are
    // kept under every schedule, forceTickAll included.
    for (std::size_t i = 0; i < routers_.size(); i++) {
        checks++;
        std::string diag = routers_[i].auditArrivals();
        if (!diag.empty()) {
            auditor_->fail(now_, csprintf("router %zu", i), "AUD-WAKE",
                           diag);
        }
    }

    // [AUD-CREDIT] Conservation: for every link and VC, buffer slots
    // are split between usable upstream credits, credits on the wire,
    // flits buffered in the downstream FIFO and flits on the wire.
    // Every transition moves a slot between buckets within one tick,
    // so at every cycle boundary the sum is exactly the configured
    // buffer depth.
    const int depth = cfg_.router.bufDepth;
    for (const AuditLink &l : auditLinks_) {
        for (int v = 0; v < cfg_.router.numVcs; v++) {
            const int held =
                l.upRouter != sim::Invalid
                    ? routers_[l.upRouter].credits(l.outPort, v)
                    : sources_[l.upNode].auditCredits(v);
            int wire_credits = 0;
            creditChans_[l.creditChan].forEachInFlight(
                [&](sim::Cycle, const sim::Credit &c) {
                    if (c.vc == v)
                        wire_credits++;
                });
            int wire_flits = 0;
            flitChans_[l.flitChan].forEachInFlight(
                [&](sim::Cycle, const sim::Flit &f) {
                    if (f.vc == v)
                        wire_flits++;
                });
            int buffered =
                routers_[l.downRouter].auditBuffered(l.inPort, v);
            checks++;
            int sum = held + wire_credits + wire_flits + buffered;
            if (sum != depth) {
                std::string up =
                    l.upRouter != sim::Invalid
                        ? csprintf("router %d port %d", l.upRouter,
                                   l.outPort)
                        : csprintf("source %d", l.upNode);
                auditor_->fail(
                    now_, up, "AUD-CREDIT",
                    csprintf("VC %d toward router %d port %d: held %d "
                             "+ credits on wire %d + flits on wire %d "
                             "+ buffered %d = %d, expected buffer "
                             "depth %d",
                             v, l.downRouter, l.inPort, held,
                             wire_credits, wire_flits, buffered, sum,
                             depth));
            }
        }
    }

    // [AUD-BID] Incremental allocation-bitset consistency: every
    // router's RouteWait/Active bid bitsets and free output-VC words
    // must equal a dense recompute from the per-VC pipeline state.
    // The bitsets are the router-internal analog of the wake table
    // (updated at the same mutation points), so a stale bit here is
    // the allocation-side dual of an AUD-WAKE violation.  The same
    // router check recomputes each occupied VC's route record.
    for (std::size_t i = 0; i < routers_.size(); i++) {
        checks++;
        std::string diag = routers_[i].auditBidState();
        if (!diag.empty()) {
            auditor_->fail(now_, csprintf("router %zu", i), "AUD-BID",
                           diag);
        }
    }

    auditor_->addChecks(checks);
}

void
Network::auditTeardown()
{
    pdr_assert(auditor_);
    // Every flit a source sent and no sink ejected rests in exactly
    // one queue: in flight on a flit channel or buffered in a router
    // input FIFO.  A shortfall was lost on the way, a surplus was
    // duplicated.
    std::uint64_t sent = 0;
    for (const auto &s : sources_)
        sent += s.flitsSent();
    const std::uint64_t ejected = deliveredFlits();
    const long long owed = (long long)(sent - ejected);
    const long long held = (long long)flitsInFlight();
    auditor_->require(
        held == owed, now_, "network", "AUD-LEAK",
        csprintf("sources sent %llu flits and sinks ejected %llu, so "
                 "%lld should be in flight, but channels and router "
                 "FIFOs hold %lld: %lld flit(s) %s",
                 (unsigned long long)sent, (unsigned long long)ejected,
                 owed, held, held < owed ? owed - held : held - owed,
                 held < owed ? "lost" : "duplicated"));
}

sim::Cycle
Network::nextWakeCycle() const
{
    // Linear min-scan of the wake table.  At 2N + R entries of 8
    // bytes this is a streaming pass over a few KB -- measured cheaper
    // than maintaining a hierarchical timer wheel / calendar queue at
    // on-chip-network component counts, and trivially exact (no
    // cascade bookkeeping); see docs/ARCHITECTURE.md.
    sim::Cycle t = sim::CycleNever;
    for (sim::Cycle w : wakeAt_)
        t = std::min(t, w);
    return t;
}

sim::Cycle
Network::skipIdle(sim::Cycle limit)
{
    if (forceTickAll_ || now_ >= limit)
        return now_;
    sim::Cycle w = nextWakeCycle();
    if (w > now_)
        now_ = std::min(w, limit);
    return now_;
}

void
Network::drive(sim::Cycle limit, const std::function<void()> &advance,
               const std::function<bool()> &stop, EpochObserver *obs)
{
    while (now_ < limit && !(stop && stop())) {
        // First poll: a cycle that just crossed onto an epoch boundary
        // is observed here, moving the cap past now_ before the jump
        // is sized.
        if (obs)
            obs->poll();
        const sim::Cycle before = now_;
        const sim::Cycle cap = obs ? obs->cap(limit) : limit;
        skipIdle(cap);
        // Second poll: a jump that landed on a boundary is observed
        // before the boundary cycle runs.
        if (obs)
            obs->poll();
        if (now_ >= limit)
            break;
        // Resume rule.  A jump can stop short of the next wake only on
        // the cap.  If no component is due there, advancing would run
        // a cycle that the loop without an observer jumps over:
        // nothing would tick, but the cycles stepped (and audited and
        // profiled) would depend on the observer.  So keep jumping.
        // Testing now_ == cap first spares the wake-table scan after a
        // jump that landed on a wake, and after every jump when obs is
        // null (cap == limit then, handled above).
        if (now_ == cap && now_ != before && nextWakeCycle() > now_)
            continue;
        advance();
    }
    if (obs)
        obs->poll();
}

void
Network::stepTo(sim::Cycle limit)
{
    drive(limit, [this] { step(); }, nullptr, nullptr);
}

void
Network::run(sim::Cycle n)
{
    stepTo(now_ + n);
}

stats::LatencyStats
Network::latency() const
{
    return stats::LatencyStats::merged(sinkLatency_);
}

double
Network::acceptedFlitRate() const
{
    if (now_ <= cfg_.warmup)
        return 0.0;
    std::uint64_t flits = 0;
    for (const auto &s : sinks_)
        flits += s.measuredFlits();
    double cycles = double(now_ - cfg_.warmup);
    return double(flits) / (cycles * mesh_.numNodes());
}

std::uint64_t
Network::deliveredFlits() const
{
    std::uint64_t n = 0;
    for (const auto &s : sinks_)
        n += s.totalFlits();
    return n;
}

std::uint64_t
Network::deliveredPackets() const
{
    std::uint64_t n = 0;
    for (const auto &s : sinks_)
        n += s.packets();
    return n;
}

std::size_t
Network::flitsInFlight() const
{
    std::size_t n = 0;
    for (const auto &c : flitChans_)
        n += c.inFlight();
    for (const auto &r : routers_)
        for (int port = 0; port < cfg_.router.numPorts; port++)
            n += std::size_t(r.buffered(port));
    return n;
}

router::RouterStats
Network::routerTotals() const
{
    router::RouterStats t;
    for (const auto &r : routers_) {
        // statsAt flushes open credit-stall intervals (and the
        // occupancy integral) through now_, so sleeping routers
        // report what per-cycle ticking would.
        const auto s = r.statsAt(now_);
        t.flitsIn += s.flitsIn;
        t.flitsOut += s.flitsOut;
        t.headGrants += s.headGrants;
        t.vaGrants += s.vaGrants;
        t.specSaAttempts += s.specSaAttempts;
        t.specSaWins += s.specSaWins;
        t.specSaUseful += s.specSaUseful;
        t.creditStallCycles += s.creditStallCycles;
        t.bufOccupancy += s.bufOccupancy;
    }
    return t;
}

bool
Network::quiescent()
{
    for (const auto &r : routers_)
        if (!r.quiescent())
            return false;
    for (auto &s : sources_) {
        // Sleeping sources defer their arrival draws; replay them up
        // to the last completed cycle so backlog() is exact.
        if (now_ > 0)
            s.catchUp(now_ - 1);
        if (s.backlog() != 0)
            return false;
    }
    for (const auto &c : flitChans_)
        if (!c.empty())
            return false;
    return true;
}

} // namespace pdr::net
