#include "router/router.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr::router {

Router::Router(sim::NodeId id, const RouterConfig &cfg,
               const RoutingFunction &routing)
    : id_(id), cfg_(cfg), routing_(routing),
      adaptive_(routing.isAdaptive())
{
    cfg_.validate();
    if (cfg_.numPorts < 2) {
        throw std::invalid_argument(
            "router.num_ports: a standalone router needs a concrete "
            "port count (0 = auto resolves inside a Network only)");
    }
    int p = cfg_.numPorts;
    int v = cfg_.numVcs;

    inputs_.resize(p);
    outputs_.resize(p);
    invcs_.resize(std::size_t(p) * std::size_t(v));
    outFree_.assign(p, arb::lowMask(v));
    vcWords_ = arb::wordsFor(p * v);
    bidRouteWait_.assign(vcWords_, 0);
    bidActive_.assign(vcWords_, 0);
    outCredits_.assign(std::size_t(p) * std::size_t(v), cfg_.bufDepth);
    for (auto &ivc : invcs_)
        ivc.fifo = sim::Ring<sim::Flit>(std::size_t(cfg_.bufDepth));

    switch (cfg_.model) {
      case RouterModel::Wormhole:
        whArb_ = std::make_unique<arb::WormholeSwitchArbiter>(p);
        break;
      case RouterModel::VirtualChannel:
        vcAlloc_ = std::make_unique<arb::VcAllocator>(p, v);
        saAlloc_ = std::make_unique<arb::SeparableSwitchAllocator>(p, v);
        break;
      case RouterModel::SpecVirtualChannel:
        vcAlloc_ = std::make_unique<arb::VcAllocator>(p, v);
        if (cfg_.singleCycle || cfg_.specEqualPriority) {
            // Unit-latency model (VA and SA complete in the same
            // cycle, no speculation needed) or the equal-priority
            // ablation: one separable allocator over all requests.
            saAlloc_ =
                std::make_unique<arb::SeparableSwitchAllocator>(p, v);
        } else {
            specAlloc_ =
                std::make_unique<arb::SpeculativeSwitchAllocator>(p, v);
        }
        break;
    }
    // The speculative pipeline bids the switch for every ready
    // RouteWait VC each cycle (this includes the equal-priority
    // ablation: its bids feed the shared separable allocator).
    specBids_ = cfg_.model == RouterModel::SpecVirtualChannel &&
                !cfg_.singleCycle;
}

void
Router::connectInput(int port, FlitChannel *in, CreditChannel *credit_out)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    inputs_[port].in = in;
    inputs_[port].creditOut = credit_out;
    if (in)
        in->watchArrivals(&flitArrivals_, port);
}

void
Router::connectOutput(int port, FlitChannel *out, CreditChannel *credit_in,
                      bool is_sink)
{
    pdr_assert(port >= 0 && port < cfg_.numPorts);
    outputs_[port].out = out;
    outputs_[port].creditIn = credit_in;
    outputs_[port].isSink = is_sink;
    if (credit_in)
        credit_in->watchArrivals(&creditArrivals_, port);
}

int
Router::credits(int out_port, int out_vc) const
{
    return outCredits_[vidx(out_port, out_vc)];
}

int
Router::buffered(int port) const
{
    int n = 0;
    for (int vc = 0; vc < cfg_.numVcs; vc++)
        n += int(invc(port, vc).fifo.size());
    return n;
}

std::string
Router::auditArrivals() const
{
    auto describe = [](const char *what, int port, const auto &chan) {
        return csprintf(
            "%s port %d: channel holds %zu item(s), first ready at "
            "cycle %llu, but its arrival bit is clear (the receive "
            "phase would never read it)",
            what, port, chan.inFlight(),
            (unsigned long long)chan.nextReady());
    };
    for (int port = 0; port < cfg_.numPorts; port++) {
        const FlitChannel *in = inputs_[port].in;
        if (in && !in->empty() && !((flitArrivals_ >> port) & 1u))
            return describe("flit channel into input", port, *in);
        const CreditChannel *cin = outputs_[port].creditIn;
        if (cin && !cin->empty() && !((creditArrivals_ >> port) & 1u))
            return describe("credit channel into output", port, *cin);
    }
    return std::string();
}

int
Router::dropFlitArrivalForTest()
{
    if (!flitArrivals_)
        return -1;
    const int port = arb::ctz64(flitArrivals_);
    flitArrivals_ &= flitArrivals_ - 1;
    return port;
}

std::string
Router::auditBidState() const
{
    const int p = cfg_.numPorts;
    const int v = cfg_.numVcs;
    // Expected output-VC busy words, rebuilt from the Active holders
    // (an input VC holds (route, outVc) from VA grant -- a wormhole
    // head's switch grant, with outVc 0 -- to tail departure).
    // p <= 64 is enforced by RouterConfig::validate.
    std::uint64_t busy[64] = {};
    for (int port = 0; port < p; port++) {
        for (int vc = 0; vc < v; vc++) {
            const std::size_t vi = vidx(port, vc);
            const InputVc &ivc = invcs_[vi];
            const bool rw = ivc.state == VcState::RouteWait;
            const bool act =
                ivc.state == VcState::Active && !ivc.fifo.empty();
            if (rw != arb::testBit(bidRouteWait_.data(), int(vi))) {
                return csprintf(
                    "bidRouteWait bit (port %d, vc %d): bit %d, "
                    "state %d", port, vc, int(!rw), int(ivc.state));
            }
            if (act != arb::testBit(bidActive_.data(), int(vi))) {
                return csprintf(
                    "bidActive bit (port %d, vc %d): bit %d, state %d "
                    "fifo %d", port, vc, int(!act), int(ivc.state),
                    int(ivc.fifo.size()));
            }
            if (ivc.state != VcState::Idle && !ivc.fifo.empty()) {
                // The route record, recomputed from the front flit: any
                // flit of the packet gives the head's values (the
                // contract in routing.hh).  An adaptive route depends
                // on port scores since changed, so only its mask and
                // class are checked.
                const sim::Flit &f = ivc.fifo.front();
                const int route =
                    adaptive_ ? ivc.route : routing_.route(id_, f);
                if (route != ivc.route) {
                    return csprintf(
                        "route record (port %d, vc %d): stored route %d, "
                        "recomputed %d", port, vc, ivc.route, route);
                }
                const std::uint32_t mask =
                    routing_.vcMask(f, id_, ivc.route, v);
                if (mask != ivc.vcMask) {
                    return csprintf(
                        "route record (port %d, vc %d, route %d): "
                        "stored vcMask %#x, recomputed %#x", port, vc,
                        ivc.route, ivc.vcMask, mask);
                }
                const auto cls = std::uint8_t(
                    routing_.nextClass(f, id_, ivc.route));
                if (cls != ivc.nextClass) {
                    return csprintf(
                        "route record (port %d, vc %d, route %d): "
                        "stored nextClass %d, recomputed %d", port, vc,
                        ivc.route, int(ivc.nextClass), int(cls));
                }
            }
            if (ivc.state != VcState::Active)
                continue;
            if (ivc.route < 0 || ivc.route >= p || ivc.outVc < 0 ||
                ivc.outVc >= v) {
                return csprintf(
                    "Active (port %d, vc %d) holds no output VC: "
                    "route %d, outVc %d", port, vc, ivc.route,
                    ivc.outVc);
            }
            const std::uint64_t bit = std::uint64_t(1) << ivc.outVc;
            if (busy[ivc.route] & bit) {
                return csprintf(
                    "output (port %d, vc %d) has a second Active "
                    "holder, (port %d, vc %d)", ivc.route, ivc.outVc,
                    port, vc);
            }
            busy[ivc.route] |= bit;
        }
    }
    for (int port = 0; port < p; port++) {
        const std::uint64_t expect = arb::lowMask(v) & ~busy[port];
        if (outFree_[port] != expect) {
            return csprintf(
                "outFree_[%d] = %#llx, expected %#llx from Active "
                "holders", port, (unsigned long long)outFree_[port],
                (unsigned long long)expect);
        }
    }
    return std::string();
}

bool
Router::quiescent() const
{
    for (const auto &ivc : invcs_)
        if (!ivc.fifo.empty() || ivc.state != VcState::Idle)
            return false;
    for (std::uint64_t free : outFree_)
        if (free != arb::lowMask(cfg_.numVcs))
            return false;
    return true;
}

bool
Router::hasCredit(int out_port, int out_vc) const
{
    return outputs_[out_port].isSink ||
           outCredits_[vidx(out_port, out_vc)] > 0;
}

int
Router::portScore(int out_port) const
{
    const auto &op = outputs_[out_port];
    if (op.isSink)
        return cfg_.numVcs * cfg_.bufDepth + 1;
    int score = 0;
    std::uint64_t free = outFree_[out_port];
    while (free) {
        int vc = arb::ctz64(free);
        free &= free - 1;
        score += outCredits_[vidx(out_port, vc)];
    }
    return score;
}

int
Router::selectRoute(const sim::Flit &head)
{
    if (!adaptive_) {
        const int route = routing_.route(id_, head);
        pdr_assert(route >= 0 && route < cfg_.numPorts);
        return route;
    }
    routing_.candidates(id_, head, candScratch_);
    pdr_assert(!candScratch_.empty());
    int best = candScratch_.front();
    if (candScratch_.size() > 1) {
        int best_score = portScore(best);
        for (std::size_t i = 1; i < candScratch_.size(); i++) {
            int score = portScore(candScratch_[i]);
            if (score > best_score) {
                best = candScratch_[i];
                best_score = score;
            }
        }
    }
    pdr_assert(best >= 0 && best < cfg_.numPorts);
    return best;
}

void
Router::routeHead(InputVc &ivc, const sim::Flit &head)
{
    ivc.route = selectRoute(head);
    ivc.vcMask = routing_.vcMask(head, id_, ivc.route, cfg_.numVcs);
    ivc.nextClass =
        std::uint8_t(routing_.nextClass(head, id_, ivc.route));
}

void
Router::tick(sim::Cycle now)
{
    // Occupancy integral: the buffered-flit count is constant between
    // this router's ticks (only receiveFlits/departFlit below change
    // it), so folding count * elapsed here matches per-cycle counting
    // across any sleep schedule.
    if (now > occObsAt_) {
        stats_.bufOccupancy +=
            std::uint64_t(bufferedNow_) * (now - occObsAt_);
        occObsAt_ = now;
    }
    receiveCredits(now);
    receiveFlits(now);
    if (cfg_.model == RouterModel::Wormhole) {
        saPhaseWormhole(now);
    } else {
        vaPhase(now);
        saPhaseVc(now);
    }
}

void
Router::receiveCredits(sim::Cycle now)
{
    // Visit only the ports whose arrival bit is set.  A credit is
    // usable by this very cycle's allocation, so it applies as it is
    // popped.
    std::uint64_t ports = creditArrivals_;
    while (ports) {
        const int port = arb::ctz64(ports);
        ports &= ports - 1;
        CreditChannel *chan = outputs_[port].creditIn;
        while (auto c = chan->pop(now)) {
            pdr_assert(c->vc >= 0 && c->vc < cfg_.numVcs);
            int &credits = outCredits_[vidx(port, c->vc)];
            credits++;
            pdr_assert(credits <= cfg_.bufDepth);
        }
        if (chan->empty())
            creditArrivals_ &= ~(std::uint64_t(1) << port);
    }
}

void
Router::receiveFlits(sim::Cycle now)
{
    std::uint64_t ports = flitArrivals_;
    while (ports) {
        const int port = arb::ctz64(ports);
        ports &= ports - 1;
        FlitChannel *chan = inputs_[port].in;
        while (auto r = chan->pop(now)) {
            sim::Flit &f = *r;
            pdr_assert(f.vc >= 0 && f.vc < cfg_.numVcs);
            auto &ivc = invc(port, f.vc);
            pdr_assert(ivc.fifo.size() < std::size_t(cfg_.bufDepth));
            f.eligible = now + firstActionDelay();
            if (sim::isHead(f.type) && ivc.state == VcState::Idle) {
                // Empty VC: decode + route this packet immediately (the
                // RC stage); otherwise the head waits for takeover when
                // the previous tail departs.
                pdr_assert(ivc.fifo.empty());
                ivc.state = VcState::RouteWait;
                routeHead(ivc, f);
            }
            ivc.fifo.push(f);
            bufferedNow_++;
            syncBid(vidx(port, f.vc));
            stats_.flitsIn++;
        }
        if (chan->empty())
            flitArrivals_ &= ~(std::uint64_t(1) << port);
    }
}

void
Router::vaPhase(sim::Cycle now)
{
    const int v = cfg_.numVcs;
    vaReqs_.clear();
    saReqs_.clear();

    auto consider = [&](int vi) {
        auto &ivc = invcs_[vi];
        pdr_assert(ivc.state == VcState::RouteWait);
        pdr_assert(!ivc.fifo.empty());
        const auto &head = ivc.fifo.front();
        if (now < head.eligible)
            return;
        pdr_assert(sim::isHead(head.type));
        const int port = vi / v, vc = vi % v;
        if (adaptive_) {
            // Footnote 5: re-iterate through the routing function
            // on every attempt, picking one output port.
            routeHead(ivc, head);
        }
        // A request with no free candidate VC cannot be granted (the
        // allocator would skip it before touching any state), so
        // only grantable requests are staged.
        if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route])
            vaReqs_.push_back({port, vc, ivc.route, ivc.vcMask});
        if (specBids_) {
            // Speculative switch bid issued in parallel with the VA
            // request, before its outcome is known.
            saReqs_.push_back({port, vc, ivc.route, true});
            stats_.specSaAttempts++;
        }
    };
    arb::forEachSetBit(bidRouteWait_.data(), vcWords_, consider);

    if (vaReqs_.empty())
        return;

    const auto &grants = vcAlloc_->allocate(vaReqs_, outFree_.data());
    for (const auto &g : grants) {
        std::size_t vi = vidx(g.inPort, g.inVc);
        auto &ivc = invcs_[vi];
        outFree_[g.outPort] &= ~(std::uint64_t(1) << g.outVc);
        ivc.outVc = g.outVc;
        ivc.state = VcState::Active;
        ivc.vaGrantTick = now;
        syncBid(vi);
        stats_.vaGrants++;
    }
}

void
Router::saPhaseWormhole(sim::Cycle now)
{
    saReqs_.clear();
    // Wormhole has numVcs == 1, so vidx == port and the union of the
    // bid bitsets is exactly the ports whose FIFO holds an actionable
    // flit (RouteWait implies non-empty; Active-with-empty-FIFO ports
    // have their bidActive_ bit clear).  departFlit() below mutates
    // only the visited port's bits; the sparse walk iterates a word
    // snapshot, so the traversal matches the dense ascending scan.
    auto considerPort = [&](int port) {
        auto &ivc = invc(port, 0);
        pdr_assert(!ivc.fifo.empty());
        const auto &f = ivc.fifo.front();
        if (now < f.eligible)
            return;
        if (ivc.state == VcState::RouteWait) {
            // Head arbitrates for a free output port; it also needs a
            // downstream buffer to move into.
            pdr_assert(sim::isHead(f.type));
            if (adaptive_)
                routeHead(ivc, f);
            if (!(outFree_[ivc.route] & 1u)) {
                closeStall(ivc, now);   // Held port, not a credit stall.
            } else if (hasCredit(ivc.route, 0)) {
                closeStall(ivc, now);
                saReqs_.push_back({port, 0, ivc.route, false});
            } else {
                openStall(ivc, now);
            }
        } else if (ivc.state == VcState::Active) {
            // Port is held: body/tail flits flow without arbitration.
            pdr_assert(!(outFree_[ivc.route] & 1u));
            if (hasCredit(ivc.route, 0)) {
                closeStall(ivc, now);
                departFlit(port, 0, ivc.route, 0, now);
            } else {
                openStall(ivc, now);
            }
        }
    };
    std::uint64_t occupied = bidRouteWait_[0] | bidActive_[0];
    while (occupied) {
        int port = arb::ctz64(occupied);
        occupied &= occupied - 1;
        considerPort(port);
    }

    if (saReqs_.empty())
        return;

    for (const auto &g : whArb_->allocate(saReqs_)) {
        auto &ivc = invc(g.inPort, 0);
        outFree_[g.outPort] &= ~std::uint64_t(1);  // Hold the port.
        ivc.outVc = 0;
        ivc.state = VcState::Active;
        stats_.headGrants++;
        departFlit(g.inPort, 0, g.outPort, 0, now);
    }
}

void
Router::saPhaseVc(sim::Cycle now)
{
    // Non-speculative requests from Active VCs (saReqs_ already holds
    // this tick's speculative bids, pushed by vaPhase).  bidActive_ is
    // exactly the Active VCs with a buffered flit, in ascending vidx
    // order; no mutation happens until the grant loop below.
    const int v = cfg_.numVcs;
    auto consider = [&](int vi) {
        auto &ivc = invcs_[vi];
        pdr_assert(ivc.state == VcState::Active && !ivc.fifo.empty());
        // First switch request: vaToSaDelay() after the VA grant (a
        // specVC VC granted this tick is covered by its speculative
        // bid).
        if (now < ivc.vaGrantTick + vaToSaDelay())
            return;
        if (now < ivc.fifo.front().eligible)
            return;
        if (!hasCredit(ivc.route, ivc.outVc)) {
            openStall(ivc, now);
            return;
        }
        closeStall(ivc, now);
        saReqs_.push_back({vi / v, vi % v, ivc.route, false});
    };
    arb::forEachSetBit(bidActive_.data(), vcWords_, consider);

    if (saReqs_.empty())
        return;

    const auto &grants = specAlloc_ ? specAlloc_->allocate(saReqs_)
                                    : saAlloc_->allocate(saReqs_);
    bool equal_prio = cfg_.model == RouterModel::SpecVirtualChannel &&
                      cfg_.specEqualPriority && !cfg_.singleCycle;
    for (const auto &g : grants) {
        auto &ivc = invc(g.inPort, g.inVc);
        // In the equal-priority ablation the allocator does not track
        // the spec flag; a grant is speculative iff the VC was still
        // bidding for (or just received) its output VC this cycle.
        bool spec = g.spec ||
                    (equal_prio && (ivc.state == VcState::RouteWait ||
                                    ivc.vaGrantTick == now));
        if (spec) {
            stats_.specSaWins++;
            // Speculation pays off only if VA succeeded this very cycle
            // and the granted output VC has a buffer; otherwise the
            // crossbar slot is wasted (Section 3.1).
            if (ivc.vaGrantTick != now ||
                !hasCredit(ivc.route, ivc.outVc))
                continue;
            stats_.specSaUseful++;
        }
        if (sim::isHead(ivc.fifo.front().type))
            stats_.headGrants++;
        departFlit(g.inPort, g.inVc, ivc.route, ivc.outVc, now);
    }
}

void
Router::departFlit(int in_port, int in_vc, int out_port, int out_vc,
                   sim::Cycle now)
{
    auto &ivc = invc(in_port, in_vc);
    pdr_assert(!ivc.fifo.empty());
    sim::Flit f = ivc.fifo.front();
    ivc.fifo.pop();
    bufferedNow_--;

    // Freed buffer slot: return a credit upstream.
    if (inputs_[in_port].creditOut)
        inputs_[in_port].creditOut->push(sim::Credit{in_vc}, now);

    auto &op = outputs_[out_port];
    if (!op.isSink) {
        pdr_assert(outCredits_[vidx(out_port, out_vc)] > 0);
        outCredits_[vidx(out_port, out_vc)]--;
    }

    // Crossbar traversal (ST) is the extra cycle before the wire; the
    // unit-latency model folds it into the single cycle.
    sim::Cycle st_extra = cfg_.singleCycle ? 0 : 1;
    f.vc = out_vc;
    pdr_assert(out_port == ivc.route);  // The record's class is ours.
    f.vclass = ivc.nextClass;
    pdr_assert(op.out);
    op.out->push(f, now, st_extra);
    stats_.flitsOut++;

    if (sim::isTail(f.type))
        releaseAndTakeOver(in_port, in_vc, out_port, out_vc, now);
    // One re-sync after pop (and possible tail takeover) covers every
    // state this VC can land in.
    syncBid(vidx(in_port, in_vc));
}

void
Router::releaseAndTakeOver(int in_port, int in_vc, int out_port,
                           int out_vc, sim::Cycle now)
{
    auto &ivc = invc(in_port, in_vc);
    pdr_assert(!((outFree_[out_port] >> out_vc) & 1u));
    outFree_[out_port] |= std::uint64_t(1) << out_vc;
    ivc.outVc = sim::Invalid;

    if (ivc.fifo.empty()) {
        ivc.state = VcState::Idle;
        ivc.route = sim::Invalid;
        return;
    }

    // The next packet's head takes over the VC and is routed now (its
    // RC stage runs in the next cycle, so it acts no earlier than a
    // head arriving now would).
    auto &head = ivc.fifo.front();
    pdr_assert(sim::isHead(head.type));
    ivc.state = VcState::RouteWait;
    routeHead(ivc, head);
    head.eligible = std::max(head.eligible, now + firstActionDelay());
}

sim::Cycle
Router::nextWake(sim::Cycle now)
{
    // Scan every occupied input VC for the earliest cycle at which it
    // can act.  A VC contributes now + 1 only when a tick would do
    // observable work then; a future pipeline deadline contributes
    // that deadline; a VC blocked on state that only this router's own
    // ticks can change (a held wormhole port, an all-busy VA candidate
    // set, a zero credit count) contributes nothing -- the unblocking
    // event either happens during one of our ticks (after which this
    // function is re-evaluated) or arrives on a watched channel (which
    // lowers our wake entry on push).
    sim::Cycle t = sim::CycleNever;
    const bool wh = cfg_.model == RouterModel::Wormhole;
    // The union of the bid bitsets is exactly the occupied, actionable
    // VCs the dense scan used to filter down to (RouteWait implies a
    // buffered head; Active VCs with drained FIFOs are excluded).
    // check(vi) returns true when the VC can do observable work on the
    // very next tick (the caller then returns now + 1).
    auto check = [&](std::size_t vi) -> bool {
        InputVc &ivc = invcs_[vi];
        pdr_assert(!ivc.fifo.empty());
        const sim::Flit &f = ivc.fifo.front();
        if (ivc.state == VcState::RouteWait) {
            if (f.eligible > now) {
                t = std::min(t, f.eligible);
            } else if (wh) {
                if (!(outFree_[ivc.route] & 1u)) {
                    // Held port: only our own ticks release it.
                } else if (hasCredit(ivc.route, 0)) {
                    return true;        // Can bid for the port.
                } else {
                    // Credit-stall sleep; the watched credit
                    // channel ends it.
                    openStall(ivc, now + 1);
                }
            } else if (specBids_) {
                return true;            // Bids the switch per cycle.
            } else {
                // Pure VA pipeline: the allocator's persistent
                // state only changes on grants, and a grant needs
                // a free candidate output VC.  All-busy candidates
                // free only during our own ticks (tail
                // departures), so such a VC does not pin us awake.
                if (std::uint64_t(ivc.vcMask) & outFree_[ivc.route])
                    return true;        // VA can grant someone.
            }
        } else if (ivc.state == VcState::Active) {
            // A wormhole hold has no VA stage: its flits go as soon as
            // they are eligible.
            const sim::Cycle r =
                wh ? f.eligible
                   : std::max(f.eligible,
                              ivc.vaGrantTick + vaToSaDelay());
            if (r > now)
                t = std::min(t, r);
            else if (hasCredit(ivc.route, ivc.outVc))
                return true;            // Switch request or departure.
            else
                // Interval-accounted credit stall; the watched
                // credit channel ends the sleep.
                openStall(ivc, now + 1);
        }
        return false;
    };
    for (int w = 0; w < vcWords_; w++) {
        std::uint64_t m = bidRouteWait_[w] | bidActive_[w];
        while (m) {
            int b = arb::ctz64(m);
            m &= m - 1;
            if (check(std::size_t(w) * 64 + b))
                return now + 1;
        }
    }

    // External events: in-flight arrivals (a clear arrival bit is an
    // empty channel, so only set bits can contribute).
    for (std::uint64_t m = flitArrivals_; m; m &= m - 1)
        t = std::min(t, inputs_[arb::ctz64(m)].in->nextReady());
    for (std::uint64_t m = creditArrivals_; m; m &= m - 1)
        t = std::min(t, outputs_[arb::ctz64(m)].creditIn->nextReady());
    return std::max(t, now + 1);
}

RouterStats
Router::statsAt(sim::Cycle now) const
{
    RouterStats s = stats_;
    for (const auto &ivc : invcs_) {
        if (ivc.stallSince != sim::CycleNever) {
            pdr_assert(now >= ivc.stallSince);
            s.creditStallCycles += now - ivc.stallSince;
        }
    }
    pdr_assert(now >= occObsAt_);
    s.bufOccupancy += std::uint64_t(bufferedNow_) * (now - occObsAt_);
    return s;
}

void
Router::traceOpenStalls(sim::Cycle now)
{
    if (!stallTrace_)
        return;
    for (const auto &ivc : invcs_) {
        if (ivc.stallSince != sim::CycleNever && now > ivc.stallSince) {
            stallTrace_->push_back(
                {std::uint32_t(&ivc - invcs_.data()), ivc.stallSince,
                 now});
        }
    }
}

} // namespace pdr::router
