/**
 * @file
 * Single-router test harness: one Router with all five ports wired to
 * externally driven channels, a trivial routing function (the packet
 * destination *is* the output port) unless the test brings its own,
 * and helpers to inject flits, return credits and observe departures
 * cycle by cycle.
 */

#ifndef PDR_TESTS_ROUTER_HARNESS_HH
#define PDR_TESTS_ROUTER_HARNESS_HH

#include <memory>
#include <vector>

#include "router/router.hh"

namespace pdr::test {

/** Routing function whose destination field directly names the port. */
class DirectRouting : public router::RoutingFunction
{
  public:
    int route(sim::NodeId, const sim::Flit &head) const override
    {
        return int(head.dest);
    }
};

/** One router in a test jig. */
class SingleRouter
{
  public:
    using FlitChannel = sim::Channel<sim::Flit>;
    using CreditChannel = sim::Channel<sim::Credit>;

    /** `routing` (default: DirectRouting) must outlive the harness. */
    explicit SingleRouter(const router::RouterConfig &cfg,
                          int sink_port = sim::Invalid,
                          const router::RoutingFunction *routing = nullptr)
        : router_(std::make_unique<router::Router>(
              0, cfg, routing ? *routing : direct_))
    {
        lastReady_.assign(cfg.numPorts, 0);
        for (int p = 0; p < cfg.numPorts; p++) {
            in_.push_back(std::make_unique<FlitChannel>(1));
            out_.push_back(std::make_unique<FlitChannel>(1));
            creditToUs_.push_back(std::make_unique<CreditChannel>(1));
            creditFromUs_.push_back(std::make_unique<CreditChannel>(1));
            router_->connectInput(p, in_[p].get(),
                                  creditFromUs_[p].get());
            router_->connectOutput(p, out_[p].get(),
                                   creditToUs_[p].get(),
                                   p == sink_port);
        }
    }

    router::Router &router() { return *router_; }

    /**
     * Inject a flit into input port `port`.  Arrivals are staggered to
     * one flit per cycle per port (like a real upstream router), so a
     * whole packet may be injected in one call without overflowing the
     * input FIFO.
     */
    void
    inject(int port, const sim::Flit &f)
    {
        sim::Cycle earliest = now_ + 1;
        sim::Cycle ready = std::max(earliest, lastReady_[port] + 1);
        in_[port]->push(f, now_, ready - earliest);
        lastReady_[port] = ready;
    }

    /** Return a credit to the router's output port `port`. */
    void
    credit(int port, int vc)
    {
        creditToUs_[port]->push(sim::Credit{vc}, now_);
    }

    /**
     * Downstream model: when enabled, every departed flit's buffer is
     * immediately consumed and its credit returned (an ideal sink
     * behind every output).
     */
    void autoCredit(bool on) { autoCredit_ = on; }

    /** Step one cycle; returns flits that left the router this cycle
     *  (popped from all output channels). */
    std::vector<std::pair<int, sim::Flit>>
    step()
    {
        router_->tick(now_);
        now_++;
        std::vector<std::pair<int, sim::Flit>> outs;
        for (int p = 0; p < int(out_.size()); p++) {
            while (auto f = out_[p]->pop(now_ + 10)) {
                if (autoCredit_)
                    creditToUs_[p]->push(sim::Credit{f->vc}, now_);
                outs.push_back({p, *f});
            }
        }
        return outs;
    }

    /** Step until a flit departs or `limit` cycles elapse. */
    std::vector<std::pair<int, sim::Flit>>
    stepUntilOutput(int limit)
    {
        for (int i = 0; i < limit; i++) {
            auto outs = step();
            if (!outs.empty())
                return outs;
        }
        return {};
    }

    /** Credits the router sent upstream on input port `port`. */
    int
    drainCreditsFromUs(int port)
    {
        int n = 0;
        while (creditFromUs_[port]->pop(now_ + 10))
            n++;
        return n;
    }

    sim::Cycle now() const { return now_; }

    /** Make a flit addressed at output port `out_port`. */
    static sim::Flit
    makeFlit(sim::PacketId pkt, sim::FlitType type, int vc, int out_port,
             std::uint8_t seq)
    {
        sim::Flit f;
        f.packet = pkt;
        f.type = type;
        f.vc = vc;
        f.src = 0;
        f.dest = sim::NodeId(out_port);
        f.seq = seq;
        return f;
    }

  private:
    DirectRouting direct_;
    std::unique_ptr<router::Router> router_;
    std::vector<std::unique_ptr<FlitChannel>> in_;
    std::vector<std::unique_ptr<FlitChannel>> out_;
    std::vector<std::unique_ptr<CreditChannel>> creditToUs_;
    std::vector<std::unique_ptr<CreditChannel>> creditFromUs_;
    std::vector<sim::Cycle> lastReady_;
    sim::Cycle now_ = 0;
    bool autoCredit_ = false;
};

} // namespace pdr::test

#endif // PDR_TESTS_ROUTER_HARNESS_HH
