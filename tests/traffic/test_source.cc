/** @file Tests for the constant-rate packet source. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "traffic/source.hh"

using namespace pdr;
using namespace pdr::traffic;
using sim::Flit;

namespace {

struct SourceJig
{
    sim::Channel<Flit> flits{1};
    // Latency 2, as Network builds it: one cycle of wire and one of
    // the source's credit stage.
    sim::Channel<sim::Credit> credits{2};
    MeasureController ctrl;
    UniformPattern pattern{4};
    SourceConfig cfg;
    std::unique_ptr<Source> src;
    sim::Cycle now = 0;

    /** `quota` is the sample size: tagging starts at cycle 0, and the
     *  default never fills within a test. */
    explicit SourceJig(double rate, int vcs = 1, int buf = 8,
                       int len = 5, std::uint64_t quota = 1000000)
        : ctrl(0, quota)
    {
        cfg.numVcs = vcs;
        cfg.bufDepth = buf;
        cfg.packetLength = len;
        cfg.packetRate = rate;
        cfg.seed = 5;
        src = std::make_unique<Source>(1, cfg, pattern, ctrl, &flits,
                                       &credits);
    }

    std::vector<Flit>
    run(int cycles, bool echo_credits = true)
    {
        std::vector<Flit> out;
        for (int i = 0; i < cycles; i++) {
            src->tick(now);
            now++;
            while (auto f = flits.pop(now)) {
                if (echo_credits)
                    credits.push(sim::Credit{f->vc}, now);
                out.push_back(*f);
            }
        }
        return out;
    }
};

} // namespace

TEST(SourceTest, ZeroRateProducesNothing)
{
    SourceJig j(0.0);
    EXPECT_TRUE(j.run(500).empty());
    EXPECT_EQ(j.src->created(), 0u);
}

TEST(SourceTest, RateMatchesBernoulli)
{
    SourceJig j(0.05);
    j.run(20000);
    EXPECT_NEAR(j.src->created() / 20000.0, 0.05, 0.01);
}

TEST(SourceTest, PacketsAreWellFormed)
{
    SourceJig j(0.02);
    auto flits = j.run(5000);
    std::map<sim::PacketId, int> seq;
    for (const auto &f : flits) {
        EXPECT_EQ(int(f.seq), seq[f.packet]);
        if (f.seq == 0)
            EXPECT_EQ(f.type, sim::FlitType::Head);
        else if (f.seq == 4)
            EXPECT_EQ(f.type, sim::FlitType::Tail);
        else
            EXPECT_EQ(f.type, sim::FlitType::Body);
        EXPECT_EQ(f.src, 1);
        EXPECT_NE(f.dest, 1);
        seq[f.packet]++;
    }
    for (const auto &[id, n] : seq)
        EXPECT_LE(n, 5);
}

TEST(SourceTest, SingleFlitPackets)
{
    SourceJig j(0.05, 1, 8, 1);
    auto flits = j.run(2000);
    ASSERT_FALSE(flits.empty());
    for (const auto &f : flits)
        EXPECT_EQ(f.type, sim::FlitType::HeadTail);
}

TEST(SourceTest, RespectsCredits)
{
    // No credits echoed: only bufDepth flits may ever be sent.
    SourceJig j(0.5, 1, 4);
    auto flits = j.run(2000, /*echo_credits=*/false);
    EXPECT_EQ(flits.size(), 4u);
    EXPECT_GT(j.src->backlog(), 0u);
}

TEST(SourceTest, ResumesOnCredit)
{
    SourceJig j(0.5, 1, 4);
    j.run(100, false);
    // Return 2 credits manually.
    j.credits.push(sim::Credit{0}, j.now);
    j.credits.push(sim::Credit{0}, j.now);
    auto more = j.run(50, false);
    EXPECT_EQ(more.size(), 2u);
}

TEST(SourceTest, AtMostOneFlitPerCycle)
{
    SourceJig j(1.0, 4, 8);
    auto flits = j.run(300);
    EXPECT_LE(flits.size(), 300u);
    // Under saturation injection with credits echoed, the source should
    // sustain nearly one flit per cycle.
    EXPECT_GT(flits.size(), 250u);
}

TEST(SourceTest, MultiVcInterleavingKeepsPerVcOrder)
{
    SourceJig j(0.3, 2, 4);
    auto flits = j.run(5000);
    // Per VC, flits of a packet are contiguous and ordered.
    std::map<int, sim::PacketId> active;
    std::map<int, int> seq;
    for (const auto &f : flits) {
        if (f.seq == 0) {
            active[f.vc] = f.packet;
            seq[f.vc] = 0;
        }
        EXPECT_EQ(active[f.vc], f.packet)
            << "packet interleaved within one VC";
        EXPECT_EQ(int(f.seq), seq[f.vc]);
        seq[f.vc]++;
    }
}

TEST(SourceTest, UsesAllVcs)
{
    SourceJig j(0.8, 4, 2);
    auto flits = j.run(4000);
    std::map<int, int> per_vc;
    for (const auto &f : flits)
        per_vc[f.vc]++;
    EXPECT_EQ(per_vc.size(), 4u);
}

TEST(SourceTest, LatencyClockStartsAtCreation)
{
    SourceJig j(0.02);
    auto flits = j.run(3000);
    for (const auto &f : flits)
        EXPECT_LE(f.ctime, j.now);
}

TEST(SourceTest, DeterministicAcrossRuns)
{
    SourceJig a(0.1), b(0.1);
    auto fa = a.run(1000);
    auto fb = b.run(1000);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); i++) {
        EXPECT_EQ(fa[i].packet, fb[i].packet);
        EXPECT_EQ(fa[i].dest, fb[i].dest);
    }
}

namespace {

/** A jig whose source uses MMPP bursty arrivals. */
struct BurstyJig : SourceJig
{
    BurstyJig(double rate, double on, double off, int vcs = 1,
              std::uint64_t quota = 1000000)
        : SourceJig(0.0, vcs, 8, 5, quota)
    {
        cfg.packetRate = rate;
        cfg.burstOn = on;
        cfg.burstOff = off;
        src = std::make_unique<Source>(1, cfg, pattern, ctrl, &flits,
                                       &credits);
    }
};

} // namespace

TEST(SourceBurstTest, MeanRateMatchesConfiguredLoad)
{
    // The ON-state boost is scaled by the duty cycle, so the long-run
    // mean arrival rate stays at packetRate.
    BurstyJig j(0.05, 50, 50);
    j.run(100000);
    EXPECT_NEAR(j.src->created() / 100000.0, 0.05, 0.01);
}

TEST(SourceBurstTest, ArrivalsClusterIntoBursts)
{
    // Count arrivals in 100-cycle windows: an MMPP with 50/450 dwell
    // must show many silent windows and some dense ones, far outside
    // what the Bernoulli process of equal mean produces.
    BurstyJig bursty(0.04, 50, 450);
    SourceJig steady(0.04);

    auto window_counts = [](SourceJig &j) {
        std::vector<int> counts;
        for (int w = 0; w < 400; w++) {
            auto before = j.src->created();
            j.run(100);
            counts.push_back(int(j.src->created() - before));
        }
        return counts;
    };
    auto bc = window_counts(bursty);
    auto sc = window_counts(steady);

    auto zeros = [](const std::vector<int> &v) {
        int n = 0;
        for (int c : v)
            n += c == 0 ? 1 : 0;
        return n;
    };
    // Mean ~4 arrivals per window: steady windows are almost never
    // empty; the 10%-duty MMPP idles through most of them.
    EXPECT_GT(zeros(bc), zeros(sc) + 100);
    EXPECT_GT(*std::max_element(bc.begin(), bc.end()),
              *std::max_element(sc.begin(), sc.end()));
}

TEST(SourceBurstTest, DisabledBurstKeepsTheHistoricalStream)
{
    // burst_on = burst_off = 0 must leave the Bernoulli RNG stream
    // untouched (the golden-CSV gates depend on it).
    SourceJig plain(0.1);
    BurstyJig off(0.1, 0, 0);
    auto fa = plain.run(2000);
    auto fb = off.run(2000);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); i++) {
        EXPECT_EQ(fa[i].packet, fb[i].packet);
        EXPECT_EQ(fa[i].dest, fb[i].dest);
        EXPECT_EQ(fa[i].ctime, fb[i].ctime);
    }
}

TEST(SourceOnDemandTest, QuotaFullSourceSendsTheEagerStream)
{
    // Once its sample quota is full a source draws arrivals only when
    // an injection VC is idle.  Beside an identical source whose quota
    // never fills, it must send the same flits in the same cycles --
    // through a credit starvation that backs both up, the recovery
    // that drains the backlog, and the caught-up running after it --
    // while holding a bounded backlog.  The load (0.75 flits/cycle)
    // is below the one-flit-per-cycle injection limit, so the sources
    // do catch up.
    const std::uint64_t quota = 10;
    const int starve = 2000, recover = 10000;
    const sim::PacketId first = (sim::PacketId(1) << 40) + 1;
    struct Case
    {
        double burst;   //!< MMPP on = off dwell; 0 = Bernoulli.
        int vcs;
    };
    for (const Case c : {Case{0, 1}, Case{0, 2}, Case{50, 1},
                         Case{50, 2}}) {
        SCOPED_TRACE(testing::Message()
                     << "burst=" << c.burst << " vcs=" << c.vcs);
        BurstyJig early(0.15, c.burst, c.burst, c.vcs, quota);
        BurstyJig eager(0.15, c.burst, c.burst, c.vcs);

        std::size_t sent = 0, mismatches = 0;
        auto step = [&](bool echo) {
            auto fa = early.run(1, echo);
            auto fb = eager.run(1, echo);
            if (fa.size() != fb.size()) {
                mismatches++;
                return;
            }
            for (std::size_t i = 0; i < fa.size(); i++) {
                const Flit &a = fa[i], &b = fb[i];
                bool same = a.packet == b.packet && a.dest == b.dest &&
                            a.ctime == b.ctime &&
                            a.vclass == b.vclass && a.inter == b.inter &&
                            a.seq == b.seq && a.type == b.type &&
                            a.vc == b.vc;
                mismatches += same ? 0 : 1;
                EXPECT_EQ(a.measured, a.packet - first < quota);
            }
            sent += fa.size();
        };

        std::size_t filled_backlog = 0, max_backlog = 0;
        for (int i = 0; i < starve; i++) {
            bool was_full = early.ctrl.quotaFull();
            step(false);
            if (!was_full && early.ctrl.quotaFull())
                filled_backlog = early.src->backlog();
            if (was_full)
                max_backlog = std::max(max_backlog, early.src->backlog());
        }
        // No credits: every VC stalls, and past the quota only an idle
        // VC may draw one more packet.
        ASSERT_TRUE(early.ctrl.quotaFull());
        EXPECT_LE(max_backlog, filled_backlog + std::size_t(c.vcs));
        EXPECT_GT(eager.src->backlog(), 10 * early.src->backlog());

        // The downstream buffers drain: return every credit, then echo
        // one per flit.
        for (int vc = 0; vc < c.vcs; vc++) {
            for (int k = 0; k < early.cfg.bufDepth; k++) {
                early.credits.push(sim::Credit{vc}, early.now);
                eager.credits.push(sim::Credit{vc}, eager.now);
            }
        }
        for (int i = 0; i < recover; i++)
            step(true);
        EXPECT_EQ(mismatches, 0u);
        EXPECT_GT(sent, std::size_t(recover / 2));
        EXPECT_LT(eager.src->backlog(), 20u);    // Caught up.
    }
}
