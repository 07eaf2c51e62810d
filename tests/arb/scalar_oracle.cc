#include "scalar_oracle.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pdr::arb {

// ---------------------------------------------------------------------
// ScalarMatrixArbiter: the dense byte-matrix implementation, verbatim.
// ---------------------------------------------------------------------

ScalarMatrixArbiter::ScalarMatrixArbiter(int n) : n_(n)
{
    pdr_assert(n >= 1);
    // i beats j initially for all i < j.
    m_.assign(std::size_t(n) * n, 1);
}

int
ScalarMatrixArbiter::idx(int i, int j) const
{
    return i * size() + j;
}

bool
ScalarMatrixArbiter::beats(int i, int j) const
{
    pdr_assert(i != j);
    if (i < j)
        return m_[idx(i, j)];
    return !m_[idx(j, i)];
}

int
ScalarMatrixArbiter::arbitrate(const ReqRow &requests) const
{
    pdr_assert(int(requests.size()) == size());
    // The bitmask engine uses MatrixArbiter::arbitrateMask instead.
    for (int i = 0; i < size(); i++) {
        if (!requests[i])
            continue;
        bool wins = true;
        for (int j = 0; j < size() && wins; j++) {
            if (j != i && requests[j] && !beats(i, j))
                wins = false;
        }
        if (wins)
            return i;
    }
    return NoGrant;
}

void
ScalarMatrixArbiter::update(int winner)
{
    if (winner == NoGrant)
        return;
    pdr_assert(winner >= 0 && winner < size());
    // Winner drops to lowest priority: every other j now beats winner.
    for (int j = 0; j < size(); j++) {
        if (j == winner)
            continue;
        if (winner < j)
            m_[idx(winner, j)] = 0;
        else
            m_[idx(j, winner)] = 1;
    }
}

void
ScalarMatrixArbiter::dumpState(std::vector<std::uint8_t> &out) const
{
    for (int i = 0; i < size(); i++) {
        for (int j = i + 1; j < size(); j++)
            out.push_back(beats(i, j) ? 1 : 0);
    }
}

// ---------------------------------------------------------------------
// ScalarWormholeSwitchArbiter: dense per-output linear pass, verbatim.
// ---------------------------------------------------------------------

ScalarWormholeSwitchArbiter::ScalarWormholeSwitchArbiter(int p) : p_(p)
{
    pdr_assert(p >= 1);
    outputArb_.reserve(p);
    for (int i = 0; i < p; i++)
        outputArb_.emplace_back(p);
    reqRow_.assign(p, false);
}

const std::vector<SaGrant> &
ScalarWormholeSwitchArbiter::allocate(const std::vector<SaRequest> &requests)
{
    grants_.clear();
    // One output port at a time: gather its requests and arbitrate.
    // The bitmask engine stages per-output bid words instead.
    for (int out = 0; out < p_; out++) {
        bool any = false;
        for (const auto &r : requests) {
            pdr_assert(r.inPort >= 0 && r.inPort < p_);
            pdr_assert(r.outPort >= 0 && r.outPort < p_);
            pdr_assert(!r.spec);
            if (r.outPort == out) {
                pdr_assert(!reqRow_[r.inPort]);
                reqRow_[r.inPort] = true;
                any = true;
            }
        }
        if (any) {
            int winner = outputArb_[out].arbitrate(reqRow_);
            if (winner != NoGrant) {
                outputArb_[out].update(winner);
                grants_.push_back({winner, 0, out, false});
            }
            std::fill(reqRow_.begin(), reqRow_.end(), false);
        }
    }
    return grants_;
}

void
ScalarWormholeSwitchArbiter::dumpState(std::vector<std::uint8_t> &out) const
{
    for (const auto &a : outputArb_)
        a.dumpState(out);
}

// ---------------------------------------------------------------------
// ScalarSeparableSwitchAllocator: dense two-stage pass, verbatim.
// ---------------------------------------------------------------------

ScalarSeparableSwitchAllocator::ScalarSeparableSwitchAllocator(int p, int v)
    : p_(p), v_(v)
{
    pdr_assert(p >= 1 && v >= 1);
    inputArb_.reserve(p);
    outputArb_.reserve(p);
    for (int i = 0; i < p; i++) {
        inputArb_.emplace_back(v);
        outputArb_.emplace_back(p);
    }
    inReq_.assign(std::size_t(p) * v, false);
    want_.assign(std::size_t(p) * v, NoGrant);
    stage1Vc_.assign(p, NoGrant);
    stage1Out_.assign(p, NoGrant);
    vcRow_.assign(v, false);
    portRow_.assign(p, false);
}

const std::vector<SaGrant> &
ScalarSeparableSwitchAllocator::allocate(
    const std::vector<SaRequest> &requests)
{
    grants_.clear();
    // Stage 1: per input port, a v:1 arbiter picks the bidding VC.
    for (const auto &r : requests) {
        pdr_assert(r.inPort >= 0 && r.inPort < p_);
        pdr_assert(r.inVc >= 0 && r.inVc < v_);
        pdr_assert(r.outPort >= 0 && r.outPort < p_);
        std::size_t idx = std::size_t(r.inPort) * v_ + r.inVc;
        pdr_assert(!inReq_[idx]);
        inReq_[idx] = true;
        want_[idx] = r.outPort;
    }

    // The bitmask engine iterates only bidding input ports.
    for (int in = 0; in < p_; in++) {
        stage1Vc_[in] = NoGrant;
        bool any = false;
        for (int vc = 0; vc < v_; vc++) {
            vcRow_[vc] = inReq_[std::size_t(in) * v_ + vc];
            any = any || vcRow_[vc];
        }
        if (any) {
            int vc = inputArb_[in].arbitrate(vcRow_);
            if (vc != NoGrant) {
                stage1Vc_[in] = vc;
                stage1Out_[in] = want_[std::size_t(in) * v_ + vc];
            }
        }
    }

    // Stage 2: per output port, a p:1 arbiter among forwarded winners.
    for (int out = 0; out < p_; out++) {
        bool any = false;
        for (int in = 0; in < p_; in++) {
            portRow_[in] =
                stage1Vc_[in] != NoGrant && stage1Out_[in] == out;
            any = any || portRow_[in];
        }
        if (!any)
            continue;
        int in_win = outputArb_[out].arbitrate(portRow_);
        if (in_win != NoGrant) {
            // Update priorities only for consumed grants so a VC that
            // won stage 1 but lost stage 2 keeps its turn.
            outputArb_[out].update(in_win);
            inputArb_[in_win].update(stage1Vc_[in_win]);
            grants_.push_back({in_win, stage1Vc_[in_win], out, false});
        }
    }

    // Clear scratch for the next round.
    for (const auto &r : requests) {
        std::size_t idx = std::size_t(r.inPort) * v_ + r.inVc;
        inReq_[idx] = false;
        want_[idx] = NoGrant;
    }
    return grants_;
}

void
ScalarSeparableSwitchAllocator::dumpState(
    std::vector<std::uint8_t> &out) const
{
    for (const auto &a : inputArb_)
        a.dumpState(out);
    for (const auto &a : outputArb_)
        a.dumpState(out);
}

// ---------------------------------------------------------------------
// ScalarSpeculativeSwitchAllocator: dense byte-array kill pass.
// ---------------------------------------------------------------------

ScalarSpeculativeSwitchAllocator::ScalarSpeculativeSwitchAllocator(int p,
                                                                   int v)
    : nonspec_(p, v), spec_(p, v), p_(p)
{
}

const std::vector<SaGrant> &
ScalarSpeculativeSwitchAllocator::allocate(
    const std::vector<SaRequest> &requests)
{
    ns_.clear();
    sp_.clear();
    for (const auto &r : requests)
        (r.spec ? sp_ : ns_).push_back(r);

    grants_ = nonspec_.allocate(ns_);

    if (!sp_.empty()) {
        // Ports consumed by non-speculative winners mask speculative
        // grants (Figure 7(c): non-spec selected over spec).  The
        // speculative allocator still runs (and updates its priorities)
        // exactly as the parallel hardware would.
        inUsed_.assign(p_, false);
        outUsed_.assign(p_, false);
        for (const auto &g : grants_) {
            inUsed_[g.inPort] = true;
            outUsed_[g.outPort] = true;
        }
        for (const auto &g : spec_.allocate(sp_)) {
            if (inUsed_[g.inPort] || outUsed_[g.outPort])
                continue;
            grants_.push_back(g);
            grants_.back().spec = true;
        }
    }
    return grants_;
}

void
ScalarSpeculativeSwitchAllocator::dumpState(
    std::vector<std::uint8_t> &out) const
{
    nonspec_.dumpState(out);
    spec_.dumpState(out);
}

// ---------------------------------------------------------------------
// ScalarVcAllocator: dense predicate-scanning two-stage pass, verbatim.
// ---------------------------------------------------------------------

ScalarVcAllocator::ScalarVcAllocator(int p, int v) : p_(p), v_(v)
{
    pdr_assert(p >= 1 && v >= 1);
    int nivc = p * v;
    firstStagePtr_.assign(nivc, 0);
    outputVcArb_.reserve(nivc);
    for (int i = 0; i < nivc; i++)
        outputVcArb_.emplace_back(nivc);
    reqRow_.assign(nivc, false);
    pickOf_.assign(nivc, -1);
    seen_.assign(nivc, false);
}

const std::vector<VaGrant> &
ScalarVcAllocator::allocate(const std::vector<VaRequest> &requests,
                            const std::uint64_t *free_vcs)
{
    // Keep the original per-candidate predicate calls so the lockstep
    // tests compare against the real pre-rework algorithm.
    return allocate(requests, [free_vcs](int out_port, int out_vc) {
        return ((free_vcs[out_port] >> out_vc) & 1u) != 0;
    });
}

const std::vector<VaGrant> &
ScalarVcAllocator::allocate(const std::vector<VaRequest> &requests,
                            const std::function<bool(int, int)> &is_free)
{
    grants_.clear();
    // Stage 1: each input VC picks one free candidate output VC on its
    // routed port, scanning from its rotating pointer.  pickOf_[ivc]
    // records the picked global output-VC index.
    contested_.clear();
    for (const auto &r : requests) {
        pdr_assert(r.inPort >= 0 && r.inPort < p_);
        pdr_assert(r.inVc >= 0 && r.inVc < v_);
        pdr_assert(r.outPort >= 0 && r.outPort < p_);
        int ivc = r.inPort * v_ + r.inVc;
        pdr_assert(!seen_[ivc]);
        seen_[ivc] = true;
        int start = firstStagePtr_[ivc];
        // The bitmask engine uses a rotated find-first-set instead.
        for (int k = 0; k < v_; k++) {
            int ovc = (start + k) % v_;
            if (!((r.vcMask >> ovc) & 1u))
                continue;
            if (is_free(r.outPort, ovc)) {
                int ovc_idx = r.outPort * v_ + ovc;
                pickOf_[ivc] = ovc_idx;
                contested_.push_back(ovc_idx);
                break;
            }
        }
    }

    // Stage 2: per contested output VC, a (p*v):1 matrix arbiter over
    // the input VCs that picked it.
    for (int ovc_idx : contested_) {
        if (granted(grants_, ovc_idx))
            continue;   // Already resolved this output VC.
        // Build the request row for this output VC.
        int nivc = p_ * v_;
        // The bitmask engine stages packed bid rows incrementally.
        for (int ivc = 0; ivc < nivc; ivc++)
            reqRow_[ivc] = (pickOf_[ivc] == ovc_idx);
        int winner = outputVcArb_[ovc_idx].arbitrate(reqRow_);
        if (winner != NoGrant) {
            outputVcArb_[ovc_idx].update(winner);
            grants_.push_back({winner / v_, winner % v_,
                               ovc_idx / v_, ovc_idx % v_});
            // Advance the winner's stage-1 pointer so it spreads load
            // over the output VCs next time.
            firstStagePtr_[winner] = (ovc_idx % v_ + 1) % v_;
        }
    }

    // Clear scratch state for the next round.
    for (const auto &r : requests) {
        int ivc = r.inPort * v_ + r.inVc;
        seen_[ivc] = false;
        pickOf_[ivc] = -1;
    }
    return grants_;
}

bool
ScalarVcAllocator::granted(const std::vector<VaGrant> &grants,
                           int ovc_idx) const
{
    for (const auto &g : grants)
        if (g.outPort * v_ + g.outVc == ovc_idx)
            return true;
    return false;
}

void
ScalarVcAllocator::dumpState(std::vector<std::uint8_t> &out) const
{
    for (int ptr : firstStagePtr_)
        out.push_back(std::uint8_t(ptr));
    for (const auto &a : outputVcArb_)
        a.dumpState(out);
}

} // namespace pdr::arb
