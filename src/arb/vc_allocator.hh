/**
 * @file
 * Separable virtual-channel allocator (Figure 8 of the paper).
 *
 * Input VCs in the "virtual-channel allocation" state request an output
 * VC on their routed output port.  The allocator is separable:
 *
 *  - First stage (present for Rp / Rpv ranges): each requesting input VC
 *    selects ONE candidate output VC among the free VCs its routing
 *    function returned (a v:1 arbiter per input VC; rotating priority).
 *  - Second stage: a (p*v):1 matrix arbiter per output VC resolves the
 *    input VCs competing for that output VC.
 *
 * Losers simply retry the next cycle.  Output-VC free/busy status is
 * owned by the router, which hands it over as one packed free-VC word
 * per output port (bit i set = output VC i free); stage 1 is then a
 * rotated find-first-set over (vcMask & free word) instead of a
 * predicate-call scan, and stage 2 stages one packed (p*v)-wide bid row
 * per contested output VC.  Grants and priority evolution must be
 * bit-identical to the dense predicate-driven reference allocator in
 * tests/arb/scalar_oracle.hh, which tests/arb/test_alloc_equiv.cc
 * drives in lockstep.
 */

#ifndef PDR_ARB_VC_ALLOCATOR_HH
#define PDR_ARB_VC_ALLOCATOR_HH

#include <functional>
#include <vector>

#include "arb/matrix_arbiter.hh"

namespace pdr::arb {

/** A VC-allocation request from input VC (inPort, inVc). */
struct VaRequest
{
    int inPort;
    int inVc;
    int outPort;    //!< Routed output physical port (deterministic).
    /** Bitmask of acceptable output VCs (bit i = VC i); lets routing
     *  restrict VC classes, e.g. torus dateline deadlock avoidance. */
    std::uint32_t vcMask = ~0u;
};

/** A granted output VC. */
struct VaGrant
{
    int inPort;
    int inVc;
    int outPort;
    int outVc;
};

/** Separable VC allocator with an Rp-range routing function. */
class VcAllocator
{
  public:
    VcAllocator(int p, int v);

    /**
     * One allocation round.
     *
     * @param requests at most one per input VC.
     * @param free_vcs one word per output port; bit i set iff output
     *        VC i of that port is unallocated.  Bits >= numVcs must be
     *        clear.
     * @return grants; at most one per request and per output VC.  The
     *         reference points into allocator-owned scratch and is
     *         valid until the next allocate() call.
     */
    const std::vector<VaGrant> &
    allocate(const std::vector<VaRequest> &requests,
             const std::uint64_t *free_vcs);

    /** Predicate-driven convenience entry (tests): materializes the
     *  free-VC words from is_free and runs the packed path. */
    const std::vector<VaGrant> &
    allocate(const std::vector<VaRequest> &requests,
             const std::function<bool(int, int)> &is_free);

    /** Append all priority state: the stage-1 rotating pointers, then
     *  each stage-2 matrix arbiter (equivalence tests). */
    void dumpState(std::vector<std::uint8_t> &out) const;

    int numPorts() const { return p_; }
    int numVcs() const { return v_; }

  private:
    int p_;
    int v_;
    int nivcWords_;  //!< Words per stage-2 (p*v)-wide bid row.
    /** Stage-1 rotating pointer per input VC (index inPort*v + inVc). */
    std::vector<int> firstStagePtr_;
    /** Stage-2 matrix arbiter per output VC (index outPort*v + outVc),
     *  arbitrating p*v input VCs. */
    std::vector<MatrixArbiter> outputVcArb_;

    // Reused per-call scratch (hot path: one call per router per
    // cycle).  bids_ rows and the staged_ bits are zeroed again before
    // allocate() returns.
    std::vector<std::uint64_t> bids_;    //!< [ovc_idx][nivcWords_] rows.
    std::vector<std::uint64_t> staged_;  //!< Bitset over ovc_idx.
    std::vector<int> contested_;         //!< Staged ovc_idx, pick order.
    std::vector<std::uint64_t> freeScratch_;  //!< Predicate-entry words.
    std::vector<VaGrant> grants_;
};

} // namespace pdr::arb

#endif // PDR_ARB_VC_ALLOCATOR_HH
