/**
 * @file
 * Separable switch allocators (Figure 7 of the paper), bitmask engine.
 *
 * WormholeSwitchArbiter: one p:1 matrix arbiter per output port; the
 * router holds the granted port for the whole packet (Figure 7(a) - the
 * port-status state itself lives in the router model).
 *
 * SeparableSwitchAllocator: the VC-router allocator of Figure 7(b): a
 * v:1 matrix arbiter per input port picks which VC may bid, then a p:1
 * matrix arbiter per output port picks the winning input.  Allocation is
 * per-flit (cycle-by-cycle), so no port status is stored.
 *
 * SpeculativeSwitchAllocator: Figure 7(c): two separable allocators run
 * in parallel, one over non-speculative requests and one over
 * speculative ones; a non-speculative grant for an output port (or from
 * an input port) kills any speculative grant touching the same port, so
 * speculation can never hurt non-speculative traffic.
 *
 * Requests are staged as packed uint64_t bid words (one word over VCs
 * per input port, one word over input ports per output port; the
 * parameter schema caps p and v at 64) and both stages iterate only the
 * set bits, so the cost scales with live requests rather than p * v.
 * The speculative kill pass is two mask intersections.  Grants and
 * priority evolution must be bit-identical to the dense reference
 * allocators in tests/arb/scalar_oracle.hh, which
 * tests/arb/test_alloc_equiv.cc drives in lockstep.
 */

#ifndef PDR_ARB_SWITCH_ALLOCATOR_HH
#define PDR_ARB_SWITCH_ALLOCATOR_HH

#include <vector>

#include "arb/matrix_arbiter.hh"

namespace pdr::arb {

/** A switch request: input VC (inPort, inVc) wants outPort. */
struct SaRequest
{
    int inPort;
    int inVc;       //!< 0 for wormhole routers.
    int outPort;
    bool spec = false;  //!< Speculative (head still awaiting VA).
};

/** A granted switch passage. */
struct SaGrant
{
    int inPort;
    int inVc;
    int outPort;
    bool spec = false;
};

/** Per-output-port matrix arbitration for wormhole routers. */
class WormholeSwitchArbiter
{
  public:
    explicit WormholeSwitchArbiter(int p);

    /**
     * Arbitrate head-flit requests for output ports.  Each input port
     * may request at most one output (deterministic routing).  Requests
     * for ports already held by a packet must be filtered by the caller
     * (the port status lives with the router, Figure 7(a)).
     *
     * The returned reference points into allocator-owned scratch and is
     * valid until the next allocate() call (one call per router per
     * cycle; returning by value showed up as malloc churn in profiles).
     */
    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    /** Append all arbiter priority state (equivalence tests). */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int p_;
    std::vector<MatrixArbiter> outputArb_;
    std::uint64_t outMask_ = 0;          //!< Outputs with >= 1 bid.
    std::vector<std::uint64_t> outBids_; //!< Per output: input-port bids.
    std::vector<SaGrant> grants_;        //!< Reused result storage.
};

/** Input-first separable allocator for (non-speculative) VC routers. */
class SeparableSwitchAllocator
{
  public:
    SeparableSwitchAllocator(int p, int v);

    /**
     * Two-stage separable allocation.  At most one grant per input port
     * and per output port.  Arbiter priorities are updated only for
     * requests that win both stages (the consumed grants).  The
     * reference is valid until the next allocate() call.
     */
    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    /** Append all arbiter priority state (equivalence tests). */
    void dumpState(std::vector<std::uint8_t> &out) const;

    int numPorts() const { return p_; }
    int numVcs() const { return v_; }

  private:
    int p_;
    int v_;
    std::vector<MatrixArbiter> inputArb_;   //!< v:1 per input port.
    std::vector<MatrixArbiter> outputArb_;  //!< p:1 per output port.

    // Reused per-call bid staging (hot path).  inVcBids_ / outBids_
    // words are zeroed again before allocate() returns.
    std::uint64_t inMask_ = 0;              //!< Inputs with >= 1 bid.
    std::vector<std::uint64_t> inVcBids_;   //!< Per input: VC bids.
    std::uint64_t outMask_ = 0;             //!< Outputs with a finalist.
    std::vector<std::uint64_t> outBids_;    //!< Per output: input bids.
    std::vector<int> want_;      //!< [in * v + vc] requested output.
    std::vector<int> stage1Vc_;  //!< Stage-1 winner VC per input port.
    std::vector<SaGrant> grants_;
};

/** Parallel non-spec / spec allocation with non-spec priority. */
class SpeculativeSwitchAllocator
{
  public:
    SpeculativeSwitchAllocator(int p, int v);

    /**
     * Allocate non-speculative requests first, then speculative requests
     * on input/output ports untouched by non-speculative winners.
     * Returned speculative grants carry spec = true; the router must
     * discard them if the parallel VA did not deliver an output VC (the
     * crossbar slot is then simply wasted).  The reference is valid
     * until the next allocate() call.
     */
    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    /** Append all arbiter priority state (equivalence tests). */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    SeparableSwitchAllocator nonspec_;
    SeparableSwitchAllocator spec_;

    // Reused per-call scratch (hot path).
    std::vector<SaRequest> ns_;
    std::vector<SaRequest> sp_;
    std::vector<SaGrant> grants_;
};

} // namespace pdr::arb

#endif // PDR_ARB_SWITCH_ALLOCATOR_HH
