/**
 * @file
 * Scalar reference allocators: the dense byte-row implementations that
 * predate the bitmask engine, kept verbatim as the equivalence oracle.
 *
 * Test-only code, built into the arb tests and not into libpdr.  Each
 * class mirrors the public interface of its bitmask counterpart in
 * src/arb/ and must produce bit-identical grants and priority-state
 * evolution; tests/arb/test_alloc_equiv.cc drives both in lockstep
 * over seeded random request streams.
 */

#ifndef PDR_TESTS_ARB_SCALAR_ORACLE_HH
#define PDR_TESTS_ARB_SCALAR_ORACLE_HH

#include <functional>
#include <vector>

#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"

namespace pdr::arb {

/** The dense upper-triangular matrix arbiter (pre-bitmask layout). */
class ScalarMatrixArbiter
{
  public:
    explicit ScalarMatrixArbiter(int n);

    int size() const { return n_; }

    int arbitrate(const ReqRow &requests) const;
    void update(int winner);

    bool beats(int i, int j) const;

    /** Same serialization as MatrixArbiter::dumpState. */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int n_;
    /** Upper-triangular storage: m_[idx(i,j)] nonzero means i beats j,
     *  for i < j. */
    std::vector<std::uint8_t> m_;

    int idx(int i, int j) const;
};

/** Dense per-output-port arbitration for wormhole routers. */
class ScalarWormholeSwitchArbiter
{
  public:
    explicit ScalarWormholeSwitchArbiter(int p);

    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int p_;
    std::vector<ScalarMatrixArbiter> outputArb_;
    ReqRow reqRow_;                //!< Reused per-output request row.
    std::vector<SaGrant> grants_;
};

/** Dense input-first separable switch allocator. */
class ScalarSeparableSwitchAllocator
{
  public:
    ScalarSeparableSwitchAllocator(int p, int v);

    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int p_;
    int v_;
    std::vector<ScalarMatrixArbiter> inputArb_;
    std::vector<ScalarMatrixArbiter> outputArb_;

    ReqRow inReq_;
    std::vector<int> want_;
    std::vector<int> stage1Vc_;
    std::vector<int> stage1Out_;
    ReqRow vcRow_;
    ReqRow portRow_;
    std::vector<SaGrant> grants_;
};

/** Dense parallel non-spec / spec allocation with non-spec priority. */
class ScalarSpeculativeSwitchAllocator
{
  public:
    ScalarSpeculativeSwitchAllocator(int p, int v);

    const std::vector<SaGrant> &
    allocate(const std::vector<SaRequest> &requests);

    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    ScalarSeparableSwitchAllocator nonspec_;
    ScalarSeparableSwitchAllocator spec_;
    int p_;

    std::vector<SaRequest> ns_;
    std::vector<SaRequest> sp_;
    std::vector<std::uint8_t> inUsed_;
    std::vector<std::uint8_t> outUsed_;
    std::vector<SaGrant> grants_;
};

/** Dense predicate-scanning separable VC allocator. */
class ScalarVcAllocator
{
  public:
    ScalarVcAllocator(int p, int v);

    /** Packed-word entry matching VcAllocator::allocate: wraps the
     *  words back into a predicate so the retained algorithm is exactly
     *  the pre-bitmask one. */
    const std::vector<VaGrant> &
    allocate(const std::vector<VaRequest> &requests,
             const std::uint64_t *free_vcs);

    /** The original predicate-driven algorithm, verbatim. */
    const std::vector<VaGrant> &
    allocate(const std::vector<VaRequest> &requests,
             const std::function<bool(int, int)> &is_free);

    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int p_;
    int v_;
    std::vector<int> firstStagePtr_;
    std::vector<ScalarMatrixArbiter> outputVcArb_;

    bool granted(const std::vector<VaGrant> &grants, int ovc_idx) const;

    ReqRow reqRow_;
    std::vector<int> pickOf_;
    std::vector<std::uint8_t> seen_;
    std::vector<int> contested_;
    std::vector<VaGrant> grants_;
};

} // namespace pdr::arb

#endif // PDR_TESTS_ARB_SCALAR_ORACLE_HH
