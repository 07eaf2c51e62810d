/**
 * @file
 * Matrix arbiter (Figure 10(b) of the paper), stored as service stamps.
 *
 * An upper-triangular matrix of flip-flops records the binary priority
 * between each pair of requestors.  A requestor wins iff it has higher
 * priority than every other current requestor.  When a requestor consumes
 * a grant its priority is set to the lowest of all requestors, which
 * makes the arbiter strongly fair (least-recently-served order).
 *
 * That update rule keeps the matrix a total order at all times -- the
 * least-recently-served order -- so it is stored as one service stamp
 * per requestor instead of n^2 bits: i beats j iff stamp[i] < stamp[j].
 * Stamps start at the requestor index (i beats j for all i < j, the
 * matrix's reset state), update(w) is one store of a fresh stamp
 * above all others, and the winner among the requests is the one with
 * the smallest stamp, found by walking only the set request bits.
 * beats() and dumpState() read the matrix back out of the stamps, and
 * tests/arb/test_alloc_equiv.cc drives the arbiter in lockstep with
 * the dense byte-matrix reference in tests/arb/scalar_oracle.hh.
 */

#ifndef PDR_ARB_MATRIX_ARBITER_HH
#define PDR_ARB_MATRIX_ARBITER_HH

#include "arb/arbiter.hh"
#include "arb/bitrow.hh"
#include "common/logging.hh"

namespace pdr::arb {

/** Least-recently-served matrix arbiter over per-requestor stamps. */
class MatrixArbiter
{
  public:
    explicit MatrixArbiter(int n);

    /** Number of requestors. */
    int size() const { return int(stamp_.size()); }

    /**
     * Pick a winner among requestors (request[i] nonzero if i
     * requests).  Does NOT update priority state; call update(winner)
     * when the grant is actually consumed.  Returns NoGrant if no
     * requests.
     */
    int arbitrate(const ReqRow &requests) const;

    /** Record that `winner` consumed a grant: it drops to the lowest
     *  priority.  NoGrant is a no-op. */
    void
    update(int winner)
    {
        if (winner == NoGrant)
            return;
        pdr_assert(winner >= 0 && winner < size());
        stamp_[std::size_t(winner)] = ++clock_;
    }

    /**
     * Arbitrate a packed request row of wordsFor(size()) words (bit i
     * set iff requestor i bids).  Returns the winning index or
     * NoGrant; does NOT update priority state.
     */
    int arbitrateMask(const std::uint64_t *requests) const;

    /** Single-word fast path (requires size() <= 64). */
    int
    arbitrateWord(std::uint64_t requests) const
    {
        pdr_assert(size() <= kWordBits);
        return argmin(requests, 0, NoGrant);
    }

    /** Does requestor i currently beat requestor j? (diagnostic). */
    bool beats(int i, int j) const;

    /** Append the upper-triangular priority state (beats(i, j) for all
     *  i < j, row-major) as 0/1 bytes -- the equivalence tests compare
     *  this against the scalar oracle every round. */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    /** The requestor with the smallest stamp among `best` and the set
     *  bits of `bits` (requestor base + b for bit b). */
    int
    argmin(std::uint64_t bits, int base, int best) const
    {
        std::uint64_t low = best == NoGrant ? ~std::uint64_t(0)
                                            : stamp_[std::size_t(best)];
        for (; bits; bits &= bits - 1) {
            const int i = base + ctz64(bits);
            if (stamp_[std::size_t(i)] < low) {
                low = stamp_[std::size_t(i)];
                best = i;
            }
        }
        return best;
    }

    /** Last service of each requestor: a smaller stamp is served less
     *  recently and beats a larger one.  All stamps are distinct. */
    std::vector<std::uint64_t> stamp_;
    /** Largest stamp handed out; 64 bits never wrap in a run. */
    std::uint64_t clock_ = 0;
};

} // namespace pdr::arb

#endif // PDR_ARB_MATRIX_ARBITER_HH
