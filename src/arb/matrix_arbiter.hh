/**
 * @file
 * Matrix arbiter (Figure 10(b) of the paper), word-parallel storage.
 *
 * An upper-triangular matrix of flip-flops records the binary priority
 * between each pair of requestors.  A requestor wins iff it has higher
 * priority than every other current requestor.  When a requestor consumes
 * a grant its priority is set to the lowest of all requestors, which
 * makes the arbiter strongly fair (least-recently-served order).
 *
 * Storage is bitmask-native: row i is a packed uint64_t word array with
 * bit j set iff i beats j (the full antisymmetric relation, both
 * triangles materialized; the diagonal is never set).  A grant test for
 * requestor i is then one AND-reduce -- i wins iff no *other* requestor
 * falls outside row i: (requests & ~row_i & ~bit_i) == 0 -- and
 * arbitrate walks only the set bits of the request word.
 * tests/arb/test_alloc_equiv.cc drives it in lockstep with the dense
 * byte-matrix reference in tests/arb/scalar_oracle.hh.
 */

#ifndef PDR_ARB_MATRIX_ARBITER_HH
#define PDR_ARB_MATRIX_ARBITER_HH

#include "arb/arbiter.hh"
#include "arb/bitrow.hh"

namespace pdr::arb {

/** Least-recently-served matrix arbiter over packed priority rows. */
class MatrixArbiter
{
  public:
    explicit MatrixArbiter(int n);

    /** Number of requestors. */
    int size() const { return n_; }

    /**
     * Pick a winner among requestors (request[i] nonzero if i
     * requests).  Does NOT update priority state; call update(winner)
     * when the grant is actually consumed.  Returns NoGrant if no
     * requests.
     */
    int arbitrate(const ReqRow &requests) const;

    /** Record that `winner` consumed a grant: it drops to the lowest
     *  priority.  NoGrant is a no-op. */
    void update(int winner);

    /**
     * Arbitrate a packed request row of words() words (bit i set iff
     * requestor i bids).  Returns the winning index or NoGrant; does
     * NOT update priority state.
     */
    int arbitrateMask(const std::uint64_t *requests) const;

    /** Single-word fast path (requires size() <= 64). */
    int arbitrateWord(std::uint64_t requests) const;

    /** Does requestor i currently beat requestor j? (diagnostic). */
    bool beats(int i, int j) const;

    /** Words per packed row. */
    int words() const { return words_; }

    /** Append the upper-triangular priority state (beats(i, j) for all
     *  i < j, row-major) as 0/1 bytes -- the equivalence tests compare
     *  this against the scalar oracle every round. */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    int n_;
    int words_;
    /** Row-major packed matrix: rows_[i * words_ + w] bit b set iff
     *  requestor i beats requestor 64 * w + b.  Diagonal always 0. */
    std::vector<std::uint64_t> rows_;
    /** Scratch for the ReqRow compatibility entry point. */
    mutable std::vector<std::uint64_t> pack_;
};

} // namespace pdr::arb

#endif // PDR_ARB_MATRIX_ARBITER_HH
