/**
 * @file
 * Abstract n:1 arbiter interface.
 *
 * An arbiter picks one winner among a set of requestors each cycle.  The
 * paper's routers are built from matrix arbiters (Figure 10); a
 * round-robin variant is provided for ablation studies.
 */

#ifndef PDR_ARB_ARBITER_HH
#define PDR_ARB_ARBITER_HH

#include <cstdint>
#include <vector>

namespace pdr::arb {

/** Index of "no winner". */
constexpr int NoGrant = -1;

/**
 * A request row: element i nonzero iff requestor i bids.  This is the
 * dense byte representation used by the abstract interface, the
 * round-robin ablation arbiter, and the test-only scalar oracle; the
 * router hot path stages packed uint64_t rows instead (arb/bitrow.hh)
 * and calls MatrixArbiter::arbitrateMask directly.
 */
using ReqRow = std::vector<std::uint8_t>;

/** Abstract n:1 arbiter. */
class Arbiter
{
  public:
    explicit Arbiter(int n) : n_(n) {}
    virtual ~Arbiter() = default;

    /** Number of requestors. */
    int size() const { return n_; }

    /**
     * Pick a winner among requestors (request[i] nonzero if i requests).
     * Does NOT update priority state; call update(winner) when the grant
     * is actually consumed.  Returns NoGrant if no requests.
     */
    virtual int arbitrate(const ReqRow &requests) const = 0;

    /** Record that `winner` consumed a grant (moves it to lowest
     *  priority / advances the pointer). */
    virtual void update(int winner) = 0;

  private:
    int n_;
};

} // namespace pdr::arb

#endif // PDR_ARB_ARBITER_HH
