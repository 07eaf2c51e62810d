/**
 * @file
 * Shared arbiter vocabulary: the "no winner" index and the dense
 * request row.
 *
 * The paper's routers are built from matrix arbiters (Figure 10);
 * MatrixArbiter (arb/matrix_arbiter.hh) is the only n:1 arbiter, and the
 * allocators hold it by value.
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
 * dense byte representation used by MatrixArbiter::arbitrate and the
 * test-only scalar oracle; the router hot path stages packed uint64_t
 * rows instead (arb/bitrow.hh) and calls MatrixArbiter::arbitrateMask
 * directly.
 */
using ReqRow = std::vector<std::uint8_t>;

} // namespace pdr::arb

#endif // PDR_ARB_ARBITER_HH
