/**
 * @file
 * Packed bit-row helpers for the bitmask allocation engine.
 *
 * Request sets and free-VC sets are stored as arrays of uint64_t
 * words (bit i = requestor i).  Arbitration and allocation
 * iterate only the set bits via count-trailing-zeros, so the cost
 * scales with the number of live requests, not the row width.  The
 * parameter schema caps router.num_ports and router.num_vcs at 64
 * (src/api/params.cc), so port rows and per-port VC rows always fit
 * one word; only the VC allocator's (p*v)-wide stage-2 rows need the
 * multi-word forms.
 */

#ifndef PDR_ARB_BITROW_HH
#define PDR_ARB_BITROW_HH

#include <cstdint>

namespace pdr::arb {

/** Bits per packed row word. */
constexpr int kWordBits = 64;

/** Words needed for an n-bit row. */
constexpr int
wordsFor(int n)
{
    return (n + kWordBits - 1) / kWordBits;
}

/** The low n bits set; defined for n in [0, 64] (no shift UB at 64). */
constexpr std::uint64_t
lowMask(int n)
{
    return n >= kWordBits ? ~std::uint64_t(0)
                          : ((std::uint64_t(1) << n) - 1);
}

/** Index of the lowest set bit; undefined for x == 0. */
inline int
ctz64(std::uint64_t x)
{
    return __builtin_ctzll(x);
}

inline bool
testBit(const std::uint64_t *row, int i)
{
    return (row[i >> 6] >> (i & 63)) & 1u;
}

inline void
setBit(std::uint64_t *row, int i)
{
    row[i >> 6] |= std::uint64_t(1) << (i & 63);
}

inline void
clearBit(std::uint64_t *row, int i)
{
    row[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
}

/**
 * Call fn(i) for every set bit i of the nwords-long row, in ascending
 * order.  Each word is snapshotted before its bits are visited, so a
 * callback may clear/set bits of already-visited indices without
 * perturbing the iteration (callers that mutate *later* words must
 * reason about it explicitly).
 */
template <typename Fn>
inline void
forEachSetBit(const std::uint64_t *row, int nwords, Fn &&fn)
{
    for (int w = 0; w < nwords; w++) {
        std::uint64_t m = row[w];
        while (m) {
            int b = ctz64(m);
            m &= m - 1;
            fn(w * kWordBits + b);
        }
    }
}

} // namespace pdr::arb

#endif // PDR_ARB_BITROW_HH
