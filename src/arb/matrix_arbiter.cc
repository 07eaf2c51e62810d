#include "arb/matrix_arbiter.hh"

#include <numeric>

namespace pdr::arb {

MatrixArbiter::MatrixArbiter(int n)
{
    pdr_assert(n >= 1);
    // Reset state: i beats j for all i < j.
    stamp_.resize(std::size_t(n));
    std::iota(stamp_.begin(), stamp_.end(), std::uint64_t(0));
    clock_ = std::uint64_t(n - 1);
}

bool
MatrixArbiter::beats(int i, int j) const
{
    pdr_assert(i != j);
    return stamp_[std::size_t(i)] < stamp_[std::size_t(j)];
}

int
MatrixArbiter::arbitrateMask(const std::uint64_t *requests) const
{
    int best = NoGrant;
    const int words = wordsFor(size());
    for (int w = 0; w < words; w++)
        best = argmin(requests[w], w * kWordBits, best);
    return best;
}

int
MatrixArbiter::arbitrate(const ReqRow &requests) const
{
    // Compatibility entry (tests and diagnostics): pack the byte row
    // into words and run the mask path.
    pdr_assert(int(requests.size()) == size());
    std::vector<std::uint64_t> words(std::size_t(wordsFor(size())), 0);
    // pdr-lint: allow(PDR-PERF-DENSESCAN) compat entry; the router hot
    // path stages packed words and calls arbitrateMask directly
    for (int i = 0; i < size(); i++) {
        if (requests[std::size_t(i)])
            setBit(words.data(), i);
    }
    return arbitrateMask(words.data());
}

void
MatrixArbiter::dumpState(std::vector<std::uint8_t> &out) const
{
    // pdr-lint: allow(PDR-PERF-DENSESCAN) diagnostic serialization for
    // the equivalence tests, not on the allocation hot path
    for (int i = 0; i < size(); i++) {
        // pdr-lint: allow(PDR-PERF-DENSESCAN) diagnostic serialization
        for (int j = i + 1; j < size(); j++)
            out.push_back(beats(i, j) ? 1 : 0);
    }
}

} // namespace pdr::arb
