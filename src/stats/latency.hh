/**
 * @file
 * Latency statistics: mean / min / max plus a coarse histogram and
 * percentile queries over the measured sample space.
 *
 * Merging is first-class: accumulators combine associatively with
 * merge() / operator+= / merged(), so per-sink partials (and, later,
 * per-worker shards of one simulation) record independently and
 * combine only at readout.  The histogram is a fixed-size in-object
 * array: constructing a shard allocates nothing and merging is one
 * linear pass, with no heap traffic on the readout path.
 */

#ifndef PDR_STATS_LATENCY_HH
#define PDR_STATS_LATENCY_HH

#include <array>
#include <cstdint>
#include <vector>

namespace pdr::stats {

/** Accumulates packet latencies; "measured" samples form the sample
 *  space of the paper's protocol, others are tracked separately. */
class LatencyStats
{
  public:
    LatencyStats() = default;

    /** Record one packet latency. */
    void record(double latency, bool measured);

    /** Merge another accumulator (per-sink / per-shard partials). */
    void merge(const LatencyStats &other);

    /** Merge, operator spelling: `total += shard`. */
    LatencyStats &
    operator+=(const LatencyStats &other)
    {
        merge(other);
        return *this;
    }

    /**
     * Combine shards in index order (the order fixes the
     * floating-point summation sequence, so the result is
     * deterministic for a deterministic shard list).
     */
    static LatencyStats merged(const std::vector<LatencyStats> &shards);

    /**
     * The inverse edge of the merge algebra: the samples recorded
     * after `prev`, where `prev` is an earlier snapshot (a copy) of
     * this accumulator's own history.  Count, histogram and sums
     * subtract exactly (integer fields telescope: summing window
     * deltas reproduces the end-of-run totals bit for bit); min/max
     * are recomputed from the histogram delta, so they are exact to
     * the 1-cycle bin floor, with any overflow-bin delta reported as
     * the bin limit.  Telemetry's windowed latency records are
     * deltaSince(previous window boundary).
     */
    LatencyStats deltaSince(const LatencyStats &prev) const;

    std::uint64_t count() const { return count_; }
    /** Sum of measured latencies (exact while below 2^53 cycles). */
    double sum() const { return sum_; }
    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Sample standard deviation. */
    double stddev() const;
    /** Approximate percentile in [0, 100] from the histogram. */
    double percentile(double pct) const;

    /** Packets seen outside the sample space. */
    std::uint64_t unmeasuredCount() const { return unmeasured_; }

  private:
    // Histogram with 1-cycle bins up to `binCount_`, overflow beyond.
    static constexpr int binCount_ = 4096;
    std::array<std::uint32_t, binCount_> bins_{};
    std::uint64_t overflow_ = 0;

    std::uint64_t count_ = 0;
    std::uint64_t unmeasured_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace pdr::stats

#endif // PDR_STATS_LATENCY_HH
