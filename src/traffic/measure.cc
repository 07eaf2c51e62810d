#include "traffic/measure.hh"

namespace pdr::traffic {

MeasureController::MeasureController(sim::Cycle warmup,
                                     std::uint64_t sample_packets)
    : warmup_(warmup), sample_(sample_packets)
{
}

bool
MeasureController::tryTag(sim::Cycle now)
{
    // Under partitioned stepping this races only in TagMode::All
    // cycles, where the branch outcome is fixed for every caller (the
    // quota covers all possible tags this cycle), so the relaxed
    // read-then-increment is deterministic.
    if (now < warmup_ || tagged() >= sample_)
        return false;
    tagged_.fetch_add(1, std::memory_order_relaxed);
    ctimeSum_.fetch_add(now, std::memory_order_relaxed);
    return true;
}

} // namespace pdr::traffic
