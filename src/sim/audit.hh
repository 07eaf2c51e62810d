/**
 * @file
 * Runtime invariant auditor: per-cycle cross-checks of the exactness
 * contract (docs/ARCHITECTURE.md, "Determinism invariants").
 *
 * The golden-CSV gates and the lockstep tests prove *that* a change
 * broke bit-exactness; the auditor exists to say *where*.  When
 * enabled (PDR_AUDIT=1 or sim.audit=true) the Network runs four
 * classes of checks and fails at the offending cycle with the
 * offending component named, instead of surfacing as a byte-diff ten
 * thousand cycles later (the first three every cycle, the last at
 * teardown):
 *
 *   - wake-table exactness [AUD-WAKE]: no component may sleep past a
 *     matured item on a channel it consumes.  This is the runtime dual
 *     of invariant 1 (schedule equivalence): a component whose wake
 *     entry lies in the future while an input is deliverable would
 *     have acted under forceTickAll but not under the skipping
 *     schedule -- a broken nextWake() or a missed Channel::watch.
 *   - credit conservation [AUD-CREDIT]: for every (link, VC), credits
 *     held upstream + credits on the wire + flits buffered downstream
 *     + flits on the wire must equal the configured buffer depth,
 *     every cycle.
 *   - allocation-bitset consistency [AUD-BID]: every router's
 *     incremental RouteWait/Active bid bitsets and free output-VC
 *     words (the sparse sets the allocation phases and nextWake
 *     iterate; a wormhole port hold is bit 0) must equal a dense
 *     recompute from the per-VC pipeline state, with one Active
 *     holder per held output VC, every cycle.  A stale bit is the
 *     allocation-side dual of an AUD-WAKE violation: a VC that would
 *     bid under a dense scan but is skipped by the sparse one.  The
 *     same check recomputes the route record of every RouteWait or
 *     Active VC holding a flit from its front flit -- the VC mask and
 *     next class for the stored route, and for a non-adaptive routing
 *     the route itself -- and names the port, the VC and both values
 *     of the first mismatch: a routing function that breaks the
 *     purity contract of router/routing.hh.
 *   - flit conservation [AUD-LEAK]: the flits the sources sent minus
 *     the flits the sinks ejected must equal the flits in channels
 *     plus router input FIFOs.  A shortfall is a flit lost on the way
 *     (a queue dropped it), a surplus one duplicated.
 *
 * Failures throw sim::AuditError (tests assert on it; the CLI lets it
 * terminate with the diagnostic).  The auditor is observational: it
 * never mutates simulation state, so an audited run is bit-identical
 * to an unaudited one.  Checks run at every worker count: partitioned
 * stepping runs them on worker 0 between cycles, with the gang parked
 * and every staging buffer drained (see par::ParallelStepper).
 */

#ifndef PDR_SIM_AUDIT_HH
#define PDR_SIM_AUDIT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace pdr::sim {

/** A broken determinism invariant, caught at the offending cycle. */
class AuditError : public std::logic_error
{
  public:
    explicit AuditError(const std::string &what)
        : std::logic_error(what)
    {
    }
};

/**
 * Failure reporting + counters for the invariant checks.  The checks
 * themselves live with the state they inspect (net::Network walks its
 * channels and routers); the auditor provides the uniform "fail at
 * cycle C in component X" diagnostic and keeps the check census that
 * tests and the CLI report.
 */
class Auditor
{
  public:
    /** PDR_AUDIT is set to 1/true/yes/on in the environment. */
    static bool envEnabled();

    /**
     * Report a violated invariant and throw AuditError.  `check` is
     * the check id (e.g. "AUD-WAKE"), `who` names the component
     * ("router 12", "sink 3"), `detail` says what held and what was
     * expected.
     */
    [[noreturn]] void fail(Cycle at, const std::string &who,
                           const char *check,
                           const std::string &detail);

    /** Assert one invariant; count it and fail() when violated. */
    void
    require(bool ok, Cycle at, const std::string &who,
            const char *check, const std::string &detail)
    {
        checksRun_++;
        if (!ok)
            fail(at, who, check, detail);
    }

    /** Individual invariant evaluations since construction. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Batch-count `n` checks that passed (callers on per-cycle paths
     *  test cheaply and build the failure diagnostic only on the
     *  fail() path; this keeps their census without per-check string
     *  construction). */
    void addChecks(std::uint64_t n) { checksRun_ += n; }

  private:
    std::uint64_t checksRun_ = 0;
};

} // namespace pdr::sim

#endif // PDR_SIM_AUDIT_HH
