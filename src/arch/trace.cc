#include "arch/trace.hh"

#include "arch/machine.hh"

namespace upr
{

void
Trace::append(TraceEvent e)
{
    events_.push_back(e);
}

ReplayResult
replayTrace(const Trace &trace, const MachineParams &params)
{
    // The recorded stream already holds every translation latency as
    // a Tick, so the POLB/VALB never see a lookup and the pools stay
    // empty.
    AddressSpace space;
    PoolManager pools(space);
    Machine m(params, pools);

    for (const TraceEvent &e : trace.events())
        m.apply(e);

    ReplayResult res;
    res.cycles = m.now();
    res.memAccesses = m.memAccesses();
    res.branches = m.bpred().branches();
    res.branchMisses = m.bpred().mispredicts();
    res.l1Misses = m.caches().l1().misses();
    res.storePs = m.storePUnit().issuedCount();
    return res;
}

} // namespace upr
