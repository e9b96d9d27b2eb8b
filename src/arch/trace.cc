#include "arch/trace.hh"

#include "arch/machine.hh"

namespace upr
{

ReplayResult
replayTrace(const Trace &trace, const MachineParams &params)
{
    // The recorded stream already holds every translation latency as
    // a Tick, so the POLB/VALB never see a lookup and the pools stay
    // empty.
    AddressSpace space;
    PoolManager pools(space);
    Machine m(params, pools);

    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEvent::Kind::MemAccess:
            m.memAccess(e.a, (e.b >> 8) & 1,
                        static_cast<Machine::AccessKind>(e.b & 0xff));
            break;
          case TraceEvent::Kind::Branch:
            m.branch(e.a, e.b != 0);
            break;
          case TraceEvent::Kind::Tick:
            m.tick(e.a);
            break;
          case TraceEvent::Kind::StorePIssue:
            // The trace carries no store address: the forwarding wait
            // a pending line causes is already recorded as a Tick.
            m.issueStoreP(kNullAddr, e.a, e.b);
            break;
        }
    }

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
