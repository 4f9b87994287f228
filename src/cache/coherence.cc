#include "cache/coherence.hh"

namespace vic
{

CoherenceBus::CoherenceBus(Cycles snoop_penalty, CycleClock &clock,
                           StatSet &stat_set)
    : snoopPenalty(snoop_penalty), clk(clock),
      counters(stat_set.registerTable<kBusCounters>())
{
}

void
CoherenceBus::attach(Cache *c)
{
    ports.push_back(c);
    c->attachBus(this);
}

Cache::SnoopReply
CoherenceBus::snoopPeers(const Cache *requester, PhysAddr pa_line,
                         bool invalidate)
{
    Cache::SnoopReply summary;
    for (Cache *port : ports) {
        if (port == requester)
            continue;
        const Cache::SnoopReply r = invalidate
            ? port->snoopBusInvalidate(pa_line)
            : port->snoopBusRead(pa_line);
        summary.hadCopy |= r.hadCopy;
        summary.intervened |= r.intervened;
        if (invalidate && r.hadCopy)
            ++counters[BusStat::Invalidations];
    }
    if (summary.intervened) {
        ++counters[BusStat::Interventions];
        counters[BusStat::SnoopCycles] += snoopPenalty;
        clk.advance(snoopPenalty);
    }
    return summary;
}

bool
CoherenceBus::busRead(const Cache *requester, PhysAddr pa_line)
{
    ++counters[BusStat::Reads];
    return snoopPeers(requester, pa_line, false).hadCopy;
}

void
CoherenceBus::busReadExclusive(const Cache *requester, PhysAddr pa_line)
{
    ++counters[BusStat::ReadExclusives];
    snoopPeers(requester, pa_line, true);
}

void
CoherenceBus::busUpgrade(const Cache *requester, PhysAddr pa_line)
{
    ++counters[BusStat::Upgrades];
    snoopPeers(requester, pa_line, true);
}

} // namespace vic
