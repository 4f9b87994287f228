/**
 * @file
 * Snooping MESI coherence bus.
 *
 * A CoherenceBus connects the per-CPU caches of a multiprocessor (and,
 * optionally, their instruction caches) into a write-invalidate MESI
 * protocol. Caches attached to the bus route every fill through it:
 *
 *  - busRead (a read miss): every peer with a copy downgrades to
 *    Shared, writing a Modified copy back first so memory is current;
 *    the requester fills Shared if any peer held the line, else
 *    Exclusive.
 *  - busReadExclusive (a write miss): every peer invalidates its copy,
 *    writing a Modified copy back first; the requester fills Exclusive
 *    and then dirties the line to Modified.
 *  - busUpgrade (a write hit on a Shared line): peers invalidate; the
 *    requester takes the line to Modified without a refill.
 *
 * Instruction caches attach as read-only ports: they only ever issue
 * busRead (ifetch fills), but they are snooped like any other port, so
 * a store to a line an icache holds must broadcast an invalidation
 * (Shared-copy upgrade) that purges the stale instructions — the
 * hardware-coherent replacement for the software data-to-instruction
 * flush/purge pairs.
 *
 * The protocol invariant is the usual one: a Modified or Exclusive
 * copy implies every other port holds the line Invalid. Cycle cost:
 * a transaction charges the machine's snoopPenalty once when a peer
 * intervenes with data (Modified write-back); peers' write-backs
 * additionally charge their own writeBackPenalty, exactly as a
 * software-initiated flush would.
 */

#ifndef VIC_CACHE_COHERENCE_HH
#define VIC_CACHE_COHERENCE_HH

#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vic
{

/** CoherenceBus's counters: registered only where a bus exists, so
 *  machines without one keep their exact counter set. */
enum class BusStat
{
    Reads,          ///< busRead transactions
    ReadExclusives, ///< busReadExclusive transactions
    Upgrades,       ///< busUpgrade transactions
    Interventions,  ///< transactions a peer supplied data
    Invalidations,  ///< peer copies invalidated
    SnoopCycles,    ///< snoop-penalty cycles charged
    Count
};
inline constexpr CounterTable<BusStat> kBusCounters{
    "bus.reads",         "bus.read_exclusives", "bus.upgrades",
    "bus.interventions", "bus.invalidations",   "bus.snoop_cycles"};

class CoherenceBus
{
  public:
    /**
     * @param snoop_penalty cycles charged once per transaction in
     *                      which some peer intervened with data
     * @param clock         machine cycle clock
     * @param stat_set      statistics registry ("bus." counters are
     *                      registered here; the bus only exists on
     *                      coherent machines, so uncoherent machines'
     *                      artifacts keep their exact counter set)
     */
    CoherenceBus(Cycles snoop_penalty, CycleClock &clock,
                 StatSet &stat_set);

    /** Attach a cache as a snooped MESI port and point the cache back
     *  at this bus. Instruction caches attach the same way; they are
     *  read-only by construction (they never issue stores). */
    void attach(Cache *c);

    /** Number of attached ports. */
    std::size_t numPorts() const { return ports.size(); }

    /**
     * A read miss in @p requester. Peers downgrade to Shared (Modified
     * copies write back first). @return true iff any peer held a copy,
     * i.e. the requester must fill Shared rather than Exclusive.
     */
    bool busRead(const Cache *requester, PhysAddr pa_line);

    /** A write miss in @p requester: peers write back Modified copies
     *  and invalidate. The requester fills Exclusive. */
    void busReadExclusive(const Cache *requester, PhysAddr pa_line);

    /** A write hit on a Shared line in @p requester: peers invalidate
     *  (Shared copies are clean, so no data moves in a conforming
     *  protocol; a Modified peer copy would still be written back). */
    void busUpgrade(const Cache *requester, PhysAddr pa_line);

  private:
    /** Snoop every port except @p requester; invalidating or
     *  downgrading per @p invalidate. @return reply summary. */
    Cache::SnoopReply snoopPeers(const Cache *requester,
                                 PhysAddr pa_line, bool invalidate);

    std::vector<Cache *> ports;
    Cycles snoopPenalty;
    CycleClock &clk;

    Counters<kBusCounters> counters;
};

} // namespace vic

#endif // VIC_CACHE_COHERENCE_HH
