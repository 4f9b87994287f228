#include "core/pmap.hh"

#include "common/logging.hh"
#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"

namespace vic
{

Pmap::Pmap(Machine &m, const PolicyConfig &policy_config)
    : mach(m), cfg(policy_config),
      counters(m.stats().registerTable<kPmapCounters>())
{
}

void
Pmap::countPageOp(PmapStat kind, PageOpReason reason)
{
    ++counters[kind];
    Counter *&row = reasonCounters[std::size_t(kind)][std::size_t(reason)];
    if (row == nullptr)
        row = &mach.stats().registerRow<kPageOpReasons>(
            kPageOpReasonPrefixes[std::size_t(kind)], reason);
    ++*row;
}

void
Pmap::flushDataPage(FrameId frame, CachePageId colour,
                    PageOpReason reason)
{
    countPageOp(PmapStat::DPageFlushes, reason);
    VIC_EVLOG(mach.events(),
              format("flush  D frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    // On a multiprocessor the dirty line may live in any CPU's cache
    // (hardware coherence migrates it): the operation is broadcast, as
    // a cross-processor shootdown would be.
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.dcache(cpu).flushPage(dColourVa(colour),
                                   mach.frameAddr(frame));
}

void
Pmap::purgeDataPage(FrameId frame, CachePageId colour,
                    PageOpReason reason)
{
    countPageOp(PmapStat::DPagePurges, reason);
    VIC_EVLOG(mach.events(),
              format("purge  D frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.dcache(cpu).purgePage(dColourVa(colour),
                                   mach.frameAddr(frame));
}

void
Pmap::purgeInstPage(FrameId frame, CachePageId colour,
                    PageOpReason reason)
{
    countPageOp(PmapStat::IPagePurges, reason);
    VIC_EVLOG(mach.events(),
              format("purge  I frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.icache(cpu).purgePage(iColourVa(colour),
                                   mach.frameAddr(frame));
}

void
Pmap::setTranslation(SpaceVa va, FrameId frame, Protection prot)
{
    mach.pageTable().enter(va, frame, prot);
    mach.tlbShootdownPage(va);
}

bool
Pmap::dropTranslation(SpaceVa va)
{
    bool modified = mach.pageTable().remove(va);
    mach.tlbShootdownPage(va);
    return modified;
}

void
Pmap::setHardwareProt(SpaceVa va, Protection prot)
{
    mach.pageTable().setProtection(va, prot);
    mach.tlbShootdownPage(va);
}

std::unique_ptr<Pmap>
Pmap::create(Machine &m, const PolicyConfig &policy_config)
{
    switch (policy_config.pmapKind) {
      case PmapKind::Classic:
        return std::make_unique<ClassicPmap>(m, policy_config);
      case PmapKind::Lazy:
        return std::make_unique<LazyPmap>(m, policy_config);
    }
    vic_panic("invalid pmap kind");
}

} // namespace vic
