#include "cache/cache.hh"

#include "cache/coherence.hh"
#include "common/logging.hh"

#include <algorithm>
#include <cstring>

namespace vic
{

const char *
mesiStateName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

Cache::Cache(std::string cache_name, const CacheGeometry &geom,
             const CacheCosts &cache_costs, WritePolicy write_policy,
             PhysicalMemory &memory, CycleClock &clock, StatSet &stat_set)
    : cacheName(std::move(cache_name)), geo(geom), costs(cache_costs),
      policy(write_policy), mem(memory), clk(clock), statSet(stat_set),
      lineCols(geo.numLines()), lineState(lineCols.column<0>()),
      lineTag(lineCols.column<1>()), lineUse(lineCols.column<2>()),
      data(std::uint64_t(geo.numLines()) * geo.wordsPerLine(), 0),
      copies(memory.sizeBytes() / geo.lineBytes()),
      statReads(stat_set.counter(cacheName + ".reads")),
      statWrites(stat_set.counter(cacheName + ".writes")),
      statHits(stat_set.counter(cacheName + ".hits")),
      statMisses(stat_set.counter(cacheName + ".misses")),
      statWriteBacks(stat_set.counter(cacheName + ".write_backs")),
      statFills(stat_set.counter(cacheName + ".fills")),
      statFlushPresent(stat_set.counter(cacheName + ".flush_present")),
      statFlushAbsent(stat_set.counter(cacheName + ".flush_absent")),
      statPurgePresent(stat_set.counter(cacheName + ".purge_present")),
      statPurgeAbsent(stat_set.counter(cacheName + ".purge_absent")),
      statFlushCycles(stat_set.counter(cacheName + ".flush_cycles")),
      statPurgeCycles(stat_set.counter(cacheName + ".purge_cycles"))
{
    // A physical line has at most one copy per candidate set.
    if (geo.spanColours() > 65535)
        vic_fatal("%s: %u span colours overflow the snoop filter",
                  cacheName.c_str(), geo.spanColours());
}

void
Cache::enableSelfSnoop(Cycles penalty_cycles)
{
    selfSnoop = true;
    selfSnoopPenalty = penalty_cycles;
    // Registered lazily so machines without synonym coherence keep
    // their exact pre-existing counter set (artifact bit-identity).
    if (statSynonymSnoops == nullptr) {
        statSynonymSnoops =
            &statSet.counter(cacheName + ".synonym_snoops");
        statSynonymSnoopCycles =
            &statSet.counter(cacheName + ".synonym_snoop_cycles");
    }
}

std::uint32_t
Cache::victimWay(std::uint32_t set) const
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
        const std::uint32_t id = lineId(set, w);
        if (!lineValid(id))
            return w;
        if (lineUse[id] < oldest) {
            oldest = lineUse[id];
            victim = w;
        }
    }
    return victim;
}

void
Cache::writeBack(std::uint32_t line_id)
{
    vic_assert(lineDirty(line_id), "write-back of non-dirty line");
    PhysAddr base(lineTag[line_id] * geo.lineBytes());
    mem.writeWords(base, lineData(line_id), geo.wordsPerLine());
    lineState[line_id] = MesiState::Exclusive;
    ++statWriteBacks;
    clk.advance(costs.writeBackPenalty);
}

void
Cache::selfSnoopSynonyms(PhysAddr pa_line)
{
    forEachCopy(pa_line, [&](std::uint32_t id) {
        if (lineDirty(id))
            writeBack(id);
        dropLine(id);
        ++*statSynonymSnoops;
        *statSynonymSnoopCycles += selfSnoopPenalty;
        clk.advance(selfSnoopPenalty);
    });
}

void
Cache::fill(std::uint32_t line_id, PhysAddr pa, bool for_write)
{
    // The caller has written a dirty victim back; un-count it.
    if (lineValid(line_id))
        dropLine(line_id);
    PhysAddr base(geo.lineBase(pa.value));
    // Coherence actions first, so peer (and synonym) write-backs land
    // in memory before this fill reads it.
    bool shared = false;
    if (bus != nullptr) {
        if (for_write)
            bus->busReadExclusive(this, base);
        else
            shared = bus->busRead(this, base);
    }
    if (selfSnoop)
        selfSnoopSynonyms(base);
    mem.readWords(base, lineData(line_id), geo.wordsPerLine());
    lineState[line_id] =
        shared ? MesiState::Shared : MesiState::Exclusive;
    lineTag[line_id] = pa.value / geo.lineBytes();
    ++copies[lineTag[line_id]];
    ++statFills;
    clk.advance(costs.missPenalty);
}

std::uint32_t
Cache::read(VirtAddr va, PhysAddr pa)
{
    vic_assert(va.value % 4 == 0 && pa.value % 4 == 0,
               "unaligned cache access");
    ++statReads;
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    int way = findWay(set, pa);
    clk.advance(costs.hit);
    if (way < 0) {
        ++statMisses;
        const std::uint32_t victim = victimWay(set);
        const std::uint32_t id = lineId(set, victim);
        if (lineDirty(id))
            writeBack(id);
        fill(id, pa, false);
        way = static_cast<int>(victim);
    } else {
        ++statHits;
    }
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    lineUse[id] = ++useTick;
    const std::uint32_t word_in_line =
        static_cast<std::uint32_t>((pa.value / 4) % geo.wordsPerLine());
    return lineData(id)[word_in_line];
}

void
Cache::write(VirtAddr va, PhysAddr pa, std::uint32_t value)
{
    vic_assert(va.value % 4 == 0 && pa.value % 4 == 0,
               "unaligned cache access");
    ++statWrites;
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    int way = findWay(set, pa);
    clk.advance(costs.hit);

    if (policy == WritePolicy::WriteThrough) {
        // No write-allocate: a miss writes straight to memory.
        mem.writeWord(pa, value);
        if (way < 0) {
            ++statMisses;
            return;
        }
        ++statHits;
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = ++useTick;
        const std::uint32_t word_in_line =
            static_cast<std::uint32_t>((pa.value / 4) %
                                       geo.wordsPerLine());
        lineData(id)[word_in_line] = value;
        return;
    }

    // Write-back, write-allocate.
    if (way < 0) {
        ++statMisses;
        const std::uint32_t victim = victimWay(set);
        const std::uint32_t id = lineId(set, victim);
        if (lineDirty(id))
            writeBack(id);
        fill(id, pa, true);
        way = static_cast<int>(victim);
    } else {
        ++statHits;
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        // A Shared hit must win exclusive ownership before writing.
        if (bus != nullptr && lineState[id] == MesiState::Shared)
            bus->busUpgrade(this, PhysAddr(geo.lineBase(pa.value)));
    }
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    lineUse[id] = ++useTick;
    lineState[id] = MesiState::Modified;
    const std::uint32_t word_in_line =
        static_cast<std::uint32_t>((pa.value / 4) % geo.wordsPerLine());
    lineData(id)[word_in_line] = value;
}

void
Cache::chargeLineOps(bool write_back, std::uint32_t present,
                     std::uint32_t absent)
{
    const Cycles cost = Cycles(present) * costs.opLinePresent +
        Cycles(absent) * (costs.uniformOpCost ? costs.opLinePresent
                                              : costs.opLineAbsent);
    clk.advance(cost);
    if (write_back) {
        statFlushCycles += cost;
        statFlushPresent += present;
        statFlushAbsent += absent;
    } else {
        statPurgeCycles += cost;
        statPurgePresent += present;
        statPurgeAbsent += absent;
    }
}

bool
Cache::removeLine(VirtAddr va, PhysAddr pa, bool write_back)
{
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    const int way = findWay(set, pa);
    const bool present = way >= 0;
    chargeLineOps(write_back, present, !present);
    if (!present)
        return false;

    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    if (write_back && lineDirty(id))
        writeBack(id);
    dropLine(id);
    return true;
}

std::uint32_t
Cache::removePage(VirtAddr page_va, PhysAddr page_pa, bool write_back)
{
    // Line k of the page sits in set (first + k) mod numSets and is
    // tagged tag0 + k.
    const std::uint32_t lines = geo.linesPerPage();
    const std::uint32_t ways = geo.associativity();
    const std::uint32_t first = geo.setIndex(indexBits(page_va, page_pa));
    const std::uint64_t tag0 = page_pa.value / geo.lineBytes();
    std::uint32_t present = 0;
    auto remove = [&](std::uint32_t id) {
        if (write_back && lineDirty(id))
            writeBack(id);
        dropLine(id);
        ++present;
    };

    if (first + lines > geo.numSets()) {
        // The sets wrap (a cache smaller than a page): probe each line.
        for (std::uint32_t k = 0; k < lines; ++k) {
            const std::uint32_t set = (first + k) & (geo.numSets() - 1);
            const int way = findWay(set, page_pa.plus(k * geo.lineBytes()));
            if (way >= 0)
                remove(lineId(set, static_cast<std::uint32_t>(way)));
        }
    } else {
        // The page's lines are one contiguous run of the state column:
        // skip each 8-line word with no valid line; scan a short tail.
        static_assert(MesiState::Invalid == MesiState{0});
        const std::uint32_t begin = first * ways;
        const std::uint32_t end = begin + lines * ways;
        for (std::uint32_t at = begin; at < end; at += 8) {
            std::uint64_t word = 1;
            if (end - at >= 8)
                std::memcpy(&word, lineState + at, 8);
            if (word == 0)
                continue;
            const std::uint32_t stop = std::min(at + 8, end);
            for (std::uint32_t id = at; id < stop; ++id) {
                if (lineValid(id) &&
                    lineTag[id] == tag0 + (id / ways - first))
                    remove(id);
            }
        }
    }
    chargeLineOps(write_back, present, lines - present);
    return present;
}

void
Cache::purgeAll()
{
    std::fill(lineState, lineState + geo.numLines(),
              MesiState::Invalid);
    copies.clear();
}

void
Cache::snoopInvalidateLine(PhysAddr pa_line)
{
    forEachCopy(pa_line, [&](std::uint32_t id) { dropLine(id); });
}

bool
Cache::snoopWriteBackLine(PhysAddr pa_line)
{
    bool wrote = false;
    forEachCopy(pa_line, [&](std::uint32_t id) {
        if (lineDirty(id)) {
            writeBack(id);
            wrote = true;
        }
    });
    return wrote;
}

Cache::SnoopReply
Cache::snoopBus(PhysAddr pa_line, bool invalidate)
{
    SnoopReply reply;
    forEachCopy(pa_line, [&](std::uint32_t id) {
        reply.hadCopy = true;
        if (lineDirty(id)) {
            writeBack(id);
            reply.intervened = true;
        }
        if (invalidate)
            dropLine(id);
        else
            lineState[id] = MesiState::Shared;
    });
    return reply;
}

Cache::Probe
Cache::probe(VirtAddr va, PhysAddr pa) const
{
    Probe p;
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    const int way = findWay(set, pa);
    if (way < 0)
        return p;
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    p.present = true;
    p.dirty = lineDirty(id);
    p.state = lineState[id];
    const std::uint32_t word_in_line =
        static_cast<std::uint32_t>((pa.value / 4) % geo.wordsPerLine());
    p.word = lineData(id)[word_in_line];
    return p;
}

bool
Cache::copyCountsConsistent() const
{
    std::vector<std::uint16_t> recount(copies.size(), 0);
    for (std::uint32_t id = 0; id < geo.numLines(); ++id) {
        if (lineValid(id))
            ++recount[lineTag[id]];
    }
    return std::equal(recount.begin(), recount.end(), copies.begin());
}

} // namespace vic
