#include "cache/cache.hh"

#include "cache/coherence.hh"
#include "common/logging.hh"

#include <algorithm>
#include <bit>

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
      resident((copies.size() + 63) / 64),
      counters(stat_set.registerTable<kCacheCounters>(cacheName + "."))
{
    // lineCols value-initialises the state column: every line starts
    // Invalid.
    static_assert(MesiState::Invalid == MesiState{0});
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
    if (!synonymCounters.registered())
        synonymCounters =
            statSet.registerTable<kCacheSynonymCounters>(cacheName + ".");
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
    ++counters[CacheStat::WriteBacks];
    clk.advance(costs.writeBackPenalty);
}

void
Cache::selfSnoopSynonyms(PhysAddr pa_line)
{
    forEachCopy(pa_line, [&](std::uint32_t id) {
        if (lineDirty(id))
            writeBack(id);
        dropLine(id);
        ++synonymCounters[CacheSynonymStat::Snoops];
        synonymCounters[CacheSynonymStat::SnoopCycles] += selfSnoopPenalty;
        clk.advance(selfSnoopPenalty);
    });
}

void
Cache::fill(std::uint32_t line_id, PhysAddr pa, bool for_write)
{
    // The caller has written a dirty victim back; un-count it.
    if (lineValid(line_id))
        dropLine(line_id);
    const PhysAddr base = geo.lineBase(pa);
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
    const std::uint64_t tag = pa.lineNumber(geo.lineBytes());
    lineTag[line_id] = tag;
    if (copies[tag]++ == 0)
        resident[tag / 64] |= std::uint64_t(1) << (tag % 64);
    ++counters[CacheStat::Fills];
    clk.advance(costs.missPenalty);
}

std::uint32_t
Cache::read(VirtAddr va, PhysAddr pa)
{
    vic_assert(va.isAligned(4) && pa.isAligned(4),
               "unaligned cache access");
    ++counters[CacheStat::Reads];
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    int way = findWay(set, pa);
    clk.advance(costs.hit);
    if (way < 0) {
        ++counters[CacheStat::Misses];
        const std::uint32_t victim = victimWay(set);
        const std::uint32_t id = lineId(set, victim);
        if (lineDirty(id))
            writeBack(id);
        fill(id, pa, false);
        way = static_cast<int>(victim);
    } else {
        ++counters[CacheStat::Hits];
    }
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    lineUse[id] = ++useTick;
    return lineData(id)[wordInLine(pa)];
}

void
Cache::write(VirtAddr va, PhysAddr pa, std::uint32_t value)
{
    vic_assert(va.isAligned(4) && pa.isAligned(4),
               "unaligned cache access");
    ++counters[CacheStat::Writes];
    const std::uint32_t set = geo.setIndex(indexBits(va, pa));
    int way = findWay(set, pa);
    clk.advance(costs.hit);

    if (policy == WritePolicy::WriteThrough) {
        // No write-allocate: a miss writes straight to memory.
        mem.writeWord(pa, value);
        if (way < 0) {
            ++counters[CacheStat::Misses];
            return;
        }
        ++counters[CacheStat::Hits];
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = ++useTick;
        lineData(id)[wordInLine(pa)] = value;
        return;
    }

    // Write-back, write-allocate.
    if (way < 0) {
        ++counters[CacheStat::Misses];
        const std::uint32_t victim = victimWay(set);
        const std::uint32_t id = lineId(set, victim);
        if (lineDirty(id))
            writeBack(id);
        fill(id, pa, true);
        way = static_cast<int>(victim);
    } else {
        ++counters[CacheStat::Hits];
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        // A Shared hit must win exclusive ownership before writing.
        if (bus != nullptr && lineState[id] == MesiState::Shared)
            bus->busUpgrade(this, geo.lineBase(pa));
    }
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    lineUse[id] = ++useTick;
    lineState[id] = MesiState::Modified;
    lineData(id)[wordInLine(pa)] = value;
}

const std::uint32_t *
Cache::copyRun(VirtAddr src_va, PhysAddr src_pa, VirtAddr dst_va,
               PhysAddr dst_pa, std::uint32_t n)
{
    vic_assert(n > 0, "empty copy run");
    const std::uint64_t src_tag = src_pa.lineNumber(geo.lineBytes());
    const std::uint64_t dst_tag = dst_pa.lineNumber(geo.lineBytes());
    if (policy != WritePolicy::WriteBack || src_tag == dst_tag)
        return nullptr;
    const std::uint32_t src_set = geo.setIndex(indexBits(src_va, src_pa));
    const std::uint32_t dst_set = geo.setIndex(indexBits(dst_va, dst_pa));
    const int src_way = findWay(src_set, src_pa);
    const int dst_way = findWay(dst_set, dst_pa);

    if (src_way >= 0 && dst_way >= 0) {
        // Both lines present: 2n hits, the source touched last just
        // before the destination's final store.
        const std::uint32_t src_id =
            lineId(src_set, static_cast<std::uint32_t>(src_way));
        const std::uint32_t dst_id =
            lineId(dst_set, static_cast<std::uint32_t>(dst_way));
        if (bus != nullptr && lineState[dst_id] == MesiState::Shared)
            return nullptr;
        counters[CacheStat::Reads] += n;
        counters[CacheStat::Writes] += n;
        counters[CacheStat::Hits] += 2 * std::uint64_t(n);
        clk.advance(2 * Cycles(n) * costs.hit);
        useTick += 2 * std::uint64_t(n);
        lineUse[src_id] = useTick - 1;
        lineUse[dst_id] = useTick;
        lineState[dst_id] = MesiState::Modified;
        std::uint32_t *out = lineData(dst_id) + wordInLine(dst_pa);
        std::copy_n(lineData(src_id) + wordInLine(src_pa), n, out);
        return out;
    }

    // Conflict closed form: source and destination share the one way
    // of a set that holds the destination Modified. Every pair then
    // misses twice: the load writes the destination back and fills
    // the source; the store fills the destination (just written back)
    // and writes one word. Memory sees the destination as it stood
    // before the last store; copies[] ends where it began. (With the
    // destination in the set's one way, the source is absent.)
    const std::uint32_t id = lineId(dst_set, 0);
    if (bus != nullptr || selfSnoop || geo.associativity() != 1 ||
        src_set != dst_set || dst_way != 0 ||
        lineState[id] != MesiState::Modified)
        return nullptr;
    std::uint32_t *line = lineData(id);
    std::uint32_t *out = line + wordInLine(dst_pa);
    mem.readWords(src_pa, out, n - 1);
    mem.writeWords(PhysAddr(dst_tag * geo.lineBytes()), line,
                   geo.wordsPerLine());
    out[n - 1] = mem.readWord(src_pa.plus(std::uint64_t(n - 1) * 4));
    counters[CacheStat::Reads] += n;
    counters[CacheStat::Writes] += n;
    counters[CacheStat::Misses] += 2 * std::uint64_t(n);
    counters[CacheStat::Fills] += 2 * std::uint64_t(n);
    counters[CacheStat::WriteBacks] += n;
    clk.advance(Cycles(n) * (2 * costs.hit + costs.writeBackPenalty +
                             2 * costs.missPenalty));
    useTick += 2 * std::uint64_t(n);
    lineUse[id] = useTick;
    return out;
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
        counters[CacheStat::FlushCycles] += cost;
        counters[CacheStat::FlushPresent] += present;
        counters[CacheStat::FlushAbsent] += absent;
    } else {
        counters[CacheStat::PurgeCycles] += cost;
        counters[CacheStat::PurgePresent] += present;
        counters[CacheStat::PurgeAbsent] += absent;
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
    // Line k of the page is physical line tag0 + k; a copy of it at
    // this alignment sits in set (first + k) mod numSets. Only lines
    // with a copy somewhere have their resident bit set, so walk
    // those, in ascending k.
    const std::uint32_t lines = geo.linesPerPage();
    const std::uint32_t ways = geo.associativity();
    const std::uint32_t first = geo.setIndex(indexBits(page_va, page_pa));
    const std::uint64_t tag0 = page_pa.lineNumber(geo.lineBytes());
    const std::uint64_t tag_end = std::min<std::uint64_t>(
        tag0 + lines, copies.size());
    std::uint32_t present = 0;
    for (std::uint64_t at = tag0; at < tag_end; at = (at | 63) + 1) {
        // The bits of word at/64 from `at` to tag_end. Removing line k
        // clears at most bit k, already taken from the copy.
        std::uint64_t word = resident[at / 64] >> (at % 64) << (at % 64);
        if (tag_end - at / 64 * 64 < 64)
            word &= (std::uint64_t(1) << (tag_end % 64)) - 1;
        for (; word != 0; word &= word - 1) {
            const std::uint64_t tag =
                at / 64 * 64 + std::uint64_t(std::countr_zero(word));
            const std::uint32_t set = static_cast<std::uint32_t>(
                (first + (tag - tag0)) & (geo.numSets() - 1));
            for (std::uint32_t id = set * ways; id < (set + 1) * ways;
                 ++id) {
                if (lineValid(id) && lineTag[id] == tag) {
                    if (write_back && lineDirty(id))
                        writeBack(id);
                    dropLine(id);
                    ++present;
                }
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
    resident.clear();
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
    p.word = lineData(id)[wordInLine(pa)];
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
    for (std::uint64_t tag = 0; tag < recount.size(); ++tag) {
        const bool bit = (resident[tag / 64] >> (tag % 64)) & 1;
        if (bit != (recount[tag] > 0))
            return false;
    }
    for (std::uint64_t tag = recount.size(); tag < resident.size() * 64;
         ++tag) {
        if ((resident[tag / 64] >> (tag % 64)) & 1)
            return false;
    }
    return std::equal(recount.begin(), recount.end(), copies.begin());
}

} // namespace vic
