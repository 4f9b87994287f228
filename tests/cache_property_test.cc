/**
 * @file
 * Property tests for the cache simulator, parameterised over geometry:
 * every combination of capacity, line size, associativity and index
 * policy must satisfy the same functional contracts — read-your-write
 * through one address, flush durability, purge discard, snoop
 * completeness, and equivalence with a flat reference memory when
 * every access goes through a single virtual address. A differential
 * test also runs seeded random op sequences against a reference model
 * of the cache with per-line page ops and full-scan snoops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

struct Geometry
{
    std::uint64_t cacheBytes;
    std::uint32_t lineBytes;
    std::uint32_t ways;
    Indexing indexing;
    WritePolicy policy;
    bool uniformOpCost = false;
};

/** One "name value" line per counter, for failure messages. */
std::string
renderStats(const StatSnapshot &snap)
{
    std::string out;
    for (const auto &[name, value] : snap)
        out += name + " " + std::to_string(value) + "\n";
    return out;
}

CacheCosts
costsFor(const Geometry &g)
{
    CacheCosts c;
    c.uniformOpCost = g.uniformOpCost;
    return c;
}

/**
 * Reference model for the differential test: the cache as an array of
 * line records, with flushPage/purgePage as a loop of per-line
 * removeLine() calls and every snoop as a scan of all lines. It keeps
 * no index of any kind. Uniprocessor only (no coherence bus).
 */
class RefCache
{
  public:
    RefCache(const CacheGeometry &g, const CacheCosts &c, WritePolicy p,
             PhysicalMemory &m, CycleClock &clock, StatSet &stats)
        : geo(g), costs(c), policy(p), mem(m), clk(clock), st(stats),
          lines(g.numLines())
    {
        for (Line &l : lines)
            l.data.assign(g.wordsPerLine(), 0);
        for (const char *n :
             {"reads", "writes", "hits", "misses", "write_backs", "fills",
              "flush_present", "flush_absent", "purge_present",
              "purge_absent", "flush_cycles", "purge_cycles"})
            stat(n);
    }

    void
    enableSelfSnoop(Cycles penalty)
    {
        selfSnoop = true;
        selfSnoopPenalty = penalty;
        stat("synonym_snoops");
        stat("synonym_snoop_cycles");
    }

    std::uint32_t
    read(VirtAddr va, PhysAddr pa)
    {
        ++stat("reads");
        const std::uint32_t set = setOf(va, pa);
        int way = findWay(set, pa);
        clk.advance(costs.hit);
        if (way < 0) {
            ++stat("misses");
            way = allocate(set, pa);
        } else {
            ++stat("hits");
        }
        Line &l = line(set, way);
        l.use = ++useTick;
        return l.data[wordOf(pa)];
    }

    void
    write(VirtAddr va, PhysAddr pa, std::uint32_t value)
    {
        ++stat("writes");
        const std::uint32_t set = setOf(va, pa);
        int way = findWay(set, pa);
        clk.advance(costs.hit);
        if (policy == WritePolicy::WriteThrough) {
            mem.writeWord(pa, value);
            if (way < 0) {
                ++stat("misses");
                return;
            }
            ++stat("hits");
        } else if (way < 0) {
            ++stat("misses");
            way = allocate(set, pa);
        } else {
            ++stat("hits");
        }
        Line &l = line(set, way);
        l.use = ++useTick;
        if (policy == WritePolicy::WriteBack)
            l.state = MesiState::Modified;
        l.data[wordOf(pa)] = value;
    }

    bool
    removeLine(VirtAddr va, PhysAddr pa, bool write_back)
    {
        const std::uint32_t set = setOf(va, pa);
        const int way = findWay(set, pa);
        const bool present = way >= 0;
        const Cycles cost = (present || costs.uniformOpCost)
            ? costs.opLinePresent
            : costs.opLineAbsent;
        clk.advance(cost);
        const std::string kind = write_back ? "flush_" : "purge_";
        stat(kind + "cycles") += cost;
        ++stat(kind + (present ? "present" : "absent"));
        if (!present)
            return false;
        Line &l = line(set, way);
        if (write_back && l.state == MesiState::Modified)
            writeBack(l);
        l.state = MesiState::Invalid;
        return true;
    }

    std::uint32_t
    removePage(VirtAddr page_va, PhysAddr page_pa, bool write_back)
    {
        std::uint32_t present = 0;
        for (std::uint32_t off = 0; off < geo.pageBytes();
             off += geo.lineBytes())
            present += removeLine(page_va.plus(off), page_pa.plus(off),
                                  write_back);
        return present;
    }

    void
    purgeAll()
    {
        for (Line &l : lines)
            l.state = MesiState::Invalid;
    }

    void
    snoopInvalidateLine(PhysAddr pa_line)
    {
        for (Line &l : lines) {
            if (holds(l, pa_line))
                l.state = MesiState::Invalid;
        }
    }

    bool
    snoopWriteBackLine(PhysAddr pa_line)
    {
        bool wrote = false;
        for (Line &l : lines) {
            if (holds(l, pa_line) && l.state == MesiState::Modified) {
                writeBack(l);
                wrote = true;
            }
        }
        return wrote;
    }

    Cache::SnoopReply
    snoopBus(PhysAddr pa_line, bool invalidate)
    {
        Cache::SnoopReply reply;
        for (Line &l : lines) {
            if (!holds(l, pa_line))
                continue;
            reply.hadCopy = true;
            if (l.state == MesiState::Modified) {
                writeBack(l);
                reply.intervened = true;
            }
            l.state = invalidate ? MesiState::Invalid : MesiState::Shared;
        }
        return reply;
    }

    Cache::Probe
    probe(VirtAddr va, PhysAddr pa) const
    {
        Cache::Probe p;
        const std::uint32_t set = setOf(va, pa);
        const int way = findWay(set, pa);
        if (way < 0)
            return p;
        const Line &l = lines[set * geo.associativity() + way];
        p.present = true;
        p.dirty = l.state == MesiState::Modified;
        p.state = l.state;
        p.word = l.data[wordOf(pa)];
        return p;
    }

  private:
    struct Line
    {
        MesiState state = MesiState::Invalid;
        std::uint64_t tag = 0;
        std::uint64_t use = 0;
        std::vector<std::uint32_t> data;
    };

    CacheGeometry geo;
    CacheCosts costs;
    WritePolicy policy;
    PhysicalMemory &mem;
    CycleClock &clk;
    StatSet &st;
    std::vector<Line> lines;
    std::uint64_t useTick = 0;
    bool selfSnoop = false;
    Cycles selfSnoopPenalty = 0;

    Counter &stat(const std::string &n) { return st.counter("c." + n); }

    std::uint32_t
    setOf(VirtAddr va, PhysAddr pa) const
    {
        return geo.indexing() == Indexing::Virtual
                   ? geo.setIndex(IndexAddr(va))
                   : geo.setIndex(IndexAddr(pa));
    }

    std::uint32_t
    wordOf(PhysAddr pa) const
    {
        return static_cast<std::uint32_t>(pa.wordIndex() %
                                          geo.wordsPerLine());
    }

    Line &line(std::uint32_t set, int way)
    { return lines[set * geo.associativity() + way]; }

    bool
    holds(const Line &l, PhysAddr pa) const
    {
        return l.state != MesiState::Invalid &&
               l.tag == pa.lineNumber(geo.lineBytes());
    }

    int
    findWay(std::uint32_t set, PhysAddr pa) const
    {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            if (holds(lines[set * geo.associativity() + w], pa))
                return static_cast<int>(w);
        }
        return -1;
    }

    void
    writeBack(Line &l)
    {
        mem.writeWords(PhysAddr(l.tag * geo.lineBytes()), l.data.data(),
                       geo.wordsPerLine());
        l.state = MesiState::Exclusive;
        ++stat("write_backs");
        clk.advance(costs.writeBackPenalty);
    }

    /** Miss handling: pick a victim (invalid first, else LRU), write it
     *  back if dirty, self-snoop synonyms, then fill. */
    int
    allocate(std::uint32_t set, PhysAddr pa)
    {
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const Line &l = line(set, static_cast<int>(w));
            if (l.state == MesiState::Invalid) {
                victim = w;
                break;
            }
            if (l.use < oldest) {
                oldest = l.use;
                victim = w;
            }
        }
        Line &l = line(set, static_cast<int>(victim));
        if (l.state == MesiState::Modified)
            writeBack(l);
        const PhysAddr base = geo.lineBase(pa);
        if (selfSnoop) {
            for (Line &other : lines) {
                if (&other == &l || !holds(other, base))
                    continue;
                if (other.state == MesiState::Modified)
                    writeBack(other);
                other.state = MesiState::Invalid;
                ++stat("synonym_snoops");
                stat("synonym_snoop_cycles") += selfSnoopPenalty;
                clk.advance(selfSnoopPenalty);
            }
        }
        mem.readWords(base, l.data.data(), geo.wordsPerLine());
        l.state = MesiState::Exclusive;
        l.tag = pa.lineNumber(geo.lineBytes());
        ++stat("fills");
        clk.advance(costs.missPenalty);
        return static_cast<int>(victim);
    }
};

class CachePropertyTest : public ::testing::TestWithParam<Geometry>
{
  protected:
    static constexpr std::uint32_t pageBytes = 4096;

    CachePropertyTest()
        : mem(64, pageBytes),
          geo(GetParam().cacheBytes, GetParam().lineBytes, pageBytes,
              GetParam().ways, GetParam().indexing),
          cache("c", geo, costsFor(GetParam()), GetParam().policy, mem,
                clk, stats)
    {
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo;
    Cache cache;
};

TEST_P(CachePropertyTest, ReadYourOwnWriteThroughOneAddress)
{
    Random rng(7);
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    const VirtAddr base(0x10000);
    const PhysAddr pbase(0x10000);
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t off = 4 * rng.below(4 * pageBytes / 4);
        if (rng.chance(1, 2)) {
            std::uint32_t v = static_cast<std::uint32_t>(rng.next64());
            cache.write(base.plus(off), pbase.plus(off), v);
            model[off] = v;
        } else {
            std::uint32_t got =
                cache.read(base.plus(off), pbase.plus(off));
            auto it = model.find(off);
            ASSERT_EQ(got, it == model.end() ? 0u : it->second)
                << "offset " << off << " step " << step;
        }
    }
}

TEST_P(CachePropertyTest, FlushMakesMemoryCurrent)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    cache.write(va, pa, 1234);
    cache.flushLine(va, pa);
    EXPECT_EQ(mem.readWord(pa), 1234u);
    EXPECT_EQ(cache.read(va, pa), 1234u);
}

TEST_P(CachePropertyTest, PurgeNeverWritesBack)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    mem.writeWord(pa, 77);
    cache.read(va, pa);
    cache.write(va, pa, 88);
    cache.purgeLine(va, pa);
    // Write-through already propagated; write-back discarded.
    if (GetParam().policy == WritePolicy::WriteBack)
        EXPECT_EQ(mem.readWord(pa), 77u);
    else
        EXPECT_EQ(mem.readWord(pa), 88u);
}

TEST_P(CachePropertyTest, PageOpsAreIdempotent)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    for (std::uint32_t off = 0; off < pageBytes; off += 256)
        cache.write(va.plus(off), pa.plus(off), off);
    cache.flushPage(va, pa);
    EXPECT_EQ(cache.flushPage(va, pa), 0u);  // nothing left
    EXPECT_EQ(cache.purgePage(va, pa), 0u);
    for (std::uint32_t off = 0; off < pageBytes; off += 256)
        EXPECT_EQ(mem.readWord(pa.plus(off)), off);
}

TEST_P(CachePropertyTest, SnoopWriteBackFindsEveryAlias)
{
    const PhysAddr pa(0x8000);
    // Cache the line at several colours (only >1 matters for VIPT).
    const std::uint32_t colours = geo.numColours();
    for (std::uint32_t c = 0; c < colours; ++c)
        cache.read(VirtAddr(std::uint64_t(c) * pageBytes), pa);
    cache.write(VirtAddr(0), pa, 4242);
    // Write-back caches have a dirty line to drain; write-through
    // already put the value in memory.
    EXPECT_EQ(cache.snoopWriteBackLine(pa),
              GetParam().policy == WritePolicy::WriteBack);
    EXPECT_EQ(mem.readWord(pa), 4242u);
    cache.snoopInvalidateLine(pa);
    for (std::uint32_t c = 0; c < colours; ++c) {
        EXPECT_FALSE(
            cache.probe(VirtAddr(std::uint64_t(c) * pageBytes), pa)
                .present);
    }
}

TEST_P(CachePropertyTest, GeometryInvariants)
{
    EXPECT_EQ(std::uint64_t(geo.numLines()) * geo.lineBytes(),
              geo.cacheBytes());
    EXPECT_EQ(geo.numLines(), geo.numSets() * geo.associativity());
    EXPECT_EQ(geo.setSpanBytes() % pageBytes == 0 ||
                  geo.setSpanBytes() < pageBytes,
              true);
    if (geo.indexing() == Indexing::Physical) {
        EXPECT_EQ(geo.numColours(), 1u);
    }
    // Alignment is an equivalence relation respecting page offsets.
    const VirtAddr a(3 * pageBytes), b(19 * pageBytes);
    if (geo.aligned(a, b)) {
        EXPECT_EQ(geo.setIndex(IndexAddr(a.plus(100 - 100 % 4))),
                  geo.setIndex(IndexAddr(b.plus(100 - 100 % 4))));
    }
}

/** A Cache and a RefCache, each with its own memory, clock and
 *  counters, compared after every op of a seeded random sequence. */
class Differential
{
  public:
    static constexpr std::uint32_t pageBytes = 4096;
    static constexpr std::uint64_t frames = 8;
    static constexpr std::uint64_t framesUsed = 3;

    Differential(const CacheGeometry &g, const Geometry &param,
                 bool self_snoop)
        : geo(g), memA(frames, pageBytes), memB(frames, pageBytes),
          dut("c", g, costsFor(param), param.policy, memA, clkA, statsA),
          ref(g, costsFor(param), param.policy, memB, clkB, statsB)
    {
        Random fill_rng(99);
        for (std::uint64_t a = 0; a < frames * pageBytes; a += 4) {
            const auto v = static_cast<std::uint32_t>(fill_rng.next64());
            memA.writeWord(PhysAddr(a), v);
            memB.writeWord(PhysAddr(a), v);
        }
        if (self_snoop) {
            dut.enableSelfSnoop(5);
            ref.enableSelfSnoop(5);
        }
    }

    /** Apply one random op to both sides; check the results agree. */
    ::testing::AssertionResult
    step(Random &rng)
    {
        // Virtual pages of distinct colours in every geometry tested,
        // so one physical line can sit in several sets at once.
        static constexpr std::uint64_t vpages[] = {0, 1, 2, 3, 5, 17};
        const std::uint64_t vpage = vpages[rng.below(6)];
        const std::uint64_t frame = rng.below(framesUsed);
        const std::uint32_t off =
            static_cast<std::uint32_t>(4 * rng.below(pageBytes / 4));
        const VirtAddr va(vpage * pageBytes + off);
        const PhysAddr pa(frame * pageBytes + off);
        const VirtAddr page_va(vpage * pageBytes);
        const PhysAddr page_pa(frame * pageBytes);
        const PhysAddr pa_line = geo.lineBase(pa);
        // An unaligned "page": its sets wrap past the end of the cache.
        const std::uint32_t skew = off / geo.lineBytes() * geo.lineBytes();

        // Loads and stores are line runs of the words from off on, up
        // to the end of the line, against the reference's per-word
        // loop; a run of 1 is the one-word read()/write().
        const std::uint32_t run =
            1 + static_cast<std::uint32_t>(rng.below(
                    (geo.lineBytes() - off % geo.lineBytes()) / 4));

        std::uint64_t got = 0, want = 0;
        const std::uint64_t op = rng.below(100);
        if (op < 30) {
            std::vector<std::uint32_t> words(run);
            if (run == 1)
                words[0] = dut.read(va, pa);
            else
                std::copy_n(dut.readRun(va, pa, run), run, words.begin());
            for (std::uint32_t i = 0; i < run; ++i) {
                got = got * 31 + words[i];
                want = want * 31 + ref.read(va.plus(4 * i), pa.plus(4 * i));
            }
        } else if (op < 60) {
            const auto v = static_cast<std::uint32_t>(rng.next64());
            std::vector<std::uint32_t> values(run);
            for (std::uint32_t i = 0; i < run; ++i) {
                values[i] = v + i;
                ref.write(va.plus(4 * i), pa.plus(4 * i), values[i]);
            }
            if (run == 1)
                dut.write(va, pa, v);
            else
                dut.writeRun(va, pa, values.data(), run);
        } else if (op < 68) {
            const bool wb = op < 64;
            got = wb ? dut.flushLine(va, pa) : dut.purgeLine(va, pa);
            want = ref.removeLine(va, pa, wb);
        } else if (op < 78) {
            const bool wb = op < 73;
            got = wb ? dut.flushPage(page_va, page_pa)
                     : dut.purgePage(page_va, page_pa);
            want = ref.removePage(page_va, page_pa, wb);
        } else if (op < 82) {
            dut.snoopInvalidateLine(pa_line);
            ref.snoopInvalidateLine(pa_line);
        } else if (op < 86) {
            got = dut.snoopWriteBackLine(pa_line);
            want = ref.snoopWriteBackLine(pa_line);
        } else if (op < 96) {
            const bool inv = op >= 91;
            const Cache::SnoopReply a = inv ? dut.snoopBusInvalidate(pa_line)
                                            : dut.snoopBusRead(pa_line);
            const Cache::SnoopReply b = ref.snoopBus(pa_line, inv);
            got = 2 * a.hadCopy + a.intervened;
            want = 2 * b.hadCopy + b.intervened;
        } else if (op < 98) {
            const bool wb = op == 96;
            got = wb ? dut.flushPage(page_va.plus(skew), page_pa.plus(skew))
                     : dut.purgePage(page_va.plus(skew), page_pa.plus(skew));
            want = ref.removePage(page_va.plus(skew), page_pa.plus(skew),
                                  wb);
        } else {
            dut.purgeAll();
            ref.purgeAll();
        }
        if (got != want)
            return ::testing::AssertionFailure()
                   << "op " << op << " returned " << got << ", reference "
                   << want;
        return sameState(static_cast<std::uint32_t>(op));
    }

  private:
    CacheGeometry geo;
    PhysicalMemory memA, memB;
    CycleClock clkA, clkB;
    StatSet statsA, statsB;
    Cache dut;
    RefCache ref;

    ::testing::AssertionResult
    sameState(std::uint32_t op) const
    {
        if (!dut.copyCountsConsistent())
            return ::testing::AssertionFailure()
                   << "op " << op << ": snoop filter miscounts";
        if (clkA.now() != clkB.now())
            return ::testing::AssertionFailure()
                   << "op " << op << ": clock " << clkA.now()
                   << ", reference " << clkB.now();
        if (statsA.snapshot() != statsB.snapshot())
            return ::testing::AssertionFailure()
                   << "op " << op << ": counters differ\n"
                   << renderStats(statsA.snapshot()) << "reference:\n"
                   << renderStats(statsB.snapshot());
        for (std::uint64_t a = 0; a < frames * pageBytes; a += 4) {
            if (memA.readWord(PhysAddr(a)) != memB.readWord(PhysAddr(a)))
                return ::testing::AssertionFailure()
                       << "op " << op << ": memory differs at " << a;
        }
        // Every line of the pages in use, through every virtual page.
        const std::uint32_t word = op % geo.wordsPerLine() * 4;
        for (std::uint64_t vpage : {0, 1, 2, 3, 5, 17}) {
            for (std::uint64_t a = 0; a < (framesUsed + 1) * pageBytes;
                 a += geo.lineBytes()) {
                const VirtAddr va(vpage * pageBytes + a % pageBytes + word);
                const PhysAddr pa(a + word);
                const Cache::Probe p = dut.probe(va, pa);
                const Cache::Probe q = ref.probe(va, pa);
                if (p.present != q.present || p.dirty != q.dirty ||
                    p.state != q.state || p.word != q.word)
                    return ::testing::AssertionFailure()
                           << "op " << op << ": probe differs at va "
                           << va << " pa " << pa;
            }
        }
        return ::testing::AssertionSuccess();
    }
};

TEST_P(CachePropertyTest, MatchesReferenceModel)
{
    for (const bool self_snoop : {false, true}) {
        Differential d(geo, GetParam(), self_snoop);
        Random rng(self_snoop ? 0x5e1f : 0xd1ff);
        for (int step = 0; step < 600; ++step)
            ASSERT_TRUE(d.step(rng))
                << "step " << step << (self_snoop ? " (self-snoop)" : "");
    }
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const Geometry &g = info.param;
    std::string s = std::to_string(g.cacheBytes / 1024) + "k_l" +
                    std::to_string(g.lineBytes) + "_w" +
                    std::to_string(g.ways);
    s += g.indexing == Indexing::Virtual ? "_vipt" : "_pipt";
    s += g.policy == WritePolicy::WriteBack ? "_wb" : "_wt";
    if (g.uniformOpCost)
        s += "_uniform";
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachePropertyTest,
    ::testing::Values(
        Geometry{8 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 64, 2, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 16, 4, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{256 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteThrough},
        Geometry{64 * 1024, 32, 1, Indexing::Physical,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 16, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{4 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        // Smaller than a page: a page's sets wrap.
        Geometry{2 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack, true}),
    geometryName);

} // anonymous namespace
} // namespace vic
