/** @file Unit tests for the common support library. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/colour_mask.hh"
#include "common/event_log.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace vic
{
namespace
{

/** Widths the simulator uses: one colour (physical indexing), the
 *  720's 16, and the one-word maximum. */
class ColourMaskTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ColourMaskTest, StartsClear)
{
    const std::uint32_t n = GetParam();
    ColourMask m(n);
    EXPECT_EQ(m.size(), n);
    EXPECT_TRUE(m.none());
    EXPECT_FALSE(m.any());
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.findFirst(), n);
    EXPECT_EQ(m.findFirstClear(), 0u);
}

TEST_P(ColourMaskTest, SetResetTestAtBothEnds)
{
    const std::uint32_t n = GetParam();
    ColourMask m(n);
    m.set(0);
    m.set(n - 1);
    EXPECT_TRUE(m.test(0));
    EXPECT_TRUE(m.test(n - 1));
    EXPECT_EQ(m.count(), n == 1 ? 1u : 2u);
    EXPECT_EQ(m.findFirst(), 0u);
    m.reset(0);
    EXPECT_FALSE(m.test(0));
    EXPECT_EQ(m.findFirst(), n == 1 ? n : n - 1);
    EXPECT_EQ(m.bits() >> (n - 1), n == 1 ? 0u : 1u);
}

TEST_P(ColourMaskTest, FindFirstClearOnAFullMask)
{
    const std::uint32_t n = GetParam();
    ColourMask m(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        EXPECT_EQ(m.findFirstClear(), c);
        m.set(c);
    }
    EXPECT_EQ(m.count(), n);
    EXPECT_EQ(m.findFirstClear(), n);
    m.reset(n / 2);
    EXPECT_EQ(m.findFirstClear(), n / 2);
}

TEST_P(ColourMaskTest, OrMergesAndClearAllResets)
{
    const std::uint32_t n = GetParam();
    ColourMask a(n), b(n);
    a.set(0);
    b.set(n - 1);
    a |= b;
    EXPECT_TRUE(a.test(0));
    EXPECT_TRUE(a.test(n - 1));
    EXPECT_FALSE(b.test(0) && n > 1);  // source untouched
    a.clearAll();
    EXPECT_TRUE(a.none());
    EXPECT_EQ(a, ColourMask(n));
}

TEST_P(ColourMaskTest, ExactlyOneAndEquality)
{
    const std::uint32_t n = GetParam();
    ColourMask a(n), b(n);
    EXPECT_FALSE(a.exactlyOne());
    a.set(n - 1);
    EXPECT_TRUE(a.exactlyOne());
    EXPECT_NE(a, b);
    b.set(n - 1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, ColourMask(n, std::uint64_t(1) << (n - 1)));
    if (n > 1) {
        a.set(0);
        EXPECT_FALSE(a.exactlyOne());
    }
}

TEST_P(ColourMaskTest, IndexOutOfRangePanics)
{
    const std::uint32_t n = GetParam();
    ColourMask m(n);
    EXPECT_DEATH(m.test(n), "out of range");
    EXPECT_DEATH(m.set(n), "out of range");
    if (n < ColourMask::kMaxColours) {
        EXPECT_DEATH(ColourMask(n, std::uint64_t(1) << n), "outside");
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ColourMaskTest,
                         ::testing::Values(1u, 16u, 64u));

TEST(ColourMaskLimits, WiderThanOneWordOrMismatchedPanics)
{
    EXPECT_DEATH(ColourMask(65), "do not fit one word");
    ColourMask a(16), b(64);
    EXPECT_DEATH(a |= b, "size mismatch");
}

TEST(RandomTest, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= a.next64() != b.next64();
    EXPECT_TRUE(differ);
}

TEST(RandomTest, BelowRespectsBound)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RandomTest, BetweenIsInclusive)
{
    Random r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.between(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3));
    EXPECT_TRUE(seen.count(5));
}

TEST(RandomTest, RealInUnitInterval)
{
    Random r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RandomTest, ChanceExtremes)
{
    Random r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0, 10));
        EXPECT_TRUE(r.chance(10, 10));
    }
}

TEST(StatsTest, CountersStartAtZero)
{
    StatSet s;
    EXPECT_EQ(s.counter("x").value(), 0u);
    EXPECT_EQ(s.value("never_created"), 0u);
}

TEST(StatsTest, SameNameSameCounter)
{
    StatSet s;
    Counter &a = s.counter("hits");
    Counter &b = s.counter("hits");
    EXPECT_EQ(&a, &b);
    ++a;
    EXPECT_EQ(b.value(), 1u);
}

TEST(StatsTest, IncrementOperators)
{
    StatSet s;
    Counter &c = s.counter("c");
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(s.value("c"), 7u);
}

TEST(StatsTest, SnapshotCapturesValues)
{
    StatSet s;
    s.counter("a") += 3;
    s.counter("b") += 4;
    auto snap = s.snapshot();
    EXPECT_EQ(snap.at("a"), 3u);
    EXPECT_EQ(snap.at("b"), 4u);
}

enum class ProbeStat { Hits, Misses, Count };
constexpr CounterTable<ProbeStat> kProbeCounters{"probe.hits",
                                                 "probe.misses"};

enum class OtherStat { Hits, Count };
constexpr CounterTable<OtherStat> kOtherCounters{"probe.hits"};

// The checks every registration runs at compile time.
constexpr CounterTable<ProbeStat> kCapitalised{"Probe.Hits",
                                               "probe.misses"};
constexpr CounterTable<ProbeStat> kShort{"probe.hits"};
constexpr CounterTable<ProbeStat> kTwice{"probe.hits", "probe.hits"};
static_assert(kProbeCounters.namesValid() &&
              kProbeCounters.namesDistinct());
static_assert(!kCapitalised.namesValid());
static_assert(!kShort.namesValid());
static_assert(!kTwice.namesDistinct());
static_assert(validCounterName("dcache0.write_backs"));
static_assert(!validCounterName("") && !validCounterName("a-b") &&
              !validCounterName("a b"));

TEST(StatsTest, TableRowsAreBumpedByEnum)
{
    StatSet s;
    const Counters<kProbeCounters> c = s.registerTable<kProbeCounters>();
    ++c[ProbeStat::Hits];
    c[ProbeStat::Misses] += 5;
    EXPECT_EQ(s.value("probe.hits"), 1u);
    EXPECT_EQ(s.value("probe.misses"), 5u);
    const Counters<kProbeCounters> d0 =
        s.registerTable<kProbeCounters>("d0.");
    ++d0[ProbeStat::Hits];
    EXPECT_EQ(s.value("d0.probe.hits"), 1u);
    EXPECT_EQ(s.value("probe.hits"), 1u);
    EXPECT_FALSE(Counters<kProbeCounters>().registered());
    EXPECT_TRUE(d0.registered());
}

TEST(StatsTest, SameTableAndPrefixShareRows)
{
    // Per-CPU instances of one component (each CPU's TLB) register
    // the same table and count into the same rows.
    StatSet s;
    const auto a = s.registerTable<kProbeCounters>();
    const auto b = s.registerTable<kProbeCounters>();
    EXPECT_EQ(&a[ProbeStat::Misses], &b[ProbeStat::Misses]);
    Counter &row = s.registerRow<kProbeCounters>("x.", ProbeStat::Misses);
    EXPECT_EQ(&row, &s.registerRow<kProbeCounters>("x.", ProbeStat::Misses));
    ++row;
    const StatSnapshot snap = s.snapshot();
    EXPECT_EQ(snap.at("x.probe.misses"), 1u);
    EXPECT_EQ(snap.find("x.probe.hits"), snap.end());
}

TEST(StatsDeathTest, ByNamePathRejectsMalformedNames)
{
    StatSet s;
    EXPECT_DEATH(s.counter("Tlb.Hits"), "not lower-case");
    EXPECT_DEATH(s.counter(""), "not lower-case");
    EXPECT_DEATH(s.registerTable<kProbeCounters>("Dcache."),
                 "not lower-case");
}

TEST(StatsDeathTest, NameOwnedByAnotherTablePanics)
{
    StatSet s;
    s.registerTable<kProbeCounters>();
    EXPECT_DEATH(s.registerTable<kOtherCounters>(),
                 "probe.hits is already registered by another table");
    EXPECT_DEATH(s.counter("probe.hits"), "owned by a table");
    s.counter("by_name");
    StatSet t;
    t.counter("probe.hits");
    EXPECT_DEATH(t.registerTable<kProbeCounters>(),
                 "already registered");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(JsonValue::parse("\"\\u20ac\"").asString(), "\xe2\x82\xac");
    EXPECT_EQ(JsonValue::parse("\"\\u07ff\"").asString(), "\xdf\xbf");
    EXPECT_EQ(JsonValue::parse("\"\\uffff\"").asString(),
              "\xef\xbf\xbf");
    EXPECT_EQ(JsonValue::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(JsonValue::parse("\"\\udbff\\udfff\"").asString(),
              "\xf4\x8f\xbf\xbf");
    for (const char *bad :
         {"\"\\ud800\"", "\"\\udc00\"", "\"\\ud800x\"",
          "\"\\ud800\\u0041\"", "\"\\ud800\\ud800\"", "\"\\ud83d\\\""}) {
        try {
            JsonValue::parse(bad);
            ADD_FAILURE() << bad;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("bad \\u escape"),
                      std::string::npos)
                << bad << ": " << e.what();
        }
    }
}

TEST(StatsTest, SnapshotStaysSortedAndUnique)
{
    StatSnapshot snap{{"m", 1}, {"c", 2}, {"m", 9}};
    snap["z"] += 3;
    snap["a"] = 4;
    snap["c"] += 1;
    std::vector<std::string> names;
    for (const auto &[name, value] : snap)
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "m", "z"}));
    EXPECT_EQ(snap.at("m"), 1u);  // the first of two "m" pairs
    EXPECT_EQ(snap.at("c"), 3u);
    EXPECT_EQ(snap.find("b"), snap.end());
    EXPECT_THROW(snap.at("b"), std::out_of_range);
}

TEST(ZeroedArrayTest, StartsZeroAndClears)
{
    ZeroedArray<std::uint32_t> a(100000);
    EXPECT_EQ(a.size(), 100000u);
    EXPECT_EQ(std::count(a.begin(), a.end(), 0u), 100000);
    a[0] = 1;
    a[99999] = 2;
    EXPECT_EQ(a[99999], 2u);
    a.clear();
    EXPECT_EQ(std::count(a.begin(), a.end(), 0u), 100000);
    ZeroedArray<std::uint16_t> empty(0);
    EXPECT_EQ(empty.begin(), empty.end());
}

TEST(TableTest, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.row();
    t.cell(std::string("x"));
    t.cell(std::uint64_t(42));
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, BlankAndFloatCells)
{
    Table t({"a", "b"});
    t.row();
    t.blank();
    t.cell(3.14159, 2);
    std::string out = t.render();
    EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(ProtectionTest, NamedConstructors)
{
    EXPECT_TRUE(Protection::none().isNone());
    EXPECT_TRUE(Protection::readOnly().read);
    EXPECT_FALSE(Protection::readOnly().write);
    EXPECT_TRUE(Protection::readWrite().write);
    EXPECT_TRUE(Protection::readExecute().execute);
    EXPECT_FALSE(Protection::readExecute().write);
    Protection all = Protection::all();
    EXPECT_TRUE(all.read && all.write && all.execute);
}

TEST(ProtectionTest, IntersectIsPairwiseAnd)
{
    Protection p = Protection::readWrite().intersect(
        Protection::readExecute());
    EXPECT_TRUE(p.read);
    EXPECT_FALSE(p.write);
    EXPECT_FALSE(p.execute);
}

TEST(ProtectionTest, NameFormat)
{
    EXPECT_EQ(protectionName(Protection::none()), "---");
    EXPECT_EQ(protectionName(Protection::readWrite()), "rw-");
    EXPECT_EQ(protectionName(Protection::readExecute()), "r-x");
}

TEST(EventLogTest, DisabledByDefault)
{
    EventLog log;
    EXPECT_FALSE(log.enabled());
    log.log("ignored");
    EXPECT_EQ(log.totalLogged(), 0u);
    EXPECT_TRUE(log.recent(10).empty());
}

TEST(EventLogTest, KeepsMostRecentInOrder)
{
    EventLog log;
    log.enable(3);
    for (int i = 0; i < 5; ++i)
        log.log("e" + std::to_string(i));
    EXPECT_EQ(log.totalLogged(), 5u);
    auto r = log.recent(10);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], "e2");
    EXPECT_EQ(r[2], "e4");
    auto r2 = log.recent(2);
    ASSERT_EQ(r2.size(), 2u);
    EXPECT_EQ(r2[0], "e3");
}

TEST(EventLogTest, RecentBeforeWrap)
{
    EventLog log;
    log.enable(8);
    log.log("a");
    log.log("b");
    auto r = log.recent(8);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], "a");
    EXPECT_EQ(r[1], "b");
}

TEST(EventLogTest, DisableDropsEverything)
{
    EventLog log;
    log.enable(4);
    log.log("x");
    log.disable();
    EXPECT_FALSE(log.enabled());
    EXPECT_TRUE(log.recent(4).empty());
}

TEST(TypesTest, AddressArithmeticAndOrdering)
{
    VirtAddr a(0x1000);
    EXPECT_EQ(a.plus(0x10), VirtAddr(0x1010));
    EXPECT_LT(VirtAddr(1), VirtAddr(2));
    PhysAddr p(0x2000);
    EXPECT_EQ(p.plus(4), PhysAddr(0x2004));
}

TEST(TypesTest, SpaceVaEqualityIncludesSpace)
{
    SpaceVa a(1, VirtAddr(0x1000));
    SpaceVa b(2, VirtAddr(0x1000));
    EXPECT_NE(a, b);
    EXPECT_EQ(a, SpaceVa(1, VirtAddr(0x1000)));
}

TEST(TypesTest, NamedAddressOperations)
{
    const VirtAddr va(0x12345);
    EXPECT_TRUE(VirtAddr(0x3000).isAligned(4096));
    EXPECT_FALSE(va.isAligned(4));
    EXPECT_EQ(va.offsetIn(4096), 0x345u);
    EXPECT_EQ(va.alignDown(4096), VirtAddr(0x12000));
    EXPECT_EQ(va.bytesFrom(VirtAddr(0x12000)), 0x345u);
    EXPECT_EQ(va.pageNumber(4096), 0x12u);

    const PhysAddr pa(0x5064);
    EXPECT_EQ(pa.wordIndex(), 0x1419u);
    EXPECT_EQ(pa.lineNumber(32), 0x283u);
    EXPECT_EQ(pa.frame(4096), 5u);
    EXPECT_EQ(pa.alignDown(32), PhysAddr(0x5060));
}

TEST(TypesTest, AddressesPrintAsHex)
{
    // hex() matches the "%llx" the log messages printed before it.
    EXPECT_EQ(hex(VirtAddr(0x50003000)), "50003000");
    EXPECT_EQ(hex(PhysAddr(0)), "0");
    // Test failures show addresses as 0x… rather than raw bytes.
    EXPECT_EQ(::testing::PrintToString(PhysAddr(0x1000)), "0x1000");
    EXPECT_EQ(::testing::PrintToString(VirtAddr(0xbeef0)), "0xbeef0");
    EXPECT_EQ(::testing::PrintToString(SpaceVa(3, VirtAddr(0x2000))),
              "{space 3, 0x2000}");
}

TEST(TypesTest, SpaceVaHashPacksSpaceAboveTheAddress)
{
    // The page table's bucket order and the hash containers depend on
    // this packing; it must not move.
    const std::uint64_t packed = (std::uint64_t(3) << 48) ^ 0x7000;
    EXPECT_EQ(std::hash<SpaceVa>{}(SpaceVa(3, VirtAddr(0x7000))),
              std::hash<std::uint64_t>{}(packed));
    EXPECT_EQ(std::hash<VirtAddr>{}(VirtAddr(0x7000)),
              std::hash<std::uint64_t>{}(0x7000));
    EXPECT_EQ(std::hash<PhysAddr>{}(PhysAddr(0x7000)),
              std::hash<std::uint64_t>{}(0x7000));
}

TEST(TypesTest, MemOpNames)
{
    EXPECT_STREQ(memOpName(MemOp::CpuRead), "CPU-read");
    EXPECT_STREQ(memOpName(MemOp::DmaWrite), "DMA-write");
    EXPECT_STREQ(memOpName(MemOp::Flush), "Flush");
}

TEST(LoggingTest, FormatProducesExpectedText)
{
    EXPECT_EQ(format("x=%d y=%s", 5, "abc"), "x=5 y=abc");
}

} // anonymous namespace
} // namespace vic
