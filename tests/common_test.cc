/** @file Unit tests for the common support library. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitvector.hh"
#include "common/event_log.hh"
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

TEST(BitVectorTest, StartsClear)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.count(), 0u);
    EXPECT_EQ(v.findFirst(), 130u);
    EXPECT_EQ(v.findFirstClear(), 0u);
}

TEST(BitVectorTest, SetResetTest)
{
    BitVector v(70);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(69);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(69));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 4u);
    v.reset(63);
    EXPECT_FALSE(v.test(63));
    EXPECT_EQ(v.count(), 3u);
}

TEST(BitVectorTest, AssignWorksBothWays)
{
    BitVector v(8);
    v.assign(3, true);
    EXPECT_TRUE(v.test(3));
    v.assign(3, false);
    EXPECT_FALSE(v.test(3));
}

TEST(BitVectorTest, FindFirstCrossesWordBoundary)
{
    BitVector v(130);
    v.set(128);
    EXPECT_EQ(v.findFirst(), 128u);
    v.set(65);
    EXPECT_EQ(v.findFirst(), 65u);
}

TEST(BitVectorTest, FindFirstClearSkipsSetBits)
{
    BitVector v(4);
    v.set(0);
    v.set(1);
    EXPECT_EQ(v.findFirstClear(), 2u);
    v.set(2);
    v.set(3);
    EXPECT_EQ(v.findFirstClear(), 4u);
}

TEST(BitVectorTest, OrWithMergesBits)
{
    BitVector a(100), b(100);
    a.set(1);
    b.set(70);
    a.orWith(b);
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(70));
    EXPECT_FALSE(b.test(1));  // source untouched
}

TEST(BitVectorTest, ClearAllResets)
{
    BitVector v(100);
    v.set(5);
    v.set(99);
    v.clearAll();
    EXPECT_TRUE(v.none());
}

TEST(BitVectorTest, ExactlyOne)
{
    BitVector v(16);
    EXPECT_FALSE(v.exactlyOne());
    v.set(7);
    EXPECT_TRUE(v.exactlyOne());
    v.set(8);
    EXPECT_FALSE(v.exactlyOne());
}

TEST(BitVectorTest, EqualityComparesContent)
{
    BitVector a(16), b(16);
    a.set(3);
    EXPECT_NE(a, b);
    b.set(3);
    EXPECT_EQ(a, b);
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

TEST(StatsTest, SnapshotAndClear)
{
    StatSet s;
    s.counter("a") += 3;
    s.counter("b") += 4;
    auto snap = s.snapshot();
    EXPECT_EQ(snap.at("a"), 3u);
    EXPECT_EQ(snap.at("b"), 4u);
    s.clearAll();
    EXPECT_EQ(s.value("a"), 0u);
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

TEST(StatsTest, AllPreservesCreationOrder)
{
    StatSet s;
    s.counter("z");
    s.counter("a");
    auto all = s.all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0]->name(), "z");
    EXPECT_EQ(all[1]->name(), "a");
}

TEST(StatsTest, RenderFiltersAndSorts)
{
    StatSet s;
    s.counter("pmap.z") += 2;
    s.counter("pmap.a") += 1;
    s.counter("os.x") += 3;
    s.counter("pmap.zero");  // stays 0

    std::string all = s.render();
    EXPECT_NE(all.find("os.x"), std::string::npos);
    EXPECT_EQ(all.find("pmap.zero"), std::string::npos);

    std::string pm = s.render("pmap.");
    EXPECT_EQ(pm.find("os.x"), std::string::npos);
    EXPECT_LT(pm.find("pmap.a"), pm.find("pmap.z"));

    std::string zeros = s.render("pmap.", true);
    EXPECT_NE(zeros.find("pmap.zero"), std::string::npos);
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
    EXPECT_EQ(a.plus(0x10).value, 0x1010u);
    EXPECT_LT(VirtAddr(1), VirtAddr(2));
    PhysAddr p(0x2000);
    EXPECT_EQ(p.plus(4).value, 0x2004u);
}

TEST(TypesTest, SpaceVaEqualityIncludesSpace)
{
    SpaceVa a(1, VirtAddr(0x1000));
    SpaceVa b(2, VirtAddr(0x1000));
    EXPECT_NE(a, b);
    EXPECT_EQ(a, SpaceVa(1, VirtAddr(0x1000)));
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
