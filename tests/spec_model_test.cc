/**
 * @file
 * Tests of the consistency specification itself: the Table 2
 * transition functions (checked exhaustively against the published
 * table), the table predicates rejecting seeded bad Table 2 and MESI
 * tables at compile time, the SpecExecutor's invariants, the Table 3
 * encoding in CacheStateVector, and the Table 4 A-F ladder.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/mesi_spec.hh"
#include "core/cache_page_state.hh"
#include "core/phys_page_info.hh"
#include "core/policy_config.hh"
#include "core/spec_executor.hh"

namespace vic
{
namespace
{

using S = CachePageState;
using R = RequiredOp;

// ---------------------------------------------------------------------
// Table 2, transcribed row by row from the paper.
// ---------------------------------------------------------------------

struct Row
{
    MemOp op;
    S from;
    SpecTransition target;
    SpecTransition other;
};

const Row table2[] = {
    // CPU-read
    {MemOp::CpuRead, S::Empty, {S::Present}, {S::Empty}},
    {MemOp::CpuRead, S::Present, {S::Present}, {S::Present}},
    {MemOp::CpuRead, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
    {MemOp::CpuRead, S::Stale, {S::Present, R::Purge}, {S::Stale}},
    // CPU-write
    {MemOp::CpuWrite, S::Empty, {S::Dirty}, {S::Empty}},
    {MemOp::CpuWrite, S::Present, {S::Dirty}, {S::Stale}},
    {MemOp::CpuWrite, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
    {MemOp::CpuWrite, S::Stale, {S::Dirty, R::Purge}, {S::Stale}},
    // DMA-read (both columns identical: DMA bypasses the cache)
    {MemOp::DmaRead, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::DmaRead, S::Present, {S::Present}, {S::Present}},
    {MemOp::DmaRead, S::Dirty, {S::Empty, R::Flush},
     {S::Empty, R::Flush}},
    {MemOp::DmaRead, S::Stale, {S::Stale}, {S::Stale}},
    // DMA-write
    {MemOp::DmaWrite, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::DmaWrite, S::Present, {S::Stale}, {S::Stale}},
    {MemOp::DmaWrite, S::Dirty, {S::Empty, R::Purge},
     {S::Empty, R::Purge}},
    {MemOp::DmaWrite, S::Stale, {S::Stale}, {S::Stale}},
    // Purge (target only)
    {MemOp::Purge, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::Purge, S::Present, {S::Empty}, {S::Present}},
    {MemOp::Purge, S::Dirty, {S::Empty}, {S::Dirty}},
    {MemOp::Purge, S::Stale, {S::Empty}, {S::Stale}},
    // Flush (target only)
    {MemOp::Flush, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::Flush, S::Present, {S::Empty}, {S::Present}},
    {MemOp::Flush, S::Dirty, {S::Empty}, {S::Dirty}},
    {MemOp::Flush, S::Stale, {S::Empty}, {S::Stale}},
};

TEST(Table2Test, ExhaustiveMatchAgainstPaper)
{
    // 6 ops x 4 states, both columns: the functions must reproduce
    // the published table cell for cell.
    ASSERT_EQ(std::size(table2), 24u);
    for (const Row &row : table2) {
        SpecTransition t = targetTransition(row.from, row.op);
        EXPECT_EQ(t, row.target)
            << memOpName(row.op) << " target from "
            << cachePageStateName(row.from);
        SpecTransition o = otherTransition(row.from, row.op);
        EXPECT_EQ(o, row.other)
            << memOpName(row.op) << " other from "
            << cachePageStateName(row.from);
    }
}

TEST(Table2Test, OnlyStaleTargetsNeedPurgeOnCpuAccess)
{
    for (MemOp op : {MemOp::CpuRead, MemOp::CpuWrite}) {
        for (S s : allCachePageStates) {
            SpecTransition t = targetTransition(s, op);
            EXPECT_EQ(t.required == R::Purge, s == S::Stale);
        }
    }
}

TEST(Table2Test, DirtyLinesNeverSilentlyVanish)
{
    // A dirty line leaves the dirty state only via an explicit flush
    // or purge (or by staying the newest data). Check every rule.
    for (MemOp op : allMemOps) {
        for (auto column : {targetTransition, otherTransition}) {
            SpecTransition t = column(S::Dirty, op);
            if (t.next != S::Dirty) {
                const bool explicit_removal =
                    t.required != R::None || op == MemOp::Purge ||
                    op == MemOp::Flush;
                EXPECT_TRUE(explicit_removal)
                    << memOpName(op) << " drops dirty data silently";
            }
        }
    }
}

TEST(Table2Test, StateNamesAndLetters)
{
    EXPECT_STREQ(cachePageStateName(S::Empty), "Empty");
    EXPECT_EQ(cachePageStateLetter(S::Stale), 'S');
    EXPECT_STREQ(requiredOpName(R::Flush), "flush");
    EXPECT_STREQ(requiredOpName(R::None), "");
}

// ---------------------------------------------------------------------
// Seeded bad tables. The real tables are static_assert'ed in their
// headers; each copy below breaks one property, and the predicate for
// that property must reject it while the others still hold.
// ---------------------------------------------------------------------

/** @p t with @p edit applied to the row for (@p e, @p s). */
template <typename Table, typename Event, typename State, typename Edit>
constexpr Table
withRow(Table t, Event e, State s, Edit edit)
{
    for (auto &row : t) {
        if (row.event == e && row.from == s)
            edit(row);
    }
    return t;
}

constexpr std::size_t kOps = allMemOps.size();
constexpr std::size_t kStates = allCachePageStates.size();

// Coverage: the (Stale, CpuWrite) row deleted...
constexpr auto kNoStaleCpuWrite = [] {
    std::array<Table2Row, table2Rows.size() - 1> t{};
    std::size_t n = 0;
    for (const Table2Row &row : table2Rows) {
        if (row.event != MemOp::CpuWrite || row.from != S::Stale)
            t[n++] = row;
    }
    return t;
}();
static_assert(!coversEveryPair<kOps, kStates>(kNoStaleCpuWrite));
static_assert(table2Reachable(kNoStaleCpuWrite) &&
              table2Composes(kNoStaleCpuWrite) &&
              table2DmaColumnsAgree(kNoStaleCpuWrite));
// ...or turned into a second (Dirty, CpuWrite) row.
static_assert(!coversEveryPair<kOps, kStates>(
    withRow(table2Rows, MemOp::CpuWrite, S::Stale,
            [](Table2Row &r) { r.from = S::Dirty; })));

// Composition: the Dirty+DmaRead -> {Present, Flush} bug.
constexpr auto kDirtyDmaReadBug =
    withRow(table2Rows, MemOp::DmaRead, S::Dirty, [](Table2Row &r) {
        r.target = r.other = {S::Present, R::Flush};
    });
static_assert(!table2Composes(kDirtyDmaReadBug));
static_assert(coversEveryPair<kOps, kStates>(kDirtyDmaReadBug) &&
              table2Reachable(kDirtyDmaReadBug) &&
              table2DmaColumnsAgree(kDirtyDmaReadBug));

// Reachability: no transition into Stale.
constexpr auto kStaleUnreachable = [] {
    std::array<Table2Row, table2Rows.size()> t = table2Rows;
    for (Table2Row &row : t) {
        for (SpecTransition *tr : {&row.target, &row.other}) {
            if (tr->next == S::Stale)
                tr->next = S::Empty;
        }
    }
    return t;
}();
static_assert(!table2Reachable(kStaleUnreachable));
static_assert(coversEveryPair<kOps, kStates>(kStaleUnreachable) &&
              table2Composes(kStaleUnreachable) &&
              table2DmaColumnsAgree(kStaleUnreachable));

// DMA columns: a DMA-write that leaves unaligned present lines alone.
constexpr auto kDmaColumnsDiffer =
    withRow(table2Rows, MemOp::DmaWrite, S::Present,
            [](Table2Row &r) { r.other = {S::Present}; });
static_assert(!table2DmaColumnsAgree(kDmaColumnsDiffer));
static_assert(coversEveryPair<kOps, kStates>(kDmaColumnsDiffer) &&
              table2Reachable(kDmaColumnsDiffer) &&
              table2Composes(kDmaColumnsDiffer));

// MESI: a snoop write-back from Shared...
constexpr auto kSharedWritesBack =
    withRow(mesiSnoopRows, MesiSnoopEvent::BusRead, MesiState::Shared,
            [](MesiSnoopRow &r) { r.to.writeBack = true; });
static_assert(!mesiWritesBackOnlyFromModified(kSharedWritesBack));
static_assert(mesiInvalidateEndsInvalid(kSharedWritesBack) &&
              mesiReachable(mesiLocalRows, kSharedWritesBack));

// ...a BusInvalidate that leaves a Shared copy alive...
constexpr auto kInvalidateKeepsShared = withRow(
    mesiSnoopRows, MesiSnoopEvent::BusInvalidate, MesiState::Shared,
    [](MesiSnoopRow &r) { r.to.next = MesiState::Shared; });
static_assert(!mesiInvalidateEndsInvalid(kInvalidateKeepsShared));
static_assert(mesiWritesBackOnlyFromModified(kInvalidateKeepsShared) &&
              mesiReachable(mesiLocalRows, kInvalidateKeepsShared));

// ...a bus fill issued from a valid state...
constexpr auto kFillFromShared =
    withRow(mesiLocalRows, MesiLocalEvent::Read, MesiState::Shared,
            [](MesiLocalRow &r) { r.to.bus = MesiBusOp::BusRead; });
static_assert(!mesiFillsWellFormed(kFillFromShared));
static_assert(mesiWriteEndsModified(kFillFromShared) &&
              mesiReachable(kFillFromShared, mesiSnoopRows));

// ...writes that end Exclusive, which also leave Modified
// unreachable...
constexpr auto kWritesEndExclusive = [] {
    std::array<MesiLocalRow, mesiLocalRows.size()> t = mesiLocalRows;
    for (MesiLocalRow &row : t) {
        if (row.event == MesiLocalEvent::Write)
            row.to.next = row.to.nextIfPeerHolds = MesiState::Exclusive;
    }
    return t;
}();
static_assert(!mesiWriteEndsModified(kWritesEndExclusive));
static_assert(!mesiReachable(kWritesEndExclusive, mesiSnoopRows));
// ...and a Write row relabelled as a second Read row.
static_assert(!coversEveryPair<allMesiLocalEvents.size(),
                               allMesiStates.size()>(
    withRow(mesiLocalRows, MesiLocalEvent::Write, MesiState::Shared,
            [](MesiLocalRow &r) { r.event = MesiLocalEvent::Read; })));

// ---------------------------------------------------------------------
// SpecExecutor
// ---------------------------------------------------------------------

TEST(SpecExecutorTest, PowerUpAllEmpty)
{
    SpecExecutor spec(8);
    for (CachePageId c = 0; c < 8; ++c)
        EXPECT_EQ(spec.state(c), S::Empty);
    EXPECT_TRUE(spec.invariantHolds());
    EXPECT_FALSE(spec.dirtyColour().has_value());
}

TEST(SpecExecutorTest, ReadThenWriteThenUnalignedRead)
{
    SpecExecutor spec(4);
    spec.apply(MemOp::CpuRead, 0);
    EXPECT_EQ(spec.state(0), S::Present);

    spec.apply(MemOp::CpuWrite, 0);
    EXPECT_EQ(spec.state(0), S::Dirty);
    EXPECT_EQ(spec.dirtyColour(), std::optional<CachePageId>(0));

    // Unaligned read: the dirty colour must be flushed first.
    auto ops = spec.apply(MemOp::CpuRead, 1);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].colour, 0u);
    EXPECT_EQ(ops[0].op, R::Flush);
    EXPECT_EQ(spec.state(0), S::Empty);
    EXPECT_EQ(spec.state(1), S::Present);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, WriteStalesOtherPresentColours)
{
    SpecExecutor spec(4);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuRead, 1);
    spec.apply(MemOp::CpuWrite, 2);
    EXPECT_EQ(spec.state(0), S::Stale);
    EXPECT_EQ(spec.state(1), S::Stale);
    EXPECT_EQ(spec.state(2), S::Dirty);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, StaleTargetPurgedBeforeUse)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuWrite, 1);
    auto ops = spec.apply(MemOp::CpuRead, 0);
    // The dirty colour 1 is flushed AND the stale target 0 purged.
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].op, R::Flush);
    EXPECT_EQ(ops[0].colour, 1u);
    EXPECT_EQ(ops[1].op, R::Purge);
    EXPECT_EQ(ops[1].colour, 0u);
    EXPECT_EQ(spec.state(0), S::Present);
}

TEST(SpecExecutorTest, DmaWriteStalesEverything)
{
    SpecExecutor spec(3);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuWrite, 1);
    auto ops = spec.apply(MemOp::DmaWrite, std::nullopt);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, R::Purge);  // dirty purged, not flushed
    EXPECT_EQ(spec.state(0), S::Stale);
    EXPECT_EQ(spec.state(1), S::Empty);
    EXPECT_EQ(spec.state(2), S::Empty);
}

TEST(SpecExecutorTest, DmaReadFlushesDirtyAndEmptiesIt)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuWrite, 0);
    auto ops = spec.apply(MemOp::DmaRead, std::nullopt);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, R::Flush);
    // The flush writes back and invalidates, so the page is Empty —
    // not Present, which would cost a redundant purge later.
    EXPECT_EQ(spec.state(0), S::Empty);
}

TEST(SpecExecutorTest, PurgeAndFlushEmptyOnlyTheTarget)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuRead, 1);
    spec.apply(MemOp::Purge, 0);
    EXPECT_EQ(spec.state(0), S::Empty);
    EXPECT_EQ(spec.state(1), S::Present);
}

TEST(SpecExecutorTest, InvariantViolationsDetected)
{
    SpecExecutor spec(2);
    spec.setState(0, S::Dirty);
    spec.setState(1, S::Dirty);
    EXPECT_FALSE(spec.invariantHolds());
    spec.setState(1, S::Present);
    EXPECT_FALSE(spec.invariantHolds());  // dirty + present coexist
    spec.setState(1, S::Stale);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, InvariantPreservedUnderAllOpSequences)
{
    // Depth-4 exhaustive search over (op, colour) on 2 colours: the
    // invariant must hold in every reachable state.
    struct Choice
    {
        MemOp op;
        std::optional<CachePageId> target;
    };
    std::vector<Choice> choices;
    for (CachePageId c = 0; c < 2; ++c) {
        for (MemOp op : {MemOp::CpuRead, MemOp::CpuWrite, MemOp::Purge,
                         MemOp::Flush})
            choices.push_back({op, c});
    }
    choices.push_back({MemOp::DmaRead, std::nullopt});
    choices.push_back({MemOp::DmaWrite, std::nullopt});

    const std::size_t n = choices.size();
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t c = 0; c < n; ++c) {
                for (std::size_t d = 0; d < n; ++d) {
                    SpecExecutor spec(2);
                    spec.apply(choices[a].op, choices[a].target);
                    spec.apply(choices[b].op, choices[b].target);
                    spec.apply(choices[c].op, choices[c].target);
                    spec.apply(choices[d].op, choices[d].target);
                    ASSERT_TRUE(spec.invariantHolds());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Table 3 encoding
// ---------------------------------------------------------------------

TEST(Table3Test, EncodingDecodesToAllFourStates)
{
    CacheStateVector v(4);
    // Empty: mapped=false, stale=false.
    EXPECT_EQ(v.decode(0), S::Empty);

    // Present: mapped=true, stale=false, dirty=false.
    v.mapped.set(1);
    EXPECT_EQ(v.decode(1), S::Present);

    // Stale: mapped=false, stale=true.
    v.stale.set(2);
    EXPECT_EQ(v.decode(2), S::Stale);

    // Dirty: mapped=true, dirty bit, unique mapped colour.
    CacheStateVector d(4);
    d.mapped.set(3);
    d.cacheDirty = true;
    EXPECT_EQ(d.decode(3), S::Dirty);
    EXPECT_EQ(d.dirtyColour(), 3u);
}

TEST(Table3Test, DirtyRequiresExactlyOneMappedColour)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.mapped.set(1);
    v.cacheDirty = true;
    EXPECT_DEATH(v.checkInvariants(), "cacheDirty");
}

TEST(Table3Test, MappedAndStaleAreExclusive)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.stale.set(0);
    EXPECT_DEATH(v.decode(0), "mapped and stale");
}

/** Seeded violations of the two encoding invariants, at the 720's
 *  width and the one-word maximum, with the offending colour at the top
 *  of the word: checkInvariants() (two word operations) and decode()
 *  must each still panic. */
class Table3ViolationTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(Table3ViolationTest, ColourBothMappedAndStalePanics)
{
    const std::uint32_t top = GetParam() - 1;
    CacheStateVector v(GetParam());
    v.mapped.set(0);
    v.stale.set(1);
    v.checkInvariants();  // disjoint: fine
    v.mapped.set(top);
    v.stale.set(top);
    EXPECT_DEATH(v.checkInvariants(),
                 "colour " + std::to_string(top) + " both mapped and stale");
    EXPECT_DEATH(v.decode(top), "both mapped and stale");
}

TEST_P(Table3ViolationTest, DirtyWithNoMappedColourPanics)
{
    CacheStateVector v(GetParam());
    v.stale.set(GetParam() - 1);
    v.cacheDirty = true;
    EXPECT_DEATH(v.checkInvariants(), "cacheDirty with 0 mapped colours");
}

TEST_P(Table3ViolationTest, DirtyWithTwoMappedColoursPanics)
{
    CacheStateVector v(GetParam());
    v.mapped.set(GetParam() - 1);
    v.cacheDirty = true;
    v.checkInvariants();  // exactly one: fine
    v.mapped.set(0);
    EXPECT_DEATH(v.checkInvariants(), "cacheDirty with 2 mapped colours");
}

INSTANTIATE_TEST_SUITE_P(Widths, Table3ViolationTest,
                         ::testing::Values(16u, 64u));

TEST(Table3Test, ClearResetsEverything)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.stale.set(1);
    v.cacheDirty = true;
    v.clear();
    EXPECT_EQ(v.decode(0), S::Empty);
    EXPECT_EQ(v.decode(1), S::Empty);
    EXPECT_FALSE(v.cacheDirty);
}

TEST(PhysPageInfoTest, MappingListOperations)
{
    PhysPageInfo info(4, 4);
    EXPECT_FALSE(info.hasMappings());
    info.addMapping(SpaceVa(1, VirtAddr(0x1000)), Protection::readWrite());
    info.addMapping(SpaceVa(2, VirtAddr(0x2000)), Protection::readOnly());
    EXPECT_TRUE(info.hasMappings());
    ASSERT_NE(info.findMapping(SpaceVa(1, VirtAddr(0x1000))), nullptr);
    EXPECT_EQ(info.findMapping(SpaceVa(3, VirtAddr(0x1000))), nullptr);
    EXPECT_TRUE(info.removeMapping(SpaceVa(1, VirtAddr(0x1000))));
    EXPECT_FALSE(info.removeMapping(SpaceVa(1, VirtAddr(0x1000))));
    EXPECT_TRUE(info.hasMappings());
}

// ---------------------------------------------------------------------
// Table 4: each configuration of the A-F ladder is its predecessor
// plus the one step the paper adds.
// ---------------------------------------------------------------------

struct Rung
{
    PolicyConfig config;
    PolicyConfig base;
    void (*adds)(PolicyConfig &);  ///< the documented flags
};

/** @p config is @p base with exactly @p adds applied, renamed. */
bool
isRung(const PolicyConfig &config, PolicyConfig base,
       void (*adds)(PolicyConfig &))
{
    adds(base);
    base.name = config.name;
    return base == config;
}

std::vector<Rung>
table4Ladder()
{
    using P = PolicyConfig;
    return {
        {P::configA(), P{},
         [](P &p) {
             p.pmapKind = PmapKind::Classic;
             p.cleanOnUnmap = true;
         }},
        {P::configB(), P{}, [](P &p) { p.pmapKind = PmapKind::Lazy; }},
        {P::configC(), P::configB(),
         [](P &p) {
             p.alignIpc = true;
             p.alignSharedPages = true;
         }},
        {P::configD(), P::configC(),
         [](P &p) { p.alignedPrepare = true; }},
        {P::configE(), P::configD(), [](P &p) { p.useNeedData = true; }},
        {P::configF(), P::configE(),
         [](P &p) { p.useWillOverwrite = true; }},
    };
}

TEST(Table4LadderTest, EachRungAddsOnlyItsDocumentedFlags)
{
    for (const Rung &r : table4Ladder())
        EXPECT_TRUE(isRung(r.config, r.base, r.adds)) << r.config.name;
}

TEST(Table4LadderTest, RejectsARungWithAnExtraOrMissingFlag)
{
    const Rung d = table4Ladder()[3];
    PolicyConfig extra = d.config;
    extra.useNeedData = true;  // E's flag, one rung early
    EXPECT_FALSE(isRung(extra, d.base, d.adds));
    PolicyConfig missing = d.config;
    missing.alignedPrepare = false;
    EXPECT_FALSE(isRung(missing, d.base, d.adds));
}

TEST(Table4LadderTest, SweepListsAThroughFInOrder)
{
    const std::vector<PolicyConfig> sweep = PolicyConfig::table4Sweep();
    const std::vector<Rung> ladder = table4Ladder();
    ASSERT_EQ(sweep.size(), ladder.size());
    for (std::size_t i = 0; i < sweep.size(); ++i)
        EXPECT_EQ(sweep[i], ladder[i].config) << i;
}

} // anonymous namespace
} // namespace vic
