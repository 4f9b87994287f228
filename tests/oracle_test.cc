/**
 * @file
 * Tests for the consistency oracle — including the non-vacuity
 * requirement: a machine run under the deliberately broken policy
 * MUST produce violations, proving the simulator really reproduces
 * the paper's failure modes and the oracle really detects them.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/policy_config.hh"
#include "oracle/consistency_oracle.hh"
#include "workload/contrived_alias.hh"
#include "workload/runner.hh"

namespace vic
{
namespace
{

TEST(OracleTest, CleanUntilMismatch)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 5);
    o.cpuLoad(PhysAddr(0x10), 5);
    EXPECT_TRUE(o.clean());
    EXPECT_EQ(o.checkedCount(), 1u);

    o.cpuLoad(PhysAddr(0x10), 6);
    EXPECT_FALSE(o.clean());
    ASSERT_EQ(o.violations().size(), 1u);
    EXPECT_EQ(o.violations()[0].expected, 5u);
    EXPECT_EQ(o.violations()[0].observed, 6u);
    EXPECT_EQ(o.violations()[0].kind, "cpu-load");
}

TEST(OracleTest, UnwrittenWordsAreNotChecked)
{
    ConsistencyOracle o(4096);
    o.cpuLoad(PhysAddr(0x20), 12345);  // garbage, but never written
    EXPECT_TRUE(o.clean());
}

TEST(OracleTest, DmaWriteDefinesNewestValue)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    o.dmaWrite(PhysAddr(0x10), 2);
    o.cpuLoad(PhysAddr(0x10), 1);  // shadowed by stale cache copy
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].expected, 2u);
}

TEST(OracleTest, DmaReadChecked)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 9);
    o.dmaRead(PhysAddr(0x10), 0);  // device read stale memory
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].kind, "dma-read");
}

TEST(OracleTest, IFetchChecked)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 0x4e71);
    o.cpuIFetch(PhysAddr(0x10), 0);
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].kind, "cpu-ifetch");
}

TEST(OracleTest, ViolationCountKeepsGrowingBeyondCap)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    for (int i = 0; i < 100; ++i)
        o.cpuLoad(PhysAddr(0x10), 2);
    EXPECT_EQ(o.violationCount(), 100u);
    EXPECT_LE(o.violations().size(), 64u);
}

TEST(OracleTest, ResetForgetsEverything)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    o.cpuLoad(PhysAddr(0x10), 2);
    o.reset();
    EXPECT_TRUE(o.clean());
    EXPECT_EQ(o.checkedCount(), 0u);
    o.cpuLoad(PhysAddr(0x10), 99);  // undefined again after reset
    EXPECT_TRUE(o.clean());
}

/** The run hooks leave exactly the state of the same transfers made
 *  one word at a time: shadow, checked count, and the violations with
 *  their addresses, in order, through the hook as well. */
TEST(OracleTest, RunsMatchPerWordTransfers)
{
    using Seen = std::vector<std::pair<PhysAddr, std::string>>;
    ConsistencyOracle runs(4096), words(4096);
    Seen seen_runs, seen_words;
    runs.setViolationHook([&](const ConsistencyOracle::Violation &v) {
        seen_runs.emplace_back(v.pa, v.kind);
    });
    words.setViolationHook([&](const ConsistencyOracle::Violation &v) {
        seen_words.emplace_back(v.pa, v.kind);
    });

    const std::uint32_t stored[] = {1, 2, 3, 4};
    const std::uint32_t loaded[] = {1, 9, 3, 8};
    runs.cpuStoreRun(PhysAddr(0x100), stored, 4);
    runs.dmaWriteRun(PhysAddr(0x200), stored, 3);
    runs.cpuLoadRun(PhysAddr(0x100), loaded, 4);
    runs.dmaReadRun(PhysAddr(0x1fc), loaded, 4); // first word unwritten
    runs.cpuCopyRun(PhysAddr(0x104), PhysAddr(0x300), loaded + 1, 3);
    runs.cpuLoadRun(PhysAddr(0x300), stored, 3);
    for (std::uint32_t i = 0; i < 4; ++i)
        words.cpuStore(PhysAddr(0x100 + 4 * i), stored[i]);
    for (std::uint32_t i = 0; i < 3; ++i)
        words.dmaWrite(PhysAddr(0x200 + 4 * i), stored[i]);
    for (std::uint32_t i = 0; i < 4; ++i)
        words.cpuLoad(PhysAddr(0x100 + 4 * i), loaded[i]);
    for (std::uint32_t i = 0; i < 4; ++i)
        words.dmaRead(PhysAddr(0x1fc + 4 * i), loaded[i]);
    for (std::uint32_t i = 0; i < 3; ++i) {
        words.cpuLoad(PhysAddr(0x104 + 4 * i), loaded[1 + i]);
        words.cpuStore(PhysAddr(0x300 + 4 * i), loaded[1 + i]);
    }
    for (std::uint32_t i = 0; i < 3; ++i)
        words.cpuLoad(PhysAddr(0x300 + 4 * i), stored[i]);

    EXPECT_EQ(runs.checkedCount(), words.checkedCount());
    EXPECT_EQ(runs.violationCount(), words.violationCount());
    EXPECT_GT(runs.violationCount(), 0u);
    EXPECT_EQ(seen_runs, seen_words);
    ASSERT_EQ(runs.violations().size(), words.violations().size());
    for (std::size_t i = 0; i < runs.violations().size(); ++i) {
        EXPECT_EQ(runs.violations()[i].expected,
                  words.violations()[i].expected);
        EXPECT_EQ(runs.violations()[i].observed,
                  words.violations()[i].observed);
    }
}

TEST(OracleDeathTest, RejectsUnalignedAndOutOfRange)
{
    ConsistencyOracle o(4096);
    EXPECT_DEATH(o.cpuStore(PhysAddr(2), 0), "unaligned");
    EXPECT_DEATH(o.cpuStore(PhysAddr(4096), 0), "out of range");
    const std::uint32_t w[2] = {};
    EXPECT_DEATH(o.cpuLoadRun(PhysAddr(4092), w, 2), "out of range");
    EXPECT_DEATH(o.dmaWriteRun(PhysAddr(6), w, 2), "unaligned");
    EXPECT_DEATH(o.cpuCopyRun(PhysAddr(0), PhysAddr(4), w, 2),
                 "overlapping");
}

// ---------------------------------------------------------------------
// Non-vacuity: the broken policy must trip the oracle.
// ---------------------------------------------------------------------

TEST(OracleNonVacuityTest, BrokenPolicyViolatesOnUnalignedAliases)
{
    ContrivedAlias wl({false, 2000, /*verifyReads=*/true});
    RunResult r = runWorkload(wl, PolicyConfig::broken());
    EXPECT_GT(r.oracleViolations, 0u)
        << "the simulator failed to reproduce stale reads under an "
           "unmanaged virtually indexed cache";
}

TEST(OracleNonVacuityTest, BrokenPolicyIsFineWhenAliasesAlign)
{
    // Aligned aliases are harmless even with no management at all —
    // the paper's central observation about alignment.
    ContrivedAlias wl({true, 2000, /*verifyReads=*/true});
    RunResult r = runWorkload(wl, PolicyConfig::broken());
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(OracleNonVacuityTest, CorrectPoliciesAreCleanOnSameWorkload)
{
    for (const auto &cfg :
         {PolicyConfig::configA(), PolicyConfig::configF()}) {
        ContrivedAlias wl({false, 2000, /*verifyReads=*/true});
        RunResult r = runWorkload(wl, cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << cfg.name;
        EXPECT_GT(r.oracleChecked, 0u);
    }
}

} // anonymous namespace
} // namespace vic
