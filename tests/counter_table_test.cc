/**
 * @file
 * The counter tables as a whole: bus rows only where a bus exists, and
 * every declared row nonzero in at least one run of the smoke sweep or
 * the memory-pressure scenario, so no table reports a forever-zero
 * statistic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/suites.hh"
#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "core/lazy_pmap.hh"
#include "core/pmap.hh"
#include "dma/disk.hh"
#include "dma/dma_engine.hh"
#include "experiment/experiment_engine.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/buffer_cache.hh"
#include "os/file_system.hh"
#include "os/kernel.hh"
#include "os/page_preparer.hh"
#include "os/pageout.hh"
#include "tlb/tlb.hh"
#include "workload/runner.hh"

namespace vic
{
namespace
{

/** One table as the liveness loop sees it: its row names and the
 *  prefixes its instances register them under. */
struct TableRows
{
    std::string table;
    std::vector<std::string> prefixes;
    std::vector<std::string> names;
    /** Each prefix, too, must see some row nonzero (the reason rows:
     *  every kind of page operation must occur). */
    bool eachPrefixLive = false;
};

template <const auto &Table>
TableRows
rowsOf(const char *table, std::vector<std::string> prefixes = {""})
{
    return {table, std::move(prefixes),
            {Table.names.begin(), Table.names.end()}};
}

/** Cache instance prefixes: "dcache." on a uniprocessor, "dcache0."
 *  per CPU on a multiprocessor. */
std::vector<std::string>
cachePrefixes()
{
    std::vector<std::string> out{"dcache.", "icache."};
    for (int cpu = 0; cpu < 8; ++cpu) {
        out.push_back("dcache" + std::to_string(cpu) + ".");
        out.push_back("icache" + std::to_string(cpu) + ".");
    }
    return out;
}

/** Every counter table in the simulator. */
std::vector<TableRows>
allTables()
{
    return {
        rowsOf<kTlbCounters>("Tlb"),
        rowsOf<kBusCounters>("CoherenceBus"),
        rowsOf<kCacheCounters>("Cache", cachePrefixes()),
        rowsOf<kCacheSynonymCounters>("Cache synonyms", cachePrefixes()),
        rowsOf<kDmaCounters>("DmaEngine"),
        rowsOf<kDiskCounters>("Disk"),
        rowsOf<kKernelCounters>("Kernel"),
        rowsOf<kBufferCacheCounters>("BufferCache"),
        rowsOf<kPreparerCounters>("PagePreparer"),
        rowsOf<kPageoutCounters>("PageoutDaemon"),
        rowsOf<kFileSystemCounters>("FileSystem"),
        rowsOf<kPmapCounters>("Pmap"),
        {"Pmap reasons",
         {kPageOpReasonPrefixes.begin(), kPageOpReasonPrefixes.end()},
         {kPageOpReasons.names.begin(), kPageOpReasons.names.end()},
         true},
        rowsOf<kLazyPmapCounters>("LazyPmap"),
        rowsOf<kFreelistCounters>("runner"),
    };
}

bool
live(const StatSnapshot &totals, const std::string &key)
{
    const auto it = totals.find(key);
    return it != totals.end() && it->second > 0;
}

/** The rows of @p tables that read zero in @p totals under every
 *  prefix, and the prefixes of eachPrefixLive tables under which every
 *  row reads zero. */
std::vector<std::string>
deadRows(const StatSnapshot &totals, const std::vector<TableRows> &tables)
{
    std::vector<std::string> dead;
    for (const TableRows &t : tables) {
        for (const std::string &name : t.names) {
            if (std::none_of(t.prefixes.begin(), t.prefixes.end(),
                             [&](const std::string &p) {
                                 return live(totals, p + name);
                             }))
                dead.push_back(t.table + ": " + name);
        }
        if (!t.eachPrefixLive)
            continue;
        for (const std::string &p : t.prefixes) {
            if (std::none_of(t.names.begin(), t.names.end(),
                             [&](const std::string &name) {
                                 return live(totals, p + name);
                             }))
                dead.push_back(t.table + ": " + p + "*");
        }
    }
    return dead;
}

/** Keys of @p totals that no table in @p tables declares. */
std::vector<std::string>
undeclared(const StatSnapshot &totals, const std::vector<TableRows> &tables)
{
    std::vector<std::string> out;
    for (const auto &[key, value] : totals) {
        bool declared = false;
        for (const TableRows &t : tables) {
            for (const std::string &p : t.prefixes) {
                for (const std::string &name : t.names)
                    declared |= key == p + name;
            }
        }
        if (!declared)
            out.push_back(key);
    }
    return out;
}

void
accumulate(StatSnapshot &totals, const StatSnapshot &run)
{
    for (const auto &[name, value] : run)
        totals[name] += value;
}

/** Memory pressure on a 96-frame machine under @p policy
 *  (tests/pageout_test.cc): text pages dropped and re-fetched,
 *  anonymous pages swapped out and paged back in. */
StatSnapshot
pressureRun(const PolicyConfig &policy)
{
    MachineParams mp = MachineParams::hp720();
    mp.numFrames = 96;
    Machine machine(mp);
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    OsParams op;
    op.bufferCacheSlots = 16;
    op.pageoutLowWater = 8;
    op.pageoutHighWater = 20;
    Kernel kernel(machine, policy, op);

    TaskId t = kernel.createTask();
    FileId bin = kernel.fileCreate(t, "big");
    for (std::uint32_t p = 0; p < 8; ++p)
        kernel.fileWrite(t, bin, std::uint64_t(p) * 4096, 4096,
                         0xc0de0000u + p);
    kernel.mapText(t, bin, 8);
    kernel.execText(t, 0, 8);
    const std::uint32_t pages = 100;
    VirtAddr hog = kernel.vmAllocate(t, pages);
    for (std::uint32_t round = 0; round < 2; ++round) {
        for (std::uint32_t p = 0; p < pages; ++p)
            kernel.userStore(t, hog.plus(std::uint64_t(p) * 4096),
                             round * 1000 + p);
    }
    kernel.execText(t, 0, 8);
    EXPECT_EQ(oracle.violationCount(), 0u) << policy.name;
    return machine.stats().snapshot();
}

TEST(CounterTables, EveryRowIsLiveSomewhere)
{
    std::vector<RunSpec> specs;
    bench::SuiteOptions smoke;
    smoke.smoke = true;
    for (const bench::Suite *suite : bench::allSuites()) {
        for (RunSpec &spec : suite->specs(smoke))
            specs.push_back(std::move(spec));
    }
    ASSERT_GT(specs.size(), 100u);
    ExperimentEngine::Options opts;
    opts.jobs = 2;
    StatSnapshot totals;
    for (const RunOutcome &o : ExperimentEngine().run(specs, opts)) {
        ASSERT_TRUE(o.ok) << o.id;
        // Reason rows are registered by their first bump: a run lists
        // only the causes that occurred.
        for (const auto &[name, value] : o.result.stats) {
            for (const char *kind : kPageOpReasonPrefixes) {
                if (name.rfind(kind, 0) == 0) {
                    EXPECT_GT(value, 0u) << o.id << " " << name;
                }
            }
        }
        accumulate(totals, o.result.stats);
    }
    std::vector<PolicyConfig> policies = PolicyConfig::table4Sweep();
    for (const PolicyConfig &sys : PolicyConfig::table5Systems())
        policies.push_back(sys);
    for (const PolicyConfig &policy : policies)
        accumulate(totals, pressureRun(policy));

    const std::vector<TableRows> tables = allTables();
    EXPECT_EQ(deadRows(totals, tables), std::vector<std::string>{});
    EXPECT_EQ(undeclared(totals, tables), std::vector<std::string>{});
}

enum class GhostStat { Live, Ghost, Count };
constexpr CounterTable<GhostStat> kGhostCounters{"probe.live",
                                                 "probe.ghost"};

TEST(CounterTables, NeverBumpedRowIsReported)
{
    StatSet s;
    const Counters<kGhostCounters> c = s.registerTable<kGhostCounters>();
    ++c[GhostStat::Live];
    const std::vector<TableRows> tables{rowsOf<kGhostCounters>("Ghost")};
    EXPECT_EQ(deadRows(s.snapshot(), tables),
              std::vector<std::string>{"Ghost: probe.ghost"});
    EXPECT_EQ(undeclared(s.snapshot(), tables), std::vector<std::string>{});

    // A reason kind that never occurs is reported too.
    StatSnapshot kinds{{"k1.a", 1}, {"k2.a", 0}};
    EXPECT_EQ(deadRows(kinds, {{"Kinds", {"k1.", "k2."}, {"a"}, true}}),
              std::vector<std::string>{"Kinds: k2.*"});
}

bool
hasRowContaining(const StatSnapshot &snap, const std::string &part)
{
    return std::any_of(snap.begin(), snap.end(), [&](const auto &row) {
        return row.first.find(part) != std::string::npos;
    });
}

TEST(CounterTables, LazyRowsOnlyWhereTheirHardwareExists)
{
    Machine machine(MachineParams::hp720());
    Kernel kernel(machine, PolicyConfig::configF(), OsParams{});
    const StatSnapshot uni = machine.stats().snapshot();
    EXPECT_FALSE(hasRowContaining(uni, "bus."));
    EXPECT_FALSE(hasRowContaining(uni, "synonym_"));
    for (const char *kind : kPageOpReasonPrefixes)
        EXPECT_FALSE(hasRowContaining(uni, kind)) << kind;
    EXPECT_NE(uni.find("pmap.d_page_flushes"), uni.end());

    MachineParams mp = MachineParams::hp720();
    mp.numCpus = 2;
    mp.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    const StatSnapshot smp = Machine(mp).stats().snapshot();
    for (const char *row : kBusCounters.names)
        EXPECT_NE(smp.find(row), smp.end()) << row;

    MachineParams syn = MachineParams::hp720();
    syn.synonymCoherence = true;
    const StatSnapshot snooped = Machine(syn).stats().snapshot();
    for (const char *cache : {"dcache.", "icache."}) {
        for (const char *row : kCacheSynonymCounters.names) {
            const std::string name = std::string(cache) + row;
            EXPECT_NE(snooped.find(name), snooped.end()) << name;
        }
    }
}

} // anonymous namespace
} // namespace vic
