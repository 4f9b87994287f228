/**
 * @file
 * ExperimentEngine: spec-order collection under parallel execution,
 * per-run failure isolation, filter semantics, seed derivation, the
 * serial replica merge, the JSON artifact round-trip / determinism
 * guarantees, and the parser's rejection of hostile input.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/stats.hh"
#include "experiment/experiment_engine.hh"
#include "experiment/json_artifact.hh"
#include "workload/contrived_alias.hh"

namespace vic
{
namespace
{

/** A cheap spec: the aligned contrived loop at @p writes stores. */
RunSpec
aliasSpec(const std::string &id, std::uint32_t writes,
          bool aligned = true)
{
    RunSpec spec;
    spec.id = id;
    spec.suite = "test";
    spec.make = [aligned, writes] {
        return std::make_unique<ContrivedAlias>(
            ContrivedAlias::Params{aligned, writes, false});
    };
    spec.policy = PolicyConfig::configF();
    return spec;
}

/** A replicated spec of the unaligned contrived loop. */
RunSpec
replicatedSpec(const std::string &id, std::uint32_t writes,
               std::uint32_t replicas)
{
    RunSpec spec = aliasSpec(id, writes, /*aligned=*/false);
    spec.seed = 0xaf5;
    spec.replicaCount = replicas;
    return spec;
}

class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "throwing"; }
    void
    run(Kernel &) override
    {
        throw std::runtime_error("deliberate test failure");
    }
};

TEST(ExperimentEngine, CollectsOutcomesInSpecOrder)
{
    // Durations spread over two orders of magnitude and deliberately
    // decreasing, so under parallel execution later specs finish
    // first; collection must still be in spec order.
    std::vector<RunSpec> specs;
    const std::uint32_t writes[] = {20000, 5000, 1000, 200, 100, 50};
    for (std::size_t i = 0; i < std::size(writes); ++i) {
        specs.push_back(aliasSpec("run" + std::to_string(i),
                                  writes[i], /*aligned=*/false));
    }

    ExperimentEngine engine;
    ExperimentEngine::Options opts;
    opts.jobs = 4;
    std::vector<RunOutcome> outcomes = engine.run(specs, opts);

    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(outcomes[i].id, specs[i].id);
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
    // More simulated work takes more simulated cycles, confirming the
    // slots really hold each spec's own run.
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_GT(outcomes[i - 1].result.cycles,
                  outcomes[i].result.cycles);
}

TEST(ExperimentEngine, ParallelMatchesSerial)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < 4; ++i)
        specs.push_back(aliasSpec("r" + std::to_string(i),
                                  500 * (i + 1), i % 2 == 0));

    ExperimentEngine engine;
    std::vector<RunOutcome> serial = engine.run(specs);
    ExperimentEngine::Options opts;
    opts.jobs = 3;
    std::vector<RunOutcome> parallel = engine.run(specs, opts);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles);
        EXPECT_EQ(serial[i].result.stats, parallel[i].result.stats);
        EXPECT_EQ(serial[i].effectiveSeed, parallel[i].effectiveSeed);
    }
}

TEST(ExperimentEngine, ThrowingRunFailsAloneWithoutTearingDownBatch)
{
    std::vector<RunSpec> specs;
    specs.push_back(aliasSpec("good0", 100));
    RunSpec bad;
    bad.id = "bad";
    bad.suite = "test";
    bad.make = [] { return std::make_unique<ThrowingWorkload>(); };
    bad.policy = PolicyConfig::configF();
    specs.push_back(std::move(bad));
    specs.push_back(aliasSpec("good1", 100));

    ExperimentEngine engine;
    ExperimentEngine::Options opts;
    opts.jobs = 2;
    std::vector<RunOutcome> outcomes = engine.run(specs, opts);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("deliberate test failure"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_EQ(outcomes[0].result.cycles, outcomes[2].result.cycles);
}

TEST(ExperimentEngine, FilterSemantics)
{
    // Empty filter matches everything.
    EXPECT_TRUE(ExperimentEngine::matchesFilter("table1/afs/F", ""));
    // Substring match anywhere in the id.
    EXPECT_TRUE(
        ExperimentEngine::matchesFilter("table1/afs/F", "afs"));
    EXPECT_FALSE(
        ExperimentEngine::matchesFilter("table1/afs/F", "latex"));
    // Comma-separated alternatives: any may match.
    EXPECT_TRUE(ExperimentEngine::matchesFilter("table1/afs/F",
                                                "latex,afs"));
    EXPECT_FALSE(ExperimentEngine::matchesFilter("table1/afs/F",
                                                 "latex,db"));
}

TEST(ExperimentEngine, EffectiveSeedPreservesBaseForReplicaZero)
{
    // Replica 0 must run the workload's calibrated stream verbatim:
    // the paper's methodology is the SAME reference stream under
    // every policy.
    EXPECT_EQ(ExperimentEngine::effectiveSeed(0xaf5, 0), 0xaf5u);
    // Replicas get expanded, distinct, deterministic seeds.
    const std::uint64_t r1 = ExperimentEngine::effectiveSeed(0xaf5, 1);
    const std::uint64_t r2 = ExperimentEngine::effectiveSeed(0xaf5, 2);
    EXPECT_NE(r1, 0xaf5u);
    EXPECT_NE(r1, r2);
    EXPECT_EQ(r1, ExperimentEngine::effectiveSeed(0xaf5, 1));
}

TEST(ExperimentEngine, SecondsAgreeWithCycleCounter)
{
    std::vector<RunSpec> specs{aliasSpec("r", 300)};
    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(specs);
    ASSERT_TRUE(outcomes[0].ok);
    const RunResult &r = outcomes[0].result;
    EXPECT_GT(r.cycles, 0u);
    // seconds is derived from the SAME clock read as cycles — never
    // a separately sampled (potentially stale) snapshot.
    EXPECT_DOUBLE_EQ(r.seconds, double(r.cycles) /
                                    double(specs[0].machine.clockHz));
}

TEST(Replicas, MergeSumsStatsLikeASerialStatSet)
{
    // The merge must behave exactly like accumulating every replica's
    // counters into one StatSet: summed per name, union of names.
    RunResult a, b;
    a.workload = b.workload = "w";
    a.policy = b.policy = "F";
    a.cycles = 100;
    b.cycles = 50;
    a.seconds = 2.0;
    b.seconds = 1.0;
    a.oracleChecked = 10;
    b.oracleChecked = 4;
    a.oracleViolations = 1;
    b.oracleViolations = 2;
    a.stats = {{"dcache.hits", 7}, {"dcache.misses", 2}};
    b.stats = {{"dcache.hits", 3}, {"tlb.misses", 5}};
    a.traceTail = {"e1"};
    b.traceTail = {"e2", "e3"};

    StatSet reference;
    for (const RunResult *r : {&a, &b}) {
        for (const auto &[name, value] : r->stats)
            reference.counter(name) += value;
    }

    const RunResult m = mergeRunResults({a, b});
    EXPECT_EQ(m.workload, "w");
    EXPECT_EQ(m.cycles, 150u);
    EXPECT_DOUBLE_EQ(m.seconds, 3.0);
    EXPECT_EQ(m.oracleChecked, 14u);
    EXPECT_EQ(m.oracleViolations, 3u);
    EXPECT_EQ(m.stats, reference.snapshot());
    EXPECT_EQ(m.traceTail,
              (std::vector<std::string>{"e1", "e2", "e3"}));
}

TEST(Replicas, MergeEqualsManualSumOfSingleRuns)
{
    // runOne over N replicas must equal N classic runWorkload calls
    // folded by hand — the merge adds no work of its own.
    RunSpec spec = replicatedSpec("fleet", 200, 3);
    spec.seed = 0x5eed;

    std::vector<RunResult> singles;
    for (std::uint32_t k = 0; k < 3; ++k) {
        auto w = spec.make();
        w->reseed(ExperimentEngine::effectiveSeed(0x5eed, k));
        singles.push_back(runWorkload(*w, PolicyConfig::configF()));
    }
    const RunOutcome merged = ExperimentEngine::runOne(spec);
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(runResultToJson(mergeRunResults(singles)).dump(2),
              runResultToJson(merged.result).dump(2));
}

TEST(Replicas, ReplicaSeedsFollowTheEngineDerivation)
{
    // A 2-replica merged run covers exactly the work of replica 0 and
    // replica 1 run separately: seeds come from the same SplitMix64
    // expansion the engine uses for whole-run replicas.
    const RunOutcome merged =
        ExperimentEngine::runOne(replicatedSpec("pair", 180, 2));

    RunSpec r0 = replicatedSpec("r0", 180, 1);
    r0.replica = 0;
    RunSpec r1 = replicatedSpec("r1", 180, 1);
    r1.replica = 1;
    const RunOutcome o0 = ExperimentEngine::runOne(r0);
    const RunOutcome o1 = ExperimentEngine::runOne(r1);
    ASSERT_TRUE(merged.ok && o0.ok && o1.ok);

    const RunResult manual = mergeRunResults({o0.result, o1.result});
    EXPECT_EQ(runResultToJson(merged.result).dump(2),
              runResultToJson(manual).dump(2));
}

TEST(Replicas, OnlyMergedRunsCarryAReplicasField)
{
    // A single-replica artifact entry carries no "replicas" field; a
    // merged one records its replica count.
    const RunOutcome single =
        ExperimentEngine::runOne(replicatedSpec("single", 250, 1));
    ASSERT_TRUE(single.ok);
    EXPECT_EQ(outcomeToJson(single).find("replicas"), nullptr);

    const RunOutcome merged =
        ExperimentEngine::runOne(replicatedSpec("multi", 100, 2));
    ASSERT_TRUE(merged.ok);
    const JsonValue j = outcomeToJson(merged);
    ASSERT_NE(j.find("replicas"), nullptr);
    EXPECT_EQ(j.find("replicas")->asU64(), 2u);
}

TEST(RunResult, SumMatchingAnyCountsOverlappingCountersOnce)
{
    RunResult r;
    r.stats["dcache.write_backs"] = 5;
    r.stats["dcache0.write_backs"] = 3;
    r.stats["dcache1.write_backs"] = 4;
    r.stats["icache.write_backs"] = 100;

    // "dcache.write_backs" matches BOTH the exact pattern and the
    // prefix+suffix pattern; it must contribute once.
    EXPECT_EQ(r.writeBacks(), 12u);

    // The raw prefix+suffix helper is unchanged.
    EXPECT_EQ(r.sumMatching("dcache", ".write_backs"), 12u);

    // Duplicate patterns never double a counter either.
    EXPECT_EQ(r.sumMatchingAny({{.exact = "icache.write_backs",
                                 .prefix = "",
                                 .suffix = ""},
                                {.exact = "icache.write_backs",
                                 .prefix = "",
                                 .suffix = ""}}),
              100u);
}

TEST(JsonArtifact, RunResultRoundTrip)
{
    RunResult r;
    r.workload = "afs-bench";
    r.policy = "F (+will overwrite)";
    r.cycles = 123456789;
    r.seconds = double(r.cycles) / 50e6;
    r.oracleChecked = 42;
    r.oracleViolations = 0;
    r.stats["dcache.hits"] = 17;
    r.stats["pmap.d_page_flushes"] = 3;
    r.traceTail = {"ev1", "ev2"};

    const JsonValue j = runResultToJson(r);
    const RunResult back =
        runResultFromJson(JsonValue::parse(j.dump(2)));

    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.policy, r.policy);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_DOUBLE_EQ(back.seconds, r.seconds);
    EXPECT_EQ(back.oracleChecked, r.oracleChecked);
    EXPECT_EQ(back.oracleViolations, r.oracleViolations);
    EXPECT_EQ(back.stats, r.stats);
    EXPECT_EQ(back.traceTail, r.traceTail);
}

/** The message JsonValue::parse throws for @p text, or "" if it
 *  parses. */
std::string
parseError(const std::string &text)
{
    try {
        JsonValue::parse(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(JsonParse, NestingIsCappedAt256)
{
    auto arrays = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(parseError(arrays(256)), "");
    EXPECT_NE(parseError(arrays(257)).find("nesting too deep"),
              std::string::npos);

    // Objects count toward the same cap.
    auto objects = [](std::size_t depth) {
        std::string s;
        for (std::size_t i = 0; i < depth; ++i)
            s += "{\"k\":";
        return s + "0" + std::string(depth, '}');
    };
    EXPECT_EQ(parseError(objects(256)), "");
    EXPECT_NE(parseError(objects(257)).find("nesting too deep"),
              std::string::npos);

    // Far past the cap the parser still throws instead of running
    // out of stack.
    EXPECT_NE(parseError(std::string(2000000, '[')).find(
                  "nesting too deep"),
              std::string::npos);
}

TEST(JsonParse, UnicodeEscapeNeedsFourHexDigits)
{
    EXPECT_EQ(JsonValue::parse("{\"a\":\"\\u0041\"}")
                  .find("a")
                  ->asString(),
              "A");
    EXPECT_EQ(JsonValue::parse("\"\\u00E9\"").asString(),
              "\xc3\xa9");
    for (const char *bad : {"\"\\u00zz\"", "\"\\u 041\"",
                            "\"\\u-041\"", "\"\\u+041\"",
                            "\"\\u0x41\""}) {
        EXPECT_NE(parseError(bad).find("bad \\u escape"),
                  std::string::npos)
            << bad;
    }
    EXPECT_NE(parseError("\"\\u004\"").find("escape"),
              std::string::npos);
}

TEST(JsonArtifact, SerialAndParallelArtifactsAreEquivalent)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < 5; ++i)
        specs.push_back(aliasSpec("r" + std::to_string(i),
                                  200 * (5 - i), i % 2 == 0));
    // Replicated specs: --jobs independence covers merged runs too.
    specs.push_back(replicatedSpec("fleet0", 300, 4));
    specs.push_back(replicatedSpec("fleet1", 150, 3));

    ExperimentEngine engine;
    ExperimentEngine::Options par;
    par.jobs = 4;

    ArtifactMeta meta_serial;
    meta_serial.jobs = 1;
    meta_serial.wallSeconds = 0.25;
    ArtifactMeta meta_parallel;
    meta_parallel.jobs = 4;
    meta_parallel.wallSeconds = 0.75;

    const std::string a =
        renderArtifact(meta_serial, engine.run(specs));
    const std::string b =
        renderArtifact(meta_parallel, engine.run(specs, par));

    std::string why;
    EXPECT_TRUE(artifactsEquivalent(a, b, &why)) << why;

    // And a real difference IS reported.
    std::vector<RunOutcome> mutated = engine.run(specs);
    mutated[2].result.stats["dcache.hits"] += 1;
    const std::string c = renderArtifact(meta_serial, mutated);
    EXPECT_FALSE(artifactsEquivalent(a, c, &why));
    EXPECT_FALSE(why.empty());
}

} // anonymous namespace
} // namespace vic
