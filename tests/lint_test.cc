/**
 * @file
 * The static analyzer, tested three ways:
 *
 *  - FIXTURES: each pass runs over a seeded mini-tree under
 *    tests/lint_fixtures/ and must catch its planted violation with
 *    the right rule id at the right line;
 *  - CLEAN TREE: the real repo (VIC_LINT_SOURCE_ROOT) must produce
 *    zero diagnostics and hold no inline suppression;
 *  - REPORT FORMATS: the JSON report round-trips through its reader
 *    and the SARIF document has the shape CI annotators expect.
 */

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "analysis/linter.hh"
#include "analysis/sarif.hh"

namespace vic::analysis
{
namespace
{

std::string
fixtureRoot(const char *name)
{
    return std::string(VIC_LINT_FIXTURE_ROOT) + "/" + name;
}

/** True when the report holds a diagnostic with @p rule in @p file
 *  at @p line (0 = any line). */
bool
hasDiag(const LintReport &r, const std::string &rule,
        const std::string &file, std::uint32_t line = 0)
{
    for (const Diagnostic &d : r.diagnostics) {
        if (d.rule == rule && d.file == file &&
            (line == 0 || d.line == line))
            return true;
    }
    return false;
}

std::size_t
countRule(const LintReport &r, const std::string &rule)
{
    std::size_t n = 0;
    for (const Diagnostic &d : r.diagnostics)
        n += d.rule == rule ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Fixtures: one planted violation per pass
// ---------------------------------------------------------------------

TEST(LintFixtures, DeterminismCatchesEveryRule)
{
    const LintReport r =
        runLint(fixtureRoot("determinism"), {"determinism"});
    const std::string f = "src/mc/bad_clock.cc";
    EXPECT_TRUE(hasDiag(r, "det-wallclock", f, 15));  // system_clock
    EXPECT_TRUE(hasDiag(r, "det-wallclock", f, 17));  // C time()
    EXPECT_TRUE(hasDiag(r, "det-entropy", f, 23));    // random_device
    EXPECT_TRUE(hasDiag(r, "det-entropy", f, 24));    // rand()
    EXPECT_TRUE(hasDiag(r, "det-std-random", f, 30)); // mt19937
    EXPECT_TRUE(hasDiag(r, "det-std-random", f, 31)); // distribution
    EXPECT_TRUE(hasDiag(r, "det-unordered", f, 35));  // unordered_map

    // Token-awareness: the comment on line 9 and the string literal
    // on line 10 mention banned names and must NOT be flagged.
    for (const Diagnostic &d : r.diagnostics) {
        EXPECT_NE(d.line, 9u) << d.render();
        EXPECT_NE(d.line, 10u) << d.render();
    }
    EXPECT_EQ(r.diagnostics.size(), 7u);
}

TEST(LintFixtures, LayeringCatchesUpwardInclude)
{
    const LintReport r =
        runLint(fixtureRoot("layering"), {"layering"});
    EXPECT_TRUE(
        hasDiag(r, "layer-cycle", "src/cache/bad_layer.cc", 5));
    // The legal downward include on line 4 must not be flagged.
    EXPECT_EQ(countRule(r, "layer-cycle"), 1u);
}

TEST(LintFixtures, SuppressionHygiene)
{
    const LintReport r =
        runLint(fixtureRoot("suppression"), {"determinism"});
    const std::string f = "src/mc/sup.cc";

    // The documented allow() on line 9 silences line 10's
    // det-unordered and is marked used.
    EXPECT_FALSE(hasDiag(r, "det-unordered", f, 10));
    bool found_used = false;
    for (const Suppression &s : r.suppressions)
        found_used |= s.file == f && s.commentLine == 9 && s.used;
    EXPECT_TRUE(found_used);

    // The reason-less allow() on line 12 is itself a diagnostic and
    // suppresses nothing: line 13 still fires.
    EXPECT_TRUE(hasDiag(r, "suppress-undocumented", f, 12));
    EXPECT_TRUE(hasDiag(r, "det-unordered", f, 13));

    // The allow() on line 15 matches no diagnostic.
    EXPECT_TRUE(hasDiag(r, "suppress-unused", f, 15));
}

// ---------------------------------------------------------------------
// The real tree: clean, with no suppression
// ---------------------------------------------------------------------

TEST(LintCleanTree, ZeroDiagnosticsAllPasses)
{
    const LintReport r = runLint(VIC_LINT_SOURCE_ROOT, {});
    ASSERT_GT(r.filesScanned, 100u);  // sanity: found the real tree
    EXPECT_EQ(r.passesRun.size(), 2u);
    for (const Diagnostic &d : r.diagnostics)
        ADD_FAILURE() << d.render();
    // The tree needs no inline suppression: the one it had, on the
    // va/pa indexing channel, is now the IndexAddr type.
    for (const Suppression &s : r.suppressions)
        ADD_FAILURE() << s.file << ":" << s.commentLine << " " << s.rule;
}

TEST(LintCleanTree, JsonReportShape)
{
    const LintReport r =
        runLint(VIC_LINT_SOURCE_ROOT, {"layering"});
    const JsonValue doc = r.toJson();
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "vic-lint-report-v3");
    EXPECT_TRUE(doc.find("clean")->asBool());
    EXPECT_EQ(doc.find("files_scanned")->asU64(), r.filesScanned);
    EXPECT_EQ(doc.find("diagnostics")->items().size(), 0u);
    // v3 dropped v2's per-pass effort counters.
    EXPECT_EQ(doc.find("pass_stats"), nullptr);
    // Determinism: serialising twice is byte-identical.
    EXPECT_EQ(doc.dump(2), r.toJson().dump(2));
}

TEST(LintCleanTree, ByteIdenticalAcrossRuns)
{
    // The acceptance bar for every vic artifact: two independent
    // runs over the same tree serialise byte-identically — JSON and
    // SARIF both.
    const LintReport a = runLint(VIC_LINT_SOURCE_ROOT, {});
    const LintReport b = runLint(VIC_LINT_SOURCE_ROOT, {});
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
    EXPECT_EQ(sarifReport(a).dump(2), sarifReport(b).dump(2));
}

// ---------------------------------------------------------------------
// Report round-trips: v3 writer and reader, SARIF shape
// ---------------------------------------------------------------------

TEST(LintReportFormats, V3RoundTripAndV2Rejected)
{
    const LintReport r =
        runLint(fixtureRoot("determinism"), {"determinism"});
    ASSERT_EQ(r.diagnostics.size(), 7u);

    // v3 round trip through serialise -> parse -> fromJson.
    const JsonValue doc =
        JsonValue::parse(r.toJson().dump(2));
    const LintReport back = LintReport::fromJson(doc);
    ASSERT_EQ(back.diagnostics.size(), r.diagnostics.size());
    EXPECT_EQ(back.diagnostics[0].rule, r.diagnostics[0].rule);
    EXPECT_EQ(back.diagnostics[0].file, r.diagnostics[0].file);
    EXPECT_EQ(back.diagnostics[0].line, r.diagnostics[0].line);
    EXPECT_EQ(back.filesScanned, r.filesScanned);
    EXPECT_EQ(back.passesRun, r.passesRun);

    // v1 and v2 are no longer written, so they are rejected like any
    // other unknown schema.
    for (const char *old : {"vic-lint-report-v1", "vic-lint-report-v2"}) {
        JsonValue doc_old = JsonValue::parse(r.toJson().dump(2));
        doc_old.set("schema", JsonValue::str(old));
        EXPECT_THROW(LintReport::fromJson(doc_old), std::runtime_error)
            << old;
    }

    // Unknown schemas are rejected, not misread.
    JsonValue bogus = JsonValue::object();
    bogus.set("schema", JsonValue::str("vic-lint-report-v99"));
    EXPECT_THROW(LintReport::fromJson(bogus), std::runtime_error);
}

TEST(LintReportFormats, SarifShape)
{
    const LintReport r =
        runLint(fixtureRoot("determinism"), {"determinism"});
    const JsonValue doc = sarifReport(r);

    EXPECT_EQ(doc.find("version")->asString(), "2.1.0");
    ASSERT_NE(doc.find("runs"), nullptr);
    ASSERT_EQ(doc.find("runs")->items().size(), 1u);
    const JsonValue &run = doc.find("runs")->items()[0];

    const JsonValue &driver =
        *run.find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->asString(), "vic_lint");
    // Rules are sorted by id and cover the pass's families plus the
    // suppression-hygiene pair.
    const auto &rules = driver.find("rules")->items();
    ASSERT_GE(rules.size(), 4u);
    std::vector<std::string> ids;
    for (const JsonValue &rule : rules)
        ids.push_back(rule.find("id")->asString());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_NE(std::find(ids.begin(), ids.end(), "det-wallclock"),
              ids.end());

    // One result per diagnostic, each with a physical location
    // under the SRCROOT base.
    const auto &results = run.find("results")->items();
    ASSERT_EQ(results.size(), r.diagnostics.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JsonValue &res = results[i];
        EXPECT_EQ(res.find("ruleId")->asString(),
                  r.diagnostics[i].rule);
        EXPECT_EQ(res.find("level")->asString(), "warning");
        const JsonValue &phys =
            *res.find("locations")->items()[0].find(
                "physicalLocation");
        EXPECT_EQ(phys.find("artifactLocation")
                      ->find("uri")
                      ->asString(),
                  r.diagnostics[i].file);
        EXPECT_EQ(phys.find("artifactLocation")
                      ->find("uriBaseId")
                      ->asString(),
                  "SRCROOT");
        EXPECT_EQ(phys.find("region")->find("startLine")->asU64(),
                  r.diagnostics[i].line);
    }
}

} // anonymous namespace
} // namespace vic::analysis
