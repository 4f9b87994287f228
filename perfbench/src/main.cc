/**
 * @file
 * The benchmark program: runs one workload for a time budget and
 * prints its metrics. The last line of standard output is one JSON
 * object:
 *
 *   {"correct": bool, "attempted": N, "failed": N,
 *    "metrics": {name: {"value": x, "unit": u}, ...}}
 *
 * attempted counts oracle-checked transfers, failed counts oracle
 * violations plus every transfer of a run that did not complete, so
 * failed / attempted is the workload's fail ratio. Untraced runs
 * report the end-to-end metrics; traced runs (--trace 1) the
 * per-layer ones. Exit status 0 iff every correctness check held.
 *
 * usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--trace-out PATH]
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "experiment/experiment_engine.hh"
#include "metrics.hh"
#include "passes.hh"
#include "probes.hh"

namespace
{

using namespace perfbench;
using vic::JsonValue;
using vic::RunResult;

/** Seed used when --seed is not given: replica 0, the paper's
 *  calibrated streams. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Passes below this count are run even past the time budget, so
 *  every median has a few samples behind it. */
constexpr std::size_t kMinPasses = 3;

struct Args
{
    Workload workload = Workload::PaperUni;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "paper-uni|alias-fault|smp-coherence|sweep [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            const auto w = parseWorkload(val);
            if (!w)
                usage(("unknown workload " + val).c_str());
            a.workload = *w;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || val[0] == '-' || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/** The replica index a benchmark seed selects; seeds below 2^32 map to
 *  themselves. */
std::uint32_t
replicaOf(std::uint64_t seed)
{
    return std::uint32_t(seed ^ (seed >> 32));
}

// ----------------------------------------------------------------------
// Correctness gate
// ----------------------------------------------------------------------

struct Gate
{
    bool ok = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &why)
    {
        std::printf("CHECK FAILED: %s\n", why.c_str());
        ok = false;
    }

    /** Count a pass's transfers and failures; fail on any run that did
     *  not complete or saw a stale transfer, and on an empty sweep
     *  artifact. */
    void
    account(const PassRecord &pass)
    {
        if (pass.jobs > 0 && pass.artifactBytes == 0)
            fail("sweep artifact is empty");
        for (const RunRecord &run : pass.runs) {
            const vic::RunOutcome &o = run.outcome;
            attempted += o.result.oracleChecked;
            failed += o.result.oracleViolations;
            if (!o.ok) {
                failed += o.result.oracleChecked;
                fail(o.id + " did not complete: " + o.error);
            } else if (o.result.oracleViolations != 0) {
                fail(o.id + ": " +
                     std::to_string(o.result.oracleViolations) +
                     " oracle violations");
            }
        }
    }

    /** Every deterministic count of @p pass equals @p ref's. */
    void
    sameCounts(const PassRecord &ref, const PassRecord &pass,
               const std::string &what)
    {
        if (ref.runs.size() != pass.runs.size()) {
            fail(what + ": run count differs");
            return;
        }
        for (std::size_t i = 0; i < ref.runs.size(); ++i)
            sameResult(ref.runs[i].outcome, pass.runs[i].outcome, what);
    }

    void
    sameResult(const vic::RunOutcome &a, const vic::RunOutcome &b,
               const std::string &what)
    {
        const RunResult &x = a.result;
        const RunResult &y = b.result;
        if (a.id != b.id || a.effectiveSeed != b.effectiveSeed ||
            x.workload != y.workload || x.policy != y.policy ||
            x.cycles != y.cycles || x.oracleChecked != y.oracleChecked ||
            x.oracleViolations != y.oracleViolations || x.stats != y.stats)
            fail(what + ": counts of " + a.id + " differ");
    }
};

// ----------------------------------------------------------------------
// Pass-level measurements
// ----------------------------------------------------------------------

std::uint64_t
passSum(const PassRecord &p, std::uint64_t (*f)(const RunResult &))
{
    std::uint64_t sum = 0;
    for (const RunRecord &r : p.runs)
        sum += f(r.outcome.result);
    return sum;
}

std::uint64_t
passStat(const PassRecord &p, const std::string &name)
{
    std::uint64_t sum = 0;
    for (const RunRecord &r : p.runs)
        sum += r.outcome.result.stat(name);
    return sum;
}

/** Simulated work per reference second of one pass. */
double
refsPerSecond(const PassRecord &p)
{
    return double(passSum(p, simulatedRefs)) / p.referenceSeconds;
}

std::vector<double>
each(const std::vector<PassRecord> &passes,
     const std::function<double(const PassRecord &)> &f)
{
    std::vector<double> v;
    for (const PassRecord &p : passes)
        v.push_back(f(p));
    return v;
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

struct Metrics
{
    JsonValue obj = JsonValue::object();

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        JsonValue m = JsonValue::object();
        m.set("value", JsonValue::number(value));
        m.set("unit", JsonValue::str(unit));
        obj.set(name, std::move(m));
        std::printf("  %-34s %-16.10g %s\n", name.c_str(), value,
                    unit.c_str());
    }

    /** A per-pass series: reports its median, and prints the
     *  quartiles and sample count beside it. */
    void
    addSeries(const std::string &name, const std::vector<double> &values,
              const std::string &unit)
    {
        const Quartiles q = quartiles(values);
        add(name, median(values), unit);
        std::printf("  %-34s   q1 %.6g  q3 %.6g  spread %.4f  n=%zu\n", "",
                    q.q1, q.q3, q.spread(), values.size());
    }

    void
    addRatio(const std::string &name, const Ratio &r)
    {
        add(name, r.value(), "ratio");
        std::printf("  %-34s   = %.0f / %.0f\n", "", r.num, r.base);
    }
};

void
printSeeds(const Args &args, const std::vector<vic::RunSpec> &specs)
{
    std::printf("workload %s  seed %llu%s  replica %u\n",
                workloadName(args.workload), (unsigned long long)args.seed,
                args.seed == kDefaultSeed ? " (default)" : "",
                replicaOf(args.seed));
    if (args.workload == Workload::AliasFault)
        std::printf("  (alias-fault has no random stream: every seed "
                    "runs the same work)\n");
    for (const vic::RunSpec &s : specs) {
        std::printf("  run %-44s effective seed %llu\n", s.id.c_str(),
                    (unsigned long long)vic::ExperimentEngine::effectiveSeed(
                        s.seed, s.replica));
    }
}

/** Print the result line; the exit status. Every failure counted in
 *  gate.failed has already failed the gate. */
int
finish(Gate &gate, Metrics &metrics)
{
    if (gate.attempted == 0)
        gate.fail("no transfer was checked");
    std::printf("fail_ratio %llu / %llu\n", (unsigned long long)gate.failed,
                (unsigned long long)gate.attempted);
    const bool correct = gate.ok;
    JsonValue out = JsonValue::object();
    out.set("correct", JsonValue::boolean(correct));
    out.set("attempted", JsonValue::number(gate.attempted));
    out.set("failed", JsonValue::number(gate.failed));
    out.set("metrics", std::move(metrics.obj));
    std::printf("%s\n", out.dump().c_str());
    return correct ? 0 : 1;
}

/** The raw host figures behind the reference-second metrics. */
void
printHostSpeed(const std::vector<PassRecord> &passes)
{
    std::printf("host: pass %.6g s, reference chunk %.6g ms (median of %zu "
                "passes; %.6g ms is nominal)\n",
                median(each(passes,
                            [](const PassRecord &p) { return p.hostSeconds; })),
                median(each(passes,
                            [](const PassRecord &p) {
                                return p.chunkHostSeconds * 1e3 /
                                       double(p.chunks);
                            })),
                passes.size(), HostSpeedReference::kChunkReferenceSeconds * 1e3);
}

/** One untimed pass before any timed one: it faults in the heap the
 *  machines reuse and warms the host caches, and it is the reference
 *  every later pass must reproduce count for count. */
PassRecord
warmUp(const Args &args, const std::vector<vic::RunSpec> &specs,
       HostSpeedPool &speed, Gate &gate)
{
    PassRecord warm = runPass(args.workload, specs, speed, nullptr, 0);
    gate.account(warm);
    return warm;
}

// ----------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ----------------------------------------------------------------------

int
measure(const Args &args, const std::vector<vic::RunSpec> &specs,
        HostSpeedPool &speed)
{
    Gate gate;
    const PassRecord warm = warmUp(args, specs, speed, gate);
    std::vector<PassRecord> passes;
    const auto t0 = Clock::now();
    while (passes.size() < kMinPasses ||
           secondsBetween(t0, Clock::now()) < args.seconds) {
        passes.push_back(runPass(args.workload, specs, speed, nullptr, 0));
    }
    for (const PassRecord &p : passes) {
        gate.account(p);
        gate.sameCounts(warm, p, "repeated pass");
    }
    printHostSpeed(passes);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::printf("passes %zu\n", passes.size());
    Metrics m;
    m.addSeries("refs_per_s", each(passes, refsPerSecond), "refs/s");
    m.addSeries("wall_s", each(passes, [](const PassRecord &p) {
                    return p.referenceSeconds;
                }),
                "s");
    m.addSeries("setup_s", each(passes, [](const PassRecord &p) {
                    return p.setupReferenceSeconds;
                }),
                "s");
    // The host-speed buffers are resident from start to end.
    m.add("peak_rss_mb",
          (double(usage.ru_maxrss) * 1024.0 - double(speed.bytes())) /
              (1024.0 * 1024.0),
          "MiB");
    m.add("sim_cycles",
          double(passSum(warm, [](const RunResult &r) {
              return std::uint64_t(r.cycles);
          })),
          "cycles");
    m.add("sim_cache_ops", double(passSum(warm, tableOneCacheOps)), "ops");
    std::printf("  refs per pass %llu\n",
                (unsigned long long)passSum(warm, simulatedRefs));
    return finish(gate, m);
}

// ----------------------------------------------------------------------
// Traced run: the per-layer metrics
// ----------------------------------------------------------------------

void
layerCounts(Metrics &m, const PassRecord &p)
{
    m.add("machine.cpu_refs", double(passSum(p, cpuRefs)), "count");

    const double tlb_hits = double(passStat(p, "tlb.hits"));
    const double tlb_misses = double(passStat(p, "tlb.misses"));
    m.add("tlb.misses", tlb_misses, "count");
    m.add("tlb.lookups", tlb_hits + tlb_misses, "count");
    m.addRatio("tlb.hit_ratio", {tlb_hits, tlb_hits + tlb_misses});

    std::uint64_t walks = 0;
    for (const RunRecord &r : p.runs)
        walks += r.pageTableWalks;
    m.add("mmu.walks", double(walks), "count");

    const auto caches = [&](const char *suffix) {
        std::uint64_t sum = 0;
        for (const RunRecord &r : p.runs)
            sum += sumAllCaches(r.outcome.result, suffix);
        return double(sum);
    };
    m.add("cache.hits", caches(".hits"), "count");
    m.add("cache.misses", caches(".misses"), "count");
    m.add("cache.write_backs", caches(".write_backs"), "count");
    const Ratio present{double(passSum(p, pageOpPresentLines)),
                        double(passSum(p, pageOpLines))};
    m.add("cache.page_op_lines", present.base, "count");
    m.addRatio("cache.page_op_present_ratio", present);

    Ratio snoop_hits;
    for (const RunRecord &r : p.runs) {
        const RunResult &res = r.outcome.result;
        const std::uint32_t peers = r.busPorts > 0 ? r.busPorts - 1 : 0;
        snoop_hits += {double(res.stat("bus.interventions") +
                              res.stat("bus.invalidations")),
                       double(busTransactions(res)) * peers};
    }
    m.add("cache.bus_transactions", double(passSum(p, busTransactions)),
          "count");
    m.add("cache.bus_interventions", double(passStat(p, "bus.interventions")),
          "count");
    m.add("cache.bus_invalidations", double(passStat(p, "bus.invalidations")),
          "count");
    m.add("cache.synonym_snoops", caches(".synonym_snoops"), "count");
    m.add("cache.snoop_probes", snoop_hits.base, "count");
    m.addRatio("cache.snoop_hit_ratio", snoop_hits);

    m.add("core.page_flushes", double(passStat(p, "pmap.d_page_flushes")),
          "count");
    m.add("core.page_purges",
          double(passStat(p, "pmap.d_page_purges") +
                 passStat(p, "pmap.i_page_purges")),
          "count");
    m.add("core.consistency_faults",
          double(passStat(p, "os.consistency_faults")), "count");
    m.add("core.modified_bit_syncs",
          double(passStat(p, "pmap.modified_bit_syncs")), "count");

    m.add("os.mapping_faults", double(passStat(p, "os.mapping_faults")),
          "count");
    m.add("os.syscalls", double(passStat(p, "os.syscalls")), "count");
    m.add("os.pages_prepared",
          double(passStat(p, "os.pages_zeroed") +
                 passStat(p, "os.pages_copied")),
          "count");
    const double bc_hits = double(passStat(p, "bcache.hits"));
    const double bc_lookups = bc_hits + double(passStat(p, "bcache.misses"));
    m.add("os.bcache_lookups", bc_lookups, "count");
    m.addRatio("os.bcache_hit_ratio", {bc_hits, bc_lookups});

    m.add("dma.words_moved", double(passStat(p, "dma.words_moved")), "count");

    const double colour_hits = double(passStat(p, "os.freelist.colour_hits"));
    const double colour_allocs =
        colour_hits + double(passStat(p, "os.freelist.colour_misses"));
    m.add("mem.colour_allocs", colour_allocs, "count");
    m.addRatio("mem.colour_hit_ratio", {colour_hits, colour_allocs});

    std::uint64_t checked = 0;
    for (const RunRecord &r : p.runs)
        checked += r.outcome.result.oracleChecked;
    m.add("oracle.checked", double(checked), "count");
}

/** Engine-level times of a sweep pass (zero for other workloads). */
struct EngineTimes
{
    double runSeconds = 0;   ///< sum of per-run host seconds
    double batchSeconds = 0; ///< batch wall time, artifact excluded
    double busy = 0;         ///< runSeconds / (jobs x batchSeconds)
    double overhead = 0;     ///< batch wall beyond runSeconds / jobs

    explicit EngineTimes(const PassRecord &p)
    {
        if (p.jobs == 0)
            return;
        for (const RunRecord &r : p.runs)
            runSeconds += p.reference(r.outcome.wallSeconds);
        batchSeconds = p.reference(p.hostSeconds - p.artifactHostSeconds);
        busy = runSeconds / (p.jobs * batchSeconds);
        overhead = std::max(0.0, batchSeconds - runSeconds / p.jobs);
    }
};

int
traceRun(const Args &args, const std::vector<vic::RunSpec> &specs,
         HostSpeedPool &speed)
{
    Gate gate;
    const PassRecord warm = warmUp(args, specs, speed, gate);

    // Untraced and traced passes alternate, so host drift hits both.
    SpanRecorder spans;
    std::vector<PassRecord> plain;
    std::vector<PassRecord> traced;
    const auto t0 = Clock::now();
    while (traced.size() < 2 ||
           secondsBetween(t0, Clock::now()) < args.seconds) {
        plain.push_back(runPass(args.workload, specs, speed, nullptr, 0));
        traced.push_back(runPass(args.workload, specs, speed, &spans,
                                 std::uint32_t(traced.size() + 1)));
    }
    for (const PassRecord &p : plain) {
        gate.account(p);
        gate.sameCounts(warm, p, "repeated pass");
    }
    for (const PassRecord &p : traced) {
        gate.account(p);
        gate.sameCounts(warm, p, "traced pass");
    }
    printHostSpeed(plain);
    // The benchmark's harness must do exactly what the engine does.
    if (args.workload != Workload::Sweep) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            gate.sameResult(warm.runs[i].outcome,
                            vic::ExperimentEngine::runOne(specs[i]),
                            "engine reference run");
        }
    }

    std::printf("passes %zu untraced + %zu traced\n", plain.size(),
                traced.size());
    Metrics m;
    layerCounts(m, warm);

    std::vector<double> oracle_s;
    std::vector<double> workload_self_s;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const PassRecord &p = traced[i];
        const double o = p.reference(p.oracleHostSeconds);
        oracle_s.push_back(o);
        workload_self_s.push_back(
            p.reference(spans.total("workload", std::uint32_t(i + 1))) - o);
    }
    m.addSeries("oracle.self_s", oracle_s, "s");
    m.addSeries("workload.self_s", workload_self_s, "s");

    m.addSeries("experiment.run_s",
                each(plain, [](const PassRecord &p) {
                    return EngineTimes(p).runSeconds;
                }),
                "s");
    m.addSeries("experiment.engine_overhead_s",
                each(plain, [](const PassRecord &p) {
                    return EngineTimes(p).overhead;
                }),
                "s");
    m.addSeries("experiment.worker_busy_ratio",
                each(plain, [](const PassRecord &p) {
                    return EngineTimes(p).busy;
                }),
                "ratio");
    if (args.workload == Workload::Sweep) {
        std::printf("  %-34s   jobs %u, batch %.6g s (median)\n", "",
                    warm.jobs, median(each(plain, [](const PassRecord &p) {
                        return EngineTimes(p).batchSeconds;
                    })));
    }
    m.addSeries(
        "experiment.artifact_s",
        each(plain, [](const PassRecord &p) {
            return p.reference(p.artifactHostSeconds);
        }),
        "s");

    const double plain_rate = median(each(plain, refsPerSecond));
    const double traced_rate = median(each(traced, refsPerSecond));
    m.addRatio("trace.overhead_ratio", {traced_rate, plain_rate});

    ProbeShape shape;
    shape.machine = probeMachine(args.workload);
    shape.pagePresentRatio =
        Ratio{double(passSum(warm, pageOpPresentLines)),
              double(passSum(warm, pageOpLines))}
            .value();
    for (const auto &[name, ns] : runProbes(shape))
        m.add(name, ns, "ns");

    if (!args.traceOut.empty()) {
        JsonValue doc = JsonValue::object();
        doc.set("workload", JsonValue::str(workloadName(args.workload)));
        doc.set("seed", JsonValue::number(args.seed));
        doc.set("spans", spans.toJson());
        std::ofstream f(args.traceOut);
        f << doc.dump(1) << "\n";
        if (!f)
            gate.fail("cannot write " + args.traceOut);
    }
    return finish(gate, m);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<vic::RunSpec> specs =
        passSpecs(args.workload, replicaOf(args.seed));
    printSeeds(args, specs);
    HostSpeedPool speed(args.workload == Workload::Sweep ? sweepJobs() : 1);
    return args.trace ? traceRun(args, specs, speed)
                      : measure(args, specs, speed);
}
