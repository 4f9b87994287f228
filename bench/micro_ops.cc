/**
 * @file
 * Experiment M1 — wall-clock microbenchmarks (google-benchmark) of the
 * primitives whose costs the paper's arguments rest on:
 *
 *  - cache hit/miss/flush/purge paths of the simulator,
 *  - coherence-bus snoops that miss or hit in the peer cache,
 *  - the CacheControl bookkeeping (bit-vector ops, protection walk),
 *  - consistency-fault round trips,
 *  - TLB translation,
 *  - ranged CPU loads and page copies (line runs).
 *
 * These measure the SIMULATOR's real speed (host nanoseconds), which
 * is what bounds experiment turnaround; the simulated-cycle costs are
 * printed by the table benches.
 */

#include <benchmark/benchmark.h>

#include "cache/coherence.hh"
#include "common/arena.hh"
#include "common/bitvector.hh"
#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"
#include "machine/cpu.hh"
#include "core/spec_executor.hh"
#include "machine/machine.hh"
#include "mmu/page_table.hh"

#include <unordered_map>

namespace
{

using namespace vic;

void
BM_CacheReadHit(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    Cache &c = m.dcache();
    c.read(VirtAddr(0), PhysAddr(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(c.read(VirtAddr(0), PhysAddr(0)));
}
BENCHMARK(BM_CacheReadHit);

void
BM_CacheReadMissConflict(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    Cache &c = m.dcache();
    bool flip = false;
    for (auto _ : state) {
        // Two physical lines fighting over one set: every read misses.
        benchmark::DoNotOptimize(
            c.read(VirtAddr(0), PhysAddr(flip ? 0 : 64 * 1024)));
        flip = !flip;
    }
}
BENCHMARK(BM_CacheReadMissConflict);

void
BM_CacheFlushAbsentLine(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            m.dcache().flushLine(VirtAddr(4096), PhysAddr(4096)));
}
BENCHMARK(BM_CacheFlushAbsentLine);

void
BM_CachePurgePage(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            m.dcache().purgePage(VirtAddr(0), PhysAddr(0)));
}
BENCHMARK(BM_CachePurgePage);

void
BM_CacheFlushPageSparse(benchmark::State &state)
{
    // The fault-bound shape: a store dirties one line of the page,
    // then the page is flushed — 1 present line of 128.
    Machine m{MachineParams::hp720()};
    Cache &c = m.dcache();
    std::uint32_t v = 0;
    for (auto _ : state) {
        c.write(VirtAddr(2048), PhysAddr(2048), ++v);
        benchmark::DoNotOptimize(c.flushPage(VirtAddr(0), PhysAddr(0)));
    }
}
BENCHMARK(BM_CacheFlushPageSparse);

/** A 2-CPU MESI machine: bus reads from CPU 0 snoop CPU 1's caches. */
MachineParams
twoCpuMesi()
{
    MachineParams p = MachineParams::hp720();
    p.numCpus = 2;
    p.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    return p;
}

void
BM_BusSnoopMiss(benchmark::State &state)
{
    // The common case: no peer holds the line.
    Machine m{twoCpuMesi()};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.coherenceBus()->busRead(&m.dcache(0), PhysAddr(4096)));
    }
}
BENCHMARK(BM_BusSnoopMiss);

void
BM_BusSnoopHit(benchmark::State &state)
{
    // The peer holds the line (Shared after the first snoop).
    Machine m{twoCpuMesi()};
    m.dcache(1).read(VirtAddr(4096), PhysAddr(4096));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.coherenceBus()->busRead(&m.dcache(0), PhysAddr(4096)));
    }
}
BENCHMARK(BM_BusSnoopHit);

void
BM_BitVectorStaleUpdate(benchmark::State &state)
{
    // The hot bookkeeping of Figure 1's fourth stanza: or-and-clear of
    // the mapped/stale vectors.
    BitVector mapped(std::uint32_t(state.range(0)));
    BitVector stale(std::uint32_t(state.range(0)));
    mapped.set(3);
    for (auto _ : state) {
        stale.orWith(mapped);
        mapped.clearAll();
        mapped.set(3);
        benchmark::DoNotOptimize(stale.count());
    }
}
BENCHMARK(BM_BitVectorStaleUpdate)->Arg(16)->Arg(64)->Arg(256);

void
BM_CacheTagProbeHit(benchmark::State &state)
{
    // The SoA tag probe in isolation: a 2-way geometry so findWay()
    // walks more than one way-slot per probe. Layout regressions in
    // the column store (cache.hh) surface here before any workload
    // notices.
    MachineParams p = MachineParams::hp720();
    p.dcacheWays = 2;
    Machine m{p};
    Cache &c = m.dcache();
    c.read(VirtAddr(0), PhysAddr(0));
    c.read(VirtAddr(64 * 1024), PhysAddr(64 * 1024));
    bool flip = false;
    for (auto _ : state) {
        // Both lines stay resident in the two ways: every read is a
        // pure probe-hit, alternating the matching way.
        benchmark::DoNotOptimize(
            flip ? c.read(VirtAddr(64 * 1024), PhysAddr(64 * 1024))
                 : c.read(VirtAddr(0), PhysAddr(0)));
        flip = !flip;
    }
}
BENCHMARK(BM_CacheTagProbeHit);

void
BM_ArenaAllocRelease(benchmark::State &state)
{
    // Steady-state arena churn: after warm-up every alloc() pops the
    // slot the previous release() pushed — the page-table's
    // enter/remove pattern under mapping turnover.
    struct Rec
    {
        std::uint64_t a = 0, b = 0;
    };
    Arena<Rec> arena;
    for (auto _ : state) {
        Rec *r = arena.alloc();
        benchmark::DoNotOptimize(r);
        arena.release(r);
    }
}
BENCHMARK(BM_ArenaAllocRelease);

void
BM_PageTableEnterRemove(benchmark::State &state)
{
    // One mapping-turnover round trip through the arena-backed
    // separate-chaining table (enter + remove on a warm table).
    PageTable pt(4096);
    for (std::uint32_t i = 0; i < 64; ++i)
        pt.enter(SpaceVa(1, VirtAddr(i * 4096)), i,
                 Protection::readWrite());
    for (auto _ : state) {
        pt.enter(SpaceVa(2, VirtAddr(0x10000)), 99,
                 Protection::readWrite());
        benchmark::DoNotOptimize(pt.remove(SpaceVa(2, VirtAddr(0x10000))));
    }
}
BENCHMARK(BM_PageTableEnterRemove);

void
BM_TlbTranslateHit(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    m.pageTable().enter(SpaceVa(1, VirtAddr(0x1000)), 2,
                        Protection::readWrite());
    m.tlb().translate(SpaceVa(1, VirtAddr(0x1000)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.tlb().translate(SpaceVa(1, VirtAddr(0x1000))));
    }
}
BENCHMARK(BM_TlbTranslateHit);

void
BM_CpuStoreHit(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    LazyPmap pmap(m, PolicyConfig::configF());
    Cpu cpu(m);
    cpu.setSpace(1);
    cpu.setFaultHandler([&](const Fault &f) {
        return pmap.resolveConsistencyFault(f.address, f.access);
    });
    pmap.enter(SpaceVa(1, VirtAddr(0x1000)), 2, Protection::all(),
               AccessType::Store, {});
    cpu.store(VirtAddr(0x1000), 1);
    std::uint32_t v = 0;
    for (auto _ : state)
        cpu.store(VirtAddr(0x1000), ++v);
}
BENCHMARK(BM_CpuStoreHit);

/** A CPU on an hp720 machine with pages mapped read-write in space 1
 *  at 0x100000 (frame 2), 0x101000 (frame 3) and 0x110000 (frame 4):
 *  the first two differ in d-cache colour, the first and third share
 *  one (the cache spans 16 pages). */
struct RangeRig
{
    RangeRig() : cpu(m)
    {
        cpu.setSpace(1);
        m.pageTable().enter(SpaceVa(1, VirtAddr(0x100000)), 2,
                            Protection::readWrite());
        m.pageTable().enter(SpaceVa(1, VirtAddr(0x101000)), 3,
                            Protection::readWrite());
        m.pageTable().enter(SpaceVa(1, VirtAddr(0x110000)), 4,
                            Protection::readWrite());
    }

    Machine m{MachineParams::hp720()};
    Cpu cpu;
    const std::uint32_t pageWords = m.pageBytes() / 4;
};

void
BM_CpuLoadRangeHit(benchmark::State &state)
{
    // A page of loads, every line present.
    RangeRig r;
    r.cpu.loadRange(VirtAddr(0x100000), r.pageWords, 4);
    for (auto _ : state)
        r.cpu.loadRange(VirtAddr(0x100000), r.pageWords, 4);
    state.SetItemsProcessed(state.iterations() * r.pageWords);
}
BENCHMARK(BM_CpuLoadRangeHit);

void
BM_CpuCopyRangeHit(benchmark::State &state)
{
    // A page copy between windows of different colours, both present.
    RangeRig r;
    r.cpu.copyRange(VirtAddr(0x101000), VirtAddr(0x100000), r.pageWords);
    for (auto _ : state) {
        r.cpu.copyRange(VirtAddr(0x101000), VirtAddr(0x100000),
                        r.pageWords);
    }
    state.SetItemsProcessed(state.iterations() * r.pageWords);
}
BENCHMARK(BM_CpuCopyRangeHit);

void
BM_CpuCopyRangeConflict(benchmark::State &state)
{
    // A page copy between same-colour windows: every source line and
    // destination line fight over one direct-mapped set.
    RangeRig r;
    for (auto _ : state) {
        r.cpu.copyRange(VirtAddr(0x110000), VirtAddr(0x100000),
                        r.pageWords);
    }
    state.SetItemsProcessed(state.iterations() * r.pageWords);
}
BENCHMARK(BM_CpuCopyRangeConflict);

void
BM_ConsistencyFaultRoundTrip(benchmark::State &state)
{
    // The full cost of one alias ping-pong step: trap + CacheControl
    // (flush + purge + protection walk) + retry.
    Machine m{MachineParams::hp720()};
    LazyPmap pmap(m, PolicyConfig::configF());
    Cpu cpu(m);
    cpu.setSpace(1);
    cpu.setFaultHandler([&](const Fault &f) {
        return pmap.resolveConsistencyFault(f.address, f.access);
    });
    pmap.enter(SpaceVa(1, VirtAddr(0x1000)), 2, Protection::all(),
               AccessType::Store, {});
    pmap.enter(SpaceVa(1, VirtAddr(0x2000)), 2, Protection::all(),
               AccessType::Load, {});
    bool flip = false;
    for (auto _ : state) {
        cpu.store(flip ? VirtAddr(0x1000) : VirtAddr(0x2000), 1);
        flip = !flip;
    }
}
BENCHMARK(BM_ConsistencyFaultRoundTrip);

void
BM_CacheControlDmaRead(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    LazyPmap pmap(m, PolicyConfig::configF());
    for (auto _ : state)
        pmap.dmaRead(2, true);
}
BENCHMARK(BM_CacheControlDmaRead);

void
BM_ClassicBreakAliasRoundTrip(benchmark::State &state)
{
    Machine m{MachineParams::hp720()};
    ClassicPmap pmap(m, PolicyConfig::configA());
    Cpu cpu(m);
    cpu.setSpace(1);
    std::unordered_map<std::uint64_t, bool> known;
    cpu.setFaultHandler([&](const Fault &f) {
        if (pmap.resolveConsistencyFault(f.address, f.access))
            return true;
        if (f.type == FaultType::Unmapped) {
            pmap.enter(f.address, 2, Protection::all(), f.access, {});
            return true;
        }
        return false;
    });
    pmap.enter(SpaceVa(1, VirtAddr(0x1000)), 2, Protection::all(),
               AccessType::Store, {});
    pmap.enter(SpaceVa(1, VirtAddr(0x2000)), 2, Protection::all(),
               AccessType::Load, {});
    bool flip = false;
    for (auto _ : state) {
        cpu.store(flip ? VirtAddr(0x1000) : VirtAddr(0x2000), 1);
        flip = !flip;
    }
}
BENCHMARK(BM_ClassicBreakAliasRoundTrip);

void
BM_SpecExecutorApply(benchmark::State &state)
{
    SpecExecutor spec(16);
    int i = 0;
    for (auto _ : state) {
        spec.apply(i % 2 ? MemOp::CpuWrite : MemOp::CpuRead,
                   CachePageId(i % 16));
        ++i;
    }
}
BENCHMARK(BM_SpecExecutorApply);

void
BM_StateDecode(benchmark::State &state)
{
    CacheStateVector v(64);
    v.mapped.set(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(v.decode(3));
}
BENCHMARK(BM_StateDecode);

} // anonymous namespace

BENCHMARK_MAIN();
