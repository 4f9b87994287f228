/**
 * @file
 * Experiment M1 — wall-clock microbenchmarks (google-benchmark) of the
 * primitives whose costs the paper's arguments rest on:
 *
 *  - cache hit/miss/flush/purge paths of the simulator,
 *  - coherence-bus snoops that miss or hit in the peer cache,
 *  - the CacheControl bookkeeping (colour-mask ops, protection walk),
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
#include "common/colour_mask.hh"
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

void
BM_FlushPageOneResident(benchmark::State &state)
{
    // The alias-fault page op in a warm cache: 1 of the page's 128
    // lines is present (dirty), and every other set the page indexes
    // holds a line of another frame, so a scan of the page's lines
    // would tag-compare all 128 while the resident-line walk visits
    // the one.
    Machine m{MachineParams::hp720()};
    Cache &c = m.dcache();
    const CacheGeometry &g = c.geometry();
    const std::uint64_t span = g.setSpanBytes();
    for (std::uint64_t a = 0; a < g.pageBytes(); a += g.lineBytes())
        c.read(VirtAddr(a), PhysAddr(span + a));
    std::uint32_t v = 0;
    for (auto _ : state) {
        c.write(VirtAddr(2048), PhysAddr(2048), ++v);
        benchmark::DoNotOptimize(c.flushPage(VirtAddr(0), PhysAddr(0)));
    }
}
BENCHMARK(BM_FlushPageOneResident);

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
BM_ColourMaskStaleUpdate(benchmark::State &state)
{
    // The hot bookkeeping of Figure 1's fourth stanza: or-and-clear of
    // the mapped/stale masks, one word each at every legal width.
    ColourMask mapped(std::uint32_t(state.range(0)));
    ColourMask stale(std::uint32_t(state.range(0)));
    mapped.set(3);
    for (auto _ : state) {
        stale |= mapped;
        mapped.clearAll();
        mapped.set(3);
        benchmark::DoNotOptimize(stale.count());
    }
}
BENCHMARK(BM_ColourMaskStaleUpdate)->Arg(16)->Arg(64);

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
BM_TlbIndexChurn(benchmark::State &state)
{
    // Refills and shootdowns on a full TLB: pages cycle through twice
    // the capacity, so each translate misses, evicts the LRU entry and
    // re-indexes its slot, and each shootdown of a page half a cycle
    // back erases from the index.
    Machine m{MachineParams::hp720()};
    Tlb &tlb = m.tlb();
    const std::uint32_t pages = 2 * m.params().tlbEntries;
    const auto page = [&](std::uint64_t i) {
        return SpaceVa(1, VirtAddr(i % pages * m.params().pageBytes));
    };
    for (std::uint32_t i = 0; i < pages; ++i) {
        m.pageTable().enter(page(i), i % m.params().numFrames,
                            Protection::readWrite());
        tlb.translate(page(i));
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.translate(page(i)));
        tlb.invalidatePage(page(i + pages / 2));
        ++i;
    }
}
BENCHMARK(BM_TlbIndexChurn);

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
