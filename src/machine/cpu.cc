#include "machine/cpu.hh"

#include "common/logging.hh"

namespace vic
{

namespace
{

/** A single access may legitimately fault a handful of times (mapping
 *  fault, then consistency faults as state transitions cascade); more
 *  than this means the OS layer is livelocked. */
constexpr int maxFaultRetries = 8;

void
checkAligned(VirtAddr va)
{
    vic_assert(va.isAligned(4), "unaligned CPU access va=%s",
               hex(va).c_str());
}

/**
 * Issue words 0 .. @p count - 1 of a stride-4 range: at word i,
 * @p run(i) completes a line run and returns its length, or returns 0
 * to refuse, and then @p word(i) issues word i alone.
 */
template <typename Run, typename Word>
void
lineRuns(std::uint32_t count, Run &&run, Word &&word)
{
    for (std::uint32_t i = 0; i < count;) {
        const std::uint32_t done = run(i);
        if (done == 0) {
            word(i);
            ++i;
        } else {
            i += done;
        }
    }
}

} // anonymous namespace

Cpu::Cpu(Machine &m, std::uint32_t cpu_id)
    : mach(m), cpuId(cpu_id), tlbRef(m.tlb(cpu_id)),
      dcacheRef(m.dcache(cpu_id)), icacheRef(m.icache(cpu_id)),
      pageBytesC(m.pageBytes()),
      lineBytesC(m.dcache(cpu_id).geometry().lineBytes()),
      runValues(m.dcache(cpu_id).geometry().wordsPerLine())
{
    vic_assert(cpu_id < m.numCpus(), "cpu id %u out of range", cpu_id);
}

bool
Cpu::deliver(const Fault &fault)
{
    ++faultsTaken;
    mach.clock().advance(mach.params().trapCycles);
    if (!faultHandler) {
        vic_panic("fault with no handler: %s at space=%u va=%s",
                  accessTypeName(fault.access), fault.address.space,
                  hex(fault.address.va).c_str());
    }
    return faultHandler(fault);
}

std::uint32_t
Cpu::accessMapped(AccessType type, VirtAddr va, std::uint32_t store_value,
                  PageTableEntry *pte)
{
    // Account stage, translation side: referenced/modified through the
    // TLB's mutable handle — no page-table walk.
    pte->referenced = true;
    const PhysAddr pa = physOf(*pte, va);
    MemoryObserver *obs = mach.observer();

    switch (type) {
      case AccessType::Load: {
          // Coherence is the cache's own job now: a miss issues a bus
          // read that snoops the peers (coherence.hh); a hit is silent
          // exactly as real MESI hardware is.
          std::uint32_t v;
          if (!dcacheRef.tryReadHit(va, pa, v))
              v = dcacheRef.read(va, pa);
          if (obs && observerDue())
              obs->cpuLoad(pa, v);
          return v;
      }
      case AccessType::IFetch: {
          std::uint32_t v;
          if (!icacheRef.tryReadHit(va, pa, v))
              v = icacheRef.read(va, pa);
          if (obs && observerDue())
              obs->cpuIFetch(pa, v);
          return v;
      }
      case AccessType::Store: {
          pte->modified = true;
          // Observer sees the store before the cache commits it (the
          // oracle's shadow memory must be current when the written
          // line later leaves the cache). A Shared-line hit falls out
          // of tryWriteHit into write(), which broadcasts the upgrade.
          if (obs && observerDue())
              obs->cpuStore(pa, store_value);
          if (!dcacheRef.tryWriteHit(va, pa, store_value))
              dcacheRef.write(va, pa, store_value);
          return 0;
      }
    }
    vic_panic("unreachable access type");
}

std::uint32_t
Cpu::accessSlow(AccessType type, VirtAddr va, std::uint32_t store_value,
                PageTableEntry *pte)
{
    const SpaceVa key(currentSpace, va);

    for (int attempt = 0; attempt < maxFaultRetries; ++attempt) {
        // Attempt 0 reuses the translation the fast path already did —
        // exactly one TLB lookup per attempt, as before the split.
        if (attempt > 0)
            pte = tlbRef.translate(key);

        if (pte != nullptr && protPermits(pte->prot, type))
            return accessMapped(type, va, store_value, pte);

        Fault fault;
        fault.address = key;
        fault.access = type;
        fault.type = pte == nullptr ? FaultType::Unmapped
                                    : FaultType::Protection;
        if (!deliver(fault)) {
            vic_panic("unrecoverable %s fault at space=%u va=%s",
                      accessTypeName(type), key.space, hex(va).c_str());
        }
    }
    vic_panic("access livelock: %d faults at space=%u va=%s",
              maxFaultRetries, key.space, hex(va).c_str());
}

std::uint32_t
Cpu::accessAligned(AccessType type, VirtAddr va, std::uint32_t store_value)
{
    // Translate + protect stages; the overwhelmingly common outcome
    // (mapped, permitted) continues straight-line into accessMapped.
    PageTableEntry *pte = tlbRef.translate(SpaceVa(currentSpace, va));
    if (pte != nullptr && protPermits(pte->prot, type)) [[likely]]
        return accessMapped(type, va, store_value, pte);
    return accessSlow(type, va, store_value, pte);
}

std::uint32_t
Cpu::access(AccessType type, VirtAddr va, std::uint32_t store_value)
{
    checkAligned(va);
    return accessAligned(type, va, store_value);
}

std::uint32_t
Cpu::load(VirtAddr va)
{
    return access(AccessType::Load, va, 0);
}

void
Cpu::store(VirtAddr va, std::uint32_t value)
{
    access(AccessType::Store, va, value);
}

std::uint32_t
Cpu::ifetch(VirtAddr va)
{
    return access(AccessType::IFetch, va, 0);
}

void
Cpu::run(const Op *ops, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(ops[i].type, ops[i].va, ops[i].value);
}

// A line run commits only when every word would take the fast path as
// a TLB hit, a permitted access and a cache hit (or the copy conflict
// closed form), so it never faults, refills or misses partway; it then
// leaves exactly the state of the per-word loop.

std::uint32_t
Cpu::loadRun(VirtAddr va, std::uint32_t limit)
{
    const Tlb::Resident tr = tlbRef.peek(SpaceVa(currentSpace, va));
    if (tr.pte == nullptr || !protPermits(tr.pte->prot, AccessType::Load))
        return 0;
    const std::uint32_t n = runLength(va, limit);
    const PhysAddr pa = physOf(*tr.pte, va);
    const std::uint32_t *words = dcacheRef.readRun(va, pa, n);
    if (words == nullptr)
        return 0;
    tlbRef.noteHits(tr, n);
    tr.pte->referenced = true;
    if (MemoryObserver *obs = mach.observer())
        obs->cpuLoadRun(pa, words, n);
    return n;
}

std::uint32_t
Cpu::storeRun(VirtAddr va, std::uint32_t limit, std::uint32_t first_value,
              std::uint32_t step)
{
    const Tlb::Resident tr = tlbRef.peek(SpaceVa(currentSpace, va));
    if (tr.pte == nullptr || !protPermits(tr.pte->prot, AccessType::Store))
        return 0;
    const std::uint32_t n = runLength(va, limit);
    const PhysAddr pa = physOf(*tr.pte, va);
    for (std::uint32_t k = 0; k < n; ++k)
        runValues[k] = first_value + k * step;
    if (!dcacheRef.writeRun(va, pa, runValues.data(), n))
        return 0;
    tlbRef.noteHits(tr, n);
    tr.pte->referenced = true;
    tr.pte->modified = true;
    // The observer hears the stores after the cache took them: nothing
    // in a hit run leaves the cache in between.
    if (MemoryObserver *obs = mach.observer())
        obs->cpuStoreRun(pa, runValues.data(), n);
    return n;
}

std::uint32_t
Cpu::copyRun(VirtAddr dst, VirtAddr src, std::uint32_t limit)
{
    const Tlb::Resident ts = tlbRef.peek(SpaceVa(currentSpace, src));
    const Tlb::Resident td = tlbRef.peek(SpaceVa(currentSpace, dst));
    if (ts.pte == nullptr || td.pte == nullptr ||
        !protPermits(ts.pte->prot, AccessType::Load) ||
        !protPermits(td.pte->prot, AccessType::Store))
        return 0;
    const std::uint32_t n = runLength(dst, runLength(src, limit));
    const PhysAddr src_pa = physOf(*ts.pte, src);
    const PhysAddr dst_pa = physOf(*td.pte, dst);
    const std::uint32_t *words =
        dcacheRef.copyRun(src, src_pa, dst, dst_pa, n);
    if (words == nullptr)
        return 0;
    tlbRef.notePairHits(ts, td, n);
    ts.pte->referenced = true;
    td.pte->referenced = true;
    td.pte->modified = true;
    if (MemoryObserver *obs = mach.observer())
        obs->cpuCopyRun(src_pa, dst_pa, words, n);
    return n;
}

void
Cpu::loadRange(VirtAddr base, std::uint32_t count,
               std::uint32_t stride_bytes)
{
    if (stride_bytes != 4 || !runsEnabled()) {
        for (std::uint32_t i = 0; i < count; ++i)
            access(AccessType::Load,
                   base.plus(std::uint64_t(i) * stride_bytes), 0);
        return;
    }
    checkAligned(base);
    lineRuns(
        count,
        [&](std::uint32_t i) {
            return loadRun(base.plus(std::uint64_t(i) * 4), count - i);
        },
        [&](std::uint32_t i) {
            accessAligned(AccessType::Load,
                          base.plus(std::uint64_t(i) * 4), 0);
        });
}

void
Cpu::storeRange(VirtAddr base, std::uint32_t count,
                std::uint32_t stride_bytes, std::uint32_t seed,
                std::uint32_t seed_step)
{
    if (stride_bytes != 4 || !storeRunsEnabled()) {
        for (std::uint32_t i = 0; i < count; ++i)
            access(AccessType::Store,
                   base.plus(std::uint64_t(i) * stride_bytes),
                   seed + i * seed_step);
        return;
    }
    checkAligned(base);
    lineRuns(
        count,
        [&](std::uint32_t i) {
            return storeRun(base.plus(std::uint64_t(i) * 4), count - i,
                            seed + i * seed_step, seed_step);
        },
        [&](std::uint32_t i) {
            accessAligned(AccessType::Store,
                          base.plus(std::uint64_t(i) * 4),
                          seed + i * seed_step);
        });
}

void
Cpu::copyRange(VirtAddr dst, VirtAddr src, std::uint32_t count)
{
    checkAligned(src);
    checkAligned(dst);
    auto word = [&](std::uint32_t i) {
        const std::uint64_t off = std::uint64_t(i) * 4;
        accessAligned(AccessType::Store, dst.plus(off),
                      accessAligned(AccessType::Load, src.plus(off), 0));
    };
    if (!storeRunsEnabled()) {
        for (std::uint32_t i = 0; i < count; ++i)
            word(i);
        return;
    }
    lineRuns(
        count,
        [&](std::uint32_t i) {
            const std::uint64_t off = std::uint64_t(i) * 4;
            return copyRun(dst.plus(off), src.plus(off), count - i);
        },
        word);
}

void
Cpu::ifetchRange(VirtAddr base, std::uint32_t count,
                 std::uint32_t stride_bytes)
{
    for (std::uint32_t i = 0; i < count; ++i)
        access(AccessType::IFetch,
               base.plus(std::uint64_t(i) * stride_bytes), 0);
}

} // namespace vic
