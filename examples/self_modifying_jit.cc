/**
 * @file
 * Example: a just-in-time compiler on split, non-coherent I/D caches.
 *
 * A JIT generates machine code with ordinary stores (data cache), then
 * jumps to it (instruction cache). On the paper's hardware the two
 * caches are not kept coherent — so without consistency management the
 * processor would execute whatever stale bytes the instruction cache
 * or memory happened to hold. The consistency machinery inserts the
 * required data-cache flush (and, after regeneration, the instruction-
 * cache purge) at exactly the first fetch, and never anywhere else.
 *
 * This is the paper's "data space to instruction space" path in its
 * most direct form — the same one the Unix server's text faults take.
 *
 * Build & run:  ./build/examples/self_modifying_jit
 */

#include <cstdio>

#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"

using namespace vic;

int
main()
{
    Machine machine{MachineParams::hp720()};
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    Kernel kernel(machine, PolicyConfig::configF());

    TaskId jit = kernel.createTask();

    // The code buffer: writable AND executable (maxProt rwx).
    auto code_obj = std::make_shared<VmObject>(VmObject::anonymous(1));
    VirtAddr code = kernel.vmMapShared(jit, code_obj, Protection::all());
    std::printf("code buffer at 0x%s\n", hex(code).c_str());

    auto flushes = [&] {
        return machine.stats().value("pmap.d_flush.ifetch");
    };
    auto ipurges = [&] {
        return machine.stats().value("pmap.i_page_purges");
    };

    // --- Generation 1: emit code, then run it. ------------------------
    for (std::uint32_t i = 0; i < 16; ++i)
        kernel.userStore(jit, code.plus(4 * i), 0x10000000u + i);

    std::uint32_t insn = kernel.userExec(jit, code);
    std::printf("gen 1: first insn %#x (emitted %#x) -- D->I flushes "
                "so far: %llu\n",
                insn, 0x10000000u, (unsigned long long)flushes());

    // Running it again costs nothing: the state machine knows the
    // instruction cache is current.
    auto before = flushes();
    for (int rep = 0; rep < 100; ++rep)
        kernel.userExec(jit, code.plus(4 * (rep % 16)));
    std::printf("gen 1: 100 more fetches cost %llu additional "
                "flushes\n",
                (unsigned long long)(flushes() - before));

    // --- Generation 2: rewrite the code in place. ---------------------
    // The store is trapped (the page has live instruction-cache
    // presence), the I-cache copy is marked stale, and the next fetch
    // purges it and sees the new instructions.
    for (std::uint32_t i = 0; i < 16; ++i)
        kernel.userStore(jit, code.plus(4 * i), 0x20000000u + i);

    insn = kernel.userExec(jit, code);
    std::printf("gen 2: first insn %#x (emitted %#x) -- I-cache "
                "purges: %llu, D->I flushes: %llu\n",
                insn, 0x20000000u, (unsigned long long)ipurges(),
                (unsigned long long)flushes());

    if (insn != 0x20000000u) {
        std::printf("EXECUTED STALE CODE!\n");
        return 1;
    }

    kernel.destroyTask(jit);
    std::printf("\noracle: %llu transfers checked, %llu violations%s\n",
                (unsigned long long)oracle.checkedCount(),
                (unsigned long long)oracle.violationCount(),
                oracle.clean() ? " -- every fetched instruction was "
                                 "the newest emitted code" : "");
    return oracle.clean() ? 0 : 1;
}
