/**
 * @file
 * Quickstart: build a simulated HP-9000/720-like machine, attach the
 * consistency oracle, boot the Mach-like kernel with the paper's lazy
 * consistency policy, and run a task that exercises aliasing — then
 * print what the consistency machinery did.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/lazy_pmap.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"

using namespace vic;

int
main()
{
    // 1. A machine with virtually indexed, physically tagged,
    //    write-back caches (the default scaled-down Model 720).
    MachineParams mp = MachineParams::hp720();
    Machine machine(mp);

    std::printf("machine: %u KB D-cache, %u cache pages (colours), "
                "%u B lines, %u B pages\n",
                unsigned(mp.dcacheBytes / 1024),
                machine.dcache().geometry().numColours(),
                machine.dcache().geometry().lineBytes(),
                machine.pageBytes());

    // 2. The oracle watches every transfer for stale data.
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);

    // 3. Boot the kernel with the paper's best policy (config F).
    Kernel kernel(machine, PolicyConfig::configF());

    // 4. A task maps one physical page at TWO virtual addresses with
    //    different cache colours — the alias problem of Section 2.2.
    TaskId task = kernel.createTask();
    auto object = std::make_shared<VmObject>(VmObject::anonymous(1));
    VirtAddr va1 =
        kernel.vmMapShared(task, object, Protection::readWrite());
    CachePageId c1 = kernel.pmap().dColourOf(va1);
    CachePageId c2 =
        (c1 + 1) % machine.dcache().geometry().numColours();
    VirtAddr va2 = kernel.vmMapShared(
        task, object, Protection::readWrite(),
        kernel.addressSpace(task).allocateVa(1, c2));

    std::printf("alias: va1=0x%s (colour %u), va2=0x%s (colour %u)\n",
                hex(va1).c_str(), c1, hex(va2).c_str(),
                kernel.pmap().dColourOf(va2));

    // 5. Write through one alias, read through the other. The write
    //    lands in va1's cache page; the read through va2 would fetch
    //    stale memory on unmanaged hardware. The consistency
    //    algorithm traps the read, flushes the dirty cache page, and
    //    the load returns the fresh value.
    kernel.userStore(task, va1, 0xdeadbeef);
    std::uint32_t got = kernel.userLoad(task, va2);
    std::printf("wrote 0xdeadbeef via va1, read %#x via va2 -> %s\n",
                got, got == 0xdeadbeef ? "consistent" : "STALE!");

    // 6. Ping-pong a few more times, then show the bookkeeping.
    for (std::uint32_t i = 0; i < 8; ++i) {
        kernel.userStore(task, i % 2 ? va2 : va1, i);
        std::uint32_t v = kernel.userLoad(task, i % 2 ? va1 : va2);
        if (v != i)
            std::printf("MISMATCH at round %u\n", i);
    }

    kernel.destroyTask(task);

    std::printf("\nconsistency machinery activity:\n");
    std::printf("  consistency faults : %llu\n",
                (unsigned long long)machine.stats().value(
                    "os.consistency_faults"));
    std::printf("  D-cache page flushes: %llu\n",
                (unsigned long long)machine.stats().value(
                    "pmap.d_page_flushes"));
    std::printf("  D-cache page purges : %llu\n",
                (unsigned long long)machine.stats().value(
                    "pmap.d_page_purges"));
    std::printf("  elapsed simulated time: %.6f s (%llu cycles)\n",
                machine.elapsedSeconds(),
                (unsigned long long)machine.clock().now());

    std::printf("\noracle: %llu transfers checked, %llu violations%s\n",
                (unsigned long long)oracle.checkedCount(),
                (unsigned long long)oracle.violationCount(),
                oracle.clean() ? " -- memory system is consistent"
                               : " -- BROKEN");
    return oracle.clean() ? 0 : 1;
}
