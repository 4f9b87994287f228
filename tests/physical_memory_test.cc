/** @file Unit tests for the simulated physical memory. */

#include <gtest/gtest.h>

#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

TEST(PhysicalMemoryTest, GeometryAccessors)
{
    PhysicalMemory mem(16, 4096);
    EXPECT_EQ(mem.numFrames(), 16u);
    EXPECT_EQ(mem.pageSize(), 4096u);
    EXPECT_EQ(mem.sizeBytes(), 16u * 4096u);
}

TEST(PhysicalMemoryTest, StartsZeroed)
{
    PhysicalMemory mem(4, 4096);
    EXPECT_EQ(mem.readWord(PhysAddr(0)), 0u);
    EXPECT_EQ(mem.readWord(PhysAddr(4 * 4096 - 4)), 0u);
}

TEST(PhysicalMemoryTest, WordReadBack)
{
    PhysicalMemory mem(4, 4096);
    mem.writeWord(PhysAddr(0x1004), 0xdeadbeef);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1004)), 0xdeadbeefu);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 0u);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1008)), 0u);
}

TEST(PhysicalMemoryTest, FrameMath)
{
    PhysicalMemory mem(8, 4096);
    EXPECT_EQ(mem.frameOf(PhysAddr(0)), 0u);
    EXPECT_EQ(mem.frameOf(PhysAddr(4095)), 0u);
    EXPECT_EQ(mem.frameOf(PhysAddr(4096)), 1u);
    EXPECT_EQ(mem.baseOf(3), PhysAddr(3u * 4096u));
}

TEST(PhysicalMemoryTest, BulkTransfer)
{
    PhysicalMemory mem(4, 4096);
    std::uint32_t src[8];
    for (int i = 0; i < 8; ++i)
        src[i] = 100 + i;
    mem.writeWords(PhysAddr(0x2000), src, 8);

    std::uint32_t dst[8] = {};
    mem.readWords(PhysAddr(0x2000), dst, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dst[i], 100u + i);
}

TEST(PhysicalMemoryDeathTest, UnalignedAccessPanics)
{
    PhysicalMemory mem(2, 4096);
    EXPECT_DEATH(mem.readWord(PhysAddr(2)), "unaligned");
}

TEST(PhysicalMemoryDeathTest, OutOfRangePanics)
{
    PhysicalMemory mem(2, 4096);
    EXPECT_DEATH(mem.readWord(PhysAddr(2 * 4096)), "out of range");
}

TEST(PhysicalMemoryDeathTest, UnalignedSpanPanics)
{
    PhysicalMemory mem(2, 4096);
    std::uint32_t buf[4] = {};
    EXPECT_DEATH(mem.readWords(PhysAddr(6), buf, 4), "unaligned");
    EXPECT_DEATH(mem.writeWords(PhysAddr(6), buf, 4), "unaligned");
}

TEST(PhysicalMemoryDeathTest, OutOfRangeSpanPanics)
{
    PhysicalMemory mem(2, 4096);
    std::uint32_t buf[4] = {};
    // The span starts inside memory and runs one word past its end.
    EXPECT_DEATH(mem.readWords(PhysAddr(2 * 4096 - 12), buf, 4),
                 "out of range");
    EXPECT_DEATH(mem.writeWords(PhysAddr(2 * 4096 - 12), buf, 4),
                 "out of range");
    EXPECT_DEATH(mem.readWords(PhysAddr(2 * 4096), buf, 0),
                 "out of range");
    mem.readWords(PhysAddr(2 * 4096 - 16), buf, 4);
}

} // anonymous namespace
} // namespace vic
