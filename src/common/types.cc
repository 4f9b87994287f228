#include "common/types.hh"

#include <ostream>

#include "common/logging.hh"

namespace vic
{

const char *
memOpName(MemOp op)
{
    switch (op) {
      case MemOp::CpuRead: return "CPU-read";
      case MemOp::CpuWrite: return "CPU-write";
      case MemOp::DmaRead: return "DMA-read";
      case MemOp::DmaWrite: return "DMA-write";
      case MemOp::Purge: return "Purge";
      case MemOp::Flush: return "Flush";
    }
    vic_panic("invalid MemOp %d", static_cast<int>(op));
}

const char *
cacheKindName(CacheKind kind)
{
    switch (kind) {
      case CacheKind::Data: return "data";
      case CacheKind::Instruction: return "instruction";
    }
    vic_panic("invalid CacheKind %d", static_cast<int>(kind));
}

std::string
protectionName(Protection prot)
{
    std::string s = "---";
    if (prot.read)
        s[0] = 'r';
    if (prot.write)
        s[1] = 'w';
    if (prot.execute)
        s[2] = 'x';
    return s;
}

std::string
hex(VirtAddr va)
{
    return format("%llx", (unsigned long long)va.value);
}

std::string
hex(PhysAddr pa)
{
    return format("%llx", (unsigned long long)pa.value);
}

std::ostream &
operator<<(std::ostream &os, VirtAddr va)
{
    return os << "0x" << hex(va);
}

std::ostream &
operator<<(std::ostream &os, PhysAddr pa)
{
    return os << "0x" << hex(pa);
}

std::ostream &
operator<<(std::ostream &os, const SpaceVa &sva)
{
    return os << "{space " << sva.space << ", 0x" << hex(sva.va) << "}";
}

} // namespace vic
