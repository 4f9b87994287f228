// Compile-only probe: discarding the ticket a DMA start returns must
// draw the [[nodiscard]] warning. ctest runs the compiler over this
// file with -fsyntax-only and matches the diagnostic text; it is never
// linked.

#include "dma/dma_engine.hh"

void
leakTransfer(vic::DmaEngine &dma, const std::uint32_t *words)
{
    dma.startWrite(vic::PhysAddr(0x1000), words, 16);
}
