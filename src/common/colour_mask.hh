/**
 * @file
 * One-word set of cache colours.
 *
 * A cache has at most kMaxColours cache pages ("colours"), so a set of
 * them is one 64-bit word: membership, union, clear, find-first and
 * population count are each a single word instruction, and the whole
 * type is header-inline. The width is fixed at construction and every
 * index is checked against it; MachineParams::check() rejects a cache
 * with more colours than one word holds.
 */

#ifndef VIC_COMMON_COLOUR_MASK_HH
#define VIC_COMMON_COLOUR_MASK_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace vic
{

class ColourMask
{
  public:
    /** Widest mask: the bits of one word. */
    static constexpr std::uint32_t kMaxColours = 64;

    ColourMask() = default;

    /** A mask of @p num_colours colours holding the colours set in
     *  @p colour_bits (bit c = colour c). */
    explicit ColourMask(std::uint32_t num_colours,
                        std::uint64_t colour_bits = 0)
        : numColours(num_colours), word(colour_bits)
    {
        vic_assert(num_colours <= kMaxColours,
                   "%u colours do not fit one word", num_colours);
        vic_assert((colour_bits & ~validBits()) == 0,
                   "colour bits %llx outside %u colours",
                   (unsigned long long)colour_bits, num_colours);
    }

    /** Number of colours this mask ranges over. */
    std::uint32_t size() const { return numColours; }

    /** The colours as a word, bit c = colour c. */
    std::uint64_t bits() const { return word; }

    /** The one-colour word for @p idx (checked against size()). */
    std::uint64_t
    bitOf(std::uint32_t idx) const
    {
        vic_assert(idx < numColours, "colour %u out of range (size %u)",
                   idx, numColours);
        return std::uint64_t(1) << idx;
    }

    bool test(std::uint32_t idx) const { return (word & bitOf(idx)) != 0; }
    void set(std::uint32_t idx) { word |= bitOf(idx); }
    void reset(std::uint32_t idx) { word &= ~bitOf(idx); }

    /** Clear every colour. */
    void clearAll() { word = 0; }

    /** Add every colour of @p other. Sizes must match. */
    ColourMask &
    operator|=(const ColourMask &other)
    {
        vic_assert(numColours == other.numColours,
                   "colour mask size mismatch (%u vs %u)", numColours,
                   other.numColours);
        word |= other.word;
        return *this;
    }

    bool any() const { return word != 0; }
    bool none() const { return word == 0; }

    /** Number of colours in the mask. */
    std::uint32_t
    count() const
    { return static_cast<std::uint32_t>(std::popcount(word)); }

    /** @return true iff exactly one colour is in the mask. */
    bool exactlyOne() const { return std::has_single_bit(word); }

    /** Lowest colour in the mask; size() if none. */
    std::uint32_t
    findFirst() const
    {
        return word ? static_cast<std::uint32_t>(std::countr_zero(word))
                    : numColours;
    }

    /** Lowest colour not in the mask; size() if none. */
    std::uint32_t
    findFirstClear() const
    {
        const std::uint64_t clear = ~word & validBits();
        return clear ? static_cast<std::uint32_t>(std::countr_zero(clear))
                     : numColours;
    }

    bool operator==(const ColourMask &) const = default;

  private:
    std::uint32_t numColours = 0;
    std::uint64_t word = 0;

    std::uint64_t
    validBits() const
    {
        return numColours == kMaxColours
                   ? ~std::uint64_t(0)
                   : (std::uint64_t(1) << numColours) - 1;
    }
};

} // namespace vic

#endif // VIC_COMMON_COLOUR_MASK_HH
