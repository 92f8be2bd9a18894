/**
 * @file
 * Bit-manipulation helpers used throughout the predictor and cache models.
 */

#pragma once

#include <cstdint>

#include "common/logging.hh"

namespace lvpsim
{

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @p x mod @p n (n > 0): a mask when n is a power of two, as table
 *  sizes usually are, and a division only otherwise. */
constexpr std::uint64_t
fastMod(std::uint64_t x, std::uint64_t n)
{
    return isPowerOf2(n) ? x & (n - 1) : x % n;
}

/** Floor of log base 2; log2i(0) is undefined (returns 0). */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

/** Ceiling of log base 2. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOf2(v) ? log2i(v) : log2i(v) + 1;
}

/** A mask with the low @p nbits bits set. */
constexpr std::uint64_t
mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t(0)
                       : ((std::uint64_t(1) << nbits) - 1);
}

/** Extract bits [first, first+nbits) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned first, unsigned nbits)
{
    return (v >> first) & mask(nbits);
}

/**
 * XOR-fold @p v down to @p nbits bits. Used to form partial tags and
 * table indices the way the paper does (e.g. (PC>>2) ^ (PC>>12)).
 */
constexpr std::uint64_t
foldBits(std::uint64_t v, unsigned nbits)
{
    if (nbits == 0)
        return 0;
    std::uint64_t r = 0;
    while (v != 0) {
        r ^= v & mask(nbits);
        v >>= nbits;
    }
    return r;
}

/** Sign-extend the low @p nbits bits of @p v to 64 bits. */
constexpr std::int64_t
signExtend(std::uint64_t v, unsigned nbits)
{
    lvp_assert(nbits >= 1 && nbits <= 64, "bad width %u", nbits);
    if (nbits == 64)
        return static_cast<std::int64_t>(v);
    const std::uint64_t m = std::uint64_t(1) << (nbits - 1);
    v &= mask(nbits);
    return static_cast<std::int64_t>((v ^ m) - m);
}

/** True iff signed value @p v fits in @p nbits bits (two's complement). */
constexpr bool
fitsSigned(std::int64_t v, unsigned nbits)
{
    if (nbits >= 64)
        return true;
    const std::int64_t lo = -(std::int64_t(1) << (nbits - 1));
    const std::int64_t hi = (std::int64_t(1) << (nbits - 1)) - 1;
    return v >= lo && v <= hi;
}

/**
 * Mix a 64-bit value into a well-distributed hash (SplitMix64 finalizer).
 * Used where the paper says "hash of PC and history".
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace lvpsim

