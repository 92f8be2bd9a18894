#include <gtest/gtest.h>

#include "common/bitutils.hh"

using namespace lvpsim;

TEST(BitUtils, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 63));
    EXPECT_FALSE(isPowerOf2((1ull << 63) + 1));
}

TEST(BitUtils, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(3), 1u);
    EXPECT_EQ(log2i(1024), 10u);
    EXPECT_EQ(log2i(1ull << 63), 63u);
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, Mask)
{
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(mask(1), 1ull);
    EXPECT_EQ(mask(14), 0x3fffull);
    EXPECT_EQ(mask(64), ~0ull);
    EXPECT_EQ(mask(65), ~0ull);
}

TEST(BitUtils, Bits)
{
    EXPECT_EQ(bits(0xabcd, 0, 4), 0xdull);
    EXPECT_EQ(bits(0xabcd, 4, 4), 0xcull);
    EXPECT_EQ(bits(0xabcd, 8, 8), 0xabull);
}

TEST(BitUtils, FoldBitsPreservesSmallValues)
{
    EXPECT_EQ(foldBits(0x5, 8), 0x5ull);
    EXPECT_EQ(foldBits(0, 8), 0ull);
}

TEST(BitUtils, FoldBitsXorsChunks)
{
    // 0xab ^ 0xcd
    EXPECT_EQ(foldBits(0xabcd, 8), 0xabull ^ 0xcdull);
    // Folding to 4 bits XORs all nibbles.
    EXPECT_EQ(foldBits(0xabcd, 4),
              (0xaull ^ 0xbull ^ 0xcull ^ 0xdull));
}

TEST(BitUtils, FoldBitsZeroWidth)
{
    EXPECT_EQ(foldBits(0x1234, 0), 0ull);
}

TEST(BitUtils, SignExtendPositive)
{
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x01, 8), 1);
}

TEST(BitUtils, SignExtendNegative)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x3ff, 10), -1);
}

TEST(BitUtils, SignExtendFullWidth)
{
    EXPECT_EQ(signExtend(~0ull, 64), -1);
}

TEST(BitUtils, FitsSigned)
{
    // The paper's SAP stride field is 10 bits: [-512, 511].
    EXPECT_TRUE(fitsSigned(511, 10));
    EXPECT_TRUE(fitsSigned(-512, 10));
    EXPECT_FALSE(fitsSigned(512, 10));
    EXPECT_FALSE(fitsSigned(-513, 10));
    EXPECT_TRUE(fitsSigned(0, 1));
    EXPECT_TRUE(fitsSigned(-1, 1));
    EXPECT_FALSE(fitsSigned(1, 1));
}

TEST(BitUtils, Mix64Deterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(BitUtils, Mix64SpreadsBits)
{
    // Consecutive inputs should differ in many output bits.
    int differing = __builtin_popcountll(mix64(1) ^ mix64(2));
    EXPECT_GT(differing, 16);
}

TEST(BitUtils, FastModMatchesModulo)
{
    const std::uint64_t xs[] = {0, 1, 5, 63, 64, 1023, 0xdeadbeefcafef00dull,
                                ~std::uint64_t(0)};
    for (std::uint64_t n : {1ull, 2ull, 3ull, 64ull, 100ull, 1024ull,
                            3000ull, 1ull << 40}) {
        for (std::uint64_t x : xs)
            EXPECT_EQ(fastMod(x, n), x % n) << x << " mod " << n;
    }
}
