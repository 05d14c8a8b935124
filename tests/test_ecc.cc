/**
 * @file
 * Tests for SECDED ECC and the directory-in-ECC encoding (Figure 5).
 */

#include <gtest/gtest.h>

#include <array>

#include "mem/ecc.hh"

using namespace memwall;

TEST(SecDed, CheckBitCounts)
{
    EXPECT_EQ(SecDedCode(64).checkBits(), 8u);    // industry standard
    EXPECT_EQ(SecDedCode(128).checkBits(), 9u);   // the paper's trick
    EXPECT_EQ(SecDedCode(32).checkBits(), 7u);
}

TEST(SecDed, CleanRoundTrip64)
{
    SecDedCode code(64);
    std::array<std::uint64_t, 1> data{0xdeadbeefcafebabeull};
    const auto check = code.encode(data);
    const auto res = code.decode(data, check);
    EXPECT_EQ(res.status, EccStatus::Ok);
    EXPECT_EQ(data[0], 0xdeadbeefcafebabeull);
}

TEST(SecDed, CorrectsEverySingleDataBit64)
{
    SecDedCode code(64);
    for (unsigned bit = 0; bit < 64; ++bit) {
        std::array<std::uint64_t, 1> data{0x0123456789abcdefull};
        const auto check = code.encode(data);
        data[0] ^= (1ull << bit);
        const auto res = code.decode(data, check);
        EXPECT_EQ(res.status, EccStatus::CorrectedSingle)
            << "bit " << bit;
        EXPECT_EQ(data[0], 0x0123456789abcdefull) << "bit " << bit;
        EXPECT_EQ(res.corrected_data_bit, static_cast<int>(bit));
    }
}

TEST(SecDed, CorrectsCheckBitErrors)
{
    SecDedCode code(64);
    std::array<std::uint64_t, 1> data{42};
    const auto check = code.encode(data);
    for (unsigned bit = 0; bit < code.checkBits(); ++bit) {
        std::array<std::uint64_t, 1> copy = data;
        const auto res = code.decode(copy, check ^ (1u << bit));
        EXPECT_EQ(res.status, EccStatus::CorrectedSingle);
        EXPECT_EQ(copy[0], 42u);  // data untouched
    }
}

TEST(SecDed, DetectsDoubleBitErrors)
{
    SecDedCode code(64);
    std::array<std::uint64_t, 1> data{0xffffffff00000000ull};
    const auto check = code.encode(data);
    data[0] ^= 0b11;  // two bit flips
    const auto res = code.decode(data, check);
    EXPECT_EQ(res.status, EccStatus::DetectedDouble);
}

class SecDed128Sweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecDed128Sweep, CorrectsSingleBitAtPosition)
{
    const unsigned bit = GetParam();
    SecDedCode code(128);
    std::array<std::uint64_t, 2> data{0x1111222233334444ull,
                                      0x5555666677778888ull};
    const auto golden = data;
    const auto check = code.encode(data);
    data[bit / 64] ^= (1ull << (bit % 64));
    const auto res = code.decode(data, check);
    EXPECT_EQ(res.status, EccStatus::CorrectedSingle);
    EXPECT_EQ(data, golden);
}

INSTANTIATE_TEST_SUITE_P(Bits, SecDed128Sweep,
                         ::testing::Values(0, 1, 7, 63, 64, 65, 100,
                                           126, 127));

TEST(SecDed, MixedWordDoubleErrorDetected128)
{
    SecDedCode code(128);
    std::array<std::uint64_t, 2> data{1, 2};
    const auto check = code.encode(data);
    data[0] ^= 1ull << 3;
    data[1] ^= 1ull << 9;
    EXPECT_EQ(code.decode(data, check).status,
              EccStatus::DetectedDouble);
}

// ---- DirectoryEccBlock ------------------------------------------------

TEST(DirectoryEcc, OverheadMath)
{
    // Standard 64-bit ECC: 4 words x 8 = 32 check bits per 32-byte
    // block. 128-bit ECC: 2 x 9 = 18 bits, freeing 14 for the
    // directory — exactly the paper's arithmetic.
    EXPECT_EQ(4 * SecDedCode(64).checkBits(), 32u);
    EXPECT_EQ(2 * SecDedCode(128).checkBits(), 18u);
    EXPECT_EQ(32u - 18u, DirectoryEccBlock::directory_bits);
    EXPECT_EQ(DirectoryEccBlock::checkOverheadBits(), 18u);
}

TEST(DirectoryEcc, StoreLoadRoundTrip)
{
    DirectoryEccBlock block;
    const std::array<std::uint64_t, 4> data{1, 2, 3, 4};
    block.store(data, 0x1abc);
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::Ok);
    EXPECT_EQ(out, data);
    EXPECT_EQ(block.directory(), 0x1abc);
}

TEST(DirectoryEcc, DirectoryFieldIndependentOfData)
{
    DirectoryEccBlock block;
    block.store({9, 9, 9, 9}, 0);
    block.setDirectory(0x3fff);  // all 14 bits
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::Ok);
    EXPECT_EQ(block.directory(), 0x3fff);
}

TEST(DirectoryEccDeath, DirectoryWiderThan14BitsPanics)
{
    DirectoryEccBlock block;
    EXPECT_DEATH(block.setDirectory(0x4000), "14");
}

TEST(DirectoryEcc, CorrectsInjectedDataError)
{
    DirectoryEccBlock block;
    const std::array<std::uint64_t, 4> data{0xa, 0xb, 0xc, 0xd};
    block.store(data, 7);
    block.injectDataError(130);  // word 2, bit 2
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::CorrectedSingle);
    EXPECT_EQ(out, data);
}

TEST(DirectoryEcc, CorrectsInjectedCheckError)
{
    DirectoryEccBlock block;
    const std::array<std::uint64_t, 4> data{1, 2, 3, 4};
    block.store(data, 7);
    block.injectCheckError(5);
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::CorrectedSingle);
    EXPECT_EQ(out, data);
}

TEST(DirectoryEcc, DetectsDoubleErrorInOneHalf)
{
    DirectoryEccBlock block;
    block.store({5, 6, 7, 8}, 1);
    block.injectDataError(0);
    block.injectDataError(64);  // same 128-bit half as bit 0
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::DetectedDouble);
}

TEST(DirectoryEcc, CorrectsOneErrorPerHalf)
{
    // The reduced granularity still corrects 1 bit per 128-bit word:
    // two single-bit errors in different halves both get fixed.
    DirectoryEccBlock block;
    const std::array<std::uint64_t, 4> data{11, 22, 33, 44};
    block.store(data, 1);
    block.injectDataError(10);    // first half
    block.injectDataError(200);   // second half
    std::array<std::uint64_t, 4> out{};
    EXPECT_EQ(block.load(out), EccStatus::CorrectedSingle);
    EXPECT_EQ(out, data);
}

// ---- Exhaustive single-bit coverage -----------------------------------

TEST(DirectoryEcc, CorrectsEveryDataBitPosition)
{
    // All 256 data bits of the 32-byte block, one at a time: each
    // flip must decode as a corrected single with the data restored.
    const std::array<std::uint64_t, 4> data{
        0x0123456789abcdefull, 0xfedcba9876543210ull,
        0x5a5a5a5aa5a5a5a5ull, 0x00ff00ff00ff00ffull};
    for (unsigned bit = 0; bit < 256; ++bit) {
        DirectoryEccBlock block;
        block.store(data, 0x2aaa);
        block.injectDataError(bit);
        std::array<std::uint64_t, 4> out{};
        EXPECT_EQ(block.load(out), EccStatus::CorrectedSingle)
            << "data bit " << bit;
        EXPECT_EQ(out, data) << "data bit " << bit;
        EXPECT_EQ(block.directory(), 0x2aaa) << "data bit " << bit;
    }
}

TEST(DirectoryEcc, CorrectsEveryCheckBitPosition)
{
    // All 18 stored check bits (9 per 128-bit half): a flipped check
    // bit must not damage the data and must decode as corrected.
    const std::array<std::uint64_t, 4> data{
        0xdeadbeefcafebabeull, 0x0f0f0f0f0f0f0f0full,
        0x8000000000000001ull, 0x7fffffffffffffffull};
    for (unsigned bit = 0; bit < 18; ++bit) {
        DirectoryEccBlock block;
        block.store(data, 0x1555);
        block.injectCheckError(bit);
        std::array<std::uint64_t, 4> out{};
        EXPECT_EQ(block.load(out), EccStatus::CorrectedSingle)
            << "check bit " << bit;
        EXPECT_EQ(out, data) << "check bit " << bit;
    }
}

TEST(DirectoryEcc, DetectsSampledDoubleBitGrid)
{
    // Double flips inside one 128-bit half must all be flagged
    // uncorrectable. Sweeping all (128 choose 2) pairs for both
    // halves is slow; a coprime-stride grid covers the space.
    const std::array<std::uint64_t, 4> data{
        0x123456789abcdef0ull, 0x0fedcba987654321ull,
        0xaaaaaaaa55555555ull, 0x33333333ccccccccull};
    for (unsigned half = 0; half < 2; ++half) {
        const unsigned base = half * 128;
        for (unsigned i = 0; i < 128; i += 7) {
            for (unsigned j = i + 1; j < 128; j += 13) {
                DirectoryEccBlock block;
                block.store(data, 0);
                block.injectDataError(base + i);
                block.injectDataError(base + j);
                std::array<std::uint64_t, 4> out{};
                EXPECT_EQ(block.load(out),
                          EccStatus::DetectedDouble)
                    << "half " << half << " bits " << i << "," << j;
            }
        }
    }
}

TEST(DirectoryEcc, DetectsDataPlusCheckDoubles)
{
    // A data flip paired with a check-bit flip in the same half is a
    // double too (the decoder must not miscorrect).
    const std::array<std::uint64_t, 4> data{1, 2, 3, 4};
    for (unsigned data_bit = 0; data_bit < 128; data_bit += 11) {
        for (unsigned check_bit = 0; check_bit < 9; ++check_bit) {
            DirectoryEccBlock block;
            block.store(data, 0);
            block.injectDataError(data_bit);     // first half
            block.injectCheckError(check_bit);   // first half's code
            std::array<std::uint64_t, 4> out{};
            EXPECT_EQ(block.load(out), EccStatus::DetectedDouble)
                << "data " << data_bit << " check " << check_bit;
        }
    }
}
