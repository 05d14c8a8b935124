#include "mem/ecc.hh"

#include "common/logging.hh"
#include "common/types.hh"

namespace memwall {

SecDedCode::SecDedCode(unsigned data_bits)
    : data_bits_(data_bits)
{
    MW_ASSERT(data_bits_ > 0 && data_bits_ <= 247,
              "unsupported SECDED data width ", data_bits_);
    // Find r such that 2^r >= data_bits + r + 1.
    unsigned r = 1;
    while ((1u << r) < data_bits_ + r + 1)
        ++r;
    hamming_bits_ = r;
    codeword_len_ = data_bits_ + r;

    pos_data_.fill(-1);
    unsigned data_index = 0;
    for (unsigned pos = 1; pos <= codeword_len_; ++pos) {
        if (isPowerOfTwo(pos))
            continue;  // check-bit position
        data_pos_[data_index] = static_cast<std::uint16_t>(pos);
        pos_data_[pos] = static_cast<std::int16_t>(data_index);
        ++data_index;
    }
    MW_ASSERT(data_index == data_bits_, "hamming layout bug");
}

bool
SecDedCode::dataBit(std::span<const std::uint64_t> data, unsigned i) const
{
    return (data[i / 64] >> (i % 64)) & 1;
}

void
SecDedCode::flipDataBit(std::span<std::uint64_t> data, unsigned i) const
{
    data[i / 64] ^= (std::uint64_t{1} << (i % 64));
}

std::uint32_t
SecDedCode::encode(std::span<const std::uint64_t> data) const
{
    // Hamming check bits: check bit k (at position 2^k) is the parity
    // of all data positions whose index has bit k set.
    std::uint32_t check = 0;
    for (unsigned k = 0; k < hamming_bits_; ++k) {
        unsigned parity = 0;
        for (unsigned i = 0; i < data_bits_; ++i) {
            if ((data_pos_[i] >> k) & 1)
                parity ^= dataBit(data, i) ? 1 : 0;
        }
        check |= parity << k;
    }
    // Overall parity over data bits and hamming check bits.
    unsigned overall = 0;
    for (unsigned i = 0; i < data_bits_; ++i)
        overall ^= dataBit(data, i) ? 1 : 0;
    for (unsigned k = 0; k < hamming_bits_; ++k)
        overall ^= (check >> k) & 1;
    check |= overall << hamming_bits_;
    return check;
}

EccDecodeResult
SecDedCode::decode(std::span<std::uint64_t> data,
                   std::uint32_t check) const
{
    const std::uint32_t hamming_mask = (1u << hamming_bits_) - 1;
    const std::uint32_t expected = encode(data);
    const std::uint32_t stored_hamming = check & hamming_mask;
    const std::uint32_t syndrome =
        (expected ^ stored_hamming) & hamming_mask;
    // The overall parity covers the codeword AS STORED: corrupted
    // data bits plus the stored check bits. Any single flipped bit
    // (data, hamming or parity) changes it by exactly one.
    unsigned overall = (check >> hamming_bits_) & 1;
    for (unsigned i = 0; i < data_bits_; ++i)
        overall ^= dataBit(data, i) ? 1 : 0;
    for (unsigned k = 0; k < hamming_bits_; ++k)
        overall ^= (stored_hamming >> k) & 1;
    const bool parity_mismatch = overall != 0;

    EccDecodeResult result;
    if (syndrome == 0 && !parity_mismatch) {
        result.status = EccStatus::Ok;
        return result;
    }
    if (!parity_mismatch) {
        // Syndrome non-zero but overall parity matches: two bits
        // flipped. Uncorrectable.
        result.status = EccStatus::DetectedDouble;
        return result;
    }
    // Single-bit error. If the syndrome names a data position,
    // correct it; otherwise the flipped bit was a check bit and the
    // data is already correct.
    result.status = EccStatus::CorrectedSingle;
    if (syndrome != 0 && syndrome <= codeword_len_ &&
        pos_data_[syndrome] >= 0) {
        const auto bit = static_cast<unsigned>(pos_data_[syndrome]);
        flipDataBit(data, bit);
        result.corrected_data_bit = static_cast<int>(bit);
    }
    return result;
}

DirectoryEccBlock::DirectoryEccBlock()
    : data_{}, check_{}, code_(128)
{
    check_[0] = code_.encode(std::span(data_.data(), 2));
    check_[1] = code_.encode(std::span(data_.data() + 2, 2));
}

void
DirectoryEccBlock::store(const std::array<std::uint64_t, data_words> &data,
                         std::uint16_t directory)
{
    data_ = data;
    check_[0] = code_.encode(std::span(data_.data(), 2));
    check_[1] = code_.encode(std::span(data_.data() + 2, 2));
    setDirectory(directory);
}

void
DirectoryEccBlock::setDirectory(std::uint16_t directory)
{
    MW_ASSERT((directory >> directory_bits) == 0,
              "directory field wider than 14 bits");
    directory_ = directory;
}

EccStatus
DirectoryEccBlock::load(std::array<std::uint64_t, data_words> &data) const
{
    data = data_;
    EccStatus worst = EccStatus::Ok;
    for (unsigned half = 0; half < 2; ++half) {
        const auto res =
            code_.decode(std::span(data.data() + 2 * half, 2),
                         check_[half]);
        if (res.status == EccStatus::DetectedDouble)
            return EccStatus::DetectedDouble;
        if (res.status == EccStatus::CorrectedSingle)
            worst = EccStatus::CorrectedSingle;
    }
    return worst;
}

void
DirectoryEccBlock::injectDataError(unsigned bit)
{
    MW_ASSERT(bit < 64 * data_words, "data bit index out of range");
    data_[bit / 64] ^= (std::uint64_t{1} << (bit % 64));
}

void
DirectoryEccBlock::injectCheckError(unsigned bit)
{
    MW_ASSERT(bit < 18, "check bit index out of range");
    const unsigned half = bit / 9;
    check_[half] ^= (1u << (bit % 9));
}

} // namespace memwall
