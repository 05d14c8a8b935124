/**
 * @file
 * SECDED error-correcting codes and the directory-in-ECC trick.
 *
 * Large DRAMs need single-error-correct / double-error-detect (SECDED)
 * protection. The industry standard computes ECC over 64-bit words
 * (8 check bits each). Section 4.2 of the paper frees up directory
 * storage by computing ECC over 128-bit words instead (9 check bits),
 * halving correction granularity: a 32-byte coherence block then needs
 * 2 x 9 = 18 instead of 4 x 8 = 32 check bits, leaving 14 bits for the
 * directory state and pointer.
 */

#ifndef MEMWALL_MEM_ECC_HH
#define MEMWALL_MEM_ECC_HH

#include <array>
#include <cstdint>
#include <span>

namespace memwall {

/** Outcome of decoding a SECDED codeword. */
enum class EccStatus {
    Ok,               ///< no error
    CorrectedSingle,  ///< single-bit error corrected
    DetectedDouble,   ///< uncorrectable double-bit error detected
};

/** Result of a decode: status plus position of a corrected bit. */
struct EccDecodeResult
{
    EccStatus status = EccStatus::Ok;
    /** Data-bit index of the corrected bit (when CorrectedSingle and
     * the flipped bit was a data bit rather than a check bit). */
    int corrected_data_bit = -1;
};

/**
 * Hamming SECDED code over an arbitrary number of data bits.
 *
 * Check bits live at power-of-two codeword positions, plus one
 * overall parity bit. For 64 data bits this yields the standard
 * 8 check bits; for 128 data bits, 9.
 */
class SecDedCode
{
  public:
    /** @param data_bits number of protected data bits (<= 247). */
    explicit SecDedCode(unsigned data_bits);

    unsigned dataBits() const { return data_bits_; }
    /** Number of check bits including the overall parity bit. */
    unsigned checkBits() const { return hamming_bits_ + 1; }

    /**
     * Compute the check word for @p data (little-endian packed,
     * data.size()*64 >= dataBits()).
     */
    std::uint32_t encode(std::span<const std::uint64_t> data) const;

    /**
     * Verify/correct @p data in place against @p check.
     * Single-bit errors (in data or check bits) are corrected;
     * double-bit errors are detected.
     */
    EccDecodeResult decode(std::span<std::uint64_t> data,
                           std::uint32_t check) const;

  private:
    bool dataBit(std::span<const std::uint64_t> data, unsigned i) const;
    void flipDataBit(std::span<std::uint64_t> data, unsigned i) const;

    unsigned data_bits_;
    unsigned hamming_bits_;
    unsigned codeword_len_;  ///< hamming codeword length (no parity)
    /** codeword position (1-based) of data bit i. */
    std::array<std::uint16_t, 256> data_pos_;
    /** data bit index at codeword position p, or -1 for check bits. */
    std::array<std::int16_t, 512> pos_data_;
};

/**
 * A 32-byte memory block protected the paper's way: two 128-bit
 * SECDED words (18 check bits) plus a 14-bit directory field that
 * reuses the freed check-bit storage.
 */
class DirectoryEccBlock
{
  public:
    static constexpr unsigned directory_bits = 14;
    static constexpr unsigned data_words = 4;  ///< 4 x 64-bit

    DirectoryEccBlock();

    /** Store data and directory, recomputing check bits. */
    void store(const std::array<std::uint64_t, data_words> &data,
               std::uint16_t directory);

    /** Update only the directory field (re-protected separately). */
    void setDirectory(std::uint16_t directory);

    /** @return the 14-bit directory field. */
    std::uint16_t directory() const { return directory_; }

    /**
     * Read the data back, correcting single-bit errors.
     * @param[out] data receives the (possibly corrected) words.
     */
    EccStatus load(std::array<std::uint64_t, data_words> &data) const;

    /** Flip bit @p bit (0..255) of the stored data — fault injection. */
    void injectDataError(unsigned bit);

    /** Flip check bit @p bit (0..17) — fault injection. */
    void injectCheckError(unsigned bit);

    /** Total stored ECC overhead in bits (18 + 14 reused). */
    static constexpr unsigned
    checkOverheadBits()
    {
        return 18;
    }

  private:
    std::array<std::uint64_t, data_words> data_;
    std::array<std::uint32_t, 2> check_;  ///< 9 bits each
    std::uint16_t directory_ = 0;
    mutable SecDedCode code_;
};

} // namespace memwall

#endif // MEMWALL_MEM_ECC_HH
