/**
 * @file
 * MWCP checkpoint container: a versioned, CRC-protected section file
 * written crash-safely.
 *
 * On-disk layout (all little-endian):
 *
 *     magic "MWCP"                          4 bytes
 *     format version                        u32
 *     config hash (FNV-1a over the run's   u64
 *       canonical configuration)
 *     section count                         u32
 *     section table: per section
 *       id (fourcc)                         u32
 *       payload offset (from payload base)  u64
 *       payload length                      u64
 *       payload CRC-32                      u32
 *     header CRC-32 over everything above   u32
 *     payload bytes...
 *
 * A checkpoint is *rejected*, never silently loaded, when any of
 * magic, version, config hash, header CRC, section CRC or the file
 * length disagrees with the header. Writing goes through a temporary
 * file in the same directory plus fsync and an atomic rename, so a
 * crash mid-write leaves either the old file or no file — never a
 * torn one with a valid name.
 */

#ifndef MEMWALL_CHECKPOINT_CHECKPOINT_HH
#define MEMWALL_CHECKPOINT_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/codec.hh"

namespace memwall {
namespace ckpt {

/** Bumped whenever the serialized state layout changes shape. */
constexpr std::uint32_t format_version = 2;

/** Four-character section/file tags, e.g. fourcc("CACH"). */
constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    return static_cast<std::uint32_t>(s[0]) |
           static_cast<std::uint32_t>(s[1]) << 8 |
           static_cast<std::uint32_t>(s[2]) << 16 |
           static_cast<std::uint32_t>(s[3]) << 24;
}

/** Render a fourcc back to printable text for diagnostics. */
std::string fourccName(std::uint32_t id);

/** Why a checkpoint failed to load. Every class is distinct so the
 *  torture bench can assert the *right* rejection fired. */
enum class LoadError {
    None,
    Io,            ///< open/read failed (includes missing file)
    Truncated,     ///< shorter than the header or a section claims
    BadMagic,      ///< not an MWCP file
    BadVersion,    ///< format version skew
    BadConfig,     ///< checkpoint from a different configuration
    BadHeaderCrc,  ///< header or section table corrupted
    BadSectionCrc, ///< payload corrupted
    Malformed,     ///< internally inconsistent header
};

const char *loadErrorName(LoadError e);

/**
 * Write @p len bytes to @p path via temp file + fsync + atomic
 * rename (+ directory fsync). Returns false and fills @p why (with
 * errno text and the path) on any failure; no partial file is ever
 * visible under the final name.
 */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t len, std::string *why = nullptr);

/** Slurp a whole file; returns nullopt and fills @p why on error. */
std::optional<std::vector<std::uint8_t>>
readFileBytes(const std::string &path, std::string *why = nullptr);

/** Builder for one checkpoint file. */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::uint64_t config_hash)
        : config_hash_(config_hash)
    {
    }

    /**
     * Start a new section and return its encoder. The reference is
     * valid until the next section() call.
     */
    Encoder &section(std::uint32_t id)
    {
        sections_.push_back(Section{id, Encoder{}});
        return sections_.back().enc;
    }

    /** Serialize the container to bytes (header + table + payloads). */
    std::vector<std::uint8_t> serialize() const;

    /** serialize() + atomicWriteFile(). */
    bool writeFile(const std::string &path,
                   std::string *why = nullptr) const;

  private:
    struct Section
    {
        std::uint32_t id;
        Encoder enc;
    };

    std::uint64_t config_hash_;
    std::vector<Section> sections_;
};

/** Parsed, validated view of one checkpoint file. */
class CheckpointReader
{
  public:
    struct SectionInfo
    {
        std::uint32_t id;
        std::uint64_t offset; ///< from payload base
        std::uint64_t length;
        std::uint32_t crc;
    };

    /**
     * Load and fully validate @p path. @p expected_config_hash of
     * nullopt skips the config check (inspector use only — loads for
     * restore must always pass the hash).
     */
    LoadError loadFile(const std::string &path,
                       std::optional<std::uint64_t>
                           expected_config_hash);

    /** Same validation over an in-memory image. */
    LoadError loadBytes(std::vector<std::uint8_t> bytes,
                        std::optional<std::uint64_t>
                            expected_config_hash);

    /** Human-readable detail for the last load failure. */
    const std::string &errorDetail() const { return detail_; }

    std::uint32_t version() const { return version_; }
    std::uint64_t configHash() const { return config_hash_; }
    const std::vector<SectionInfo> &sections() const
    {
        return sections_;
    }

    bool hasSection(std::uint32_t id) const;

    /**
     * Decoder over a section's payload. Asking for a section that is
     * absent returns a decoder already in the failed state, so
     * callers can decode straight-line and check ok() once.
     */
    Decoder section(std::uint32_t id) const;

  private:
    LoadError failLoad(LoadError e, std::string detail);

    std::vector<std::uint8_t> bytes_;
    std::size_t payload_base_ = 0;
    std::uint32_t version_ = 0;
    std::uint64_t config_hash_ = 0;
    std::vector<SectionInfo> sections_;
    std::string detail_;
};

} // namespace ckpt
} // namespace memwall

#endif // MEMWALL_CHECKPOINT_CHECKPOINT_HH
