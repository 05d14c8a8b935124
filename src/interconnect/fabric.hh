/**
 * @file
 * Point-to-point fabric of serial links (Figure 4).
 *
 * Every processing element drives four outbound serial links into a
 * delay-insensitive point-to-point fabric; I/O devices sit on the
 * same fabric and memory everywhere is one pool. The model routes a
 * message over the sender's least-loaded link and charges
 * serialisation + flight + queueing. Remote memory latency comes out
 * near the paper's "below 200 ns" claim for small messages.
 */

#ifndef MEMWALL_INTERCONNECT_FABRIC_HH
#define MEMWALL_INTERCONNECT_FABRIC_HH

#include <cstdint>
#include <vector>

#include "interconnect/link.hh"

namespace memwall {

/** Message classes carried by the coherence fabric. */
enum class MsgType : std::uint8_t {
    ReadRequest,     ///< fetch a 32-byte block
    ReadReply,       ///< block data
    Invalidate,      ///< invalidate a sharer
    InvalidateAck,   ///< sharer acknowledgement
    WritebackData,   ///< dirty block returning home
    UpgradeRequest,  ///< S -> M permission request
    UpgradeReply,
};

/** Wire size of one message (header + optional 32-byte payload). */
std::uint32_t messageBytes(MsgType type);

/** Fabric configuration. */
struct FabricConfig
{
    LinkConfig link = {};
    /** Outbound links per node (the device has four). */
    unsigned links_per_node = 4;
};

/**
 * N-node fabric. Stateless routing: a message occupies one of the
 * sender's outbound links; the receive path is assumed non-blocking
 * (the protocol engines drain at link rate).
 */
class Fabric
{
  public:
    Fabric(unsigned nodes, FabricConfig config = {});

    /**
     * Send a message of @p type from @p src to @p dst at @p now.
     * @return the delivery time.
     */
    Tick send(Tick now, unsigned src, unsigned dst, MsgType type);

    /** One-way latency of an unloaded @p type message. */
    Cycles unloadedLatency(MsgType type) const;

    unsigned nodes() const { return nodes_; }
    std::uint64_t totalMessages() const;
    std::uint64_t totalBytes() const;
    void resetStats();

  private:
    unsigned nodes_;
    FabricConfig config_;
    /** links_[node][i] = i-th outbound link of node. */
    std::vector<std::vector<SerialLink>> links_;
};

} // namespace memwall

#endif // MEMWALL_INTERCONNECT_FABRIC_HH
