#include "interconnect/fabric.hh"

#include "common/logging.hh"

namespace memwall {

std::uint32_t
messageBytes(MsgType type)
{
    // 8-byte header (routing, address, type) plus a 32-byte payload
    // for data-carrying messages.
    switch (type) {
      case MsgType::ReadReply:
      case MsgType::WritebackData:
        return 8 + 32;
      case MsgType::ReadRequest:
      case MsgType::Invalidate:
      case MsgType::InvalidateAck:
      case MsgType::UpgradeRequest:
      case MsgType::UpgradeReply:
        return 8;
    }
    return 8;
}

Fabric::Fabric(unsigned nodes, FabricConfig config)
    : nodes_(nodes), config_(config)
{
    MW_ASSERT(nodes_ >= 1, "fabric needs at least one node");
    MW_ASSERT(config_.links_per_node >= 1,
              "need at least one link per node");
    links_.assign(nodes_, std::vector<SerialLink>(
                              config_.links_per_node,
                              SerialLink(config_.link)));
}

Tick
Fabric::send(Tick now, unsigned src, unsigned dst, MsgType type)
{
    MW_ASSERT(src < nodes_ && dst < nodes_, "bad fabric endpoint");
    if (src == dst)
        return now;  // local: never touches the fabric
    // Pick the sender's least-loaded outbound link.
    SerialLink *best = &links_[src][0];
    for (auto &link : links_[src])
        if (link.freeAt() < best->freeAt())
            best = &link;
    return best->send(now, messageBytes(type));
}

Cycles
Fabric::unloadedLatency(MsgType type) const
{
    return config_.link.serialisationCycles(messageBytes(type)) +
           config_.link.flight_cycles;
}

std::uint64_t
Fabric::totalMessages() const
{
    std::uint64_t n = 0;
    for (const auto &node_links : links_)
        for (const auto &link : node_links)
            n += link.messages();
    return n;
}

std::uint64_t
Fabric::totalBytes() const
{
    std::uint64_t n = 0;
    for (const auto &node_links : links_)
        for (const auto &link : node_links)
            n += link.bytesSent();
    return n;
}

void
Fabric::resetStats()
{
    for (auto &node_links : links_)
        for (auto &link : node_links)
            link.resetStats();
}

} // namespace memwall
