#include "coherence/numa.hh"

#include <algorithm>
#include <utility>

#include "checkpoint/state_io.hh"
#include "common/logging.hh"

namespace memwall {

const char *
protocolMutationName(ProtocolMutation mutation)
{
    switch (mutation) {
      case ProtocolMutation::None:
        return "none";
      case ProtocolMutation::SkipInvalidate:
        return "skip-invalidate";
      case ProtocolMutation::DropSharer:
        return "drop-sharer";
      case ProtocolMutation::WrongOwner:
        return "wrong-owner";
      case ProtocolMutation::MissedDowngrade:
        return "missed-downgrade";
    }
    return "?";
}

NumaMachine::NumaMachine(NumaConfig config)
    : config_(config), directory_(config.nodes)
{
    MW_ASSERT(config_.nodes >= 1 &&
                  config_.nodes <= DirEntry::max_nodes,
              "node count out of range");
    MW_ASSERT(isPowerOfTwo(config_.page_bytes),
              "page size must be a power of two");
    while ((std::uint64_t{1} << page_shift_) < config_.page_bytes)
        ++page_shift_;
    nodes_.resize(config_.nodes);
    frames_used_.assign(config_.nodes, 0);
    if (config_.model_fabric_contention) {
        fabric_ = std::make_unique<Fabric>(config_.nodes,
                                           config_.fabric);
        engine_free_.assign(config_.nodes, 0);
    }
    for (auto &node : nodes_) {
        switch (config_.arch) {
          case NodeArch::Integrated: {
            ColumnCacheConfig cc = config_.columns;
            cc.victim_enabled = config_.victim_cache;
            node.columns = std::make_unique<ColumnDataCache>(cc);
            node.inc = std::make_unique<InterNodeCache>(config_.inc);
            break;
          }
          case NodeArch::SimpleComa: {
            ColumnCacheConfig cc = config_.columns;
            cc.victim_enabled = config_.victim_cache;
            node.columns = std::make_unique<ColumnDataCache>(cc);
            // No INC: the attraction memory subsumes it.
            break;
          }
          case NodeArch::ReferenceCcNuma:
            node.flc = std::make_unique<Cache>(config_.flc);
            break;
        }
    }
}

unsigned
NumaMachine::homeOf(Addr addr) const
{
    const std::uint64_t page = pageOf(addr);
    auto it = pages_.find(page);
    if (it != pages_.end())
        return it->second.home;
    return static_cast<unsigned>(page % config_.nodes);
}

unsigned
NumaMachine::resolveHome(Addr addr, unsigned toucher)
{
    const std::uint64_t page = pageOf(addr);
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        const unsigned home = config_.first_touch
            ? toucher
            : static_cast<unsigned>(page % config_.nodes);
        it = pages_
                 .emplace(page,
                          PagePlacement{home, frames_used_[home]++})
                 .first;
    }
    return it->second.home;
}

Addr
NumaMachine::cacheView(unsigned node, Addr addr) const
{
    const Addr block = blockAddr(addr);
    const std::uint64_t page = pageOf(addr);
    if (config_.arch == NodeArch::SimpleComa) {
        // Every page the node uses is replicated into its local
        // attraction memory, at a per-node local frame.
        const Node &n = nodes_[node];
        auto fit = n.frames.find(page);
        const std::uint64_t frame =
            fit != n.frames.end() ? fit->second : n.next_frame;
        return (Addr{1} << 47) |
               (frame * config_.page_bytes + pageOffset(block));
    }
    auto it = pages_.find(page);
    if (it == pages_.end() || it->second.home != node)
        return block;  // imported blocks are tagged globally
    return localView(it->second, block);
}

Addr
NumaMachine::localView(const PagePlacement &p, Addr block) const
{
    // Local pages are contiguous in the node's physical DRAM, and
    // the column buffers / FLC are physically indexed — without
    // this translation the interleaved global addresses of a P-node
    // machine would alias into a fraction of the cache sets.
    const Addr local = p.local_frame * config_.page_bytes +
                       pageOffset(block);
    // Disjoint from the global space so imported and local tags
    // can share one structure without false matches.
    return (Addr{1} << 47) | local;
}

unsigned
NumaMachine::resolveHomeAndView(Addr addr, unsigned toucher,
                                Addr &view)
{
    const Addr block = blockAddr(addr);
    const std::uint64_t page = pageOf(addr);
    const PagePlacement *pp;
    if (page == memo_page_) {
        pp = memo_place_;
    } else {
        auto it = pages_.find(page);
        if (it == pages_.end()) {
            const unsigned home = config_.first_touch
                ? toucher
                : static_cast<unsigned>(page % config_.nodes);
            it = pages_
                     .emplace(page, PagePlacement{
                                        home, frames_used_[home]++})
                     .first;
        }
        pp = &it->second;
        memo_page_ = page;
        memo_place_ = pp;
    }
    if (config_.arch == NodeArch::SimpleComa)
        view = cacheView(toucher, addr);  // per-node frame table
    else if (pp->home != toucher)
        view = block;
    else
        view = localView(*pp, block);
    return pp->home;
}

const NodeStats &
NumaMachine::nodeStats(unsigned cpu) const
{
    MW_ASSERT(cpu < nodes_.size(), "bad cpu id");
    return nodes_[cpu].stats;
}

bool
NumaMachine::nodeHolds(unsigned node, Addr block) const
{
    const Node &n = nodes_[node];
    const Addr view = cacheView(node, block);
    switch (config_.arch) {
      case NodeArch::Integrated:
        return n.columns->probe(view) || n.inc->probe(block);
      case NodeArch::SimpleComa:
        return n.attraction.contains(block);
      case NodeArch::ReferenceCcNuma:
        break;
    }
    return n.flc->probe(view) || n.slc.contains(block);
}

void
NumaMachine::fillLocal(unsigned node, Addr block, bool store)
{
    Node &n = nodes_[node];
    if (config_.arch == NodeArch::SimpleComa) {
        // Allocate the page's local frame on first use, then fill
        // the column from the attraction memory.
        const std::uint64_t page = pageOf(block);
        if (!n.frames.contains(page))
            n.frames.emplace(page, n.next_frame++);
        n.attraction.insert(block);
        n.columns->access(cacheView(node, block), store);
        return;
    }
    const Addr view = cacheView(node, block);
    if (config_.arch == NodeArch::Integrated) {
        // Home data: the whole column lands in a buffer.
        n.columns->access(view, store);
    } else {
        n.flc->access(view, store);
        n.slc.insert(block);
    }
}

void
NumaMachine::invalidateAt(unsigned node, Addr block)
{
    if (obs_)
        obs_->copyInvalidated(node, block, obs_now_);
    Node &n = nodes_[node];
    const Addr view = cacheView(node, block);
    switch (config_.arch) {
      case NodeArch::Integrated:
        n.columns->invalidateBlock(view);
        n.inc->invalidate(block);
        return;
      case NodeArch::SimpleComa:
        n.columns->invalidateBlock(view);
        n.attraction.erase(block);
        return;
      case NodeArch::ReferenceCcNuma:
        n.flc->invalidate(view);
        n.slc.erase(block);
        return;
    }
}

void
NumaMachine::invalidateSharers(const DirEntry &entry, Addr block,
                               unsigned keep)
{
    // SkipInvalidate mutation (verification test hook): deliberately
    // leave the first victim's copy intact, creating exactly the
    // stale-sharer bug the shadow checker must catch.
    bool skip_one =
        config_.mutation == ProtocolMutation::SkipInvalidate;
    auto doInvalidate = [&](unsigned node) {
        if (skip_one) {
            skip_one = false;
            ++mutated_transitions_;
            return;
        }
        invalidateAt(node, block);
    };
    switch (entry.state()) {
      case DirState::Uncached:
        return;
      case DirState::Modified:
        if (entry.owner() != keep)
            doInvalidate(entry.owner());
        return;
      case DirState::Shared:
        for (unsigned s : entry.sharers())
            if (s != keep)
                doInvalidate(s);
        return;
      case DirState::SharedBcast:
        // Pointer overflow: the invalidation must broadcast.
        for (unsigned node = 0; node < config_.nodes; ++node)
            if (node != keep)
                doInvalidate(node);
        return;
    }
}

Cycles
NumaMachine::remoteRoundTrip(unsigned cpu, unsigned home, Tick now,
                             Cycles floor)
{
    if (!fabric_ || home == cpu)
        return floor;
    // Request across the fabric, service at the home node's protocol
    // engine (which serialises transactions), reply with the 32-byte
    // payload.
    const Tick req = fabric_->send(now, cpu, home, MsgType::ReadRequest);
    const Tick start = std::max(req, engine_free_[home]);
    const Tick done = start + config_.engine_occupancy;
    engine_free_[home] = done;
    const Tick reply = fabric_->send(done, home, cpu, MsgType::ReadReply);
    return static_cast<Cycles>(
        std::max<Tick>(reply > now ? reply - now : 0, floor));
}

Cycles
NumaMachine::access(unsigned cpu, Addr addr, bool store, Tick now)
{
    if (!obs_)
        return accessImpl(cpu, addr, store, now);
    const Addr block = blockAddr(addr);
    obs_now_ = now;
    const std::uint16_t before = directory_.lookup(block).encode();
    const Cycles latency = accessImpl(cpu, addr, store, now);
    obs_->accessEnd(cpu, block, store, last_service_, latency, now,
                    before, directory_.lookup(block));
    return latency;
}

Cycles
NumaMachine::accessImpl(unsigned cpu, Addr addr, bool store,
                        Tick now)
{
    MW_ASSERT(cpu < nodes_.size(), "bad cpu id");
    const Addr block = blockAddr(addr);
    Node &n = nodes_[cpu];
    n.stats.total.inc();

    const LatencyTable &lat = config_.latency;

    // --- First-level structures --------------------------------------
    Addr view;
    const unsigned home = resolveHomeAndView(addr, cpu, view);
    bool l1_hit;
    if (config_.arch == NodeArch::ReferenceCcNuma)
        l1_hit = n.flc->access(view, store).hit;
    else
        l1_hit = n.columns->accessNoFill(view, store) !=
                 DAccessOutcome::Miss;

    // Invariant: a cached copy is coherent (invalidations remove
    // copies eagerly), so a load hit — or a store hit with ownership
    // — completes in one cycle. Load hits return before the directory
    // lookup: a cached block's entry was created when it was filled,
    // so the lookup is pure overhead on this (dominant) path.
    if (l1_hit && !store) {
        n.stats.cache_hits.inc();
        last_service_ = ServiceLevel::CacheHit;
        return lat.cache_hit;
    }

    if (block != memo_block_) {
        memo_block_ = block;
        memo_entry_ = &directory_.entry(block);
    }
    DirEntry &e = *memo_entry_;
    if (l1_hit && e.state() == DirState::Modified && e.owner() == cpu) {
        n.stats.cache_hits.inc();
        last_service_ = ServiceLevel::CacheHit;
        return lat.cache_hit;
    }

    // Cost of re-reaching data this node can already access
    // (L1 miss but local home / INC / SLC), shared by several paths.
    auto local_refetch = [&](bool st) -> Cycles {
        if (config_.arch == NodeArch::SimpleComa) {
            if (n.attraction.contains(block)) {
                // Valid in the local attraction memory: a plain
                // local DRAM access regardless of the block's home.
                fillLocal(cpu, block, st);
                last_service_ = ServiceLevel::LocalMemory;
                n.stats.local_mem.inc();
                return lat.local_memory;
            }
            // Not replicated yet: fetch across the fabric (or from
            // the local home) and install in attraction memory.
            fillLocal(cpu, block, st);
            if (home == cpu) {
                last_service_ = ServiceLevel::LocalMemory;
                n.stats.local_mem.inc();
                return lat.local_memory;
            }
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, home, now, lat.remote_load);
        }
        if (home == cpu) {
            fillLocal(cpu, block, st);
            last_service_ = ServiceLevel::LocalMemory;
            n.stats.local_mem.inc();
            return lat.local_memory;
        }
        if (config_.arch == NodeArch::Integrated) {
            if (n.inc->access(block, st)) {
                n.columns->stageRemoteBlock(block);
                last_service_ = ServiceLevel::IncHit;
                n.stats.inc_hits.inc();
                return lat.inc_access + lat.inc_tag_extra;
            }
            // Fell out of the INC as well: fetch again.
            n.inc->insert(block);
            n.columns->stageRemoteBlock(block);
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, home, now, lat.remote_load);
        }
        if (n.slc.contains(block)) {
            n.flc->access(block, st);
            last_service_ = ServiceLevel::LocalMemory;
            n.stats.local_mem.inc();
            return lat.local_memory;  // SLC hit (Table 6: 6 cycles)
        }
        n.flc->access(block, st);
        n.slc.insert(block);
        last_service_ = ServiceLevel::Remote;
        n.stats.remote_loads.inc();
        return remoteRoundTrip(cpu, home, now, lat.remote_load);
    };

    // Import a remote block after a fabric transaction.
    auto remote_import = [&](bool st) {
        if (config_.arch == NodeArch::SimpleComa || home == cpu) {
            fillLocal(cpu, block, st);
        } else if (config_.arch == NodeArch::Integrated) {
            n.inc->insert(block);
            n.columns->stageRemoteBlock(block);
        } else {
            n.flc->access(block, st);
            n.slc.insert(block);
        }
    };

    if (!store) {
        // ---- Load miss -----------------------------------------------
        if (e.state() == DirState::Modified) {
            if (e.owner() == cpu) {
                // Reading our own dirty block: ownership is kept
                // (no directory transition), just refetch the data.
                return local_refetch(false);
            }
            // Dirty elsewhere: round trip through the owner, which
            // downgrades to shared and keeps its copy.
            // MissedDowngrade mutation: the directory forgets to
            // demote the dirty owner, leaving Modified(owner) while
            // this reader pulls a copy anyway.
            if (config_.mutation == ProtocolMutation::MissedDowngrade)
                ++mutated_transitions_;
            else
                e.addSharer(cpu);
            remote_import(false);
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, e.owner(), now,
                                   lat.remote_load);
        }
        // DropSharer mutation: the directory never records this
        // reader, so a later invalidation will miss its copy.
        if (config_.mutation == ProtocolMutation::DropSharer)
            ++mutated_transitions_;
        else
            e.addSharer(cpu);
        return local_refetch(false);
    }

    // ---- Store ---------------------------------------------------------
    if (e.state() == DirState::Modified && e.owner() == cpu) {
        // Ownership retained but the data slipped out of the L1.
        return local_refetch(true);
    }

    // Exclusivity is required. Count copies elsewhere.
    bool others = false;
    switch (e.state()) {
      case DirState::Uncached:
        others = false;
        break;
      case DirState::Modified:
        others = e.owner() != cpu;
        break;
      case DirState::Shared: {
        for (unsigned s : e.sharers())
            if (s != cpu)
                others = true;
        break;
      }
      case DirState::SharedBcast:
        others = true;
        break;
    }

    Cycles cost;
    if (others) {
        // Invalidation round trip covers both the permission grant
        // and, for dirty blocks, the data forward (Table 6).
        invalidateSharers(e, block, cpu);
        n.stats.invalidations.inc();
        last_service_ = ServiceLevel::Invalidation;
        cost = remoteRoundTrip(cpu,
                               home == cpu
                                   ? (cpu + 1) % config_.nodes
                                   : home,
                               now, lat.invalidation_round_trip);
    } else if (home == cpu) {
        // Sole (or no) copy, local home: the directory grant is a
        // local memory transaction.
        last_service_ = ServiceLevel::LocalMemory;
        n.stats.local_mem.inc();
        cost = lat.local_memory;
    } else {
        // Sole (or no) copy, remote home: the grant is a fabric
        // round trip whether or not the data is already here.
        last_service_ = ServiceLevel::Remote;
        n.stats.remote_loads.inc();
        cost = remoteRoundTrip(cpu, home, now, lat.remote_load);
    }
    // WrongOwner mutation: the directory grants exclusive ownership
    // to the wrong node after a store.
    if (config_.mutation == ProtocolMutation::WrongOwner &&
        config_.nodes > 1) {
        ++mutated_transitions_;
        e.setModified((cpu + 1) % config_.nodes);
    } else {
        e.setModified(cpu);
    }
    if (!l1_hit)
        remote_import(true);
    return cost;
}

std::uint64_t
NumaMachine::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.total.value();
    return total;
}

std::uint64_t
NumaMachine::totalRemoteLoads() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.remote_loads.value();
    return total;
}

std::uint64_t
NumaMachine::totalInvalidations() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.invalidations.value();
    return total;
}

namespace {

/** Emit an unordered set of addresses as a sorted list. */
void
putAddrSet(ckpt::Encoder &e, const std::unordered_set<Addr> &set)
{
    std::vector<Addr> sorted(set.begin(), set.end());
    std::sort(sorted.begin(), sorted.end());
    e.varint(sorted.size());
    for (const Addr a : sorted)
        e.varint(a);
}

/** Decode a strictly increasing address list back into a set. */
void
getAddrSet(ckpt::Decoder &d, std::unordered_set<Addr> &set,
           const char *what)
{
    const std::uint64_t count = d.varint();
    std::unordered_set<Addr> out;
    Addr prev = 0;
    for (std::uint64_t i = 0; i < count && d.ok(); ++i) {
        const Addr a = d.varint();
        if (i > 0 && a <= prev) {
            d.fail(what);
            return;
        }
        prev = a;
        out.insert(a);
    }
    if (d.ok())
        set = std::move(out);
}

void
putNodeStats(ckpt::Encoder &e, const NodeStats &s)
{
    ckpt::putCounter(e, s.cache_hits);
    ckpt::putCounter(e, s.local_mem);
    ckpt::putCounter(e, s.inc_hits);
    ckpt::putCounter(e, s.remote_loads);
    ckpt::putCounter(e, s.invalidations);
    ckpt::putCounter(e, s.total);
}

void
getNodeStats(ckpt::Decoder &d, NodeStats &s)
{
    ckpt::getCounter(d, s.cache_hits);
    ckpt::getCounter(d, s.local_mem);
    ckpt::getCounter(d, s.inc_hits);
    ckpt::getCounter(d, s.remote_loads);
    ckpt::getCounter(d, s.invalidations);
    ckpt::getCounter(d, s.total);
}

} // namespace

void
NumaMachine::saveState(ckpt::Encoder &e) const
{
    MW_ASSERT(!fabric_,
              "fabric-contention runs are not checkpointable: the "
              "link clocks are not captured");
    e.varint(config_.nodes);
    e.u8(static_cast<std::uint8_t>(config_.arch));
    e.u8(config_.victim_cache ? 1 : 0);
    e.varint(config_.page_bytes);
    e.u8(config_.first_touch ? 1 : 0);

    directory_.saveState(e);
    e.varint(mutated_transitions_);
    e.u8(static_cast<std::uint8_t>(last_service_));

    std::vector<std::pair<std::uint64_t, PagePlacement>> pages(
        pages_.begin(), pages_.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    e.varint(pages.size());
    for (const auto &[page, place] : pages) {
        e.varint(page);
        e.varint(place.home);
        e.varint(place.local_frame);
    }
    for (const std::uint64_t used : frames_used_)
        e.varint(used);

    for (const Node &node : nodes_) {
        switch (config_.arch) {
          case NodeArch::Integrated:
            node.columns->saveState(e);
            node.inc->saveState(e);
            break;
          case NodeArch::SimpleComa: {
            node.columns->saveState(e);
            putAddrSet(e, node.attraction);
            std::vector<std::pair<std::uint64_t, std::uint64_t>>
                frames(node.frames.begin(), node.frames.end());
            std::sort(frames.begin(), frames.end());
            e.varint(frames.size());
            for (const auto &[page, frame] : frames) {
                e.varint(page);
                e.varint(frame);
            }
            e.varint(node.next_frame);
            break;
          }
          case NodeArch::ReferenceCcNuma:
            node.flc->saveState(e);
            putAddrSet(e, node.slc);
            break;
        }
        putNodeStats(e, node.stats);
    }
}

void
NumaMachine::loadState(ckpt::Decoder &d)
{
    if (fabric_) {
        d.fail("numa machine: fabric-contention runs are not "
               "checkpointable");
        return;
    }
    const std::uint64_t nodes = d.varint();
    const std::uint8_t arch = d.u8();
    const std::uint8_t victim = d.u8();
    const std::uint64_t page_bytes = d.varint();
    const std::uint8_t first_touch = d.u8();
    if (d.failed())
        return;
    if (nodes != config_.nodes ||
        arch != static_cast<std::uint8_t>(config_.arch) ||
        victim != (config_.victim_cache ? 1 : 0) ||
        page_bytes != config_.page_bytes ||
        first_touch != (config_.first_touch ? 1 : 0)) {
        d.fail("numa machine: checkpoint topology mismatch");
        return;
    }

    Directory directory = directory_;
    directory.loadState(d);
    const std::uint64_t mutated = d.varint();
    const std::uint8_t service = d.u8();
    if (d.ok() &&
        service >
            static_cast<std::uint8_t>(ServiceLevel::Invalidation))
        d.fail("numa machine: invalid service level");

    const std::uint64_t npages = d.varint();
    std::unordered_map<std::uint64_t, PagePlacement> pages;
    std::uint64_t prev_page = 0;
    for (std::uint64_t i = 0; i < npages && d.ok(); ++i) {
        const std::uint64_t page = d.varint();
        const std::uint64_t home = d.varint();
        const std::uint64_t frame = d.varint();
        if ((i > 0 && page <= prev_page) || home >= config_.nodes) {
            d.fail("numa machine: malformed page placement");
            return;
        }
        prev_page = page;
        pages.emplace(page,
                      PagePlacement{static_cast<unsigned>(home),
                                    frame});
    }
    std::vector<std::uint64_t> frames_used(frames_used_.size());
    for (std::uint64_t &used : frames_used)
        used = d.varint();
    if (d.failed())
        return;

    std::vector<Node> restored(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &cur = nodes_[i];
        Node &node = restored[i];
        switch (config_.arch) {
          case NodeArch::Integrated:
            node.columns =
                std::make_unique<ColumnDataCache>(*cur.columns);
            node.columns->loadState(d);
            node.inc =
                std::make_unique<InterNodeCache>(*cur.inc);
            node.inc->loadState(d);
            break;
          case NodeArch::SimpleComa: {
            node.columns =
                std::make_unique<ColumnDataCache>(*cur.columns);
            node.columns->loadState(d);
            getAddrSet(d, node.attraction,
                       "numa machine: malformed attraction set");
            const std::uint64_t nframes = d.varint();
            std::uint64_t prev = 0;
            for (std::uint64_t f = 0; f < nframes && d.ok(); ++f) {
                const std::uint64_t page = d.varint();
                const std::uint64_t frame = d.varint();
                if (f > 0 && page <= prev) {
                    d.fail("numa machine: malformed frame map");
                    return;
                }
                prev = page;
                node.frames.emplace(page, frame);
            }
            node.next_frame = d.varint();
            break;
          }
          case NodeArch::ReferenceCcNuma:
            node.flc = std::make_unique<Cache>(*cur.flc);
            node.flc->loadState(d);
            getAddrSet(d, node.slc,
                       "numa machine: malformed slc set");
            break;
        }
        getNodeStats(d, node.stats);
        if (d.failed())
            return;
    }

    directory_ = std::move(directory);
    mutated_transitions_ = mutated;
    last_service_ = static_cast<ServiceLevel>(service);
    pages_ = std::move(pages);
    frames_used_ = std::move(frames_used);
    nodes_ = std::move(restored);
    // The memos cache raw pointers into the replaced containers.
    memo_page_ = ~std::uint64_t{0};
    memo_place_ = nullptr;
    memo_block_ = ~Addr{0};
    memo_entry_ = nullptr;
}

} // namespace memwall
