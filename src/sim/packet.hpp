// Packets, flits and per-packet routing state.
//
// Buffering and switching are *flit*-granular: under VCT one flit is the
// whole packet (8 phits in the paper's experiments); under wormhole a
// packet is several flits (8 flits of 10 phits). Serialization is
// phit-granular: a flit of s phits occupies its link for s cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace dfsim {

/// Routing progress carried by each packet and updated by the engine when
/// a hop is actually taken (not merely considered). Mechanisms read this
/// to enforce their hop budgets, VC ladders and route restrictions.
struct RouteState {
  RouterId dst_router = kInvalid;
  GroupId dst_group = kInvalid;
  GroupId src_group = kInvalid;

  /// Valiant intermediate group; kInvalid until a global misroute commits.
  GroupId inter_group = kInvalid;
  bool valiant = false;

  std::int8_t global_hops = 0;        ///< global hops taken (0..2)
  std::int8_t local_hops_group = 0;   ///< local hops taken in current group
  std::int8_t local_mis_group = 0;    ///< local misroutes in current group
  std::int8_t local_hops_total = 0;   ///< all local hops (PAR-6/2 ladder)
  std::int8_t total_hops = 0;         ///< every switch traversal

  /// Local index of the router this packet occupied before its last local
  /// hop in the current group (kInvalid when none) — RLM uses it to type
  /// the previous hop for the parity-sign restriction.
  std::int8_t prev_local_idx = -1;

  /// 0-based index of the last local VC the packet travelled on, in any
  /// group (-1 if none). OLM's "equal or lower than previously used" rule.
  std::int8_t last_local_vc = -1;
};

/// Memoized minimal-continuation port for one (packet, router) pairing.
/// The minimal output port is a pure function of the router and the
/// packet's RouteState, and a blocked head flit re-runs decide() every
/// cycle it waits — caching the port walk turns those retries into one
/// load. Invalidated whenever a hop updates the RouteState.
struct MinPortCache {
  RouterId router = kInvalid;  ///< router this entry is valid at
  /// Narrowed to 16 bits (ports are capped at 2047) so the memo packs
  /// into 8 bytes — this struct sits inside every pooled Packet.
  std::int16_t port = -1;
  std::int8_t cls = 0;  ///< PortClass of `port`
};

/// Packet::flags bits, set by the workload layer (traffic/workload.hpp).
/// kPacketFlagReply marks a reply message; kPacketFlagNoReply suppresses
/// reply generation on delivery (trace rows, the body packets of a
/// multi-packet message). A plain request carries flags == 0.
inline constexpr std::uint8_t kPacketFlagReply = 1;
inline constexpr std::uint8_t kPacketFlagNoReply = 2;

/// One in-flight packet: exactly one 64-byte, cache-line-aligned pool
/// slot. Its size in flits and the flit size are engine constants
/// (flits_per_packet(), flit_phits()), so the packet does not repeat them.
struct alignas(64) Packet {
  // Hot while routing (read by every decide() retry) — keep at the front
  // so they share a cache line.
  NodeId src = kInvalid;
  NodeId dst = kInvalid;
  std::int32_t size_phits = 0;
  RouteState rs;
  /// Decision-retry memo; mutable because deciding doesn't alter a route.
  mutable MinPortCache min_cache;
  std::uint8_t flags = 0;  ///< workload flag bits (kPacketFlag*)

  // Read at delivery only.
  Cycle created = 0;   ///< cycle the source generated it (queue time counts)
  Cycle injected = 0;  ///< cycle its head entered the injection buffer
};
static_assert(sizeof(Packet) == 64, "a packet is one cache line");

/// One buffered flit: 8 bytes. Every flit of a run is flit_phits() phits
/// long, so the size lives in the engine, not in each of the millions of
/// flits that sit in the VC buffers and the timing wheels.
struct Flit {
  PacketId packet = kInvalid;
  std::int16_t index = 0;  ///< position in its packet (0 = head)
  bool head = false;
  bool tail = false;
};
static_assert(sizeof(Flit) == 8);

// Flits are copied into VC buffer chunks and event slabs with plain
// stores; keep them trivially copyable.
static_assert(std::is_trivially_copyable_v<Flit>);

/// Packet storage that never moves a packet. Slots come in fixed chunks
/// of kChunkPackets (4 KiB), reached through one chunk table; growing the
/// pool adds a chunk and never copies a live packet, so there is no
/// moment where an old and a new buffer are both resident, and a
/// Packet& stays valid for the packet's whole life.
///
/// The pool is split into slabs, one per engine shard (the exact engine
/// uses one). Each slab has its own free list and its own chunks, so
/// shards allocate concurrently without sharing anything but the chunk
/// table, which only grows at serial points (reserve_table). Chunk k of
/// slab s sits in table row k, column s, so a packet id is
///   ((k * num_slabs + s) << kChunkShift) | slot
/// and operator[] is one table load plus the slot. With one slab the ids
/// are 0, 1, 2, ... exactly as a growing vector would hand them out.
class PacketPool {
 public:
  static constexpr int kChunkShift = 6;
  static constexpr std::size_t kChunkPackets = std::size_t{1} << kChunkShift;

  explicit PacketPool(std::size_t num_slabs = 1) { reset(num_slabs); }

  /// Drop every packet and start over with `num_slabs` empty slabs.
  void reset(std::size_t num_slabs);

  /// A cleared packet from slab `slab`: the slab's most recently released
  /// id, else its next never-used slot. Concurrent calls on different
  /// slabs are safe once reserve_table covered them.
  PacketId alloc(std::size_t slab = 0);
  /// Return `id` to the slab that allocated it.
  void release(PacketId id) { slabs_[slab_of(id)].free.push_back(id); }

  Packet& operator[](PacketId id) {
    const auto u = static_cast<std::size_t>(id);
    return chunks_[u >> kChunkShift]->slots[u & (kChunkPackets - 1)];
  }
  const Packet& operator[](PacketId id) const {
    const auto u = static_cast<std::size_t>(id);
    return chunks_[u >> kChunkShift]->slots[u & (kChunkPackets - 1)];
  }

  /// Grow the chunk table (serial callers only) so that slab `slab` can
  /// hand out `packets` more fresh ids without growing it: the sharded
  /// engine's parallel allocations then never move the table.
  void reserve_table(std::size_t slab, std::size_t packets) {
    const std::size_t rows =
        (slabs_[slab].handed_out + packets + kChunkPackets - 1) >>
        kChunkShift;
    if (rows * slabs_.size() > chunks_.size()) {
      chunks_.resize(rows * slabs_.size());
    }
  }

  std::size_t in_use() const;
  /// Slots in allocated chunks, over all slabs.
  std::size_t capacity() const;
  /// Heap bytes: chunks, the chunk table, the slab headers and free lists.
  std::size_t footprint_bytes() const;

  // --- checkpoint support -----------------------------------------------
  // Each slab's handed-out count and free-list ORDER are part of the saved
  // state: alloc() pops from the free list's back, so the ids of future
  // allocations replay exactly only if the list is restored verbatim.
  std::size_t num_slabs() const { return slabs_.size(); }
  std::size_t handed_out(std::size_t slab) const {
    return slabs_[slab].handed_out;
  }
  /// Id of the n-th slot slab `slab` ever handed out.
  PacketId id_at(std::size_t slab, std::size_t n) const {
    const std::size_t chunk = (n >> kChunkShift) * slabs_.size() + slab;
    return static_cast<PacketId>((chunk << kChunkShift) |
                                 (n & (kChunkPackets - 1)));
  }
  std::size_t slab_of(PacketId id) const {
    return (static_cast<std::size_t>(id) >> kChunkShift) % slabs_.size();
  }
  /// Inverse of id_at: the n with id_at(slab_of(id), n) == id.
  std::size_t index_in_slab(PacketId id) const {
    const auto u = static_cast<std::size_t>(id);
    return (((u >> kChunkShift) / slabs_.size()) << kChunkShift) |
           (u & (kChunkPackets - 1));
  }
  const std::vector<PacketId>& free_list(std::size_t slab) const {
    return slabs_[slab].free;
  }
  /// Ids of the packets in use, slab by slab in slot order.
  std::vector<PacketId> live_ids() const;
  /// Rebuild slab `slab` as having handed out `handed_out` slots (all
  /// cleared) with `free` as its free list. Call on a freshly reset pool.
  void restore_slab(std::size_t slab, std::size_t handed_out,
                    std::vector<PacketId> free);

 private:
  struct Chunk {
    Packet slots[kChunkPackets];
  };
  /// Cache-line aligned: shards update their own slab concurrently.
  struct alignas(64) Slab {
    std::vector<PacketId> free;
    std::size_t handed_out = 0;  ///< slots ever handed out, in order
  };

  /// Allocate the chunk that holds slot `n` of slab `slab`.
  void add_chunk(std::size_t slab, std::size_t n);

  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< [row * slabs + slab]
  std::vector<Slab> slabs_;
};

}  // namespace dfsim
