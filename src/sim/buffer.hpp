// Per-(port, VC) buffer state of an input-buffered router.
#pragma once

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "sim/packet.hpp"

namespace dfsim {

/// Flits per FlitQueue chunk: with the chunk's 8-byte link header, seven
/// 8-byte flits fill exactly one 64-byte cache line.
inline constexpr int kFlitChunkFlits = 7;
using FlitQueue = ChunkQueue<Flit, kFlitChunkFlits>;
using FlitSlab = FlitQueue::Slab;
static_assert(sizeof(FlitQueue) == 12 && sizeof(FlitSlab::Chunk) == 64);

/// One FIFO virtual-channel buffer on an input port, together with
/// everything the allocation scan reads about it, so that a VC visit
/// touches one 32-byte record (two per cache line). Every flit is the
/// engine's flit size, so the VC's occupancy is its depth times that size;
/// credits keep every VC within buffer_capacity(class) / flit size flits.
/// The flits themselves live in chunks of the engine's flit slab for the
/// router's shard, taken as the VC fills and returned as it drains, so an
/// empty VC holds no flit memory at all.
///
/// Output hops (`bound`, and `head_hop` when it is one) are encoded as
/// port << 4 | vc in 16 bits: SimConfig::validate caps ports at 2047 and
/// the engine caps VCs per port at 16, so 2047 * 16 + 15 is INT16_MAX.
struct InputVc {
  FlitQueue fifo;  // 12 bytes; every call passes the router's flit slab

  /// Wormhole: while a multi-flit packet is being forwarded, body flits
  /// must follow the head's switch decision. Set when a head flit that is
  /// not also a tail wins allocation; kNoHop again once the tail is
  /// forwarded.
  std::int16_t bound = kNoHop;

  /// The routing mechanism's pure_minimal_hop verdict for the current
  /// head flit: kHeadUnknown (ask on the next scan), kHeadImpure (full
  /// decide() every retry), or the encoded pure hop. Reset whenever the
  /// VC's head changes (send, or arrival into an empty VC); the head's
  /// RouteState cannot change between those points, so a cached verdict
  /// never goes stale. Pure retries then touch neither the packet pool nor
  /// the flit slab.
  std::int16_t head_hop = kHeadUnknown;

  /// Cycle at which the current head flit reached the queue head; the
  /// deadlock watchdog flags heads that stay blocked too long (this
  /// catches partial deadlocks that leave the rest of the network moving).
  Cycle head_since = 0;

  /// Retry suppression: while a head provably cannot move (see
  /// Engine::suppress_retry) the scan skips the VC until this cycle.
  Cycle sleep_until = 0;

  bool empty() const { return fifo.empty(); }

  static constexpr std::int16_t kNoHop = -1;
  static constexpr std::int16_t kHeadUnknown = -1;
  static constexpr std::int16_t kHeadImpure = -2;
  static constexpr std::int16_t encode_hop(PortId port, VcId vc) {
    return static_cast<std::int16_t>((port << 4) | vc);
  }
  static constexpr PortId hop_port(std::int16_t hop) { return hop >> 4; }
  static constexpr VcId hop_vc(std::int16_t hop) { return hop & 0xf; }
};
static_assert(sizeof(InputVc) == 32);

/// Credit-tracking state for one VC of an output port. `credits_phits` is
/// the free space believed to exist in the downstream input buffer; it is
/// decremented on send and incremented when a credit returns one link
/// latency after the downstream router drains the flit.
struct OutputVc {
  std::int32_t credits_phits = 0;

  /// Wormhole: the downstream VC is private to one packet from its head
  /// until its tail. kInvalid when free for a new header.
  PacketId bound_packet = kInvalid;

  /// Head of the intrusive list of input VCs (engine VC indices, linked
  /// through the engine's per-VC next array) whose pure heads wait on
  /// this VC's credits or ownership; -1 when none wait.
  std::int32_t waiter_head = -1;
};
static_assert(sizeof(OutputVc) == 12);

}  // namespace dfsim
