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

/// One FIFO virtual-channel buffer on an input port. Occupancy is counted
/// in phits against the configured capacity for the port class; credits
/// keep every VC within buffer_capacity(class) / flit size flits. The
/// flits themselves live in chunks of the engine's flit slab for the
/// router's shard, taken as the VC fills and returned as it drains, so
/// an empty VC holds no flit memory at all.
struct InputVc {
  FlitQueue fifo;  // 12 bytes; every call passes the router's flit slab
  std::int32_t occupancy_phits = 0;

  /// Wormhole: while a multi-flit packet is being forwarded, body flits
  /// must follow the head's switch decision. Set when a head flit that is
  /// not also a tail wins allocation; cleared when the tail is forwarded.
  /// 16-bit on purpose (SimConfig::validate caps ports at 2047): the
  /// whole struct packs into 32 bytes, two VCs per cache line on the
  /// allocation scan.
  std::int16_t bound_out_port = kInvalid16;
  std::int16_t bound_out_vc = kInvalid16;

  /// Cycle at which the current head flit reached the queue head; the
  /// deadlock watchdog flags heads that stay blocked too long (this
  /// catches partial deadlocks that leave the rest of the network moving).
  Cycle head_since = 0;

  bool empty() const { return fifo.empty(); }

  static constexpr std::int16_t kInvalid16 = -1;
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
};

}  // namespace dfsim
