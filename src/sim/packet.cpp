#include "sim/packet.hpp"

#include <cassert>
#include <limits>

namespace dfsim {

void PacketPool::reset(std::size_t num_slabs) {
  assert(num_slabs > 0);
  chunks_.clear();
  slabs_.assign(num_slabs, Slab{});
}

void PacketPool::add_chunk(std::size_t slab, std::size_t n) {
  const std::size_t c =
      static_cast<std::size_t>(id_at(slab, n)) >> kChunkShift;
  if (c >= chunks_.size()) {
    // Whole rows, so every slab's column exists.
    chunks_.resize((c / slabs_.size() + 1) * slabs_.size());
  }
  chunks_[c] = std::make_unique<Chunk>();
}

PacketId PacketPool::alloc(std::size_t slab) {
  Slab& s = slabs_[slab];
  if (!s.free.empty()) {
    const PacketId id = s.free.back();
    s.free.pop_back();
    (*this)[id] = Packet{};
    return id;
  }
  assert(static_cast<std::size_t>(id_at(slab, s.handed_out)) <
         static_cast<std::size_t>(std::numeric_limits<PacketId>::max()));
  // A fresh chunk is value-initialized, so its slots are already clear.
  if ((s.handed_out & (kChunkPackets - 1)) == 0) add_chunk(slab, s.handed_out);
  return id_at(slab, s.handed_out++);
}

std::size_t PacketPool::in_use() const {
  std::size_t n = 0;
  for (const Slab& s : slabs_) n += s.handed_out - s.free.size();
  return n;
}

std::size_t PacketPool::capacity() const {
  std::size_t n = 0;
  for (const Slab& s : slabs_) {
    n += (s.handed_out + kChunkPackets - 1) & ~(kChunkPackets - 1);
  }
  return n;
}

std::size_t PacketPool::footprint_bytes() const {
  std::size_t total = capacity() * sizeof(Packet) +
                      chunks_.capacity() * sizeof(chunks_[0]) +
                      slabs_.capacity() * sizeof(Slab);
  for (const Slab& s : slabs_) total += s.free.capacity() * sizeof(PacketId);
  return total;
}

std::vector<PacketId> PacketPool::live_ids() const {
  std::vector<PacketId> live;
  for (std::size_t s = 0; s < slabs_.size(); ++s) {
    std::vector<std::uint8_t> is_live(slabs_[s].handed_out, 1);
    for (const PacketId id : slabs_[s].free) is_live[index_in_slab(id)] = 0;
    for (std::size_t n = 0; n < is_live.size(); ++n) {
      if (is_live[n]) live.push_back(id_at(s, n));
    }
  }
  return live;
}

void PacketPool::restore_slab(std::size_t slab, std::size_t handed_out,
                              std::vector<PacketId> free) {
  Slab& s = slabs_[slab];
  assert(s.handed_out == 0);
  for (std::size_t n = 0; n < handed_out; n += kChunkPackets) {
    add_chunk(slab, n);
  }
  s.handed_out = handed_out;
  s.free = std::move(free);
}

}  // namespace dfsim
