// ChunkSlab and ChunkQueue: the demand-allocated storage behind every
// input-VC flit FIFO (and, for ChunkSlab, the timing wheels). FIFO order
// across chunk boundaries, chunks returning to the slab as queues drain,
// a flat footprint under churn, and the non-consuming visit() that
// checkpoints rely on.
#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "sim/buffer.hpp"

namespace dfsim {
namespace {

Flit flit(PacketId packet, int index) {
  Flit f;
  f.packet = packet;
  f.index = static_cast<std::int16_t>(index);
  f.head = index == 0;
  return f;
}

void expect_same_flit(const Flit& a, const Flit& b) {
  EXPECT_EQ(a.packet, b.packet);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.head, b.head);
  EXPECT_EQ(a.tail, b.tail);
}

TEST(ChunkQueue, FifoOrderAcrossChunkBoundaries) {
  // A wormhole global VC (256 phits of 10-phit flits) holds 25 flits:
  // four chunks of seven. Interleave pushes and pops so the head offset
  // wraps inside chunks too.
  FlitSlab slab;
  FlitQueue q;
  std::deque<Flit> ref;
  for (int k = 0; k < 25; ++k) {
    q.push_back(slab, flit(k, k % 8));
    ref.push_back(flit(k, k % 8));
  }
  EXPECT_EQ(q.size(), 25);
  EXPECT_EQ(slab.chunks_in_use(), 4u);
  int next = 25;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_FALSE(q.empty());
      expect_same_flit(q.front(slab), ref.front());
      q.pop_front(slab);
      ref.pop_front();
    }
    for (int k = 0; k < 3; ++k) {
      q.push_back(slab, flit(next, next % 8));
      ref.push_back(flit(next, next % 8));
      ++next;
    }
    ASSERT_EQ(q.size(), static_cast<std::int32_t>(ref.size()));
  }
  while (!ref.empty()) {
    expect_same_flit(q.front(slab), ref.front());
    q.pop_front(slab);
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(ChunkQueue, EmptiedQueueReturnsItsChunks) {
  FlitSlab slab;
  FlitQueue a;
  FlitQueue b;
  for (int k = 0; k < 25; ++k) a.push_back(slab, flit(k, 0));
  for (int k = 0; k < 3; ++k) b.push_back(slab, flit(100 + k, 0));
  EXPECT_EQ(slab.chunks_in_use(), 5u);
  // Draining a past its first chunk hands that chunk back right away.
  for (int k = 0; k < 7; ++k) a.pop_front(slab);
  EXPECT_EQ(slab.chunks_in_use(), 4u);
  while (!a.empty()) a.pop_front(slab);
  EXPECT_EQ(slab.chunks_in_use(), 1u) << "only b's chunk is still held";
  while (!b.empty()) b.pop_front(slab);
  EXPECT_EQ(slab.chunks_in_use(), 0u);
  // The next queue to fill reuses the freed chunks before the slab grows.
  const std::size_t created = slab.num_chunks();
  FlitQueue c;
  for (int k = 0; k < 35; ++k) c.push_back(slab, flit(k, 0));
  EXPECT_EQ(slab.num_chunks(), created);
  EXPECT_EQ(slab.chunks_in_use(), 5u);
}

TEST(ChunkSlab, FootprintIsFlatUnderChurn) {
  // 64 queues of up to 25 flits (a wormhole global VC). Filling every
  // queue once reaches the most chunks they can ever hold together; after
  // that, 10^5 random push/pop operations must recycle chunks and never
  // grow the slab again.
  constexpr int kQueues = 64;
  constexpr std::size_t kDepth = 25;
  FlitSlab slab;
  std::vector<FlitQueue> queues(kQueues);
  std::vector<std::deque<Flit>> ref(kQueues);
  for (FlitQueue& q : queues) {
    for (std::size_t k = 0; k < kDepth; ++k) q.push_back(slab, flit(0, 0));
  }
  for (FlitQueue& q : queues) {
    while (!q.empty()) q.pop_front(slab);
  }
  const std::size_t full = slab.footprint_bytes();
  EXPECT_EQ(slab.num_chunks(), kQueues * 4u);
  EXPECT_EQ(slab.chunks_in_use(), 0u);

  Rng rng(7);
  for (int k = 0; k < 100000; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform(kQueues));
    if (ref[i].size() < kDepth && (ref[i].empty() || rng.bernoulli(0.5))) {
      queues[i].push_back(slab, flit(k, 0));
      ref[i].push_back(flit(k, 0));
    } else {
      ASSERT_EQ(queues[i].front(slab).packet, ref[i].front().packet);
      queues[i].pop_front(slab);
      ref[i].pop_front();
    }
  }
  EXPECT_EQ(slab.footprint_bytes(), full);
  std::size_t held = 0;
  for (const auto& r : ref) held += (r.size() + 6) / 7;
  EXPECT_LE(slab.chunks_in_use(), held + kQueues)
      << "a queue holds at most one partly-used chunk beyond its flits";
  for (FlitQueue& q : queues) {
    while (!q.empty()) q.pop_front(slab);
  }
  EXPECT_EQ(slab.chunks_in_use(), 0u);
}

TEST(ChunkQueue, VisitWalksFrontToBackWithoutConsuming) {
  FlitSlab slab;
  FlitQueue q;
  // Start mid-chunk so the walk crosses boundaries at an offset.
  for (int k = 0; k < 4; ++k) q.push_back(slab, flit(-1, 0));
  for (int k = 0; k < 4; ++k) q.pop_front(slab);
  for (int k = 0; k < 20; ++k) q.push_back(slab, flit(k, k));
  const std::size_t held = slab.chunks_in_use();
  std::vector<PacketId> seen;
  q.visit(slab, [&](const Flit& f) { seen.push_back(f.packet); });
  ASSERT_EQ(seen.size(), 20u);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k], static_cast<PacketId>(k));
  }
  EXPECT_EQ(q.size(), 20);
  EXPECT_EQ(slab.chunks_in_use(), held);
  EXPECT_EQ(q.front(slab).packet, 0);
  // An empty queue visits nothing.
  FlitQueue empty;
  empty.visit(slab, [&](const Flit&) { ADD_FAILURE(); });
}

TEST(ChunkSlab, ChunksNeverMoveWhileTheSlabGrows) {
  FlitSlab slab;
  FlitQueue q;
  q.push_back(slab, flit(42, 0));
  const Flit* addr = &q.front(slab);
  // Grow far past the first block of 16 chunks.
  std::vector<FlitQueue> others(200);
  for (FlitQueue& o : others) {
    for (int k = 0; k < 8; ++k) o.push_back(slab, flit(k, k));
  }
  EXPECT_GT(slab.num_chunks(), 300u);
  EXPECT_EQ(&q.front(slab), addr);
  EXPECT_EQ(addr->packet, 42);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slab[0]) % 64, 0u)
      << "64-byte chunks sit on cache lines";
}

}  // namespace
}  // namespace dfsim
