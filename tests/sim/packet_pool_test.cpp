// PacketPool (never-moving chunked slabs) and the engine's memory audit:
// id order, address stability across growth, per-slab ownership, and
// Engine::footprint_bytes() accounting for what the pool holds.
#include "sim/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

/// The pool this one replaced: one growing vector of slots plus a LIFO
/// free list. Only the id sequence matters here.
class VectorPoolReference {
 public:
  PacketId alloc() {
    if (!free_.empty()) {
      const PacketId id = free_.back();
      free_.pop_back();
      return id;
    }
    return static_cast<PacketId>(slots_++);
  }
  void release(PacketId id) { free_.push_back(id); }

 private:
  std::size_t slots_ = 0;
  std::vector<PacketId> free_;
};

TEST(PacketPool, OneSlabHandsOutTheVectorPoolIdSequence) {
  // A recorded churn trace: a ramp to ~1500 live packets (24 chunks),
  // then random alloc/release in random order, then a drain and a second
  // ramp that must reuse the freed ids before growing again.
  PacketPool pool;
  VectorPoolReference ref;
  std::vector<PacketId> live;
  Rng rng(2024);
  std::size_t steps = 0;
  const auto alloc = [&] {
    const PacketId id = pool.alloc();
    ASSERT_EQ(id, ref.alloc()) << "at step " << steps;
    live.push_back(id);
  };
  const auto release_random = [&] {
    const std::size_t k = static_cast<std::size_t>(rng.uniform(live.size()));
    std::swap(live[k], live.back());
    pool.release(live.back());
    ref.release(live.back());
    live.pop_back();
  };
  for (; steps < 1500; ++steps) alloc();
  for (; steps < 20000; ++steps) {
    if (live.empty() || rng.bernoulli(0.5)) {
      alloc();
    } else {
      release_random();
    }
  }
  while (!live.empty()) release_random();
  for (int k = 0; k < 3000; ++k, ++steps) alloc();
  EXPECT_EQ(pool.in_use(), live.size());
}

TEST(PacketPool, LivePacketsNeverMoveWhilePoolGrows) {
  PacketPool pool;
  const PacketId first = pool.alloc();
  Packet* addr = &pool[first];
  addr->src = 7;
  addr->created = 1234;
  // Grow far past the first chunk and the chunk table's first capacity.
  for (int k = 0; k < 100000; ++k) pool[pool.alloc()].src = k;
  EXPECT_EQ(&pool[first], addr);
  EXPECT_EQ(pool[first].src, 7);
  EXPECT_EQ(pool[first].created, 1234u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(addr) % 64, 0u)
      << "packets are cache-line aligned";
}

TEST(PacketPool, ReleasedPacketReturnsToItsOwnSlab) {
  PacketPool pool(5);
  std::vector<PacketId> ids;
  for (std::size_t s = 0; s < 5; ++s) {
    for (int k = 0; k < 70; ++k) {  // > one chunk per slab
      const PacketId id = pool.alloc(s);
      EXPECT_EQ(pool.slab_of(id), s);
      EXPECT_EQ(pool.id_at(s, pool.index_in_slab(id)), id);
      ids.push_back(id);
    }
  }
  EXPECT_EQ(std::set<PacketId>(ids.begin(), ids.end()).size(), ids.size());
  const PacketId victim = ids[3 * 70 + 5];  // slab 3
  pool[victim].dst = 99;
  pool.release(victim);
  EXPECT_EQ(pool.free_list(3), std::vector<PacketId>{victim});
  EXPECT_NE(pool.alloc(2), victim);
  const PacketId again = pool.alloc(3);
  EXPECT_EQ(again, victim);
  EXPECT_EQ(pool[again].dst, kInvalid) << "reused slots come back cleared";
}

TEST(PacketPool, ReservedSlabsAllocateConcurrently) {
  // The sharded engine's contract: after a serial reserve_table, each
  // slab's owner may allocate (and so add chunks) concurrently.
  constexpr std::size_t kSlabs = 4;
  constexpr std::size_t kPerSlab = 1000;
  PacketPool pool(kSlabs);
  for (std::size_t s = 0; s < kSlabs; ++s) pool.reserve_table(s, kPerSlab);
  std::vector<std::vector<PacketId>> got(kSlabs);
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < kSlabs; ++s) {
    workers.emplace_back([&, s] {
      for (std::size_t k = 0; k < kPerSlab; ++k) {
        const PacketId id = pool.alloc(s);
        pool[id].src = static_cast<NodeId>(s);
        got[s].push_back(id);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t s = 0; s < kSlabs; ++s) {
    for (std::size_t k = 0; k < kPerSlab; ++k) {
      EXPECT_EQ(got[s][k], pool.id_at(s, k));
      EXPECT_EQ(pool[got[s][k]].src, static_cast<NodeId>(s));
    }
  }
  EXPECT_EQ(pool.in_use(), kSlabs * kPerSlab);
}

TEST(PacketPool, FootprintCountsChunksTableAndFreeLists) {
  PacketPool pool(3);
  const std::size_t empty = pool.footprint_bytes();
  std::vector<PacketId> ids;
  for (int k = 0; k < 200; ++k) ids.push_back(pool.alloc(1));
  // 200 packets need 4 chunks of 64 in slab 1, plus table rows.
  EXPECT_EQ(pool.capacity(), 4 * PacketPool::kChunkPackets);
  const std::size_t grown = pool.footprint_bytes();
  EXPECT_GE(grown, empty + 4 * PacketPool::kChunkPackets * sizeof(Packet) +
                       4 * 3 * sizeof(void*));
  for (const PacketId id : ids) pool.release(id);
  EXPECT_GE(pool.footprint_bytes(), grown + 200 * sizeof(PacketId));
}

// --- engine memory audit -------------------------------------------------

/// Measured 1254 bytes/terminal, plus 10% (1510 with every port padded
/// to the largest VC count in 58 bytes of per-VC state; earlier 2814,
/// 3461 with the static flit arena, 5184 with 12-byte flits, 72-byte
/// packets and doubling slabs).
constexpr double kH4BytesPerTerminalCeiling = 1380.0;

struct ShardedNet {
  explicit ShardedNet(int h, int jobs, double load)
      : topo(h),
        routing(make_routing("minimal", topo, {})),
        pattern(topo),
        engine(topo, config(jobs), *routing, pattern, injection(load)) {}

  static EngineConfig config(int jobs) {
    EngineConfig ec;
    ec.sharded = true;
    ec.shard_jobs = jobs;
    return ec;
  }
  static InjectionProcess injection(double load) {
    InjectionProcess inj;
    inj.load = load;
    return inj;
  }

  DragonflyTopology topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  UniformPattern pattern;
  Engine engine;
};

TEST(EngineFootprint, CountsPerShardSlabsAndFreeLists) {
  // Four workers cut h=2's nine groups into four shards (2, 2, 2, 3).
  ShardedNet net(2, 4, 0.6);
  const PacketPool& pool = net.engine.packet_pool();
  EXPECT_EQ(pool.num_slabs(), 4u);
  const std::size_t before = net.engine.footprint_bytes();
  const std::size_t pool_before = pool.footprint_bytes();
  net.engine.run_until(600);
  ASSERT_FALSE(net.engine.deadlock_detected());

  // Every shard injected, so every slab holds at least one chunk, and
  // deliveries filled the free lists.
  std::size_t free_ids = 0;
  for (std::size_t s = 0; s < pool.num_slabs(); ++s) {
    EXPECT_GT(pool.handed_out(s), 0u) << "slab " << s;
    free_ids += pool.free_list(s).size();
  }
  EXPECT_GT(free_ids, 0u);
  EXPECT_GE(pool.footprint_bytes(),
            pool.capacity() * sizeof(Packet) + free_ids * sizeof(PacketId));
  // The engine total moves with the pool: nothing the pool allocated is
  // missing from it.
  EXPECT_GE(net.engine.footprint_bytes() - before,
            pool.footprint_bytes() - pool_before);
  EXPECT_GE(net.engine.footprint_bytes(),
            Engine::compiled_size() + pool.footprint_bytes());
}

TEST(EngineFootprint, CountsEveryFlitSlab) {
  // The input-VC flits live in one slab per shard (one per worker in
  // sharded mode, one in exact mode); the engine total must grow by at
  // least what the slabs and the pool took on.
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "exact");
    DragonflyTopology topo(2);
    const auto routing = make_routing("minimal", topo, {});
    UniformPattern pattern(topo);
    EngineConfig ec;
    ec.sharded = sharded;
    ec.shard_jobs = 4;
    Engine engine(topo, ec, *routing, pattern, ShardedNet::injection(0.8));
    ASSERT_EQ(engine.num_flit_slabs(), sharded ? 4u : 1u);
    const std::size_t before = engine.footprint_bytes();
    const std::size_t pool_before = engine.packet_pool().footprint_bytes();
    std::size_t slabs_before = 0;
    for (std::size_t s = 0; s < engine.num_flit_slabs(); ++s) {
      slabs_before += engine.flit_slab(s).footprint_bytes();
    }
    engine.run_until(600);
    ASSERT_FALSE(engine.deadlock_detected());

    std::size_t slabs = 0;
    for (std::size_t s = 0; s < engine.num_flit_slabs(); ++s) {
      const FlitSlab& slab = engine.flit_slab(s);
      EXPECT_GT(slab.num_chunks(), 0u) << "slab " << s << " saw no flits";
      EXPECT_GE(slab.footprint_bytes(),
                slab.num_chunks() * sizeof(FlitSlab::Chunk));
      slabs += slab.footprint_bytes();
    }
    EXPECT_GE(engine.footprint_bytes() - before,
              (slabs - slabs_before) +
                  (engine.packet_pool().footprint_bytes() - pool_before));
  }
}

TEST(EngineFootprint, ShardedH4BytesPerTerminalUnderCeiling) {
  // The h=4 scale point (264 routers, 1056 terminals) at load 0.3. The
  // ceiling is the measured value plus 10%, so a record or wheel that
  // grows back fails here first.
  ShardedNet net(4, 2, 0.3);
  net.engine.run_until(600);
  ASSERT_FALSE(net.engine.deadlock_detected());
  ASSERT_GT(net.engine.delivered_packets(), 0u);
  const double per_terminal =
      static_cast<double>(net.engine.footprint_bytes()) /
      static_cast<double>(net.topo.num_terminals());
  EXPECT_LT(per_terminal, kH4BytesPerTerminalCeiling) << per_terminal;
}

}  // namespace
}  // namespace dfsim
