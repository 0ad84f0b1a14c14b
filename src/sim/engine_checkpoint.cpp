// Engine checkpoint/restart: serialize the flat engine state so a run
// killed at cycle C resumes bit-identically (exact-mode determinism).
//
// What is saved: the clock, the RNG cursor, every input-VC FIFO, credits
// and wormhole bindings, switch round-robin pointers, the live packets,
// per-terminal source queues / burst budgets / ON/OFF chains, the timing
// wheels' in-flight events, delivery counters, the routing mechanism's
// cross-cycle state, and (v4) the workload layer: per-packet flag bytes,
// the forced-injection (created, dst, flags) queues, per-terminal offered
// loads and the trace replay cursor.
//
// A sharded stream is canonical (v6): nothing in it depends on how the
// routers were cut into shards, so the same run saves the same bytes at
// any worker count and restores at any other. Two things would otherwise
// leak the partition:
//   - packet ids, which encode the creating shard's pool slab. The live
//     packets are renumbered densely in (injected, src) order — unique,
//     since a terminal injects at most one packet per cycle — and a
//     restore hands out fresh ids from its own slabs. Ids name pool slots
//     and nothing else, so the renumbering changes no result.
//   - the per-shard timing wheels. The stream holds one wheel triple:
//     each slot lists the shards' events in ascending shard order, flits
//     and credits then sorted by (router, port, vc), a key that occurs at
//     most once per slot. A slot's deliveries need no sort: they were all
//     staged in one cycle, shard by shard in ascending router order.
// Exact mode has one shard and keeps its slot order and pool numbering
// verbatim (slot layout and free-list order, so future ids replay); its
// streams are laid out as in v5.
//
// What is deliberately NOT saved, because rebuilding it is decision- and
// RNG-neutral: the retry-suppression caches (vc_sleep_until_, waiter
// lists, head_hop_ verdicts) — a woken head redoes a usability check that
// fails identically; pure verdicts are recomputed by pure_minimal_hop,
// which is RNG-free by contract — the per-packet minimal-port memos, and
// the lazily-cleared pending-terminal bits (recomputed as their minimal
// set, which the injection loop treats identically).
#include <algorithm>
#include <istream>
#include <ostream>
#include <tuple>

#include "common/serialize.hpp"
#include "sim/engine.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {

constexpr char kMagic[8] = {'D', 'F', 'E', 'N', 'G', 'C', 'K', '\n'};
constexpr std::uint64_t kEndSentinel = 0xdf51aced0c0ffee1ULL;

void write_flit(std::ostream& os, const Flit& f) {
  ser::write_i32(os, f.packet);
  ser::write_i32(os, f.index);
  ser::write_u8(os, f.head ? 1 : 0);
  ser::write_u8(os, f.tail ? 1 : 0);
}

Flit read_flit(std::istream& is) {
  Flit f;
  f.packet = ser::read_i32(is, "flit packet id");
  f.index = static_cast<std::int16_t>(ser::read_i32(is, "flit index"));
  f.head = ser::read_u8(is, "flit head flag") != 0;
  f.tail = ser::read_u8(is, "flit tail flag") != 0;
  return f;
}

void write_packet(std::ostream& os, const Packet& p) {
  ser::write_i32(os, p.src);
  ser::write_i32(os, p.dst);
  ser::write_i32(os, p.size_phits);
  ser::write_u64(os, p.created);
  ser::write_u64(os, p.injected);
  const RouteState& rs = p.rs;
  ser::write_i32(os, rs.dst_router);
  ser::write_i32(os, rs.dst_group);
  ser::write_i32(os, rs.src_group);
  ser::write_i32(os, rs.inter_group);
  ser::write_u8(os, rs.valiant ? 1 : 0);
  ser::write_i32(os, rs.global_hops);
  ser::write_i32(os, rs.local_hops_group);
  ser::write_i32(os, rs.local_mis_group);
  ser::write_i32(os, rs.local_hops_total);
  ser::write_i32(os, rs.total_hops);
  ser::write_i32(os, rs.prev_local_idx);
  ser::write_i32(os, rs.last_local_vc);
  ser::write_u8(os, p.flags);
  // min_cache is a pure memo: recomputed on first use after restore.
}

Packet read_packet(std::istream& is) {
  Packet p;
  p.src = ser::read_i32(is, "packet src");
  p.dst = ser::read_i32(is, "packet dst");
  p.size_phits = ser::read_i32(is, "packet size");
  p.created = ser::read_u64(is, "packet created cycle");
  p.injected = ser::read_u64(is, "packet injected cycle");
  RouteState& rs = p.rs;
  rs.dst_router = ser::read_i32(is, "route dst router");
  rs.dst_group = ser::read_i32(is, "route dst group");
  rs.src_group = ser::read_i32(is, "route src group");
  rs.inter_group = ser::read_i32(is, "route inter group");
  rs.valiant = ser::read_u8(is, "route valiant flag") != 0;
  rs.global_hops =
      static_cast<std::int8_t>(ser::read_i32(is, "route global hops"));
  rs.local_hops_group =
      static_cast<std::int8_t>(ser::read_i32(is, "route local hops"));
  rs.local_mis_group =
      static_cast<std::int8_t>(ser::read_i32(is, "route local misroutes"));
  rs.local_hops_total =
      static_cast<std::int8_t>(ser::read_i32(is, "route local hops total"));
  rs.total_hops =
      static_cast<std::int8_t>(ser::read_i32(is, "route total hops"));
  rs.prev_local_idx =
      static_cast<std::int8_t>(ser::read_i32(is, "route prev local idx"));
  rs.last_local_vc =
      static_cast<std::int8_t>(ser::read_i32(is, "route last local vc"));
  p.flags = ser::read_u8(is, "packet flags");
  return p;
}

}  // namespace

void Engine::save_checkpoint(std::ostream& os) const {
  // --- versioned, shape-checked header ----------------------------------
  ser::write_bytes(os, kMagic, sizeof(kMagic));
  ser::write_u32(os, kCheckpointVersion);
  ser::write_u64(os, static_cast<std::uint64_t>(topo_.num_routers()));
  ser::write_u64(os, static_cast<std::uint64_t>(topo_.num_terminals()));
  ser::write_u64(os, static_cast<std::uint64_t>(ports_));
  ser::write_u64(os, static_cast<std::uint64_t>(vc_stride_));
  ser::write_u64(os, static_cast<std::uint64_t>(flit_phits_));
  ser::write_u64(os, static_cast<std::uint64_t>(flits_per_packet_));
  ser::write_u64(os, ring_size_);
  ser::write_u8(os, static_cast<std::uint8_t>(cfg_.flow));
  ser::write_u8(os, onoff_ ? 1 : 0);
  // v2: engine mode. The two steppers draw from different RNG streams, so
  // resuming a sharded run under exact (or vice versa) would silently fork
  // the trajectory.
  ser::write_u8(os, sharded_ ? 1 : 0);
  ser::write_string(os, routing_.name());

  // --- clock, RNG, counters ---------------------------------------------
  ser::write_u64(os, now_);
  ser::write_u64(os, last_progress_);
  ser::write_u8(os, deadlock_ ? 1 : 0);
  std::uint64_t rng_state[Rng::kStateWords];
  rng_.save_state(rng_state);
  for (const auto w : rng_state) ser::write_u64(os, w);
  ser::write_f64(os, injection_.load);
  ser::write_u64(os, delivered_packets_);
  ser::write_u64(os, delivered_phits_);
  for (const auto s : phits_sent_) ser::write_u64(os, s);
  ser::write_u64(os, dead_dst_drops_);

  // --- packet pool: one slab in the stream, renumbered when sharded ------
  std::vector<PacketId> live;  // in stream order
  for (std::size_t s = 0; s < pool_.num_slabs(); ++s) {
    std::vector<std::uint8_t> is_live(pool_.handed_out(s), 1);
    for (const PacketId id : pool_.free_list(s)) {
      is_live[pool_.index_in_slab(id)] = 0;
    }
    for (std::size_t n = 0; n < is_live.size(); ++n) {
      if (is_live[n]) live.push_back(pool_.id_at(s, n));
    }
  }
  std::vector<PacketId> stream_id;  // pool id -> stream id (sharded mode)
  if (sharded_ && !live.empty()) {
    std::sort(live.begin(), live.end(), [&](PacketId a, PacketId b) {
      return std::tie(pool_[a].injected, pool_[a].src) <
             std::tie(pool_[b].injected, pool_[b].src);
    });
    const auto max_id =
        static_cast<std::size_t>(*std::max_element(live.begin(), live.end()));
    stream_id.assign(max_id + 1, kInvalid);
    for (std::size_t n = 0; n < live.size(); ++n) {
      stream_id[static_cast<std::size_t>(live[n])] = static_cast<PacketId>(n);
    }
  }
  const auto sid = [&](PacketId id) {
    return sharded_ && id != kInvalid ? stream_id[static_cast<std::size_t>(id)]
                                      : id;
  };
  ser::write_u64(os, 1);  // slab count
  if (sharded_) {
    ser::write_u64(os, live.size());
    ser::write_u64(os, 0);  // dense: no free slots
  } else {
    ser::write_u64(os, pool_.handed_out(0));
    ser::write_u64(os, pool_.free_list(0).size());
    for (const PacketId id : pool_.free_list(0)) ser::write_i32(os, id);
  }
  for (const PacketId id : live) write_packet(os, pool_[id]);

  // --- router state: input/output VCs, per-port scan state --------------
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    const FlitSlab& slab = router_flit_slab(r);
    for (PortId p = 0; p < ports_; ++p) {
      for (VcId v = 0; v < vc_count(p); ++v) {
        const InputVc& ivc = in_vcs_[vc_index(r, p, v)];
        ser::write_u32(os, static_cast<std::uint32_t>(ivc.fifo.size()));
        ivc.fifo.visit(slab, [&](Flit f) {
          f.packet = sid(f.packet);
          write_flit(os, f);
        });
        ser::write_i32(os, ivc.occupancy_phits);
        ser::write_i32(os, ivc.bound_out_port);
        ser::write_i32(os, ivc.bound_out_vc);
        ser::write_u64(os, ivc.head_since);
        const OutputVc& ovc = out_vcs_[vc_index(r, p, v)];
        ser::write_i32(os, ovc.credits_phits);
        ser::write_i32(os, sid(ovc.bound_packet));
      }
      ser::write_u64(os, out_busy_until_[port_index(r, p)]);
      ser::write_u32(os, in_scan_[port_index(r, p)]);
      ser::write_u32(os, out_rr_[port_index(r, p)]);
    }
  }

  // --- terminal injection state -----------------------------------------
  for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
    const TerminalState& ts = terminals_[static_cast<std::size_t>(t)];
    ser::write_u64(os, ts.pending_created.size());
    ts.pending_created.for_each(
        [&](const Cycle c) { ser::write_u64(os, c); });
    if (has_forced_dst_) {
      // v4: forced entries are (created, dst, flags) triples; the three
      // parallel queues always hold the same count, serialized
      // queue-major.
      const auto ti = static_cast<std::size_t>(t);
      const auto& fd = forced_dst_[ti];
      ser::write_u64(os, fd.size());
      fd.for_each([&](const NodeId d) { ser::write_i32(os, d); });
      forced_created_[ti].for_each(
          [&](const Cycle c) { ser::write_u64(os, c); });
      forced_flags_[ti].for_each(
          [&](const std::uint8_t f) { ser::write_u8(os, f); });
    } else {
      ser::write_u64(os, 0);
    }
    ser::write_u64(os, ts.burst_remaining);
    ser::write_u64(os, ts.link_busy_until);
    ser::write_i32(os, ts.inflight_phits);
  }
  if (onoff_) {
    for (const std::uint8_t s : onoff_state_) ser::write_u8(os, s);
  }

  // --- workload state (v4) ----------------------------------------------
  ser::write_u8(os, has_terminal_loads_ ? 1 : 0);
  if (has_terminal_loads_) {
    for (const double p : terminal_gen_prob_) ser::write_f64(os, p);
  }
  ser::write_u8(os, workload_ != nullptr ? 1 : 0);
  ser::write_u64(os, workload_ != nullptr ? workload_->cursor() : 0);

  // --- timing wheels: one triple, every shard's events per slot -----------
  const auto by_key = [](const auto& x, const auto& y) {
    return std::tie(x.router, x.port, x.vc) < std::tie(y.router, y.port, y.vc);
  };
  std::vector<FlitEvent> flits;
  std::vector<CreditEvent> credits;
  for (std::size_t slot = 0; slot < ring_size_; ++slot) {
    flits.clear();
    credits.clear();
    std::size_t deliveries = 0;
    for (const Shard& s : shards_) {
      s.flit_ring.visit(slot,
                        [&](const FlitEvent& ev) { flits.push_back(ev); });
      s.credit_ring.visit(
          slot, [&](const CreditEvent& ev) { credits.push_back(ev); });
      deliveries += s.delivery_ring.slot_size(slot);
    }
    if (sharded_) {
      std::stable_sort(flits.begin(), flits.end(), by_key);
      std::stable_sort(credits.begin(), credits.end(), by_key);
    }
    ser::write_u32(os, static_cast<std::uint32_t>(flits.size()));
    for (FlitEvent ev : flits) {
      ser::write_i32(os, ev.router);
      ser::write_i32(os, ev.port);
      ser::write_i32(os, ev.vc);
      ev.flit.packet = sid(ev.flit.packet);
      write_flit(os, ev.flit);
    }
    ser::write_u32(os, static_cast<std::uint32_t>(credits.size()));
    for (const CreditEvent& ev : credits) {
      ser::write_i32(os, ev.router);
      ser::write_i32(os, ev.port);
      ser::write_i32(os, ev.vc);
    }
    ser::write_u32(os, static_cast<std::uint32_t>(deliveries));
    for (const Shard& s : shards_) {
      s.delivery_ring.visit(
          slot, [&](const PacketId id) { ser::write_i32(os, sid(id)); });
    }
  }

  // --- routing mechanism state ------------------------------------------
  routing_.save_state(os);
  ser::write_u64(os, kEndSentinel);
}

void Engine::restore(std::istream& is) {
  if (now_ != 0 || pool_.in_use() != 0) {
    throw std::logic_error(
        "Engine::restore requires a freshly-constructed engine (same "
        "config as the checkpointed run)");
  }

  // --- header ------------------------------------------------------------
  char magic[8];
  ser::read_bytes(is, magic, sizeof(magic), "checkpoint magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "not a dfsim engine checkpoint (bad magic bytes)");
  }
  const std::uint32_t version = ser::read_u32(is, "checkpoint version");
  if (version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint format version " + std::to_string(version) +
        " is not supported; this build reads " +
        std::to_string(kCheckpointVersion) +
        "; re-run the checkpointed experiment");
  }
  ser::expect_u64(is, static_cast<std::uint64_t>(topo_.num_routers()),
                  "router count");
  ser::expect_u64(is, static_cast<std::uint64_t>(topo_.num_terminals()),
                  "terminal count");
  ser::expect_u64(is, static_cast<std::uint64_t>(ports_),
                  "ports per router");
  ser::expect_u64(is, static_cast<std::uint64_t>(vc_stride_), "VC stride");
  ser::expect_u64(is, static_cast<std::uint64_t>(flit_phits_),
                  "flit phits");
  ser::expect_u64(is, static_cast<std::uint64_t>(flits_per_packet_),
                  "flits per packet");
  ser::expect_u64(is, ring_size_, "timing-wheel size");
  const std::uint8_t flow = ser::read_u8(is, "flow control");
  if (flow != static_cast<std::uint8_t>(cfg_.flow)) {
    throw std::runtime_error(
        "checkpoint mismatch: flow-control discipline differs from this "
        "configuration");
  }
  const std::uint8_t onoff = ser::read_u8(is, "onoff flag");
  if ((onoff != 0) != onoff_) {
    throw std::runtime_error(
        "checkpoint mismatch: Markov ON/OFF injection differs from this "
        "configuration");
  }
  const std::uint8_t sharded = ser::read_u8(is, "engine mode");
  if ((sharded != 0) != sharded_) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed under "
                    "the ") +
        (sharded != 0 ? "sharded" : "exact") +
        " engine but this configuration uses the " +
        (sharded_ ? "sharded" : "exact") +
        " engine (the two draw different RNG streams; set engine= to "
        "match)");
  }
  const std::string routing_name = ser::read_string(is, "routing name");
  if (routing_name != routing_.name()) {
    throw std::runtime_error(
        "checkpoint mismatch: routing mechanism is \"" + routing_name +
        "\" in the checkpoint but \"" + routing_.name() +
        "\" in this configuration");
  }

  // --- clock, RNG, counters ---------------------------------------------
  now_ = ser::read_u64(is, "cycle clock");
  last_progress_ = ser::read_u64(is, "last progress cycle");
  deadlock_ = ser::read_u8(is, "deadlock flag") != 0;
  std::uint64_t rng_state[Rng::kStateWords];
  for (auto& w : rng_state) w = ser::read_u64(is, "rng state");
  rng_.set_state(rng_state);
  // Re-derives gen_probability_ (and the ON/OFF duty compensation) with
  // the same arithmetic the original run used — bit-identical draws.
  set_offered_load(ser::read_f64(is, "offered load"));
  delivered_packets_ = ser::read_u64(is, "delivered packets");
  delivered_phits_ = ser::read_u64(is, "delivered phits");
  for (auto& s : phits_sent_) s = ser::read_u64(is, "phits sent");
  dead_dst_drops_ = ser::read_u64(is, "dead destination drops");

  // --- packet pool -------------------------------------------------------
  ser::expect_u64(is, 1, "packet-pool slab count");
  const std::uint64_t handed_out = ser::read_u64(is, "pool slot count");
  const std::uint64_t free_count = ser::read_u64(is, "pool free count");
  // Ids are 31-bit, so no stream can number more than 2^31 slots.
  if (handed_out > (std::uint64_t{1} << 31) || free_count > handed_out) {
    throw std::runtime_error(
        "checkpoint corrupt: packet-pool free list larger than the pool");
  }
  std::vector<PacketId> free_list(static_cast<std::size_t>(free_count));
  std::vector<std::uint8_t> live(static_cast<std::size_t>(handed_out), 1);
  for (auto& id : free_list) {
    id = ser::read_i32(is, "pool free id");
    if (id < 0 || static_cast<std::uint64_t>(id) >= handed_out) {
      throw std::runtime_error(
          "checkpoint corrupt: packet-pool free id out of range");
    }
    std::uint8_t& bit = live[static_cast<std::size_t>(id)];
    if (bit == 0) {
      throw std::runtime_error(
          "checkpoint corrupt: packet-pool free id listed twice");
    }
    bit = 0;
  }
  // A one-slab pool takes the stream's numbering as is (its ids are the
  // slot numbers). Several slabs take the packets densely numbered, each
  // from the slab of the shard holding its source terminal, and map the
  // stream's ids to the ones handed out.
  std::vector<PacketId> pool_id;  // stream id -> pool id (several slabs)
  if (pool_.num_slabs() == 1) {
    pool_.restore_slab(0, static_cast<std::size_t>(handed_out),
                       std::move(free_list));
    for (std::size_t n = 0; n < live.size(); ++n) {
      if (live[n]) pool_[static_cast<PacketId>(n)] = read_packet(is);
    }
  } else {
    if (free_count != 0) {
      throw std::runtime_error(
          "checkpoint corrupt: packet pool not densely numbered");
    }
    pool_id.resize(live.size());
    for (PacketId& id : pool_id) {
      const Packet pkt = read_packet(is);
      if (pkt.src < 0 || pkt.src >= topo_.num_terminals()) {
        throw std::runtime_error(
            "checkpoint corrupt: packet source out of range");
      }
      id = pool_.alloc(shard_of(topo_.router_of_terminal(pkt.src)));
      pool_[id] = pkt;
    }
  }
  const auto pid = [&](PacketId id) {
    if (id == kInvalid) return id;
    if (id < 0 || static_cast<std::uint64_t>(id) >= handed_out) {
      throw std::runtime_error("checkpoint corrupt: packet id out of range");
    }
    return pool_id.empty() ? id : pool_id[static_cast<std::size_t>(id)];
  };
  const auto router_shard = [&](RouterId r) -> Shard& {
    if (r < 0 || r >= topo_.num_routers()) {
      throw std::runtime_error("checkpoint corrupt: event router out of range");
    }
    return shards_[shard_of(r)];
  };

  // --- router state ------------------------------------------------------
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    FlitSlab& slab = router_flit_slab(r);
    for (PortId p = 0; p < ports_; ++p) {
      const auto cap_flits =
          static_cast<std::uint32_t>(port_capacity(p) / flit_phits_);
      for (VcId v = 0; v < vc_count(p); ++v) {
        const std::size_t vidx = vc_index(r, p, v);
        InputVc& ivc = in_vcs_[vidx];
        const std::uint32_t nflits = ser::read_u32(is, "input VC depth");
        if (nflits > cap_flits) {
          throw std::runtime_error(
              "checkpoint corrupt: input VC holds more flits than its "
              "buffer capacity");
        }
        for (std::uint32_t k = 0; k < nflits; ++k) {
          Flit f = read_flit(is);
          f.packet = pid(f.packet);
          ivc.fifo.push_back(slab, f);
        }
        ivc.occupancy_phits = ser::read_i32(is, "input VC occupancy");
        ivc.bound_out_port =
            static_cast<std::int16_t>(ser::read_i32(is, "VC bound port"));
        ivc.bound_out_vc =
            static_cast<std::int16_t>(ser::read_i32(is, "VC bound vc"));
        ivc.head_since = ser::read_u64(is, "VC head since");
        OutputVc& ovc = out_vcs_[vidx];
        ovc.credits_phits = ser::read_i32(is, "output VC credits");
        ovc.bound_packet = pid(ser::read_i32(is, "output VC bound packet"));
      }
      out_busy_until_[port_index(r, p)] =
          ser::read_u64(is, "port busy-until");
      in_scan_[port_index(r, p)] = ser::read_u32(is, "port scan word");
      out_rr_[port_index(r, p)] =
          static_cast<std::uint16_t>(ser::read_u32(is, "port RR pointer"));
    }
  }

  // --- terminals ---------------------------------------------------------
  forced_dst_.clear();
  forced_created_.clear();
  forced_flags_.clear();
  has_forced_dst_ = false;
  for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
    TerminalState& ts = terminals_[static_cast<std::size_t>(t)];
    ts.pending_created = {};
    const std::uint64_t npending = ser::read_u64(is, "source queue depth");
    for (std::uint64_t k = 0; k < npending; ++k) {
      ts.pending_created.push_back(ser::read_u64(is, "source queue entry"));
    }
    const std::uint64_t nforced = ser::read_u64(is, "forced dst depth");
    if (nforced > 0 && !has_forced_dst_) {
      const auto n = static_cast<std::size_t>(topo_.num_terminals());
      forced_dst_.resize(n);
      forced_created_.resize(n);
      forced_flags_.resize(n);
      has_forced_dst_ = true;
    }
    const auto ti = static_cast<std::size_t>(t);
    for (std::uint64_t k = 0; k < nforced; ++k) {
      forced_dst_[ti].push_back(ser::read_i32(is, "forced dst entry"));
    }
    for (std::uint64_t k = 0; k < nforced; ++k) {
      forced_created_[ti].push_back(
          ser::read_u64(is, "forced created entry"));
    }
    for (std::uint64_t k = 0; k < nforced; ++k) {
      forced_flags_[ti].push_back(ser::read_u8(is, "forced flags entry"));
    }
    ts.burst_remaining = ser::read_u64(is, "burst budget");
    ts.link_busy_until = ser::read_u64(is, "terminal link busy");
    ts.inflight_phits = ser::read_i32(is, "terminal inflight phits");
  }
  if (onoff_) {
    for (auto& s : onoff_state_) s = ser::read_u8(is, "onoff chain state");
  }

  // --- workload state (v4) ----------------------------------------------
  if (ser::read_u8(is, "terminal loads flag") != 0) {
    // The stream carries terminal_gen_prob_ — the per-terminal generation
    // PROBABILITIES, already divided by packet_phits. Assign them
    // directly; routing through set_terminal_loads() would divide again.
    const auto n = static_cast<std::size_t>(topo_.num_terminals());
    terminal_gen_prob_.resize(n);
    terminal_gen_threshold_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = ser::read_f64(is, "terminal load");
      terminal_gen_prob_[i] = p;
      terminal_gen_threshold_[i] =
          p >= 1.0 ? ~0ULL
                   : static_cast<std::uint64_t>(p * 18446744073709551616.0);
    }
    has_terminal_loads_ = true;
  } else {
    set_terminal_loads({});
  }
  const bool had_workload = ser::read_u8(is, "workload flag") != 0;
  if (had_workload != (workload_ != nullptr)) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed ") +
        (had_workload ? "with" : "without") +
        " a workload but this configuration runs " +
        (workload_ != nullptr ? "with" : "without") +
        " one (set workload= to match)");
  }
  const std::uint64_t trace_cursor = ser::read_u64(is, "trace cursor");
  if (workload_ != nullptr) {
    workload_->set_cursor(trace_cursor);
    // Re-establish the eager queue allocation set_workload() guarantees:
    // the sharded stepper pushes message bodies from a parallel phase and
    // must never race a lazy resize.
    if (!has_forced_dst_) {
      const auto n = static_cast<std::size_t>(topo_.num_terminals());
      forced_dst_.resize(n);
      forced_created_.resize(n);
      forced_flags_.resize(n);
      has_forced_dst_ = true;
    }
  }

  // --- timing wheels: each event to the shard holding its router --------
  for (Shard& s : shards_) {
    s.flit_ring.reset(ring_size_);
    s.credit_ring.reset(ring_size_);
    s.delivery_ring.reset(ring_size_);
  }
  for (std::size_t slot = 0; slot < ring_size_; ++slot) {
    const std::uint32_t nf = ser::read_u32(is, "flit event count");
    for (std::uint32_t k = 0; k < nf; ++k) {
      FlitEvent ev;
      ev.router = ser::read_i32(is, "flit event router");
      ev.port =
          static_cast<std::int16_t>(ser::read_i32(is, "flit event port"));
      ev.vc = static_cast<std::int16_t>(ser::read_i32(is, "flit event vc"));
      ev.flit = read_flit(is);
      ev.flit.packet = pid(ev.flit.packet);
      router_shard(ev.router).flit_ring.push(slot, ev);
    }
    const std::uint32_t nc = ser::read_u32(is, "credit event count");
    for (std::uint32_t k = 0; k < nc; ++k) {
      CreditEvent ev;
      ev.router = ser::read_i32(is, "credit event router");
      ev.port =
          static_cast<std::int16_t>(ser::read_i32(is, "credit event port"));
      ev.vc = static_cast<std::int16_t>(ser::read_i32(is, "credit event vc"));
      router_shard(ev.router).credit_ring.push(slot, ev);
    }
    // Ejection happens at the destination router, so a delivery belongs
    // to the shard holding it.
    const std::uint32_t nd = ser::read_u32(is, "delivery event count");
    for (std::uint32_t k = 0; k < nd; ++k) {
      const PacketId id = pid(ser::read_i32(is, "delivery event id"));
      router_shard(topo_.router_of_terminal(pool_[id].dst))
          .delivery_ring.push(slot, id);
    }
  }

  // --- routing mechanism state + end sentinel ----------------------------
  routing_.restore_state(is);
  if (ser::read_u64(is, "end sentinel") != kEndSentinel) {
    throw std::runtime_error(
        "checkpoint corrupt: end sentinel mismatch (the stream is "
        "misaligned or was written by an incompatible routing mechanism)");
  }

  // --- rebuild the derived state -----------------------------------------
  // Retry-suppression caches restart cold: waking a provably-blocked head
  // redoes a usability check that fails identically and draws nothing, so
  // this is bit-identical to carrying the caches over.
  const std::size_t num_ports =
      static_cast<std::size_t>(topo_.num_routers()) *
      static_cast<std::size_t>(ports_);
  const std::size_t num_vcs = num_ports * static_cast<std::size_t>(vc_stride_);
  std::fill_n(vc_sleep_until_, num_vcs, 0);
  std::fill_n(port_wake_, num_ports, 0);
  std::fill_n(head_hop_, num_vcs, kHeadUnknown);
  std::fill_n(ovc_waiter_head_, num_vcs, -1);
  std::fill_n(vc_waiter_next_, num_vcs, kNotWaiting);

  // Worklists: recompute the minimal consistent sets. A stale (lazily
  // cleared) bit's only effect was a skip-and-clear scan, so dropping it
  // changes no decision.
  std::fill_n(occupied_ports_,
              static_cast<std::size_t>(topo_.num_routers()) *
                  static_cast<std::size_t>(occ_words_),
              0);
  std::fill_n(nonempty_vcs_, topo_.num_routers(), 0);
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      if ((in_scan_[port_index(r, p)] >> 16) != 0) {
        set_occupied(r, p);
      }
      for (VcId v = 0; v < vc_count(p); ++v) {
        if (!in_vcs_[vc_index(r, p, v)].fifo.empty()) {
          ++nonempty_vcs_[static_cast<std::size_t>(r)];
        }
      }
    }
  }
  std::fill(pending_terminals_.begin(), pending_terminals_.end(), 0);
  for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
    if (terminal_has_work(t, terminals_[static_cast<std::size_t>(t)])) {
      mark_terminal_pending(t);
    }
  }
}

}  // namespace dfsim
