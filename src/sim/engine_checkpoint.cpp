// Engine checkpoint/restart: serialize the flat engine state so a run
// killed at cycle C resumes bit-identically (exact-mode determinism).
//
// What is saved: the clock, the RNG cursor, every input-VC FIFO, credits
// and wormhole bindings, switch round-robin pointers, the packet pool
// slab by slab (slot contents and free-list order — future alloc() ids
// must replay), per-terminal source queues / burst budgets / ON/OFF
// chains, the timing wheels' in-flight events (one wheel triple per shard;
// exact mode's single shard writes the pre-shard single-wheel layout),
// delivery counters,
// the routing mechanism's cross-cycle state, and (v4) the workload layer:
// per-packet flag bytes, the forced-injection (created, dst, flags)
// queues, per-terminal offered loads and the trace replay cursor.
//
// What is deliberately NOT saved, because rebuilding it is decision- and
// RNG-neutral: the retry-suppression caches (vc_sleep_until_, waiter
// lists, head_hop_ verdicts) — a woken head redoes a usability check that
// fails identically; pure verdicts are recomputed by pure_minimal_hop,
// which is RNG-free by contract — the per-packet minimal-port memos, and
// the lazily-cleared pending-terminal bits (recomputed as their minimal
// set, which the injection loop treats identically).
#include <istream>
#include <ostream>

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

  // --- packet pool, slab by slab (slot layout + free-list order) --------
  ser::write_u64(os, pool_.num_slabs());
  for (std::size_t s = 0; s < pool_.num_slabs(); ++s) {
    const std::size_t handed_out = pool_.handed_out(s);
    const std::vector<PacketId>& free_list = pool_.free_list(s);
    ser::write_u64(os, handed_out);
    ser::write_u64(os, free_list.size());
    for (const PacketId id : free_list) ser::write_i32(os, id);
    std::vector<std::uint8_t> live(handed_out, 1);
    for (const PacketId id : free_list) live[pool_.index_in_slab(id)] = 0;
    for (std::size_t n = 0; n < handed_out; ++n) {
      if (live[n]) write_packet(os, pool_[pool_.id_at(s, n)]);
    }
  }

  // --- router state: input/output VCs, per-port scan state --------------
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    const FlitSlab& slab = router_flit_slab(r);
    for (PortId p = 0; p < ports_; ++p) {
      for (VcId v = 0; v < vc_count(p); ++v) {
        const InputVc& ivc = in_vcs_[vc_index(r, p, v)];
        ser::write_u32(os, static_cast<std::uint32_t>(ivc.fifo.size()));
        ivc.fifo.visit(slab, [&](const Flit& f) { write_flit(os, f); });
        ser::write_i32(os, ivc.occupancy_phits);
        ser::write_i32(os, ivc.bound_out_port);
        ser::write_i32(os, ivc.bound_out_vc);
        ser::write_u64(os, ivc.head_since);
        const OutputVc& ovc = out_vcs_[vc_index(r, p, v)];
        ser::write_i32(os, ovc.credits_phits);
        ser::write_i32(os, ovc.bound_packet);
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

  // --- timing wheels -----------------------------------------------------
  // v3: one wheel triple per shard, serialized shard-major behind the
  // shard count. The event encodings are identical across modes; only
  // the grouping differs. Exact mode's single shard omits the count, so
  // its checkpoints keep the v2 single-wheel layout.
  const auto write_wheels = [&](const SlabEventRing<FlitEvent>& fr,
                                const SlabEventRing<CreditEvent>& cr,
                                const SlabEventRing<PacketId>& dr) {
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      ser::write_u32(os, static_cast<std::uint32_t>(fr.slot_size(slot)));
      fr.visit(slot, [&](const FlitEvent& ev) {
        ser::write_i32(os, ev.router);
        ser::write_i32(os, ev.port);
        ser::write_i32(os, ev.vc);
        write_flit(os, ev.flit);
      });
      ser::write_u32(os, static_cast<std::uint32_t>(cr.slot_size(slot)));
      cr.visit(slot, [&](const CreditEvent& ev) {
        ser::write_i32(os, ev.router);
        ser::write_i32(os, ev.port);
        ser::write_i32(os, ev.vc);
      });
      ser::write_u32(os, static_cast<std::uint32_t>(dr.slot_size(slot)));
      dr.visit(slot, [&](const PacketId id) { ser::write_i32(os, id); });
    }
  };
  if (sharded_) ser::write_u64(os, shards_.size());
  for (const Shard& s : shards_) {
    write_wheels(s.flit_ring, s.credit_ring, s.delivery_ring);
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
  if (version == 2) {
    // The one predecessor anyone may still hold files from gets a pointed
    // message: v3 moved the sharded engine's in-flight events into
    // per-shard timing wheels, so a v2 stream cannot be decoded here.
    throw std::runtime_error(
        "checkpoint format version 2 is not supported by this build "
        "(version 3 stores the sharded engine's in-flight events in "
        "per-shard timing wheels; re-run the checkpointed experiment to "
        "produce a v3 checkpoint)");
  }
  if (version == 3) {
    throw std::runtime_error(
        "checkpoint format version 3 is not supported by this build "
        "(version 4 adds workload state: per-packet flag bytes, the "
        "forced-injection queues' creation times and flags, per-terminal "
        "offered loads and the trace replay cursor; re-run the "
        "checkpointed experiment to produce a v4 checkpoint)");
  }
  if (version == 4) {
    throw std::runtime_error(
        "checkpoint format version 4 is not supported by this build "
        "(version 5 stores the packet pool slab by slab, one slab per "
        "shard under the sharded engine, and drops the per-packet flit "
        "count and flit size, the per-flit size and the per-credit phit "
        "count, which are engine constants; re-run the checkpointed "
        "experiment to produce a v5 checkpoint)");
  }
  if (version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint format version " + std::to_string(version) +
        " is not supported by this build (expected " +
        std::to_string(kCheckpointVersion) + ")");
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

  // --- packet pool, slab by slab ----------------------------------------
  ser::expect_u64(is, pool_.num_slabs(), "packet-pool slab count");
  for (std::size_t s = 0; s < pool_.num_slabs(); ++s) {
    const std::uint64_t handed_out = ser::read_u64(is, "pool slot count");
    const std::uint64_t free_count = ser::read_u64(is, "pool free count");
    // Ids are 31-bit, so no slab can have handed out more than 2^31.
    if (handed_out > (std::uint64_t{1} << 31) || free_count > handed_out) {
      throw std::runtime_error(
          "checkpoint corrupt: packet-pool free list larger than the pool");
    }
    std::vector<PacketId> free_list(static_cast<std::size_t>(free_count));
    std::vector<std::uint8_t> live(static_cast<std::size_t>(handed_out), 1);
    for (auto& id : free_list) {
      id = ser::read_i32(is, "pool free id");
      if (id < 0 || pool_.slab_of(id) != s ||
          pool_.index_in_slab(id) >= handed_out) {
        throw std::runtime_error(
            "checkpoint corrupt: packet-pool free id out of range");
      }
      std::uint8_t& bit = live[pool_.index_in_slab(id)];
      if (bit == 0) {
        throw std::runtime_error(
            "checkpoint corrupt: packet-pool free id listed twice");
      }
      bit = 0;
    }
    pool_.restore_slab(s, static_cast<std::size_t>(handed_out),
                       std::move(free_list));
    for (std::size_t n = 0; n < live.size(); ++n) {
      if (live[n]) pool_[pool_.id_at(s, n)] = read_packet(is);
    }
  }

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
          ivc.fifo.push_back(slab, read_flit(is));
        }
        ivc.occupancy_phits = ser::read_i32(is, "input VC occupancy");
        ivc.bound_out_port =
            static_cast<std::int16_t>(ser::read_i32(is, "VC bound port"));
        ivc.bound_out_vc =
            static_cast<std::int16_t>(ser::read_i32(is, "VC bound vc"));
        ivc.head_since = ser::read_u64(is, "VC head since");
        OutputVc& ovc = out_vcs_[vidx];
        ovc.credits_phits = ser::read_i32(is, "output VC credits");
        ovc.bound_packet = ser::read_i32(is, "output VC bound packet");
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

  // --- timing wheels -----------------------------------------------------
  const auto read_wheels = [&](SlabEventRing<FlitEvent>& fr,
                               SlabEventRing<CreditEvent>& cr,
                               SlabEventRing<PacketId>& dr) {
    fr.reset(ring_size_);
    cr.reset(ring_size_);
    dr.reset(ring_size_);
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      const std::uint32_t nf = ser::read_u32(is, "flit event count");
      for (std::uint32_t k = 0; k < nf; ++k) {
        FlitEvent ev;
        ev.router = ser::read_i32(is, "flit event router");
        ev.port =
            static_cast<std::int16_t>(ser::read_i32(is, "flit event port"));
        ev.vc = static_cast<std::int16_t>(ser::read_i32(is, "flit event vc"));
        ev.flit = read_flit(is);
        fr.push(slot, ev);
      }
      const std::uint32_t nc = ser::read_u32(is, "credit event count");
      for (std::uint32_t k = 0; k < nc; ++k) {
        CreditEvent ev;
        ev.router = ser::read_i32(is, "credit event router");
        ev.port = static_cast<std::int16_t>(
            ser::read_i32(is, "credit event port"));
        ev.vc =
            static_cast<std::int16_t>(ser::read_i32(is, "credit event vc"));
        cr.push(slot, ev);
      }
      const std::uint32_t nd = ser::read_u32(is, "delivery event count");
      for (std::uint32_t k = 0; k < nd; ++k) {
        dr.push(slot, ser::read_i32(is, "delivery event id"));
      }
    }
  };
  if (sharded_) ser::expect_u64(is, shards_.size(), "shard count");
  for (Shard& s : shards_) {
    read_wheels(s.flit_ring, s.credit_ring, s.delivery_ring);
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
  std::fill(vc_sleep_until_.begin(), vc_sleep_until_.end(), 0);
  std::fill(port_wake_.begin(), port_wake_.end(), 0);
  std::fill(head_hop_.begin(), head_hop_.end(), kHeadUnknown);
  std::fill(ovc_waiter_head_.begin(), ovc_waiter_head_.end(), -1);
  std::fill(vc_waiter_next_.begin(), vc_waiter_next_.end(), kNotWaiting);

  // Worklists: recompute the minimal consistent sets. A stale (lazily
  // cleared) bit's only effect was a skip-and-clear scan, so dropping it
  // changes no decision.
  std::fill(occupied_ports_.begin(), occupied_ports_.end(), 0);
  std::fill(nonempty_vcs_.begin(), nonempty_vcs_.end(), 0);
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
