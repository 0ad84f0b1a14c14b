// Engine checkpoint/restart: serialize the flat engine state so a run
// killed at cycle C resumes bit-identically (exact-mode determinism).
//
// Engine::transfer names every field once; save_checkpoint runs it with a
// ser::Writer and restore with a ser::Reader (common/serialize.hpp), which
// checks every stream value it will use as an index or a size; restore
// also checks the values that must agree with what it has already read
// (route state against the packet's endpoints, flit head/tail flags
// against the flit index, a port's scan word against its VCs). Saved: the
// clock, the RNG cursor, every input-VC FIFO, credits and wormhole
// bindings, switch round-robin pointers, the live packets, per-terminal
// source queues / burst budgets / ON/OFF chains, the timing wheels'
// in-flight events, delivery counters, the routing mechanism's state, and
// (v4) the workload layer: packet flag bytes, the forced-injection
// (created, dst, flags) queues, per-terminal loads and the trace cursor.
//
// A sharded stream is canonical (v6): the same run saves the same bytes at
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
// verbatim (slot layout and free-list order, so future ids replay).
//
// Not saved, because rebuilding it is decision- and RNG-neutral: the
// retry-suppression caches (a woken head redoes a usability check that
// fails identically; pure verdicts are recomputed RNG-free), the packets'
// minimal-port memos, and the lazily-cleared pending-terminal bits.
#include <algorithm>
#include <istream>
#include <ostream>
#include <tuple>
#include <utility>

#include "common/serialize.hpp"
#include "sim/engine.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {

constexpr std::uint64_t kMagic = ser::magic("DFENGCK\n");
constexpr std::uint64_t kEndSentinel = 0xdf51aced0c0ffee1ULL;

/// Packet fields. Routing uses the route state as topology indices and
/// VCs, so restore checks it against the packet's endpoints and the hop
/// bounds apply_route_state asserts; delivery counts size_phits, which
/// inject_packet always sets to packet_phits.
void transfer_packet(auto& ar, Packet& p, const DragonflyTopology& topo,
                     int vc_stride, int packet_phits) {
  ar.index(p.src, topo.num_terminals(), "packet source");
  ar.index(p.dst, topo.num_terminals(), "packet destination");
  ar.i32(p.size_phits, "packet size");
  ar.u64(p.created, "packet created cycle");
  ar.u64(p.injected, "packet injected cycle");
  RouteState& rs = p.rs;
  ar.i32(rs.dst_router, "route dst router");
  ar.i32(rs.dst_group, "route dst group");
  ar.i32(rs.src_group, "route src group");
  ar.index_or_none(rs.inter_group, topo.num_groups(), "route inter group");
  ar.u8(rs.valiant, "route valiant flag");
  ar.i32(rs.global_hops, "route global hops");
  ar.i32(rs.local_hops_group, "route local hops");
  ar.i32(rs.local_mis_group, "route local misroutes");
  ar.i32(rs.local_hops_total, "route local hops total");
  ar.i32(rs.total_hops, "route total hops");
  ar.index_or_none(rs.prev_local_idx, topo.routers_per_group(),
                   "route prev local idx");
  ar.index_or_none(rs.last_local_vc, vc_stride, "route last local vc");
  ar.u8(p.flags, "packet flags");
  // min_cache is a pure memo: recomputed on first use after restore.
  ser::check(rs.dst_router == topo.router_of_terminal(p.dst) &&
                 rs.dst_group == topo.group_of_terminal(p.dst) &&
                 rs.src_group == topo.group_of_terminal(p.src) &&
                 rs.valiant == (rs.inter_group != kInvalid),
             "packet route state does not match the packet");
  ser::check(p.size_phits == packet_phits, "packet size is not packet_phits");
  ser::check(rs.global_hops >= 0 && rs.global_hops <= 2 &&
                 rs.local_mis_group >= 0 &&
                 rs.local_mis_group <= rs.local_hops_group &&
                 rs.local_hops_group <= 2 &&
                 rs.local_hops_group <= rs.local_hops_total &&
                 rs.global_hops + rs.local_hops_total == rs.total_hops &&
                 rs.total_hops <= 8,
             "packet route hop counters out of range");
}

/// A queue whose length the caller has transferred: save visits its
/// entries in order, restore appends them.
template <class Ar, class Q, class Fn>
void transfer_queue(Q& q, std::uint64_t n, Fn&& entry) {
  if constexpr (Ar::kLoading) {
    q = {};
    for (std::uint64_t k = 0; k < n; ++k) {
      typename Q::value_type x{};
      entry(x);
      q.push_back(x);
    }
  } else {
    q.for_each([&](typename Q::value_type x) { entry(x); });
  }
}

}  // namespace

void Engine::save_checkpoint(std::ostream& os) const { ser::save(os, *this); }

void Engine::restore(std::istream& is) { ser::load(is, *this); }

template <class Ar>
void Engine::transfer(Ar& ar) {
  constexpr bool kLoad = Ar::kLoading;
  if (kLoad && (now_ != 0 || pool_.in_use() != 0)) {
    throw std::logic_error(
        "Engine::restore requires a freshly-constructed engine (same "
        "config as the checkpointed run)");
  }
  const RouterId routers = topo_.num_routers();
  const NodeId terminals = topo_.num_terminals();

  // --- versioned, shape-checked header ----------------------------------
  std::uint64_t magic = kMagic;
  ar.u64(magic, "checkpoint magic");
  if (magic != kMagic) {
    throw std::runtime_error(
        "not a dfsim engine checkpoint (bad magic bytes)");
  }
  std::uint32_t version = kCheckpointVersion;
  ar.u32(version, "checkpoint version");
  if (version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint format version " + std::to_string(version) +
        " is not supported; this build reads " +
        std::to_string(kCheckpointVersion) +
        "; re-run the checkpointed experiment");
  }
  ar.expect(static_cast<std::uint64_t>(routers), "router count");
  ar.expect(static_cast<std::uint64_t>(terminals), "terminal count");
  ar.expect(static_cast<std::uint64_t>(ports_), "ports per router");
  ar.expect(static_cast<std::uint64_t>(vc_stride_), "VC stride");
  ar.expect(static_cast<std::uint64_t>(flit_phits_), "flit phits");
  ar.expect(static_cast<std::uint64_t>(flits_per_packet_), "flits per packet");
  ar.expect(ring_size_, "timing-wheel size");
  auto flow = static_cast<std::uint8_t>(cfg_.flow);
  ar.u8(flow, "flow control");
  if (flow != static_cast<std::uint8_t>(cfg_.flow)) {
    throw std::runtime_error(
        "checkpoint mismatch: flow-control discipline differs from this "
        "configuration");
  }
  bool onoff = onoff_;
  ar.u8(onoff, "onoff flag");
  if (onoff != onoff_) {
    throw std::runtime_error(
        "checkpoint mismatch: Markov ON/OFF injection differs from this "
        "configuration");
  }
  // v2: engine mode. The two steppers draw from different RNG streams, so
  // resuming a sharded run under exact (or vice versa) would silently fork
  // the trajectory.
  bool sharded = sharded_;
  ar.u8(sharded, "engine mode");
  if (sharded != sharded_) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed under "
                    "the ") +
        (sharded ? "sharded" : "exact") +
        " engine but this configuration uses the " +
        (sharded_ ? "sharded" : "exact") +
        " engine (the two draw different RNG streams; set engine= to "
        "match)");
  }
  std::string routing_name = routing_.name();
  ar.str(routing_name, "routing name");
  if (routing_name != routing_.name()) {
    throw std::runtime_error(
        "checkpoint mismatch: routing mechanism is \"" + routing_name +
        "\" in the checkpoint but \"" + routing_.name() +
        "\" in this configuration");
  }

  // --- clock, RNG, counters ---------------------------------------------
  ar.u64(now_, "cycle clock");
  ar.u64(last_progress_, "last progress cycle");
  ar.u8(deadlock_, "deadlock flag");
  rng_.transfer(ar);
  ar.f64(injection_.load, "offered load");
  // Restore re-derives gen_probability_ (and the ON/OFF duty compensation)
  // with the same arithmetic the original run used: bit-identical draws.
  if (kLoad) set_offered_load(injection_.load);
  ar.u64(delivered_packets_, "delivered packets");
  ar.u64(delivered_phits_, "delivered phits");
  for (auto& s : phits_sent_) ar.u64(s, "phits sent");
  ar.u64(dead_dst_drops_, "dead destination drops");

  // --- packet pool: one slab in the stream, renumbered when sharded ------
  // `live` lists the pool ids in stream order. A one-slab pool keeps the
  // stream's numbering (its ids are the slot numbers); several slabs take
  // the packets densely numbered, each from the slab of the shard holding
  // its source terminal.
  std::vector<PacketId> live;
  std::vector<PacketId> free_list;
  std::vector<PacketId> stream_id;  // save, sharded: pool id -> stream id
  std::uint64_t slots = 0;
  if constexpr (!kLoad) {
    live = pool_.live_ids();
    if (sharded_ && !live.empty()) {
      std::ranges::sort(live, {}, [&](PacketId id) {
        return std::tie(pool_[id].injected, pool_[id].src);
      });
      stream_id.assign(static_cast<std::size_t>(std::ranges::max(live)) + 1,
                       kInvalid);
      for (std::size_t n = 0; n < live.size(); ++n) {
        stream_id[static_cast<std::size_t>(live[n])] = static_cast<PacketId>(n);
      }
    }
    slots = sharded_ ? live.size() : pool_.handed_out(0);
    if (!sharded_) free_list = pool_.free_list(0);
  }
  ar.expect(1, "packet-pool slab count");
  ar.u64(slots, "pool slot count");
  std::uint64_t free_count = free_list.size();
  ar.u64(free_count, "pool free count");
  // Ids are 31-bit, so no stream can number more than 2^31 slots.
  ser::check(slots <= (std::uint64_t{1} << 31) && free_count <= slots,
             "packet-pool free list larger than the pool");
  const auto bound = static_cast<std::int64_t>(slots);
  free_list.resize(static_cast<std::size_t>(free_count));
  std::vector<std::uint8_t> freed(static_cast<std::size_t>(slots), 0);
  for (PacketId& id : free_list) {
    ar.index(id, bound, "packet-pool free id");
    ser::check(std::exchange(freed[static_cast<std::size_t>(id)], 1) == 0,
               "packet-pool free id listed twice");
  }
  const bool one_slab = pool_.num_slabs() == 1;
  ser::check(one_slab || free_count == 0, "packet pool not densely numbered");
  if (kLoad && one_slab) {
    pool_.restore_slab(0, static_cast<std::size_t>(slots),
                       std::move(free_list));
    live = pool_.live_ids();
  }
  for (std::size_t n = 0; n < slots - free_count; ++n) {
    Packet p = kLoad ? Packet{} : pool_[live[n]];
    transfer_packet(ar, p, topo_, vc_stride_, cfg_.packet_phits);
    if constexpr (kLoad) {
      if (!one_slab) {
        live.push_back(pool_.alloc(shard_of(topo_.router_of_terminal(p.src))));
      }
      pool_[live[n]] = p;
    }
  }
  // A packet id as it travels: the stream's numbering on save, checked
  // and mapped to the pool's on restore.
  const auto packet_id = [&](PacketId& id, bool nullable, const char* what) {
    PacketId s = id;
    if (!kLoad && sharded_ && id != kInvalid) {
      s = stream_id[static_cast<std::size_t>(id)];
    }
    nullable ? ar.index_or_none(s, bound, what) : ar.index(s, bound, what);
    if (kLoad) {
      id = s == kInvalid || one_slab ? s : live[static_cast<std::size_t>(s)];
    }
  };
  const auto transfer_flit = [&](Flit& f) {
    packet_id(f.packet, false, "flit packet id");
    ar.index(f.index, flits_per_packet_, "flit index");
    ar.u8(f.head, "flit head flag");
    ar.u8(f.tail, "flit tail flag");
    ser::check(f.head == (f.index == 0) &&
                   f.tail == (f.index == flits_per_packet_ - 1),
               "flit head/tail flags do not match its index");
  };

  // Restore recomputes the worklists as their minimal consistent sets while
  // the state streams in: a stale (lazily cleared) bit's only effect was a
  // skip-and-clear scan, so dropping it changes no decision.
  if constexpr (kLoad) {
    std::fill_n(occupied_ports_,
                static_cast<std::size_t>(routers) *
                    static_cast<std::size_t>(occ_words_),
                0);
    std::fill_n(nonempty_vcs_, routers, 0);
    std::fill(pending_terminals_.begin(), pending_terminals_.end(), 0);
  }

  // --- router state: input/output VCs, per-port scan state --------------
  for (RouterId r = 0; r < routers; ++r) {
    FlitSlab& slab = router_flit_slab(r);
    for (PortId p = 0; p < ports_; ++p) {
      const auto cap_flits =
          static_cast<std::uint32_t>(port_capacity(p) / flit_phits_);
      std::uint32_t nonempty = 0;  // mask of the port's nonempty VCs
      for (VcId v = 0; v < vc_count(p); ++v) {
        InputVc& ivc = in_vcs_[vc_index(r, p, v)];
        auto depth = static_cast<std::uint32_t>(ivc.fifo.size());
        ar.u32(depth, "input VC depth");
        if (depth > 0) nonempty |= 1u << v;
        ser::check(depth <= cap_flits,
                   "input VC holds more flits than its buffer capacity");
        if constexpr (kLoad) {
          for (std::uint32_t k = 0; k < depth; ++k) {
            Flit f;
            transfer_flit(f);
            ivc.fifo.push_back(slab, f);
          }
        } else {
          ivc.fifo.visit(slab, [&](Flit f) { transfer_flit(f); });
        }
        if (kLoad && depth > 0) ++nonempty_vcs_[static_cast<std::size_t>(r)];
        // Occupancy is the depth in phits: written for the format, checked
        // on restore.
        std::int32_t occupancy = static_cast<std::int32_t>(depth) * flit_phits_;
        ar.i32(occupancy, "input VC occupancy");
        ser::check(occupancy == static_cast<std::int32_t>(depth) * flit_phits_,
                   "input VC occupancy does not match its depth");
        // The binding travels as two fields, port and VC.
        PortId bound_port = kInvalid;
        VcId bound_vc = kInvalid;
        if (ivc.bound != InputVc::kNoHop) {
          bound_port = InputVc::hop_port(ivc.bound);
          bound_vc = InputVc::hop_vc(ivc.bound);
        }
        ar.index_or_none(bound_port, ports_, "VC bound port");
        ar.index_or_none(bound_vc, vc_stride_, "VC bound vc");
        const bool bound_ok =
            bound_port == kInvalid
                ? bound_vc == kInvalid
                : bound_vc != kInvalid && bound_vc < vc_count(bound_port);
        ser::check(bound_ok, "VC binding names no VC of its port");
        ar.u64(ivc.head_since, "VC head since");
        OutputVc& ovc = out_vcs_[vc_index(r, p, v)];
        ar.i32(ovc.credits_phits, "output VC credits");
        packet_id(ovc.bound_packet, true, "output VC bound packet");
        if constexpr (kLoad) {
          ivc.bound = bound_port == kInvalid
                          ? InputVc::kNoHop
                          : InputVc::encode_hop(bound_port, bound_vc);
          // Retry-suppression caches restart cold: waking a
          // provably-blocked head redoes a usability check that fails
          // identically and draws nothing, so this is bit-identical to
          // carrying the caches over.
          ivc.head_hop = InputVc::kHeadUnknown;
          ivc.sleep_until = 0;
          ovc.waiter_head = -1;
        }
      }
      const std::size_t pi = port_index(r, p);
      ar.u64(out_busy_until_[pi], "port busy-until");
      // The scan word packs the nonempty-VC mask over the VC round-robin
      // pointer; allocation indexes VCs with both.
      ar.u32(in_scan_[pi], "port scan word");
      ser::check((in_scan_[pi] >> 16) == nonempty &&
                     static_cast<int>(in_scan_[pi] & 0xffffu) < vc_count(p),
                 "port scan word");
      ar.index(out_rr_[pi], ports_, "port RR pointer");
      if (kLoad && nonempty != 0) set_occupied(r, p);
    }
  }

  // --- terminal injection state -----------------------------------------
  for (NodeId t = 0; t < terminals; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    TerminalState& ts = terminals_[ti];
    std::uint64_t pending = ts.pending_created.size();
    ar.u64(pending, "source queue depth");
    transfer_queue<Ar>(ts.pending_created, pending,
                       [&](Cycle& c) { ar.u64(c, "source queue entry"); });
    // v4: forced entries are (created, dst, flags) triples; the three
    // parallel queues always hold the same count, serialized queue-major.
    std::uint64_t forced = has_forced_dst_ ? forced_dst_[ti].size() : 0;
    ar.u64(forced, "forced dst depth");
    if (forced > 0) {
      ensure_forced_queues();  // a no-op on save
      transfer_queue<Ar>(forced_dst_[ti], forced,
                         [&](NodeId& d) { ar.i32(d, "forced dst entry"); });
      transfer_queue<Ar>(forced_created_[ti], forced, [&](Cycle& c) {
        ar.u64(c, "forced created entry");
      });
      transfer_queue<Ar>(forced_flags_[ti], forced, [&](std::uint8_t& f) {
        ar.u8(f, "forced flags entry");
      });
    }
    ar.u64(ts.burst_remaining, "burst budget");
    ar.u64(ts.link_busy_until, "terminal link busy");
    ar.i32(ts.inflight_phits, "terminal inflight phits");
    if (kLoad && terminal_has_work(t, ts)) mark_terminal_pending(t);
  }
  if (onoff_) {
    for (auto& s : onoff_state_) ar.u8(s, "onoff chain state");
  }

  // --- workload state (v4) ----------------------------------------------
  // The stream carries terminal_gen_prob_ — the per-terminal generation
  // PROBABILITIES, already divided by packet_phits — so a restore assigns
  // them directly; set_terminal_loads() would divide again.
  ar.u8(has_terminal_loads_, "terminal loads flag");
  if (has_terminal_loads_) {
    if (kLoad) terminal_gen_prob_.resize(static_cast<std::size_t>(terminals));
    for (double& p : terminal_gen_prob_) ar.f64(p, "terminal load");
    if constexpr (kLoad) {
      terminal_gen_threshold_.resize(terminal_gen_prob_.size());
      std::ranges::transform(terminal_gen_prob_,
                             terminal_gen_threshold_.begin(), gen_threshold);
    }
  } else if constexpr (kLoad) {
    set_terminal_loads({});
  }
  bool had_workload = workload_ != nullptr;
  ar.u8(had_workload, "workload flag");
  if (had_workload != (workload_ != nullptr)) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed ") +
        (had_workload ? "with" : "without") +
        " a workload but this configuration runs " +
        (workload_ != nullptr ? "with" : "without") +
        " one (set workload= to match)");
  }
  std::uint64_t trace_cursor = had_workload ? workload_->cursor() : 0;
  ar.u64(trace_cursor, "trace cursor");
  if (kLoad && had_workload) {
    workload_->set_cursor(trace_cursor);
    // Re-establish the eager queue allocation set_workload() guarantees:
    // the sharded stepper pushes message bodies from a parallel phase and
    // must never race a lazy resize.
    ensure_forced_queues();
  }

  // --- timing wheels: one triple, every shard's events per slot ----------
  // Restore routes each event to the shard holding its router; ejection
  // happens at the destination router, so a delivery belongs to the shard
  // holding it.
  if constexpr (kLoad) {
    for (Shard& s : shards_) {
      s.flit_ring.reset(ring_size_);
      s.credit_ring.reset(ring_size_);
      s.delivery_ring.reset(ring_size_);
    }
  }
  for (std::size_t slot = 0; slot < ring_size_; ++slot) {
    std::vector<FlitEvent> flits;
    std::vector<CreditEvent> credits;
    std::vector<PacketId> deliveries;
    if constexpr (!kLoad) {
      for (const Shard& s : shards_) {
        s.flit_ring.visit(slot, [&](FlitEvent ev) { flits.push_back(ev); });
        s.credit_ring.visit(slot,
                            [&](CreditEvent ev) { credits.push_back(ev); });
        s.delivery_ring.visit(slot,
                              [&](PacketId id) { deliveries.push_back(id); });
      }
      if (sharded_) {
        const auto key = [](const auto& e) {
          return std::tie(e.router, e.port, e.vc);
        };
        std::ranges::stable_sort(flits, {}, key);
        std::ranges::stable_sort(credits, {}, key);
      }
    }
    auto nf = static_cast<std::uint32_t>(flits.size());
    ar.u32(nf, "flit event count");
    for (std::uint32_t k = 0; k < nf; ++k) {
      FlitEvent ev = kLoad ? FlitEvent{} : flits[k];
      ar.index(ev.router, routers, "flit event router");
      ar.index(ev.port, ports_, "flit event port");
      ar.index(ev.vc, vc_count(ev.port), "flit event vc");
      transfer_flit(ev.flit);
      if (kLoad) shards_[shard_of(ev.router)].flit_ring.push(slot, ev);
    }
    auto nc = static_cast<std::uint32_t>(credits.size());
    ar.u32(nc, "credit event count");
    for (std::uint32_t k = 0; k < nc; ++k) {
      CreditEvent ev = kLoad ? CreditEvent{} : credits[k];
      ar.index(ev.router, routers, "credit event router");
      ar.index(ev.port, ports_, "credit event port");
      ar.index(ev.vc, vc_count(ev.port), "credit event vc");
      if (kLoad) shards_[shard_of(ev.router)].credit_ring.push(slot, ev);
    }
    auto nd = static_cast<std::uint32_t>(deliveries.size());
    ar.u32(nd, "delivery event count");
    for (std::uint32_t k = 0; k < nd; ++k) {
      PacketId id = kLoad ? kInvalid : deliveries[k];
      packet_id(id, false, "delivery event id");
      if (kLoad) {
        shards_[shard_of(topo_.router_of_terminal(pool_[id].dst))]
            .delivery_ring.push(slot, id);
      }
    }
  }

  // --- routing mechanism state + end sentinel ----------------------------
  if constexpr (kLoad) {
    routing_.restore_state(ar.stream());
  } else {
    routing_.save_state(ar.stream());
  }
  std::uint64_t sentinel = kEndSentinel;
  ar.u64(sentinel, "end sentinel");
  ser::check(sentinel == kEndSentinel,
             "end sentinel mismatch (the stream is misaligned or was written "
             "by an incompatible routing mechanism)");
  if constexpr (kLoad) {
    // The rest of the retry-suppression state restarts cold with the VC
    // records' caches (see the router loop).
    const auto num_routers = static_cast<std::size_t>(routers);
    std::fill_n(port_wake_, num_routers * static_cast<std::size_t>(ports_),
                0);
    std::fill_n(vc_waiter_next_,
                num_routers * static_cast<std::size_t>(vcs_per_router_),
                kNotWaiting);
  }
}

template void Engine::transfer(ser::Writer&);
template void Engine::transfer(ser::Reader&);

}  // namespace dfsim
