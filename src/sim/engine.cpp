#include "sim/engine.hpp"

#include <sys/mman.h>

#include <bit>
#include <cassert>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {
std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

constexpr std::size_t kCacheLine = 64;
std::size_t round_up_line(std::size_t v) {
  return (v + kCacheLine - 1) & ~(kCacheLine - 1);
}

// Engine state blocks are mapped directly, outside the malloc heap, and
// the process keeps the last one released for the next engine of the
// same size. A sweep or a benchmark that builds engine after engine then
// reuses resident pages instead of faulting its whole state in again
// (glibc trimmed the separate arrays off the heap top at every
// destruction: ~1,000 pages per build at h=6). Keeping the block out of
// the heap matters too: carved from malloc, an engine-sized hole that the
// next engine's small allocations split could never be reused, and a
// 4-worker h=4 sweep peaked 10% higher.
struct SpareStateBlock {
  std::mutex mu;
  std::byte* block = nullptr;
  std::size_t bytes = 0;
};

/// Puts (block, bytes) in the spare slot; returns what the slot held.
std::pair<std::byte*, std::size_t> exchange_spare(std::byte* block,
                                                  std::size_t bytes) {
  // Never destroyed: an engine may be released during static destruction.
  static auto* spare = new SpareStateBlock;
  const std::lock_guard<std::mutex> lock(spare->mu);
  return {std::exchange(spare->block, block),
          std::exchange(spare->bytes, bytes)};
}

std::byte* acquire_state_block(std::size_t bytes) {
  const auto [spare, spare_bytes] = exchange_spare(nullptr, 0);
  if (spare != nullptr && spare_bytes == bytes) return spare;
  if (spare != nullptr) ::munmap(spare, spare_bytes);
  void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(block);
}
}  // namespace

void Engine::StateBlockRelease::operator()(std::byte* block) const {
  const auto [stale, stale_bytes] = exchange_spare(block, bytes);
  if (stale != nullptr) ::munmap(stale, stale_bytes);
}

Engine::Engine(const DragonflyTopology& topo, const EngineConfig& cfg,
               RoutingAlgorithm& routing, TrafficPattern& pattern,
               const InjectionProcess& injection)
    : topo_(topo),
      cfg_(cfg),
      routing_(routing),
      pattern_(&pattern),
      injection_(injection),
      rng_(cfg.seed),
      shard_team_(shard_count(topo, cfg)) {
  // Negated >=/<= so NaN fails too. SimConfig::validate() repeats this
  // (plus the duty-vs-load feasibility check) with pointed messages; this
  // guards direct Engine construction.
  if (!(injection_.onoff_on >= 0.0 && injection_.onoff_on <= 1.0) ||
      !(injection_.onoff_off >= 0.0 && injection_.onoff_off <= 1.0) ||
      (injection_.onoff_on == 0.0) != (injection_.onoff_off == 0.0)) {
    throw std::invalid_argument(
        "ON/OFF transition probabilities must both be in (0, 1] or both 0");
  }
  flit_phits_ = cfg_.flit_phits > 0 ? cfg_.flit_phits : cfg_.packet_phits;
  if (cfg_.packet_phits % flit_phits_ != 0) {
    throw std::invalid_argument(
        "packet_phits must be a multiple of flit_phits");
  }
  flits_per_packet_ = cfg_.packet_phits / flit_phits_;
  if (cfg_.flow == FlowControl::kVirtualCutThrough && flits_per_packet_ != 1) {
    throw std::invalid_argument(
        "VCT forwards whole packets: use flit_phits == packet_phits");
  }
  if (cfg_.flow == FlowControl::kWormhole && !routing_.supports_wormhole()) {
    throw std::invalid_argument(routing_.name() +
                                " requires VCT flow control (paper Sec. III)");
  }
  if (cfg_.local_vcs < routing_.min_local_vcs() ||
      cfg_.global_vcs < routing_.min_global_vcs()) {
    throw std::invalid_argument(routing_.name() + " needs at least " +
                                std::to_string(routing_.min_local_vcs()) + "/" +
                                std::to_string(routing_.min_global_vcs()) +
                                " local/global VCs");
  }
  if (cfg_.local_buf_phits < cfg_.packet_phits &&
      cfg_.flow == FlowControl::kVirtualCutThrough) {
    throw std::invalid_argument("VCT needs local buffers >= packet size");
  }
  if (cfg_.local_buf_phits < flit_phits_ ||
      cfg_.global_buf_phits < flit_phits_) {
    throw std::invalid_argument("buffers must hold at least one flit");
  }

  injection_buf_phits_ = cfg_.injection_buf_phits > 0
                             ? cfg_.injection_buf_phits
                             : std::max(2 * cfg_.packet_phits,
                                        cfg_.local_buf_phits);
  gen_probability_ = injection_.load / static_cast<double>(cfg_.packet_phits);

  vc_stride_ = std::max({cfg_.local_vcs, cfg_.global_vcs, 1});
  ports_ = topo_.ports_per_router();
  first_terminal_port_ = topo_.first_terminal_port();
  terminals_per_router_ = topo_.terminals_per_router();

  // InputVc packs an output hop as port*16+vc into an int16: 2047*16+15
  // is exactly INT16_MAX. (The old one-word occupied-port bitmask capped
  // degree at 63, which an h=8+ shape blows straight through.)
  if (ports_ > 2047) {
    throw std::invalid_argument(
        "router degree above 2047 ports unsupported (16-bit hop encoding)");
  }
  if (vc_stride_ > 16) {
    throw std::invalid_argument(
        "more than 16 VCs per port unsupported (nonempty-VC bitmask)");
  }
  // A VC's flit FIFO counts its flits in 16 bits; a silent narrowing
  // would corrupt the queue, so reject up front.
  if (std::max({cfg_.local_buf_phits, cfg_.global_buf_phits,
                injection_buf_phits_}) /
          flit_phits_ >
      FlitQueue::kMaxSize) {
    throw std::invalid_argument(
        "buffer capacity above 32767 flits unsupported (16-bit VC queues)");
  }

  cap_by_class_[static_cast<int>(PortClass::kLocal)] = cfg_.local_buf_phits;
  cap_by_class_[static_cast<int>(PortClass::kGlobal)] = cfg_.global_buf_phits;
  cap_by_class_[static_cast<int>(PortClass::kTerminal)] =
      injection_buf_phits_;
  for (int c = 0; c < 3; ++c) {
    const int cap = cap_by_class_[c];
    if (cap > 0 && (cap & (cap - 1)) == 0) {
      inv_cap_[c] = 1.0 / static_cast<double>(cap);
    }
  }

  port_class_.resize(static_cast<size_t>(ports_));
  vc_count_.resize(static_cast<size_t>(ports_));
  vc_base_.resize(static_cast<size_t>(ports_));
  vcs_per_router_ = 0;
  for (PortId p = 0; p < ports_; ++p) {
    const PortClass cls = topo_.port_class(p);
    port_class_[static_cast<size_t>(p)] = static_cast<std::uint8_t>(cls);
    switch (cls) {
      case PortClass::kLocal:
        vc_count_[static_cast<size_t>(p)] = cfg_.local_vcs;
        break;
      case PortClass::kGlobal:
        vc_count_[static_cast<size_t>(p)] = cfg_.global_vcs;
        break;
      case PortClass::kTerminal:
        vc_count_[static_cast<size_t>(p)] = 1;
        break;
    }
    vc_base_[static_cast<size_t>(p)] = vcs_per_router_;
    vcs_per_router_ += vc_count(p);
    vc_port_.insert(vc_port_.end(), static_cast<size_t>(vc_count(p)),
                    static_cast<std::int16_t>(p));
  }

  const auto num_routers = static_cast<std::size_t>(topo_.num_routers());
  const auto num_vcs =
      num_routers * static_cast<std::size_t>(vcs_per_router_);
  // The waiter lists store VC indices in 32-bit slots; a shape whose VC
  // count overflows them would corrupt retry suppression silently.
  if (num_vcs >= static_cast<std::size_t>(INT32_MAX)) {
    throw std::invalid_argument(
        "topology too large: total VC count overflows 32-bit VC indices");
  }
  occ_words_ = (ports_ + 63) / 64;
  allocate_state();

  // Initialize credits to the downstream buffer capacity. Port classes
  // match across a link (local<->local, global<->global). Cache the far
  // endpoint of every link while we walk the ports.
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      const PortClass cls = pclass(p);
      if (cls == PortClass::kTerminal) continue;
      endpoints_[port_index(r, p)] = topo_.remote_endpoint(r, p);
      for (VcId v = 0; v < vc_count(p); ++v) {
        out_vc(r, p, v).credits_phits = buffer_capacity(cls);
      }
    }
  }

  terminals_.resize(static_cast<size_t>(topo_.num_terminals()));
  pending_terminals_.assign(
      (static_cast<std::size_t>(topo_.num_terminals()) + 63) / 64, 0);
  if (topo_.faulted()) {
    terminal_dead_.assign(static_cast<size_t>(topo_.num_terminals()), 0);
    for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
      if (!topo_.terminal_alive(t)) {
        terminal_dead_[static_cast<size_t>(t)] = 1;
        has_dead_terminals_ = true;
      }
    }
  }
  if (injection_.mode == InjectionProcess::Mode::kBurst) {
    for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      TerminalState& ts = terminals_[static_cast<size_t>(t)];
      ts.burst_remaining = injection_.burst_packets;
      if (ts.burst_remaining > 0) mark_terminal_pending(t);
    }
  }

  if (injection_.mode == InjectionProcess::Mode::kBernoulli &&
      injection_.onoff_on > 0.0) {
    onoff_ = true;
    refresh_onoff_probability();
    // Seed each chain from its stationary distribution (one draw per
    // terminal, ascending, before cycle 0) so the process needs no extra
    // warmup to reach its long-run duty cycle. Plain Bernoulli runs draw
    // nothing here — their historical RNG stream is untouched.
    const double duty =
        injection_.onoff_on / (injection_.onoff_on + injection_.onoff_off);
    onoff_state_.resize(static_cast<size_t>(topo_.num_terminals()));
    for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
      onoff_state_[static_cast<size_t>(t)] = rng_.bernoulli(duty) ? 1 : 0;
    }
  }

  // The wheel must span the longest wire: an event further ahead than its
  // size would wrap into an earlier slot and fire early.
  ring_size_ = next_pow2(static_cast<size_t>(
      std::max(cfg_.local_latency, cfg_.global_latency) +
      std::max(cfg_.packet_phits, flit_phits_) + 4));
  init_shards();
}

// Two passes over one layout: the first (base == nullptr) only sums the
// sizes, the second constructs every array in the block, each on its own
// cache line. Arrays are value-constructed unless given a fill value
// (copying a 32-byte InputVc into every slot ran a third slower than
// constructing it in place). A reused block holds the last engine's
// state, so every array is constructed afresh either way.
void Engine::allocate_state() {
  const auto num_routers = static_cast<std::size_t>(topo_.num_routers());
  const auto num_ports = num_routers * static_cast<std::size_t>(ports_);
  const auto num_vcs = num_routers * static_cast<std::size_t>(vcs_per_router_);
  const auto layout = [&](std::byte* base) {
    std::size_t offset = 0;
    const auto carve = [&](auto*& array, std::size_t n, auto... init) {
      using T = std::remove_pointer_t<std::remove_reference_t<decltype(array)>>;
      static_assert(std::is_trivially_destructible_v<T>,
                    "the block is freed without running destructors");
      if (base != nullptr) {
        array = reinterpret_cast<T*>(base + offset);
        if constexpr (sizeof...(init) == 0) {
          std::uninitialized_value_construct_n(array, n);
        } else {
          std::uninitialized_fill_n(array, n, static_cast<T>(init)...);
        }
      }
      offset = round_up_line(offset + n * sizeof(T));
    };
    carve(in_vcs_, num_vcs);
    carve(out_vcs_, num_vcs);
    carve(vc_waiter_next_, num_vcs, kNotWaiting);
    carve(endpoints_, num_ports);
    carve(out_busy_until_, num_ports);
    carve(in_scan_, num_ports);
    carve(port_wake_, num_ports);
    carve(out_rr_, num_ports);
    carve(occupied_ports_, num_routers * static_cast<std::size_t>(occ_words_));
    carve(nonempty_vcs_, num_routers);
    return offset;
  };
  const std::size_t bytes = layout(nullptr);
  state_block_ = std::unique_ptr<std::byte, StateBlockRelease>(
      acquire_state_block(bytes), StateBlockRelease{bytes});
  layout(state_block_.get());
}

void Engine::deliver(PacketId id) {
  const Packet& pkt = pool_[id];
  ++delivered_packets_;
  delivered_phits_ += static_cast<std::uint64_t>(pkt.size_phits);
  // Request-reply causality: deliveries run serially (the deliver phase
  // drains the per-shard rings in ascending order), so queueing the reply
  // here is deterministic.
  if (workload_ != nullptr) maybe_reply(pkt);
  if (on_delivered_) on_delivered_(pkt, now_);
  pool_.release(id);
  last_progress_ = now_;
}

void Engine::maybe_reply(const Packet& pkt) {
  if ((pkt.flags & (kPacketFlagReply | kPacketFlagNoReply)) != 0) return;
  if (!workload_->wants_reply(pkt.src)) return;
  // The reply travels dst -> src; its latency clock starts at the
  // request's delivery.
  const bool accepted = push_forced(pkt.dst, pkt.src, now_, kPacketFlagReply);
  if (on_generated_) on_generated_(now_, accepted);
}

void Engine::ensure_forced_queues() {
  if (has_forced_dst_) return;
  const auto n = static_cast<std::size_t>(topo_.num_terminals());
  forced_dst_.resize(n);
  forced_created_.resize(n);
  forced_flags_.resize(n);
  has_forced_dst_ = true;
}

bool Engine::push_forced(NodeId t, NodeId dst, Cycle created,
                         std::uint8_t flags) {
  ensure_forced_queues();
  const auto ti = static_cast<std::size_t>(t);
  if (forced_dst_[ti].size() >=
      static_cast<std::size_t>(cfg_.source_queue_cap)) {
    return false;
  }
  forced_created_[ti].push_back(created);
  forced_dst_[ti].push_back(dst);
  forced_flags_[ti].push_back(flags);
  // Only exact mode's injection loop reads the pending bitmap; skipping
  // the mark in sharded mode also keeps parallel-phase pushes (message
  // bodies) off the shared bitmap words.
  if (!sharded_) mark_terminal_pending(t);
  return true;
}

void Engine::feed_trace() {
  workload_->drain_trace(now_, [&](NodeId src, NodeId dst, int size_phits) {
    // Rows touching a dead terminal can never be injected/delivered;
    // count them with the dead-destination drops.
    if (has_dead_terminals_ && (terminal_dead_[static_cast<size_t>(src)] ||
                                terminal_dead_[static_cast<size_t>(dst)])) {
      ++dead_dst_drops_;
      return;
    }
    const int packets =
        (size_phits + cfg_.packet_phits - 1) / cfg_.packet_phits;
    for (int k = 0; k < packets; ++k) {
      const bool accepted = push_forced(src, dst, now_, kPacketFlagNoReply);
      if (on_generated_) on_generated_(now_, accepted);
    }
  });
}

void Engine::set_workload(Workload* w) {
  workload_ = w;
  workload_trace_ = w != nullptr && w->is_trace();
  // Eager allocation: the sharded stepper queues message bodies from a
  // parallel phase, which must never race a lazy resize.
  if (w != nullptr) ensure_forced_queues();
}

void Engine::set_terminal_loads(const std::vector<double>& loads) {
  if (loads.empty()) {
    has_terminal_loads_ = false;
    terminal_gen_prob_.clear();
    terminal_gen_threshold_.clear();
    return;
  }
  if (loads.size() != static_cast<std::size_t>(topo_.num_terminals())) {
    throw std::invalid_argument(
        "terminal load vector has " + std::to_string(loads.size()) +
        " entries but the topology has " +
        std::to_string(topo_.num_terminals()) + " terminals");
  }
  terminal_gen_prob_.resize(loads.size());
  terminal_gen_threshold_.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double p = loads[i] / static_cast<double>(cfg_.packet_phits);
    terminal_gen_prob_[i] = p;
    terminal_gen_threshold_[i] = gen_threshold(p);
  }
  has_terminal_loads_ = true;
}

void Engine::allocate_router(RouterId r, Shard& s) {
  const std::size_t rbase = port_index(r, 0);
  AllocScratch& scratch = s.scratch;
  // Nothing below pushes or pops a flit until the sends after the
  // nomination scan, so a Flit& read from the slab stays valid throughout.
  const FlitSlab& slab = s.flit_slab;

  scratch.noms.clear();
  scratch.touched_outs.clear();

  for (int ow = 0; ow < occ_words_; ++ow) {
    std::uint64_t pending =
        occupied_ports_[static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(occ_words_) +
                        static_cast<std::size_t>(ow)];
    while (pending != 0) {
      const PortId p =
          static_cast<PortId>(ow * 64 + std::countr_zero(pending));
      pending &= pending - 1;
      const std::size_t pbase = rbase + static_cast<size_t>(p);
      // Every nonempty VC of this port is asleep: one load replaces the
      // whole VC walk. Arrivals and credit wakes clear the gate; timed
      // sleeps simply expire.
      if (port_wake_[pbase] > now_) continue;
      const int nvc = vc_count(p);
      const std::size_t first_vc = vc_index(r, p, 0);
      const std::uint32_t scan = in_scan_[pbase];
      const std::uint32_t mask = scan >> 16;
      // RR pointers are stored pre-reduced (always < the port's VC count /
      // port count), so the wraparound is a compare instead of a division.
      const int start = static_cast<int>(scan & 0xffffu);
      // Earliest wake among this port's sleeping nonempty VCs; published
      // to port_wake_ only when NO VC was actionable (an actionable VC
      // that nominates — or merely fails decide() — forces a revisit
      // next cycle, since its state can change without an event).
      Cycle port_min = std::numeric_limits<Cycle>::max();
      bool any_nominated = false;
      for (int k = 0; k < nvc; ++k) {
        int vi = start + k;
        if (vi >= nvc) vi -= nvc;
        if (((mask >> vi) & 1u) == 0) continue;  // empty VC: skip the load
        const VcId v = static_cast<VcId>(vi);
        const std::size_t vidx = first_vc + static_cast<std::size_t>(vi);
        // Everything below up to the decide() call reads this one record.
        InputVc& ivc = in_vcs_[vidx];
        if (ivc.sleep_until > now_) {  // provably blocked
          if (ivc.sleep_until < port_min) port_min = ivc.sleep_until;
          continue;
        }
        if (now_ - ivc.head_since > cfg_.watchdog_cycles) s.deadlock = true;

        Nomination nom{p, v, kInvalid, 0, false, {}};
        std::int16_t hh = ivc.head_hop;
        if (hh >= 0) {
          // Cached pure-minimal verdict for this head: decide() would
          // return exactly this hop iff usable. Neither the packet pool
          // nor the flit slab needs to be touched to retry it.
          const PortId op = InputVc::hop_port(hh);
          const VcId ov = InputVc::hop_vc(hh);
          if (!head_usable(r, op, ov)) {
            suppress_retry(vidx, ivc, r, op, ov);
            if (ivc.sleep_until < port_min) port_min = ivc.sleep_until;
            continue;
          }
          nom.out_port = op;
          nom.out_vc = ov;
          nom.fresh = true;
          nom.choice = RouteChoice{op, ov};
        } else if (ivc.bound != InputVc::kNoHop) {
          // Wormhole continuation: body flits follow the head's decision.
          const PortId op = InputVc::hop_port(ivc.bound);
          const VcId ov = InputVc::hop_vc(ivc.bound);
          const Flit& flit = ivc.fifo.front(slab);
          if (!output_usable(r, op, ov, flit)) {
            suppress_retry(vidx, ivc, r, op, ov);
            if (ivc.sleep_until < port_min) port_min = ivc.sleep_until;
            continue;
          }
          nom.out_port = op;
          nom.out_vc = ov;
        } else {
          const Flit& flit = ivc.fifo.front(slab);
          assert(flit.head);
          Packet& pkt = pool_[flit.packet];
          // Sharded mode draws from a counter-based stream keyed by
          // (seed, cycle, VC): any worker evaluating this decision
          // constructs the identical stream. Exact mode keeps the single
          // shared cursor, whose ascending draw order is the contract.
          Rng* rng = &rng_;
          if (sharded_) {
            scratch.rng = keyed_stream(cfg_.seed, now_, kStreamRoute,
                                       route_stream_key(r, p, v));
            rng = &scratch.rng;
          }
          RoutingContext ctx{*this, r, p, v, pkt, flit, *rng};
          std::optional<RouteChoice> choice;
          if (hh == InputVc::kHeadUnknown) {
            // First decision for this (head, router): the fused entry
            // point computes the purity verdict and — when impure — the
            // decision in one pass; the verdict is cached for the retry
            // cycles.
            std::optional<Hop> hop;
            choice = routing_.decide_fresh(ctx, &hop);
            if (hop) {
              ivc.head_hop = InputVc::encode_hop(hop->port, hop->vc);
              if (!output_usable(r, hop->port, hop->vc, flit)) {
                suppress_retry(vidx, ivc, r, hop->port, hop->vc);
                if (ivc.sleep_until < port_min) port_min = ivc.sleep_until;
                continue;
              }
              nom.out_port = hop->port;
              nom.out_vc = hop->vc;
              nom.fresh = true;
              nom.choice = RouteChoice{hop->port, hop->vc};
              goto nominated;
            }
            ivc.head_hop = InputVc::kHeadImpure;
          } else {
            choice = routing_.decide(ctx);
          }
          {
            if (!choice) {
              port_min = 0;  // drew RNG and failed: must retry next cycle
              continue;
            }
            assert(output_usable(r, choice->port, choice->vc, flit));
            nom.out_port = choice->port;
            nom.out_vc = choice->vc;
            nom.fresh = true;
            nom.choice = *choice;
          }
        }
      nominated:

        // Output arbitration: keep the requester closest to the RR
        // pointer.
        const auto op = static_cast<size_t>(nom.out_port);
        const std::int16_t cur = scratch.out_first_nom[op];
        if (cur < 0) {
          scratch.out_first_nom[op] =
              static_cast<std::int16_t>(scratch.noms.size());
          scratch.noms.push_back(nom);
          scratch.touched_outs.push_back(nom.out_port);
        } else {
          const int base = out_rr_[rbase + op];
          int d_new = nom.in_port - base;
          if (d_new < 0) d_new += ports_;
          int d_cur = scratch.noms[static_cast<size_t>(cur)].in_port - base;
          if (d_cur < 0) d_cur += ports_;
          if (d_new < d_cur) {
            scratch.noms[static_cast<size_t>(cur)] = nom;
          }
        }
        any_nominated = true;
        break;  // this input port nominated; move to the next port
      }
      if (!any_nominated && port_min > now_) port_wake_[pbase] = port_min;
    }
  }

  for (const PortId op : scratch.touched_outs) {
    const std::int16_t idx = scratch.out_first_nom[static_cast<size_t>(op)];
    assert(idx >= 0);
    scratch.out_first_nom[static_cast<size_t>(op)] = -1;
    const Nomination& nom = scratch.noms[static_cast<size_t>(idx)];
    send_flit(r, nom.in_port, nom.in_vc, nom.out_port, nom.out_vc,
              nom.fresh ? &nom.choice : nullptr, s);
    const int next_in = nom.in_port + 1;
    out_rr_[rbase + static_cast<size_t>(op)] =
        static_cast<std::uint16_t>(next_in == ports_ ? 0 : next_in);
    const int next_vc = nom.in_vc + 1;
    std::uint32_t& scan = in_scan_[rbase + static_cast<size_t>(nom.in_port)];
    scan = (scan & 0xffff0000u) |
           static_cast<std::uint32_t>(
               next_vc == vc_count(nom.in_port) ? 0 : next_vc);
  }
}

void Engine::apply_route_state(Packet& pkt, RouterId r,
                               const RouteChoice& choice) {
  pkt.min_cache.router = kInvalid;  // the hop changes the route state
  RouteState& rs = pkt.rs;
  if (choice.commit_valiant) {
    rs.valiant = true;
    rs.inter_group = choice.inter_group;
  }
  switch (pclass(choice.port)) {
    case PortClass::kLocal:
      rs.prev_local_idx = static_cast<std::int8_t>(topo_.local_index(r));
      ++rs.local_hops_group;
      ++rs.local_hops_total;
      rs.last_local_vc = static_cast<std::int8_t>(choice.vc);
      if (choice.local_misroute) ++rs.local_mis_group;
      ++rs.total_hops;
      break;
    case PortClass::kGlobal:
      ++rs.global_hops;
      rs.local_hops_group = 0;
      rs.local_mis_group = 0;
      rs.prev_local_idx = -1;
      ++rs.total_hops;
      break;
    case PortClass::kTerminal:
      break;  // ejection
  }
  // Paper Sec. III: at most one global and one local misroute per visited
  // group; the longest route is l-l-g-l-l-g-l-l (8 hops).
  assert(rs.global_hops <= 2);
  assert(rs.local_hops_group <= 2);
  assert(rs.total_hops <= 8);
}

void Engine::send_flit(RouterId r, PortId in_port, VcId in_vc_id,
                       PortId out_port, VcId out_vc_id,
                       const RouteChoice* fresh_choice, Shard& s) {
  const std::size_t in_vidx = vc_index(r, in_port, in_vc_id);
  InputVc& ivc = in_vcs_[in_vidx];
  const Flit flit = ivc.fifo.front(s.flit_slab);
  ivc.fifo.pop_front(s.flit_slab);
  ivc.head_hop = InputVc::kHeadUnknown;  // whatever follows is a new head
  if (ivc.fifo.empty()) {
    --nonempty_vcs_[static_cast<size_t>(r)];
    std::uint32_t& scan = in_scan_[port_index(r, in_port)];
    scan &= ~(1u << (16 + in_vc_id));
    if ((scan >> 16) == 0) clear_occupied(r, in_port);
  } else {
    ivc.head_since = now_;
  }

  // Return the freed space upstream. Injection-buffer space is visible to
  // the co-located source immediately (no wire to cross). A credit whose
  // upstream router lives in this very shard goes straight into the
  // shard's own wheel; only cross-shard credits (global links, sharded
  // mode) ride the outbox to the serial flush.
  const PortClass in_cls = pclass(in_port);
  if (in_cls != PortClass::kTerminal) {
    const auto up = endpoints_[port_index(r, in_port)];
    const CreditEvent cev{up.router, static_cast<std::int16_t>(up.port),
                          static_cast<std::int16_t>(in_vc_id)};
    const Cycle at = now_ + link_latency(in_cls);
    if (up.router >= s.first_router && up.router < s.end_router) {
      s.credit_ring.push(ring_slot(at), cev);
    } else {
      s.outbox_credits.push_back({at, cev});
    }
  }

  if (fresh_choice != nullptr) {
    Packet& pkt = pool_[flit.packet];
    apply_route_state(pkt, r, *fresh_choice);
    routing_.on_hop(*this, pkt, *fresh_choice, r);
    // External hop hooks may touch arbitrary user state; replay them in
    // deterministic ascending-shard order at the flush.
    if (on_hop_) s.hops.push_back({flit.packet, *fresh_choice, r});
  }

  // No flit may ever depart on a dead (or unwired) port: the routing
  // mechanisms' alive filters and the recomputed canonical tables are
  // supposed to make this unreachable.
  assert(topo_.port_alive(r, out_port));

  const PortClass out_cls = pclass(out_port);
  out_busy_until_[port_index(r, out_port)] =
      now_ + static_cast<Cycle>(flit_phits_);
  s.phits_sent[static_cast<int>(out_cls)] +=
      static_cast<std::uint64_t>(flit_phits_);

  // Input-VC binding for multi-flit packets (wormhole).
  if (flit.head && !flit.tail) {
    ivc.bound = InputVc::encode_hop(out_port, out_vc_id);
  }
  if (flit.tail) ivc.bound = InputVc::kNoHop;

  s.progressed = true;
  if (out_cls == PortClass::kTerminal) {
    if (flit.tail) {
      // Ejection happens at the owning router: deliveries are always
      // same-shard, straight into the shard's own wheel.
      const Cycle at = now_ + static_cast<Cycle>(flit_phits_);
      s.delivery_ring.push(ring_slot(at), flit.packet);
    }
    return;
  }

  OutputVc& ovc = out_vcs_[vc_index(r, out_port, out_vc_id)];
  ovc.credits_phits -= flit_phits_;
  assert(ovc.credits_phits >= 0);
  if (cfg_.flow == FlowControl::kWormhole) {
    if (flit.head) ovc.bound_packet = flit.packet;
    if (flit.tail) {
      ovc.bound_packet = kInvalid;
      wake_waiters(r, ovc);
    }
  }

  const auto down = endpoints_[port_index(r, out_port)];
  const Cycle at =
      now_ + static_cast<Cycle>(flit_phits_ + link_latency(out_cls));
  const FlitEvent fev{down.router, static_cast<std::int16_t>(down.port),
                      static_cast<std::int16_t>(out_vc_id), flit};
  // Local-link flits stay inside the group (hence the shard) and go into
  // the shard's own wheel; only global-link flits cross the outbox.
  if (down.router >= s.first_router && down.router < s.end_router) {
    s.flit_ring.push(ring_slot(at), fev);
  } else {
    s.outbox_flits.push_back({at, fev});
  }
}

// Exact mode: terminals draw generation randomness in strict ascending
// order — that per-terminal draw order is part of the seed contract, so
// the Bernoulli loop still visits every terminal. The pending bitmap only
// gates the injection attempt (source-queue, link and buffer checks),
// which is the expensive part at low load.
void Engine::inject_terminals_exact(Shard& s) {
  const auto attempt = [&](NodeId t) {
    TerminalState& ts = terminals_[static_cast<size_t>(t)];
    try_inject_shard(t, ts, &rng_, s);
    if (!terminal_has_work(t, ts)) clear_terminal_pending(t);
  };
  const bool draws = injection_.mode == InjectionProcess::Mode::kBernoulli &&
                     (gen_probability_ > 0.0 || has_terminal_loads_);
  if (draws) {
    // The coins draw from a register-resident copy of the stream, handed
    // back to rng_ around each attempt (whose destination draw continues
    // the same stream). Drawing on the member itself reloads its state on
    // every terminal, and the compiler's vectorized reload stalls on the
    // previous draw's stores.
    Rng rng = rng_;
    for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
      // Terminals on dead routers generate nothing (and draw nothing, so
      // the fault set fully determines the degraded-network RNG stream);
      // the flag is never set on healthy topologies.
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      bool generated;
      if (onoff_) {
        // Markov ON/OFF sources: step the terminal's chain (one draw),
        // then let an ON terminal generate at the duty-compensated rate
        // (a second draw).
        std::uint8_t& on = onoff_state_[static_cast<size_t>(t)];
        if (on != 0) {
          if (rng.bernoulli(injection_.onoff_off)) on = 0;
        } else if (rng.bernoulli(injection_.onoff_on)) {
          on = 1;  // transitions apply immediately: an ON entry generates
        }
        generated = on != 0 && rng.bernoulli(gen_probability_on_);
      } else {
        // Per-terminal loads (multi-job workloads) swap the probability
        // but keep one draw per live terminal, so the stream stays
        // ascending.
        generated = rng.bernoulli(
            has_terminal_loads_ ? terminal_gen_prob_[static_cast<size_t>(t)]
                                : gen_probability_);
      }
      if (generated && generate(terminals_[static_cast<size_t>(t)], s)) {
        mark_terminal_pending(t);
      }
      if (terminal_pending(t)) {
        rng_ = rng;
        attempt(t);
        rng = rng_;
      }
    }
    rng_ = rng;
    return;
  }
  // No generation randomness this cycle (burst mode, or zero load): only
  // terminals with queued work need a look, still in ascending order.
  const std::size_t words = pending_terminals_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = pending_terminals_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      attempt(static_cast<NodeId>(w * 64 + static_cast<size_t>(b)));
    }
  }
}

bool Engine::generate(TerminalState& ts, Shard& s) {
  const bool accepted = ts.pending_created.size() <
                        static_cast<std::size_t>(cfg_.source_queue_cap);
  if (accepted) ts.pending_created.push_back(now_);
  if (on_generated_) s.gen_accepted.push_back(accepted ? 1 : 0);
  return accepted;
}

void Engine::inject_packet(Shard& s, NodeId t, TerminalState& ts, NodeId dst,
                           Cycle created, std::uint8_t flags) {
  const PacketId id = pool_.alloc(s.index);
  Packet& pkt = pool_[id];
  pkt.src = t;
  pkt.dst = dst;
  pkt.size_phits = cfg_.packet_phits;
  pkt.created = created;
  pkt.injected = now_;
  pkt.flags = flags;
  pkt.rs.dst_router = topo_.router_of_terminal(dst);
  pkt.rs.dst_group = topo_.group_of_terminal(dst);
  pkt.rs.src_group = topo_.group_of_terminal(t);

  const RouterId r = topo_.router_of_terminal(t);
  const auto port = static_cast<std::int16_t>(topo_.terminal_port(t));
  for (int k = 0; k < flits_per_packet_; ++k) {
    Flit flit;
    flit.packet = id;
    flit.index = static_cast<std::int16_t>(k);
    flit.head = (k == 0);
    flit.tail = (k == flits_per_packet_ - 1);
    const Cycle at = now_ + static_cast<Cycle>((k + 1) * flit_phits_);
    assert(at - now_ < ring_size_);
    s.flit_ring.push(ring_slot(at), {r, port, 0, flit});
  }
  ts.inflight_phits += cfg_.packet_phits;
  ts.link_busy_until = now_ + static_cast<Cycle>(cfg_.packet_phits);
}

void Engine::inject_for_test(NodeId src, NodeId dst, Cycle created) {
  push_forced(src, dst, created, 0);
}

void Engine::run_until(Cycle end) {
  while (now_ < end && step()) {
  }
}

std::size_t Engine::compiled_size() { return sizeof(Engine); }

std::size_t Engine::footprint_bytes() const {
  const auto vec = [](const auto& v) {
    return v.capacity() *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t total = sizeof(Engine);
  total += vec(port_class_) + vec(vc_count_) + vec(vc_base_) + vec(vc_port_);
  total += state_block_.get_deleter().bytes;
  total += vec(pending_terminals_);
  total += vec(terminals_) + vec(onoff_state_) + vec(terminal_dead_);
  for (const TerminalState& ts : terminals_) {
    total += ts.pending_created.footprint_bytes();
  }
  total += vec(forced_dst_) + vec(forced_created_) + vec(forced_flags_);
  for (const auto& q : forced_dst_) total += q.footprint_bytes();
  for (const auto& q : forced_created_) total += q.footprint_bytes();
  for (const auto& q : forced_flags_) total += q.footprint_bytes();
  total += vec(terminal_gen_prob_) + vec(terminal_gen_threshold_);
  total += pool_.footprint_bytes();
  // Shard-owned allocations: the per-shard timing wheels, flit slabs,
  // outboxes and staging vectors are where the engine's event and buffer
  // memory actually lives.
  total += vec(shards_);
  for (const Shard& s : shards_) {
    total += s.flit_ring.footprint_bytes() + s.credit_ring.footprint_bytes() +
             s.delivery_ring.footprint_bytes() + s.flit_slab.footprint_bytes();
    total += vec(s.outbox_flits) + vec(s.outbox_credits);
    total += vec(s.hops) + vec(s.gen_accepted);
    total += vec(s.scratch.noms) + vec(s.scratch.out_first_nom) +
             vec(s.scratch.touched_outs);
  }
  return total;
}

}  // namespace dfsim
