// The stepper: shards, the four-phase cycle, and the worker team.
//
// Routers are partitioned into shards: each shard owns a contiguous range
// of whole groups — their routers and terminals — AND its own
// flit/credit/delivery timing wheels: every event addressed to a router in
// the shard lives in its rings. Sharded mode (EngineConfig::sharded) cuts
// W = min(shard workers, groups) ranges, as even as the group count
// allows (129 groups over 4 workers: 32, 32, 32, 33), and barrier-team
// worker w runs shard w in every phase of every cycle. Exact mode is the
// one-shard case, and so is sharded mode at one worker. A cycle runs as
//
//   1. parallel — each shard drains this cycle's slot of its own credit
//                 and flit rings (arrival bookkeeping, own routers only)
//   2. serial   — packet deliveries (per-shard delivery rings, ascending
//                 shard order; each packet returns to the pool slab of
//                 the shard that created it) + RoutingAlgorithm::per_cycle
//   3. parallel — per-shard allocation + injection: packets are created
//                 here, from the shard's own pool slab; same-shard future
//                 events go straight into the shard's own rings, only
//                 cross-shard events (global-link flits and their
//                 credits) are staged in a per-source-shard outbox
//   4. serial   — replay the hooks and the outboxes, reduce counters, in
//                 ascending shard order; nothing is allocated here
//
// The serial work per cycle is O(cross-shard events + shards), not
// O(all events + shards): intra-shard traffic — all local and terminal
// links and the global links inside a range, the bulk of every cycle —
// never leaves its shard. With a single shard the outboxes stay empty,
// and "parallel" means the calling thread runs the one shard.
//
// The modes differ only where randomness comes from and in the injection
// loop. Exact mode draws every routing decision and generation coin from
// the engine's single stream, in ascending router/terminal order — its
// historical contract. Sharded mode must be deterministic for ANY worker
// count, although the worker count sets the partition: the parallel
// phases touch only owner-shard state and draw from counter-based RNG
// streams keyed by (seed, cycle, entity), never by shard. What the
// partition does change reaches no result:
//   - event order within one ring slot: arrival bookkeeping is
//     order-neutral (at most one flit per input port per cycle — upstream
//     links serialize — and credit application commutes);
//   - deliveries, hop hooks and generation hooks: each kind replays shard
//     by shard, each shard in ascending router/terminal order, so its
//     concatenation is the same global order for every contiguous
//     partition (generation hooks after all hop hooks);
//   - packet ids: they name pool slots and nothing else (checkpoints
//     renumber them, see engine_checkpoint.cpp).
// So results are bit-identical across jobs=1..N. They are NOT
// bit-compatible with exact mode, whose single shared RNG cursor implies
// a different draw sequence.
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/env.hpp"
#include "runtime/barrier_team.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {

// Process-wide profile accumulator (see accumulated_phase_profile()).
std::mutex g_profile_mu;
Engine::PhaseProfile g_profile_total;

void accumulate_profile(const Engine::PhaseProfile& p) {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  g_profile_total.steps += p.steps;
  g_profile_total.arrive_ns += p.arrive_ns;
  g_profile_total.deliver_ns += p.deliver_ns;
  g_profile_total.alloc_ns += p.alloc_ns;
  g_profile_total.flush_ns += p.flush_ns;
  g_profile_total.total_ns += p.total_ns;
}

std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Engine::PhaseProfile accumulated_phase_profile() {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  return g_profile_total;
}

// Defined here (not in engine.cpp) so the unique_ptr<BarrierTeam> member
// destroys against the complete type.
Engine::~Engine() {
  if (profile_ && profile_data_.steps > 0) {
    accumulate_profile(profile_data_);
  }
}

void Engine::init_shards() {
  sharded_ = cfg_.sharded;
  profile_ = cfg_.profile || env_flag("DF_PROFILE");
  // Exact mode never needs the worker count (whose default lookup can
  // read sysfs).
  const int groups = topo_.num_groups();
  const int num_shards =
      sharded_ ? std::min(runtime::resolve_jobs(cfg_.shard_jobs), groups) : 1;
  const int a = topo_.routers_per_group();
  shards_.resize(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.index = static_cast<std::size_t>(s);
    sh.first_router = s * groups / num_shards * a;
    sh.end_router = (s + 1) * groups / num_shards * a;
    sh.first_terminal = sh.first_router * terminals_per_router_;
    sh.end_terminal = sh.end_router * terminals_per_router_;
    sh.scratch.out_first_nom.assign(static_cast<size_t>(ports_), -1);
    sh.flit_ring.reset(ring_size_);
    sh.credit_ring.reset(ring_size_);
    sh.delivery_ring.reset(ring_size_);
  }
  // One pool slab per shard: phase 3 creates packets concurrently, each
  // shard from its own slab (see PacketPool).
  pool_.reset(shards_.size());
  if (num_shards > 1) {
    // Worker w runs shard w in every phase, so a shard's state stays in
    // one worker's cache. The phases touch disjoint state, so the
    // assignment affects only locality, never results.
    shard_team_ = std::make_unique<runtime::BarrierTeam>(
        num_shards, [this](int w) {
          (this->*shard_phase_)(shards_[static_cast<std::size_t>(w)]);
        });
  }
}

void Engine::run_shards(void (Engine::*phase)(Shard&)) {
  if (!shard_team_) {
    for (Shard& s : shards_) (this->*phase)(s);
    return;
  }
  shard_phase_ = phase;
  shard_team_->run();
}

bool Engine::step() {
  if (deadlock_) return false;
  return profile_ ? step_impl<true>() : step_impl<false>();
}

template <bool kProfile>
bool Engine::step_impl() {
  // Timestamps are taken at the phase boundaries, so the four phase
  // counters tile the step exactly: arrive + deliver + alloc + flush ==
  // total by construction. The untimed instantiation contains no clock
  // reads at all.
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  if constexpr (kProfile) t0 = profile_now_ns();

  // Phase 1 (parallel): per-shard arrival bookkeeping straight off each
  // shard's own rings.
  run_shards(&Engine::arrive_shard);
  if constexpr (kProfile) t1 = profile_now_ns();

  // Phase 2 (serial): deliveries (pool release + user hook) in ascending
  // shard order, then the routing mechanism's global per-cycle work.
  // Ejection happens at the destination router, so a delivery's ring and
  // its packet's last hop share a shard; the release goes to the slab of
  // the packet's source shard, so every slab's free-list order is a pure
  // function of this serial drain order. Then make room in the pool's
  // chunk table for each shard to create one packet per terminal in
  // phase 3, whose concurrent allocations must never resize it.
  const std::size_t slot = ring_slot(now_);
  for (Shard& s : shards_) {
    s.delivery_ring.drain(slot, [&](PacketId id) { deliver(id); });
    pool_.reserve_table(
        s.index, static_cast<std::size_t>(s.end_terminal - s.first_terminal));
  }
  routing_.per_cycle(*this);
  // Trace rows feed after routing bookkeeping, before allocation and
  // injection see them.
  if (workload_trace_) feed_trace();
  if constexpr (kProfile) t2 = profile_now_ns();

  // Phase 3 (parallel): switch allocation + injection. Same-shard future
  // events are scheduled directly; cross-shard ones land in the outbox.
  run_shards(&Engine::allocate_and_inject_shard);
  if constexpr (kProfile) t3 = profile_now_ns();

  // Phase 4 (serial): apply the staged cross-shard effects in ascending
  // shard order. Generation hooks replay after every shard's hop hooks,
  // so the two kinds interleave the same way under every partition.
  for (Shard& s : shards_) flush_shard(s);
  if (on_generated_) {
    for (Shard& s : shards_) {
      for (const std::uint8_t accepted : s.gen_accepted) {
        on_generated_(now_, accepted != 0);
      }
      s.gen_accepted.clear();
    }
  }

  if (now_ - last_progress_ > cfg_.watchdog_cycles && pool_.in_use() > 0) {
    deadlock_ = true;
  }
  ++now_;

  if constexpr (kProfile) {
    t4 = profile_now_ns();
    ++profile_data_.steps;
    profile_data_.arrive_ns += t1 - t0;
    profile_data_.deliver_ns += t2 - t1;
    profile_data_.alloc_ns += t3 - t2;
    profile_data_.flush_ns += t4 - t3;
    profile_data_.total_ns += t4 - t0;
  }
  return !deadlock_;
}

// Arrival bookkeeping for one shard's routers. With several shards the
// slot order differs from a single global wheel (same-shard events
// precede cross-shard ones), but arrival bookkeeping is order-invariant
// within a slot: credits commute, and the upstream link's serialization
// means at most one flit per input port per cycle.
void Engine::arrive_shard(Shard& s) {
  const std::size_t slot = ring_slot(now_);

  s.credit_ring.drain_prefetch(
      slot,
      [&](const CreditEvent& ev) {
        __builtin_prefetch(&out_vcs_[vc_index(ev.router, ev.port, ev.vc)]);
      },
      [&](const CreditEvent& ev) {
        OutputVc& ovc = out_vcs_[vc_index(ev.router, ev.port, ev.vc)];
        ovc.credits_phits += flit_phits_;
        assert(ovc.credits_phits <= port_capacity(ev.port));
        wake_waiters(ev.router, ovc);  // the same record's waiter head
      });

  s.flit_ring.drain_prefetch(
      slot,
      [&](const FlitEvent& ev) {
        __builtin_prefetch(&in_vcs_[vc_index(ev.router, ev.port, ev.vc)]);
      },
      [&](const FlitEvent& ev) {
        InputVc& ivc = in_vcs_[vc_index(ev.router, ev.port, ev.vc)];
        if (ivc.fifo.empty()) {
          ++nonempty_vcs_[static_cast<size_t>(ev.router)];
          ivc.head_since = now_;
          ivc.head_hop = InputVc::kHeadUnknown;  // this flit is the head
          const std::size_t pidx = port_index(ev.router, ev.port);
          std::uint32_t& scan = in_scan_[pidx];
          if ((scan >> 16) == 0) set_occupied(ev.router, ev.port);
          scan |= 1u << (16 + ev.vc);
          port_wake_[pidx] = 0;  // a fresh head makes the port actionable
        }
        ivc.fifo.push_back(s.flit_slab, ev.flit);
        if (pclass(ev.port) == PortClass::kTerminal) {
          const NodeId t = ev.router * terminals_per_router_ +
                           (ev.port - first_terminal_port_);
          terminals_[static_cast<size_t>(t)].inflight_phits -= flit_phits_;
        }
        assert(ivc.fifo.size() * flit_phits_ <= port_capacity(ev.port));
      });
}

// Routers with buffered flits are visited in ascending id order — the
// order of the exhaustive scan this walk replaced; exact mode's routing
// decisions draw from the shared stream inside decide(), so the order is
// part of its contract.
void Engine::allocate_and_inject_shard(Shard& s) {
  for (RouterId r = s.first_router; r < s.end_router; ++r) {
    if (nonempty_vcs_[static_cast<size_t>(r)] > 0) allocate_router(r, s);
  }
  if (!sharded_) {
    inject_terminals_exact(s);
    return;
  }

  const bool draws = injection_.mode == InjectionProcess::Mode::kBernoulli &&
                     (gen_probability_ > 0.0 || has_terminal_loads_);
  if (draws && !onoff_) {
    // Plain-Bernoulli fast path: the generation coin for terminal t is a
    // single mix64 of the hoisted per-cycle stream key against a fixed
    // threshold — no keyed Rng is built unless the terminal reaches its
    // destination draw (try_inject_shard derives the stream lazily; its
    // xoshiro reseed decorrelates the stream from the raw coin value).
    // Still a pure function of (seed, cycle, terminal), hence exactly as
    // jobs-invariant as the full per-terminal stream it replaces.
    const std::uint64_t kcd = mix64(
        mix64(cfg_.seed, static_cast<std::uint64_t>(now_)), kStreamInject);
    const bool always = gen_probability_ >= 1.0;
    const std::uint64_t threshold =
        always ? ~0ULL
               : static_cast<std::uint64_t>(
                     gen_probability_ * 18446744073709551616.0 /* 2^64 */);
    for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      TerminalState& ts = terminals_[static_cast<size_t>(t)];
      // Per-terminal workload loads swap in each terminal's own threshold;
      // an all-ones threshold means "always generate" in either case, so
      // the legacy uniform-load coin is bit-for-bit unchanged.
      const std::uint64_t th =
          has_terminal_loads_
              ? terminal_gen_threshold_[static_cast<std::size_t>(t)]
              : threshold;
      if (th == ~0ULL || mix64(kcd, static_cast<std::uint64_t>(t)) < th) {
        generate(ts, s);
      } else if (!terminal_has_work(t, ts)) {
        continue;  // nothing generated, nothing queued: no attempt
      }
      try_inject_shard(t, ts, nullptr, s);
    }
    return;
  }
  if (draws) {
    // ON/OFF: each terminal's generation randomness comes from its own
    // keyed stream, in a fixed draw order: ON/OFF chain step(s),
    // generation draw, then (inside try_inject_shard) the destination
    // draw.
    for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      TerminalState& ts = terminals_[static_cast<size_t>(t)];
      Rng trng = keyed_stream(cfg_.seed, now_, kStreamInject,
                              static_cast<std::uint64_t>(t));
      std::uint8_t& on = onoff_state_[static_cast<size_t>(t)];
      if (on != 0) {
        if (trng.bernoulli(injection_.onoff_off)) on = 0;
      } else if (trng.bernoulli(injection_.onoff_on)) {
        on = 1;
      }
      if (on != 0 && trng.bernoulli(gen_probability_on_)) generate(ts, s);
      try_inject_shard(t, ts, &trng, s);
    }
    return;
  }

  // No generation randomness (burst mode, zero load, or scripted
  // destinations only): look at terminals with queued work. The keyed
  // stream has drawn nothing yet here, so try_inject_shard derives it
  // lazily — only if the attempt survives to the destination draw.
  for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
    TerminalState& ts = terminals_[static_cast<size_t>(t)];
    if (!terminal_has_work(t, ts)) continue;
    try_inject_shard(t, ts, nullptr, s);
  }
}

// Restricted to owner-shard state: the packet comes from the shard's own
// pool slab (the serial deliver phase reserved the chunk-table room), and
// its flits enter the shard's own wheel — the source terminal's router is
// in this shard.
void Engine::try_inject_shard(NodeId t, TerminalState& ts, Rng* rng,
                              Shard& s) {
  if (!terminal_has_work(t, ts)) return;
  if (ts.link_busy_until > now_) return;

  const RouterId r = topo_.router_of_terminal(t);
  const PortId port = topo_.terminal_port(t);
  if (input_occupancy(r, port, 0) + ts.inflight_phits + cfg_.packet_phits >
      injection_buf_phits_) {
    return;
  }

  Cycle created = 0;
  NodeId dst;
  std::uint8_t flags = 0;
  const auto ti = static_cast<std::size_t>(t);
  if (has_forced_dst_ && !forced_dst_[ti].empty()) {
    // Forced packets (scripted injections, workload replies, message
    // bodies, trace rows) carry their own creation time and flags and go
    // ahead of the Bernoulli backlog. Terminal t's queues belong to this
    // shard alone, so the parallel-phase pop is race-free.
    created = forced_created_[ti].front();
    forced_created_[ti].pop_front();
    dst = forced_dst_[ti].front();
    forced_dst_[ti].pop_front();
    flags = forced_flags_[ti].front();
    forced_flags_[ti].pop_front();
  } else {
    if (!ts.pending_created.empty()) {
      created = ts.pending_created.front();
      ts.pending_created.pop_front();
    } else {
      assert(ts.burst_remaining > 0);
      --ts.burst_remaining;
    }
    Rng lazy;
    if (rng == nullptr) {
      // No generation draw preceded this attempt, so the terminal's keyed
      // stream is still at its origin: deriving it here, at its first
      // actual draw, is draw-for-draw identical to deriving it up front.
      lazy = keyed_stream(cfg_.seed, now_, kStreamInject,
                          static_cast<std::uint64_t>(t));
      rng = &lazy;
    }
    dst = pattern_->dest(t, *rng);
    if (workload_ != nullptr) {
      // Multi-packet messages: the size draw comes from the same stream
      // as the destination (in sharded mode a pure function of (seed,
      // cycle, terminal) — hence jobs-invariant). Body packets queue as
      // forced entries behind this head (same destination and creation
      // time, never triggering replies; own-terminal push: race-free);
      // their generation hook replays from the staging buffer at the
      // serial flush.
      const int extra = workload_->message_packets(t, *rng) - 1;
      for (int k = 0; k < extra; ++k) {
        const bool accepted =
            push_forced(t, dst, created, kPacketFlagNoReply);
        if (on_generated_) s.gen_accepted.push_back(accepted ? 1 : 0);
      }
    }
  }
  assert(dst != t && dst >= 0 && dst < topo_.num_terminals());

  // A packet addressed to a terminal on a dead router can never be
  // delivered; it is dropped at the source (counted, so accepted-load
  // analysis can separate fault losses from congestion).
  if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(dst)]) {
    ++s.dead_dst_drops;
    return;
  }

  inject_packet(s, t, ts, dst, created, flags);
  s.progressed = true;
}

void Engine::flush_shard(Shard& s) {
  if (s.deadlock) deadlock_ = true;
  s.deadlock = false;

  // Hop hooks replay in staging order (allocation order within the
  // shard), ascending shard — a deterministic serialization.
  if (on_hop_) {
    for (const HopRecord& h : s.hops) {
      // Hopped packets are alive at least until their staged delivery
      // fires, which is strictly in the future.
      on_hop_(pool_[h.packet], h.choice, h.router);
    }
    s.hops.clear();
  }

  // Cross-shard events, replayed in staging order. Events bound for
  // different destination shards land in disjoint rings, so one outbox
  // per source shard replayed here is slot-for-slot identical to a
  // per-(source, destination) split replayed in ascending (src, dst).
  for (const StagedCredit& c : s.outbox_credits) {
    assert(c.at > now_ && c.at - now_ < ring_size_);
    shards_[shard_of(c.ev.router)].credit_ring.push(ring_slot(c.at), c.ev);
  }
  s.outbox_credits.clear();
  for (const StagedFlit& f : s.outbox_flits) {
    assert(f.at > now_ && f.at - now_ < ring_size_);
    shards_[shard_of(f.ev.router)].flit_ring.push(ring_slot(f.at), f.ev);
  }
  s.outbox_flits.clear();

  for (int c = 0; c < 3; ++c) {
    phits_sent_[c] += s.phits_sent[c];
    s.phits_sent[c] = 0;
  }
  dead_dst_drops_ += s.dead_dst_drops;
  s.dead_dst_drops = 0;
  if (s.progressed) last_progress_ = now_;
  s.progressed = false;
}

}  // namespace dfsim
