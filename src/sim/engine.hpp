// The cycle-driven network simulator substrate.
//
// Models the paper's evaluation platform: a single-cycle simulator of FIFO
// input-buffered routers with VCT or wormhole flow control, credit-based
// link-level backpressure, phit-granular serialization and configurable
// link latencies (Section IV).
//
// One state layout and one step for both engine modes. Routers are
// partitioned into shards, each owning its routers' flit slab and its own
// flit/credit/delivery timing wheels: in sharded mode one contiguous
// range of groups per shard worker, in exact mode a single shard covering
// the whole network. Every cycle runs the same four phases
// (engine_sharded.cpp):
//   1. arrive  — each shard drains this cycle's credits and flits
//   2. deliver — packet deliveries, RoutingAlgorithm::per_cycle, trace rows
//   3. alloc   — each shard's switch allocation, then injection
//   4. flush   — hooks, cross-shard events and counters, ascending shard
// Only two things depend on the mode: where a routing decision draws its
// randomness (exact: the engine's single stream in ascending scan order;
// sharded: a stream keyed by (seed, cycle, VC)), and which injection loop
// runs (exact: ascending single-stream draws over every terminal, gated
// by the pending-terminal bitmap; sharded: keyed per-terminal draws).
//
// Hot-path layout: all per-router and per-terminal state lives in flat
// engine-level arrays (no per-router heap objects; the per-VC and per-port
// ones are carved from a single allocation), every input VC's flit
// FIFO is a chain of 64-byte chunks from its shard's flit slab (held only
// while the VC holds flits), and the timing wheels recycle slab chunks
// across wraps. Routers are visited in ascending id order when they hold
// flits (nonempty_vcs_), terminals in ascending id order, so results are
// bit-identical to the exhaustive scans these walks replaced.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "routing/routing.hpp"
#include "runtime/barrier_team.hpp"
#include "sim/buffer.hpp"
#include "sim/packet.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim {

class TrafficPattern;
class Workload;

struct EngineConfig {
  FlowControl flow = FlowControl::kVirtualCutThrough;
  int packet_phits = 8;
  int flit_phits = 0;  ///< 0 -> whole-packet flits (VCT default)

  int local_vcs = 3;
  int global_vcs = 2;
  int local_buf_phits = 32;    ///< per local-port VC FIFO (paper Sec. IV)
  int global_buf_phits = 256;  ///< per global-port VC FIFO
  int injection_buf_phits = 0;  ///< 0 -> max(2*packet, local_buf)

  int local_latency = 10;    ///< cycles of wire delay, local links
  int global_latency = 100;  ///< cycles of wire delay, global links

  /// Cycles without any flit movement (while traffic is in flight) after
  /// which the engine declares deadlock and stops.
  Cycle watchdog_cycles = 20000;

  /// Source backlog cap per terminal, in packets. Beyond saturation the
  /// backlog would grow without bound; capping it keeps memory flat while
  /// leaving accepted-load measurements untouched (the network, not the
  /// source queue, is the bottleneck whenever the cap binds).
  int source_queue_cap = 256;

  /// Opt-in sharded mode (DF_ENGINE=sharded): the groups are cut into one
  /// contiguous range per shard worker instead of exact mode's single
  /// shard, the shards stepped by a worker team with per-phase barriers,
  /// and every RNG draw from a counter-based stream keyed by (seed, cycle,
  /// entity) — results and checkpoint bytes are bit-identical for ANY
  /// worker count, but NOT bit-compatible with the default exact mode
  /// (whose single-stream ascending draw order is its own contract). VCT
  /// only.
  bool sharded = false;
  /// Worker threads for sharded mode, hence its shard count (capped at
  /// the group count); 0 resolves via runtime::resolve_jobs (--jobs /
  /// DF_JOBS / hardware concurrency, or inside a parallel_for worker that
  /// worker's share of the budget).
  int shard_jobs = 0;

  /// Per-phase cycle profiler, in both modes (DF_PROFILE=1 is the env
  /// equivalent). Off by default: the hot loop then contains no
  /// clock reads at all — the flag is checked once per step and the
  /// timed path is a separate template instantiation.
  bool profile = false;

  std::uint64_t seed = 1;
};

/// How terminals generate traffic.
struct InjectionProcess {
  enum class Mode : std::uint8_t { kBernoulli, kBurst };
  Mode mode = Mode::kBernoulli;
  /// Offered load in phits/(node*cycle) — a packet is generated with
  /// probability load/packet_phits each cycle (Bernoulli process).
  double load = 0.0;
  /// Burst mode: packets per node, all generated at cycle 0.
  std::uint64_t burst_packets = 0;
  /// Markov ON/OFF modulation of the Bernoulli process (both 0 =
  /// disabled, the memoryless default). Each terminal carries a two-state
  /// chain stepped once per cycle: OFF -> ON with probability onoff_on,
  /// ON -> OFF with probability onoff_off. While ON it generates with the
  /// Bernoulli probability divided by the stationary ON share
  /// onoff_on / (onoff_on + onoff_off), so the long-run offered load
  /// still matches `load` while arrivals clump into bursts with geometric
  /// ON/OFF dwell times. That while-ON probability is clamped at 1, under
  /// which the real offered load would undershoot `load` —
  /// SimConfig::validate() rejects such duty/load combinations up front.
  /// Layers on ANY traffic pattern (the pattern only picks destinations).
  double onoff_on = 0.0;
  double onoff_off = 0.0;
};

/// Delivery callback: packet (still valid), delivery cycle.
using DeliveryHook = std::function<void(const Packet&, Cycle)>;
/// Generation callback: cycle, accepted (false when the source cap bound).
using GenerationHook = std::function<void(Cycle, bool)>;
/// Hop callback: packet (route state already updated), the decision taken,
/// and the router it was taken at. Used by tests and route tracing.
using HopHook = std::function<void(const Packet&, const RouteChoice&,
                                   RouterId)>;

class Engine {
 public:
  Engine(const DragonflyTopology& topo, const EngineConfig& cfg,
         RoutingAlgorithm& routing, TrafficPattern& pattern,
         const InjectionProcess& injection);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Advance one cycle. Returns false once deadlock was detected.
  bool step();
  /// Run until `end` cycles (absolute) or deadlock.
  void run_until(Cycle end);

  // --- observability --------------------------------------------------
  Cycle now() const { return now_; }
  bool deadlock_detected() const { return deadlock_; }
  std::uint64_t packets_in_flight() const { return pool_.in_use(); }
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t delivered_phits() const { return delivered_phits_; }
  /// Packets dropped at injection because their destination terminal sits
  /// on a dead router (degraded topologies only; always 0 when healthy).
  std::uint64_t dead_destination_drops() const { return dead_dst_drops_; }
  std::uint64_t phits_sent(PortClass cls) const {
    return phits_sent_[static_cast<int>(cls)];
  }
  /// True in sharded mode (one shard per worker, keyed RNG).
  bool sharded() const { return sharded_; }

  /// Per-phase wall-clock totals of either mode, accumulated only
  /// while profiling (EngineConfig::profile / DF_PROFILE=1). The four
  /// phase counters tile each step exactly — timestamps are taken at the
  /// phase boundaries, so arrive + deliver + alloc + flush == total by
  /// construction. All-zero when profiling is off.
  struct PhaseProfile {
    std::uint64_t steps = 0;
    std::uint64_t arrive_ns = 0;   ///< parallel: per-shard ring drains
    std::uint64_t deliver_ns = 0;  ///< serial: deliveries + per_cycle
    std::uint64_t alloc_ns = 0;    ///< parallel: allocation + injection
    std::uint64_t flush_ns = 0;    ///< serial: hook + outbox replay
    std::uint64_t total_ns = 0;
    /// Amdahl estimate: the share of step time spent in the serial
    /// phases (deliver + flush). 0 when nothing was profiled.
    double serial_fraction() const {
      if (total_ns == 0) return 0.0;
      return static_cast<double>(deliver_ns + flush_ns) /
             static_cast<double>(total_ns);
    }
  };
  const PhaseProfile& phase_profile() const { return profile_data_; }
  bool profiling() const { return profile_; }
  /// Resident bytes of the engine's own state arrays (VC state, flit
  /// slabs, worklists, terminals, timing wheels, packet pool with its
  /// chunk table and free lists, allocation scratch, per-shard staging).
  /// Used by the scale benches to report bytes-per-terminal; excludes
  /// malloc overhead.
  std::size_t footprint_bytes() const;
  /// The packet pool (memory audits and tests).
  const PacketPool& packet_pool() const { return pool_; }
  /// The slabs holding the input-VC flits, one per shard (memory audits
  /// and tests).
  std::size_t num_flit_slabs() const { return shards_.size(); }
  const FlitSlab& flit_slab(std::size_t i) const {
    return shards_[i].flit_slab;
  }

  /// sizeof(Engine) as compiled into the library. A client translation
  /// unit that sees a different layout (a header member that depends on
  /// NDEBUG, say) would silently corrupt memory when linked against it;
  /// tests compare this against their own sizeof(Engine).
  static std::size_t compiled_size();

  const DragonflyTopology& topology() const { return topo_; }
  const EngineConfig& config() const { return cfg_; }
  Rng& rng() { return rng_; }

  // --- mid-run switches (phased runs) -----------------------------------
  /// Swap the destination pattern; takes effect at the next generation.
  /// The caller keeps `p` alive for the rest of the run. Packets already
  /// in flight keep their destinations — that mid-stream transition is
  /// exactly what run_phased measures.
  void set_pattern(TrafficPattern& p) { pattern_ = &p; }
  const TrafficPattern& pattern() const { return *pattern_; }
  /// Change the offered load of the Bernoulli source process (phits per
  /// node-cycle); takes effect at the next cycle's generation draws.
  void set_offered_load(double load) {
    injection_.load = load;
    gen_probability_ = load / static_cast<double>(cfg_.packet_phits);
    refresh_onoff_probability();
  }

  // --- workload layer (traffic/workload.hpp) ---------------------------
  /// Attach an application workload. The workload's pattern must already
  /// be the engine's pattern (it supplies fresh destination draws); on
  /// top of that the engine consults the workload for request-reply
  /// causality (a reply is queued at the destination terminal when a
  /// request is delivered), multi-packet message sizes, and trace rows.
  /// The caller keeps `w` alive for the rest of the run; nullptr
  /// detaches. Call before the first step().
  void set_workload(Workload* w);
  const Workload* workload() const { return workload_; }

  /// Per-terminal offered loads (phits/node/cycle) for multi-job
  /// workloads; overrides the uniform Bernoulli load per terminal. An
  /// empty vector restores the uniform process. In sharded mode the
  /// per-terminal coin is still a pure function of (seed, cycle,
  /// terminal), so worker-count independence is preserved.
  void set_terminal_loads(const std::vector<double>& loads);

  void set_delivery_hook(DeliveryHook hook) { on_delivered_ = std::move(hook); }
  void set_generation_hook(GenerationHook hook) {
    on_generated_ = std::move(hook);
  }
  void set_hop_hook(HopHook hook) { on_hop_ = std::move(hook); }

  // --- queries used by routing mechanisms -------------------------------
  // (defined inline: mechanisms call these once or more per decide(), so
  // they must not cost a cross-module call)

  /// True when a flit could depart on (port, vc) this cycle: link idle,
  /// enough credits for the flow-control discipline, and (wormhole) the
  /// downstream VC not owned by another packet.
  bool output_usable(RouterId r, PortId port, VcId vc,
                     const Flit& flit) const {
    if (out_busy_until_[port_index(r, port)] > now_) return false;
    if (pclass(port) == PortClass::kTerminal) return true;
    const OutputVc& ovc = out_vcs_[vc_index(r, port, vc)];
    if (flit.head) {
      if (ovc.bound_packet != kInvalid) return false;
    } else {
      if (ovc.bound_packet != flit.packet) return false;
    }
    return ovc.credits_phits >= flit_phits_;
  }

  /// Downstream buffer occupancy fraction in [0,1] derived from credits —
  /// the misrouting trigger's input (paper Sec. III: "a misrouting trigger
  /// based on the credits count of the output ports").
  double output_occupancy(RouterId r, PortId port, VcId vc) const {
    const int cls = port_class_[static_cast<size_t>(port)];
    if (static_cast<PortClass>(cls) == PortClass::kTerminal) return 0.0;
    const OutputVc& ovc = out_vcs_[vc_index(r, port, vc)];
    // inv_cap_ is nonzero only for power-of-two capacities, where the
    // multiply is bit-identical to the division (exact exponent shift);
    // other capacities take the division so results never drift.
    const double inv = inv_cap_[cls];
    const double credits = static_cast<double>(ovc.credits_phits);
    if (inv != 0.0) return 1.0 - credits * inv;
    return 1.0 - credits / static_cast<double>(cap_by_class_[cls]);
  }

  /// Occupancy averaged over all VCs of an output port.
  double port_occupancy(RouterId r, PortId port) const {
    const int n = vc_count(port);
    double total = 0.0;
    for (VcId v = 0; v < n; ++v) total += output_occupancy(r, port, v);
    return total / static_cast<double>(n);
  }

  /// Worst (most occupied) VC of an output port — a saturated VC must not
  /// be diluted by its idle siblings (Piggybacking's saturation signal).
  double port_max_occupancy(RouterId r, PortId port) const {
    const int n = vc_count(port);
    double worst = 0.0;
    for (VcId v = 0; v < n; ++v) {
      worst = std::max(worst, output_occupancy(r, port, v));
    }
    return worst;
  }

  /// Total queued phits believed downstream of an output port, over all
  /// VCs (UGAL's queue-depth comparison).
  int port_queue_phits(RouterId r, PortId port) const {
    if (pclass(port) == PortClass::kTerminal) return 0;
    const int cap = port_capacity(port);
    int total = 0;
    for (VcId v = 0; v < vc_count(port); ++v) {
      total += cap - out_vcs_[vc_index(r, port, v)].credits_phits;
    }
    return total;
  }

  int vc_count(PortId port) const {
    return vc_count_[static_cast<size_t>(port)];
  }
  int buffer_capacity(PortClass cls) const {
    return cap_by_class_[static_cast<int>(cls)];
  }
  int flit_phits() const { return flit_phits_; }
  int flits_per_packet() const { return flits_per_packet_; }

  const InputVc& input_vc(RouterId r, PortId port, VcId vc) const {
    return in_vcs_[vc_index(r, port, vc)];
  }
  /// Phits buffered in an input VC: every flit is flit_phits() long.
  int input_occupancy(RouterId r, PortId port, VcId vc) const {
    return input_vc(r, port, vc).fifo.size() * flit_phits_;
  }
  const OutputVc& output_vc(RouterId r, PortId port, VcId vc) const {
    return out_vcs_[vc_index(r, port, vc)];
  }
  const Packet& packet(PacketId id) const { return pool_[id]; }

  // --- checkpoint / restart ---------------------------------------------
  /// Bumped whenever the checkpoint byte layout changes; restore rejects
  /// any other version with a pointed message (no cross-version decoding).
  /// v2: engine-mode byte in the header (exact vs sharded — the two draw
  /// different RNG streams, so cross-mode restores must fail loudly).
  /// v3: sharded checkpoints serialize the per-shard timing wheels (one
  /// flit/credit/delivery ring per shard) instead of the retired global
  /// wheels; v2 sharded streams are rejected with a pointed message.
  /// v4: workload state — per-packet flag bytes, the forced-injection
  /// queues' (created, dst, flags) triples, per-terminal offered loads,
  /// and the workload's trace cursor; v3 streams are rejected with a
  /// pointed message.
  /// v5: the packet pool is saved slab by slab (one per shard in sharded
  /// mode), packets drop their flit count and flit size, flits their
  /// size and credit events their phit count (all engine constants).
  /// v6: sharded streams no longer depend on the shard partition: one
  /// pool slab with the live packets renumbered densely, and one wheel
  /// triple in global router order with no shard count. A stream saved
  /// at any worker count restores at any other. Exact-mode streams are
  /// laid out as in v5.
  static constexpr std::uint32_t kCheckpointVersion = 6;

  /// Serialize the complete dynamic engine state behind a versioned,
  /// shape-checked header: every input-VC FIFO (its flits in order), all
  /// credits and wormhole VC bindings, the timing-wheel events in flight,
  /// the packet pool (slots AND free-list order, per slab), per-terminal
  /// injection state including Markov ON/OFF chains, the RNG cursor,
  /// switch RR pointers, and the routing mechanism's cross-cycle state
  /// (RoutingAlgorithm::save_state). Derived retry-suppression caches
  /// (sleep timers, waiter lists, pure-hop verdicts, minimal-port memos)
  /// are NOT serialized: rebuilding them draws no randomness and changes
  /// no decision, so a restored run replays bit-identically without them.
  /// Sharded streams are canonical: the same bytes at every worker count.
  /// Call only between step() boundaries (never from a hook).
  void save_checkpoint(std::ostream& os) const;

  /// Inverse of save_checkpoint, into a FRESHLY-CONSTRUCTED engine built
  /// from the same configuration and topology. Throws std::runtime_error
  /// with a pointed message on a truncated, corrupt, version-mismatched
  /// or wrong-shape checkpoint, and std::logic_error when this engine has
  /// already stepped. After a successful restore, the cycle-by-cycle
  /// behavior is bit-identical to the engine the checkpoint was saved
  /// from (exact-mode determinism contract).
  void restore(std::istream& is);

  /// The checkpoint field list behind save_checkpoint (ar a ser::Writer)
  /// and restore (a ser::Reader); a run checkpoint embeds it.
  template <class Ar>
  void transfer(Ar& ar);

  // --- test hooks -------------------------------------------------------
  /// Inject a fully-formed packet directly at its source terminal's queue
  /// (unit tests drive single packets through the network this way).
  void inject_for_test(NodeId src, NodeId dst, Cycle created);

 private:
  /// Per-terminal injection state — the engine's biggest per-entity array
  /// at h=8+ shapes, so it holds only what every terminal needs: the
  /// router/port mapping is pure arithmetic (recomputed from the
  /// topology), and the test-only scripted destinations live in a lazy
  /// engine-level side table (forced_dst_) that stays empty outside unit
  /// tests. The RingDeque itself allocates nothing until first use.
  struct TerminalState {
    RingDeque<Cycle> pending_created;  // capped backlog of creation times
    std::uint64_t burst_remaining = 0;
    Cycle link_busy_until = 0;
    std::int32_t inflight_phits = 0;  // reserved in the injection buffer
  };

  // Timing-wheel events, 16 and 8 bytes. Ports and VCs fit 16 bits
  // (SimConfig::validate caps ports at 2047), and a credit always returns
  // one flit's worth (flit_phits_), so it carries no size.
  struct FlitEvent {
    RouterId router;
    std::int16_t port;
    std::int16_t vc;
    Flit flit;
  };
  struct CreditEvent {
    RouterId router;
    std::int16_t port;
    std::int16_t vc;
  };
  static_assert(sizeof(FlitEvent) == 16 && sizeof(CreditEvent) == 8);

  std::size_t port_index(RouterId r, PortId port) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(ports_) +
           static_cast<std::size_t>(port);
  }
  /// Dense VC numbering: router r's VCs are the vcs_per_router_ slots
  /// from r * vcs_per_router_, port p's from vc_base_[p] within them, so
  /// every VC has exactly one slot and no port is padded to the largest
  /// VC count.
  std::size_t vc_index(RouterId r, PortId port, VcId vc) const {
    assert(vc >= 0 && vc < vc_count(port));
    return static_cast<std::size_t>(r) *
               static_cast<std::size_t>(vcs_per_router_) +
           static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(port)]) +
           static_cast<std::size_t>(vc);
  }
  /// Sharded mode's routing-decision stream key: the VC's number in a
  /// layout that pads every port to vc_stride_ VCs. The dense vc_index
  /// would do as well, but every sharded result is pinned to this key.
  std::uint64_t route_stream_key(RouterId r, PortId port, VcId vc) const {
    return static_cast<std::uint64_t>(port_index(r, port)) *
               static_cast<std::uint64_t>(vc_stride_) +
           static_cast<std::uint64_t>(vc);
  }
  // Occupied-port bitmask, occ_words_ 64-bit words per router (the
  // one-word-per-router layout capped router degree at 63).
  std::size_t occ_index(RouterId r, PortId port) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(occ_words_) +
           (static_cast<std::size_t>(port) >> 6);
  }
  void set_occupied(RouterId r, PortId port) {
    occupied_ports_[occ_index(r, port)] |= 1ULL << (port & 63);
  }
  void clear_occupied(RouterId r, PortId port) {
    occupied_ports_[occ_index(r, port)] &= ~(1ULL << (port & 63));
  }
  PortClass pclass(PortId port) const {
    return static_cast<PortClass>(port_class_[static_cast<size_t>(port)]);
  }
  int port_capacity(PortId port) const {
    return cap_by_class_[port_class_[static_cast<size_t>(port)]];
  }

  InputVc& in_vc(RouterId r, PortId port, VcId vc) {
    return in_vcs_[vc_index(r, port, vc)];
  }
  /// The flit slab behind router r's input VCs. Only the thread running
  /// r's shard may push or pop through it; in the parallel phases the
  /// callers already hold that shard and pass its slab directly.
  FlitSlab& router_flit_slab(RouterId r) {
    return shards_[shard_of(r)].flit_slab;
  }
  const FlitSlab& router_flit_slab(RouterId r) const {
    return shards_[shard_of(r)].flit_slab;
  }
  OutputVc& out_vc(RouterId r, PortId port, VcId vc) {
    return out_vcs_[vc_index(r, port, vc)];
  }

  // --- exact-mode injection worklist --------------------------------------
  void mark_terminal_pending(NodeId t) {
    pending_terminals_[static_cast<std::size_t>(t) >> 6] |=
        1ULL << (static_cast<std::size_t>(t) & 63);
  }
  bool terminal_pending(NodeId t) const {
    return (pending_terminals_[static_cast<std::size_t>(t) >> 6] >>
            (static_cast<std::size_t>(t) & 63)) &
           1ULL;
  }
  void clear_terminal_pending(NodeId t) {
    pending_terminals_[static_cast<std::size_t>(t) >> 6] &=
        ~(1ULL << (static_cast<std::size_t>(t) & 63));
  }

  /// output_usable() specialized for a head flit (every flit in flight is
  /// exactly flit_phits_ phits), so pure retries skip the flit read.
  bool head_usable(RouterId r, PortId port, VcId vc) const {
    if (out_busy_until_[port_index(r, port)] > now_) return false;
    if (pclass(port) == PortClass::kTerminal) return true;
    const OutputVc& ovc = out_vcs_[vc_index(r, port, vc)];
    return ovc.bound_packet == kInvalid && ovc.credits_phits >= flit_phits_;
  }

  /// Head at `vidx` just failed its (decision-free) usability check
  /// toward (out_port, out_vc). Nothing can change the verdict except
  ///   - the output link's serialization ending (a known future cycle),
  ///   - a credit arriving on that output VC, or
  ///   - (wormhole) the VC's owning packet releasing it (tail sent),
  /// so suppress retries until the earliest such event: a timed sleep for
  /// the busy case, an entry on the output VC's waiter list for the other
  /// two. Both are capped at the head's watchdog deadline — exactly the
  /// first cycle the per-head deadlock check would fire — so detection
  /// timing is untouched. Only callers that provably draw no RNG while
  /// blocked (pure-minimal heads, wormhole continuations) may use this.
  void suppress_retry(std::size_t vidx, InputVc& ivc, RouterId r,
                      PortId out_port, VcId out_vc) {
    const Cycle deadline = ivc.head_since + cfg_.watchdog_cycles + 1;
    const Cycle busy = out_busy_until_[port_index(r, out_port)];
    if (busy > now_) {
      ivc.sleep_until = busy < deadline ? busy : deadline;
      return;
    }
    // An idle terminal output is always usable — being blocked on one is
    // impossible here.
    assert(pclass(out_port) != PortClass::kTerminal);
    OutputVc& ovc = out_vcs_[vc_index(r, out_port, out_vc)];
    ivc.sleep_until = deadline;
    if (vc_waiter_next_[vidx] == kNotWaiting) {
      vc_waiter_next_[vidx] = ovc.waiter_head;
      ovc.waiter_head = static_cast<std::int32_t>(vidx);
    }
  }

  /// A credit arrived on / ownership was released from output VC `ovc` of
  /// router r: put every input VC waiting on it back into the allocation
  /// scan. Waiters are r's own input VCs, so each one's slot within r
  /// names its port.
  void wake_waiters(RouterId r, OutputVc& ovc) {
    std::int32_t w = ovc.waiter_head;
    if (w < 0) return;
    ovc.waiter_head = -1;
    const std::size_t first_vc = static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(vcs_per_router_);
    const std::size_t first_port = port_index(r, 0);
    do {
      const auto wi = static_cast<std::size_t>(w);
      assert(wi >= first_vc && wi - first_vc < vc_port_.size());
      const std::int32_t next = vc_waiter_next_[wi];
      vc_waiter_next_[wi] = kNotWaiting;
      in_vcs_[wi].sleep_until = 0;
      // The woken VC's port is actionable again.
      port_wake_[first_port +
                 static_cast<std::size_t>(vc_port_[wi - first_vc])] = 0;
      w = next;
    } while (w >= 0);
  }

  /// ON/OFF mode: recompute the while-ON generation probability from the
  /// current load and the chain's stationary ON share. No-op otherwise.
  void refresh_onoff_probability() {
    if (!onoff_) return;
    const double duty =
        injection_.onoff_on / (injection_.onoff_on + injection_.onoff_off);
    gen_probability_on_ = std::min(1.0, gen_probability_ / duty);
  }

  // Scratch shared by one allocation scan: nominations, the per-output
  // first-nominee slots, and (sharded mode) the current decision's keyed
  // RNG stream. One instance per shard — concurrent allocate_router calls
  // must never share it.
  struct Nomination {
    PortId in_port;
    VcId in_vc;
    PortId out_port;
    VcId out_vc;
    bool fresh;          // head flit with a fresh routing decision
    RouteChoice choice;  // valid when fresh
  };
  struct AllocScratch {
    std::vector<Nomination> noms;
    std::vector<std::int16_t> out_first_nom;  // per out port -> index|-1
    std::vector<PortId> touched_outs;
    Rng rng;  // per-decision keyed stream (sharded mode only)
  };
  struct Shard;  // defined below

  void allocate_router(RouterId r, Shard& s);
  void send_flit(RouterId r, PortId in_port, VcId in_vc_id, PortId out_port,
                 VcId out_vc_id, const RouteChoice* fresh_choice, Shard& s);
  void apply_route_state(Packet& pkt, RouterId r, const RouteChoice& choice);
  /// Exact mode's injection loop over shard `s` (which covers every
  /// terminal): ascending single-stream generation draws, attempts gated
  /// by the pending-terminal bitmap.
  void inject_terminals_exact(Shard& s);
  /// Queue a freshly generated packet at `ts`'s source queue unless the
  /// backlog cap binds; stages the generation hook. Returns acceptance.
  bool generate(TerminalState& ts, Shard& s);
  /// Create terminal `t`'s packet to `dst` from shard `s`'s pool slab,
  /// queue its flits into `s`'s wheel (which holds `t`'s router), and
  /// reserve the injection buffer and link.
  void inject_packet(Shard& s, NodeId t, TerminalState& ts, NodeId dst,
                     Cycle created, std::uint8_t flags);
  void deliver(PacketId id);

  // --- workload support -------------------------------------------------
  /// Queue a fully-specified packet (destination, creation time, flags)
  /// at terminal `t`'s forced queue; injected before fresh pattern
  /// draws. Returns false (and queues nothing) when the source backlog
  /// cap binds. Caller must be a serial phase, or own `t`'s shard.
  bool push_forced(NodeId t, NodeId dst, Cycle created, std::uint8_t flags);
  /// Size the forced-injection queues for every terminal (idempotent).
  void ensure_forced_queues();
  /// 2^64-scaled generation threshold for the sharded counter-based coin;
  /// clamped at the all-ones word so p ~ 1 cannot overflow the conversion.
  static std::uint64_t gen_threshold(double p) {
    return p >= 1.0 ? ~0ULL
                    : static_cast<std::uint64_t>(p * 18446744073709551616.0);
  }
  bool forced_pending(NodeId t) const {
    return has_forced_dst_ && !forced_dst_[static_cast<std::size_t>(t)].empty();
  }
  /// True when terminal `t` still has anything to inject.
  bool terminal_has_work(NodeId t, const TerminalState& ts) const {
    return !ts.pending_created.empty() || ts.burst_remaining != 0 ||
           forced_pending(t);
  }
  /// Replay trace rows with cycle <= now into the forced queues (serial
  /// deliver phase; no-op unless a trace workload is attached).
  void feed_trace();
  /// Request-reply causality: called from deliver() (serial in both
  /// modes) to queue a reply at the destination terminal.
  void maybe_reply(const Packet& pkt);

  // --- the stepper (engine_sharded.cpp) ---------------------------------
  /// The shard count: one in exact mode, else one per shard worker,
  /// capped at the group count.
  static int shard_count(const DragonflyTopology& topo,
                         const EngineConfig& cfg);
  void init_shards();
  template <bool kProfile>
  bool step_impl();
  Shard& shard(int w) { return shards_[static_cast<std::size_t>(w)]; }
  void arrive_shard(Shard& s);
  void allocate_and_inject_shard(Shard& s);
  /// Try to inject terminal `t`'s next packet: forced entries first, else
  /// the source backlog or burst budget with a destination draw from
  /// `rng`. Exact mode passes the engine's stream. In sharded mode `rng`
  /// is null in the no-generation-draw path: the keyed injection stream
  /// is then constructed lazily at the destination draw (the only draw
  /// that path can make), so terminals that bail on the early checks
  /// never pay the stream derivation.
  void try_inject_shard(NodeId t, TerminalState& ts, Rng* rng, Shard& s);
  void flush_shard(Shard& s);

  std::size_t ring_slot(Cycle at) const { return at & (ring_size_ - 1); }

  int link_latency(PortClass cls) const {
    return cls == PortClass::kGlobal ? cfg_.global_latency
                                     : cfg_.local_latency;
  }

  const DragonflyTopology& topo_;
  EngineConfig cfg_;
  RoutingAlgorithm& routing_;
  TrafficPattern* pattern_;  ///< swappable mid-run via set_pattern
  InjectionProcess injection_;

  int ports_;
  int vc_stride_;       ///< largest VC count of any port
  int vcs_per_router_;  ///< sum of vc_count over the ports
  int first_terminal_port_;
  int terminals_per_router_;
  int flit_phits_;
  int flits_per_packet_;
  int injection_buf_phits_;
  double gen_probability_;

  // Per-port-class constants, indexed by static_cast<int>(PortClass).
  int cap_by_class_[3] = {0, 0, 0};
  double inv_cap_[3] = {0.0, 0.0, 0.0};  ///< 1/cap if pow2 capacity, else 0

  // Per-port lookups shared by all routers (the port layout is uniform).
  std::vector<std::uint8_t> port_class_;  // [port] -> PortClass
  std::vector<std::int32_t> vc_count_;    // [port]
  std::vector<std::int32_t> vc_base_;     // [port] -> first VC slot
  std::vector<std::int16_t> vc_port_;     // [VC slot in router] -> port

  // Flat router state, indexed via port_index()/vc_index(). Every array
  // from here to nonempty_vcs_ is carved from state_block_ (see
  // allocate_state): one mapping instead of ten heap arrays, handed on to
  // the next engine of the same shape when this one is destroyed.
  struct StateBlockRelease {
    std::size_t bytes;
    void operator()(std::byte* block) const;
  };
  std::unique_ptr<std::byte, StateBlockRelease> state_block_;
  void allocate_state();
  /// Retry suppression lives in the VC records: while a pure-minimal head
  /// (or a wormhole continuation, which never consults the routing
  /// mechanism) waits on a port that is busy until cycle T, no cycle
  /// before T can change the verdict and no RNG would be drawn — so the
  /// VC sleeps until min(T, its watchdog deadline) (InputVc::sleep_until)
  /// and the scan skips it after reading its record. A head blocked on
  /// credits or ownership sleeps until its deadline and waits on the
  /// output VC's list (OutputVc::waiter_head, linked through
  /// vc_waiter_next_, kNotWaiting when not enlisted) until a credit or
  /// the release wakes it. Bit-identical to retrying every cycle.
  InputVc* in_vcs_ = nullptr;
  OutputVc* out_vcs_ = nullptr;
  std::int32_t* vc_waiter_next_ = nullptr;
  static constexpr std::int32_t kNotWaiting = -2;
  /// Port-level aggregation of the VC sleeps: when EVERY nonempty VC of
  /// an input port is asleep, the port records its earliest wake here and
  /// the allocation scan skips the whole port with a single load (instead
  /// of walking its VC mask to rediscover that nothing is actionable).
  /// Cleared to 0 — port actionable — whenever a flit arrives into an
  /// empty VC of the port or a waiting VC is woken by wake_waiters; timed
  /// sleeps simply expire. Like the per-VC sleeps this is derived,
  /// behavior-neutral state: a skipped visit would have nominated nothing
  /// and drawn no RNG, so results are bit-identical with or without it.
  Cycle* port_wake_ = nullptr;
  DragonflyTopology::Endpoint* endpoints_ = nullptr;  // [router*ports+port]
  Cycle* out_busy_until_ = nullptr;                   // [router*ports+port]
  /// Input-side per-port scan state, packed so the allocation scan loads
  /// one word per port: low 16 bits = RR pointer over VCs (pre-reduced),
  /// high 16 bits = bitmask of nonempty VCs.
  std::uint32_t* in_scan_ = nullptr;  // [router*ports+port]
  std::uint16_t* out_rr_ = nullptr;   // [router*ports+port], over inputs
  /// Occupied-port bitmask, occ_words_ words per router (see occ_index).
  std::uint64_t* occupied_ports_ = nullptr;
  int occ_words_ = 1;
  std::int32_t* nonempty_vcs_ = nullptr;  // [router]

  /// Exact mode's injection worklist: a terminal is pending while its
  /// source queue, burst budget or forced queue is nonempty. Exact mode
  /// must visit every terminal for its generation draw anyway, but the
  /// bit keeps the injection attempt (source-queue, link and buffer
  /// checks) off idle terminals — a per-terminal terminal_has_work() scan
  /// in its place measured 8% slower on the h=6 wormhole point. Sharded
  /// mode never reads it (its words would straddle shards).
  std::vector<std::uint64_t> pending_terminals_;

  std::vector<TerminalState> terminals_;
  /// Forced-injection queues: fully-specified packets (destination,
  /// creation time, flag bits) queued ahead of fresh pattern draws —
  /// inject_for_test scripts, workload replies, multi-packet message
  /// bodies, and trace rows. Three parallel RingDeques per terminal,
  /// pushed and popped together. Lazily sized on first use (eagerly by
  /// set_workload) so plain runs never pay num_terminals RingDeques.
  std::vector<RingDeque<NodeId>> forced_dst_;
  std::vector<RingDeque<Cycle>> forced_created_;
  std::vector<RingDeque<std::uint8_t>> forced_flags_;
  bool has_forced_dst_ = false;
  /// Application workload (non-owning; see set_workload). The cached
  /// trace flag keeps the per-step check to one bool.
  Workload* workload_ = nullptr;
  bool workload_trace_ = false;
  /// Per-terminal Bernoulli generation (multi-job workloads): absolute
  /// probabilities for exact mode, 2^64-scaled thresholds for the
  /// sharded counter-based coin. Empty (flag false) on the uniform path.
  std::vector<double> terminal_gen_prob_;
  std::vector<std::uint64_t> terminal_gen_threshold_;
  bool has_terminal_loads_ = false;
  /// Markov ON/OFF injection (InjectionProcess::onoff_*): one chain state
  /// per terminal, stepped before that terminal's generation draw. Empty
  /// (and the flag false) for plain Bernoulli sources, whose draw
  /// sequence must stay bit-identical to the historical process.
  std::vector<std::uint8_t> onoff_state_;
  bool onoff_ = false;
  double gen_probability_on_ = 0.0;  ///< per-cycle generation prob while ON
  /// Degraded topologies only: terminals on dead routers neither draw
  /// generation randomness nor inject. Empty (and the flag false) on
  /// healthy networks, so the hot injection loop is untouched there.
  std::vector<std::uint8_t> terminal_dead_;
  bool has_dead_terminals_ = false;
  std::uint64_t dead_dst_drops_ = 0;
  PacketPool pool_;  ///< one slab per shard
  /// Exact mode's single stream: routing decisions and generation draws
  /// in ascending scan order (sharded mode draws keyed streams instead;
  /// only the ON/OFF chains' initial states come from here in both).
  Rng rng_;

  Cycle now_ = 0;
  Cycle last_progress_ = 0;
  bool deadlock_ = false;

  std::size_t ring_size_ = 0;

  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_phits_ = 0;
  std::uint64_t phits_sent_[3] = {0, 0, 0};

  DeliveryHook on_delivered_;
  GenerationHook on_generated_;
  HopHook on_hop_;

  // --- shards -----------------------------------------------------------
  // Shard s owns a contiguous range of whole groups — its routers
  // [first_router, end_router) and their terminals — so shard-ascending
  // iteration IS router-ascending iteration. Sharded mode cuts one range
  // per shard worker (W = min(workers, groups), ranges as even as the
  // group count allows), exact mode a single range covering every router.
  // Each shard owns its OWN timing wheels: during the parallel phases a
  // shard drains arrivals from / schedules same-shard futures into its own
  // rings directly, and only cross-shard events (global-link flits and
  // their credits between ranges) are staged in a per-source-shard outbox
  // that the serial flush replays in ascending shard order. The serial
  // work per cycle is therefore O(cross-shard events), not O(all events);
  // with a single shard the outboxes stay empty.
  struct StagedFlit {
    Cycle at;
    FlitEvent ev;
  };
  struct StagedCredit {
    Cycle at;
    CreditEvent ev;
  };
  struct HopRecord {
    PacketId packet;
    RouteChoice choice;
    RouterId router;
  };
  struct Shard {
    std::size_t index = 0;  ///< also the shard's packet-pool slab and the
                            ///< barrier-team worker that runs it
    RouterId first_router = 0;
    RouterId end_router = 0;
    NodeId first_terminal = 0;
    NodeId end_terminal = 0;
    AllocScratch scratch;
    // The shard's own timing wheels. Every event addressed to a router in
    // this shard lives here; deliveries are always same-shard (ejection
    // happens at the owning router), so they never cross an outbox.
    SlabEventRing<FlitEvent> flit_ring;
    SlabEventRing<CreditEvent> credit_ring;
    SlabEventRing<PacketId> delivery_ring;
    // The flits buffered in this shard's input VCs. Arrivals push (phase
    // 1) and sends pop (phase 3) only for the shard's own routers, so no
    // other worker ever touches it.
    FlitSlab flit_slab;
    // Cross-shard events staged during the parallel allocation phase,
    // replayed serially in ascending source-shard order. One outbox per
    // source shard suffices: events bound for different destination
    // shards land in disjoint rings, so replaying a single outbox in
    // staging order produces ring contents identical to a
    // per-(source, destination) split replayed in ascending (src, dst)
    // order — O(shards) buffers instead of O(shards^2).
    std::vector<StagedFlit> outbox_flits;
    std::vector<StagedCredit> outbox_credits;
    std::vector<HopRecord> hops;
    std::vector<std::uint8_t> gen_accepted;
    std::uint64_t phits_sent[3] = {0, 0, 0};
    std::uint64_t dead_dst_drops = 0;
    bool progressed = false;
    bool deadlock = false;
  };
  std::vector<Shard> shards_;
  bool sharded_ = false;
  /// Worker w runs shard w in every parallel phase; exact mode's team
  /// has the one worker, which runs inline.
  runtime::BarrierTeam shard_team_;
  /// The shard holding router r: shard s covers groups
  /// [s*G/W, (s+1)*G/W), so group g lies in shard ceil((g+1)*W/G) - 1.
  std::size_t shard_of(RouterId r) const {
    const auto g = static_cast<std::size_t>(topo_.group_of_router(r));
    return ((g + 1) * shards_.size() - 1) /
           static_cast<std::size_t>(topo_.num_groups());
  }
  bool profile_ = false;
  PhaseProfile profile_data_;
  /// keyed_stream domains: routing decisions key on route_stream_key,
  /// injection and message-size draws on the terminal id.
  static constexpr std::uint64_t kStreamRoute = 1;
  static constexpr std::uint64_t kStreamInject = 2;
  static constexpr std::uint64_t kStreamSize = 3;
};

/// Process-wide sum of every profiled engine's PhaseProfile, folded in at
/// engine destruction. BenchReport reads this at exit to attach the
/// serial-fraction estimate to its BENCH_sweep.json record (a bench may
/// run several engines; the sum is what its wall-clock actually covered).
Engine::PhaseProfile accumulated_phase_profile();

}  // namespace dfsim
