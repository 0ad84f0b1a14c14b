// Allocation-free ring-buffer primitives for the simulation hot path.
//
// Three shapes, one theme — memory is carved up front and reused forever:
//   - FixedRing<T>:    non-owning FIFO view over a slice of a shared arena;
//                      the per-(port, VC) flit buffers of every router live
//                      back to back in one engine-owned allocation.
//   - RingDeque<T>:    owning, growable FIFO with power-of-two wraparound;
//                      replaces std::deque where the bound is soft (source
//                      backlogs), so empty queues cost no heap block.
//   - SlabEventRing<T>: per-slot FIFOs of a timing wheel, backed by chunks
//                      from one shared slab that recycle across wraps and
//                      grow in fixed blocks that never move.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dfsim {

/// Fixed-capacity FIFO over externally-owned storage. The owner binds a
/// slice of its arena once; pushes beyond the bound capacity are a logic
/// error (callers gate on credit/occupancy accounting first). Indices are
/// 16-bit on purpose: the struct is 16 bytes, which keeps the InputVc it
/// lives in at a cache-friendly 32.
template <typename T>
class FixedRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "FixedRing elements are moved with plain stores");

 public:
  void bind(T* data, std::int32_t capacity) {
    assert(capacity > 0 && capacity <= INT16_MAX);
    data_ = data;
    cap_ = static_cast<std::int16_t>(capacity);
    head_ = 0;
    count_ = 0;
  }

  bool empty() const { return count_ == 0; }
  std::int32_t size() const { return count_; }
  std::int32_t capacity() const { return cap_; }

  const T& front() const {
    assert(count_ > 0);
    return data_[head_];
  }

  void push_back(const T& v) {
    assert(count_ < cap_);
    std::int16_t tail = static_cast<std::int16_t>(head_ + count_);
    if (tail >= cap_) tail = static_cast<std::int16_t>(tail - cap_);
    data_[tail] = v;
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    if (++head_ == cap_) head_ = 0;
    --count_;
  }

 private:
  T* data_ = nullptr;
  std::int16_t cap_ = 0;
  std::int16_t head_ = 0;
  std::int16_t count_ = 0;
};

/// Growable FIFO with contiguous power-of-two storage. Unlike std::deque
/// it allocates nothing while empty and everything it ever allocates is
/// one block, so scanning many mostly-empty queues stays cache-friendly.
template <typename T>
class RingDeque {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// Heap bytes held by this deque (memory-audit support).
  std::size_t footprint_bytes() const { return buf_.capacity() * sizeof(T); }

  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  void push_back(const T& v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = v;
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  /// Checkpoint support: visit every element front to back without
  /// consuming it (the physical head offset is not part of the saved
  /// state — a restored deque holding the same sequence is equivalent).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      fn(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
  }

 private:
  void grow() {
    const std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Timing-wheel storage: one FIFO per slot, all slots sharing a slab of
/// fixed-size chunks threaded through free lists. A drained slot returns
/// its chunks to the slab, so steady state runs with zero allocation no
/// matter how often the wheel wraps. The slab grows in fixed blocks of
/// kBlockChunks chunks that never move: growth allocates one block and
/// copies nothing, so a busy wheel never holds an old and a new slab at
/// once (a doubling vector would, for the length of the copy).
///
/// Constraint: drain() callbacks must not push() into the same ring. The
/// engine's event handlers only ever schedule into *future* cycles from
/// the allocation phase, never from a drain, so this holds by
/// construction there; draining_ asserts it.
template <typename T, int kChunkCap = 16>
class SlabEventRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SlabEventRing elements are moved with plain stores");

 public:
  void reset(std::size_t num_slots) {
    slots_.assign(num_slots, Slot{});
    blocks_.clear();
    num_chunks_ = 0;
    free_head_ = -1;
  }

  void push(std::size_t slot, const T& ev) {
    assert(!draining_);
    Slot& s = slots_[slot];
    if (s.tail < 0 || chunk(s.tail).count == kChunkCap) {
      const std::int32_t c = acquire_chunk();
      if (s.tail >= 0) {
        chunk(s.tail).next = c;
      } else {
        s.head = c;
      }
      s.tail = c;
    }
    Chunk& ch = chunk(s.tail);
    ch.items[ch.count++] = ev;
  }

  /// Visit the slot's events in FIFO order, then recycle its chunks.
  template <typename Fn>
  void drain(std::size_t slot, Fn&& fn) {
    drain_prefetch(slot, [](const T&) {}, fn);
  }

  /// drain() that runs `prefetch(ev)` over a whole chunk before `fn(ev)`
  /// processes it. The caller computes the dependent address (e.g. the
  /// input VC an event lands in) in `prefetch`, so up to kChunkCap target
  /// cache lines are in flight while earlier events are handled — the
  /// arrive phase is latency-bound on exactly those scattered loads.
  /// Ordering seen by `fn` is identical to drain().
  template <typename Pf, typename Fn>
  void drain_prefetch(std::size_t slot, Pf&& prefetch, Fn&& fn) {
    Slot& s = slots_[slot];
    std::int32_t c = s.head;
    if (c < 0) return;  // empty: skip the slot-reset stores
    s.head = -1;
    s.tail = -1;
    draining_ = true;
    while (c >= 0) {
      Chunk& ch = chunk(c);
      for (std::int32_t i = 0; i < ch.count; ++i) prefetch(ch.items[i]);
      for (std::int32_t i = 0; i < ch.count; ++i) fn(ch.items[i]);
      const std::int32_t next = ch.next;
      ch.next = free_head_;
      free_head_ = c;
      c = next;
    }
    draining_ = false;
  }

  /// True when the slot holds no events — a single load, so per-cycle
  /// pollers (the sharded engine checks every shard's wheels every
  /// cycle) skip empty slots without touching the slab.
  bool slot_empty(std::size_t slot) const { return slots_[slot].head < 0; }

  /// Resident bytes of the slab and slot table (memory-audit support).
  std::size_t footprint_bytes() const {
    return blocks_.size() * sizeof(Block) +
           blocks_.capacity() * sizeof(blocks_[0]) +
           slots_.capacity() * sizeof(Slot);
  }

  /// Checkpoint support: visit the slot's events in FIFO order WITHOUT
  /// recycling them (unlike drain). The wheel is unchanged afterwards.
  template <typename Fn>
  void visit(std::size_t slot, Fn&& fn) const {
    std::int32_t c = slots_[slot].head;
    while (c >= 0) {
      const Chunk& ch = chunk(c);
      for (std::int32_t i = 0; i < ch.count; ++i) fn(ch.items[i]);
      c = ch.next;
    }
  }

  /// Checkpoint support: number of events queued in one slot.
  std::size_t slot_size(std::size_t slot) const {
    std::size_t n = 0;
    visit(slot, [&](const T&) { ++n; });
    return n;
  }

 private:
  struct Chunk {
    std::int32_t next = -1;
    std::int32_t count = 0;
    T items[kChunkCap];
  };
  static constexpr int kBlockShift = 4;
  static constexpr std::int32_t kBlockChunks = 1 << kBlockShift;
  struct Block {
    Chunk chunks[kBlockChunks];
  };
  struct Slot {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  Chunk& chunk(std::int32_t c) {
    return blocks_[static_cast<std::size_t>(c >> kBlockShift)]
        ->chunks[c & (kBlockChunks - 1)];
  }
  const Chunk& chunk(std::int32_t c) const {
    return blocks_[static_cast<std::size_t>(c >> kBlockShift)]
        ->chunks[c & (kBlockChunks - 1)];
  }

  std::int32_t acquire_chunk() {
    if (free_head_ >= 0) {
      const std::int32_t c = free_head_;
      Chunk& ch = chunk(c);
      free_head_ = ch.next;
      ch.next = -1;
      ch.count = 0;
      return c;
    }
    if ((num_chunks_ & (kBlockChunks - 1)) == 0) {
      blocks_.push_back(std::make_unique<Block>());
    }
    return num_chunks_++;
  }

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<Slot> slots_;
  std::int32_t num_chunks_ = 0;
  std::int32_t free_head_ = -1;
  /// Set while a drain runs, so push() can assert it is not called from a
  /// drain callback. Present in every build: a member that existed only
  /// without NDEBUG would give the class (and Engine, which holds it) a
  /// different layout in assert-enabled and release translation units.
  bool draining_ = false;
};

}  // namespace dfsim
