// Queue primitives for the simulation hot path. Each keeps and reuses the
// memory it grew into, so steady state allocates nothing:
//   - RingDeque<T>:      owning, growable FIFO with power-of-two wraparound;
//                        replaces std::deque where the bound is soft (source
//                        backlogs), so empty queues cost no heap block.
//   - ChunkSlab<T, N>:   a store of fixed-size chunks of N elements, threaded
//                        through one free list, that grows in blocks that
//                        never move.
//   - ChunkQueue<T, N>:  a 12-byte FIFO header over a chain of ChunkSlab
//                        chunks; holds no memory while empty (the per-VC
//                        flit buffers of every router).
//   - SlabEventRing<T>:  per-slot FIFOs of a timing wheel on one ChunkSlab;
//                        chunks recycle across wraps.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dfsim {

/// Growable FIFO with contiguous power-of-two storage. Unlike std::deque
/// it allocates nothing while empty and everything it ever allocates is
/// one block, so scanning many mostly-empty queues stays cache-friendly.
template <typename T>
class RingDeque {
 public:
  using value_type = T;

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

/// A store of fixed-size chunks of kCap elements each, threaded through
/// one LIFO free list and addressed by 32-bit chunk ids. It grows in
/// blocks of kBlockChunks chunks that never move: growth allocates one
/// block and copies nothing, so a reference into a chunk stays valid for
/// as long as the chunk is held, and a busy slab never holds an old and a
/// new buffer at once (a doubling vector would, for the length of the
/// copy). Released chunks are reused before the slab grows, so a slab's
/// size is the high-water mark of the chunks its users held at once.
///
/// Not thread-safe: every user of a slab must run on one thread at a
/// time (the engine gives each shard its own slabs).
template <typename T, int kCap>
class ChunkSlab {
  static_assert(std::is_trivially_copyable_v<T>,
                "chunk elements are moved with plain stores");

 public:
  /// `next` links a chunk into its owner's chain (or the free list);
  /// `count` is free for the owner to use (SlabEventRing fills chunks
  /// front to back and counts them; ChunkQueue leaves it alone).
  struct Chunk {
    std::int32_t next = -1;
    std::int32_t count = 0;
    T items[kCap];
  };

  /// Drop every chunk and free every block.
  void clear() {
    blocks_.clear();
    num_chunks_ = 0;
    free_head_ = -1;
  }

  /// A chunk with next == -1 and count == 0: the most recently released
  /// one, else a fresh one (adding a block when the last one is full).
  std::int32_t acquire() {
    if (free_head_ >= 0) {
      const std::int32_t c = free_head_;
      Chunk& ch = (*this)[c];
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

  /// Return chunk `c` to the free list. Its contents stay readable until
  /// the next acquire().
  void release(std::int32_t c) {
    (*this)[c].next = free_head_;
    free_head_ = c;
  }

  Chunk& operator[](std::int32_t c) {
    return blocks_[static_cast<std::size_t>(c >> kBlockShift)]
        ->chunks[c & (kBlockChunks - 1)];
  }
  const Chunk& operator[](std::int32_t c) const {
    return blocks_[static_cast<std::size_t>(c >> kBlockShift)]
        ->chunks[c & (kBlockChunks - 1)];
  }

  /// Chunks ever created (held plus free).
  std::size_t num_chunks() const {
    return static_cast<std::size_t>(num_chunks_);
  }
  /// Chunks currently held by users: created minus free. Walks the free
  /// list (audits and tests only).
  std::size_t chunks_in_use() const {
    std::size_t free = 0;
    for (std::int32_t c = free_head_; c >= 0; c = (*this)[c].next) ++free;
    return num_chunks() - free;
  }

  /// Resident bytes: the blocks and the block table (memory audits).
  std::size_t footprint_bytes() const {
    return blocks_.size() * sizeof(Block) +
           blocks_.capacity() * sizeof(blocks_[0]);
  }

 private:
  static constexpr int kBlockShift = 4;
  static constexpr std::int32_t kBlockChunks = 1 << kBlockShift;
  /// Cache-line aligned, so 64-byte chunks each sit on one line.
  struct alignas(64) Block {
    Chunk chunks[kBlockChunks];
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  std::int32_t num_chunks_ = 0;
  std::int32_t free_head_ = -1;
};

/// FIFO over a chain of chunks from a ChunkSlab the caller passes to every
/// operation. The header is 12 bytes — head chunk, tail chunk, offset of
/// the front element in the head chunk, element count — and holds no
/// memory while empty: the first push takes a chunk, every kCap-th push
/// another, and a pop that empties a chunk (or the queue) releases it.
/// Elements never move, so front() stays valid until that element is
/// popped. All operations on one queue must use the same slab.
template <typename T, int kCap>
class ChunkQueue {
 public:
  using Slab = ChunkSlab<T, kCap>;

  bool empty() const { return count_ == 0; }
  std::int32_t size() const { return count_; }
  /// Largest size() the 16-bit count can represent.
  static constexpr std::int32_t kMaxSize = INT16_MAX;

  const T& front(const Slab& slab) const {
    assert(count_ > 0);
    return slab[head_].items[head_off_];
  }

  void push_back(Slab& slab, const T& v) {
    assert(count_ < kMaxSize);
    // Elements sit at consecutive positions from the head chunk's
    // head_off_, kCap per chunk, so the next free position's offset in
    // the tail chunk is (head_off_ + count_) % kCap; 0 means the tail
    // chunk is full (or the queue has none).
    const int off = (head_off_ + count_) % kCap;
    if (count_ == 0) {
      head_ = tail_ = slab.acquire();
      head_off_ = 0;
    } else if (off == 0) {
      const std::int32_t c = slab.acquire();
      slab[tail_].next = c;
      tail_ = c;
    }
    slab[tail_].items[off] = v;
    ++count_;
  }

  void pop_front(Slab& slab) {
    assert(count_ > 0);
    --count_;
    if (count_ == 0) {
      slab.release(head_);
      head_ = tail_ = -1;
      head_off_ = 0;
    } else if (++head_off_ == kCap) {
      const std::int32_t next = slab[head_].next;
      slab.release(head_);
      head_ = next;
      head_off_ = 0;
    }
  }

  /// Checkpoint support: visit every element front to back without
  /// consuming it.
  template <typename Fn>
  void visit(const Slab& slab, Fn&& fn) const {
    std::int32_t c = head_;
    int off = head_off_;
    for (std::int32_t i = 0; i < count_; ++i) {
      fn(slab[c].items[off]);
      if (++off == kCap) {
        c = slab[c].next;
        off = 0;
      }
    }
  }

 private:
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;
  std::int16_t head_off_ = 0;
  std::int16_t count_ = 0;
};

/// Timing-wheel storage: one FIFO per slot, all slots sharing one
/// ChunkSlab. A drained slot returns its chunks to the slab, so steady
/// state runs with zero allocation no matter how often the wheel wraps.
///
/// Constraint: drain() callbacks must not push() into the same ring. The
/// engine's event handlers only ever schedule into *future* cycles from
/// the allocation phase, never from a drain, so this holds by
/// construction there; draining_ asserts it.
template <typename T, int kChunkCap = 16>
class SlabEventRing {
 public:
  void reset(std::size_t num_slots) {
    slots_.assign(num_slots, Slot{});
    slab_.clear();
  }

  void push(std::size_t slot, const T& ev) {
    assert(!draining_);
    Slot& s = slots_[slot];
    if (s.tail < 0 || slab_[s.tail].count == kChunkCap) {
      const std::int32_t c = slab_.acquire();
      if (s.tail >= 0) {
        slab_[s.tail].next = c;
      } else {
        s.head = c;
      }
      s.tail = c;
    }
    Chunk& ch = slab_[s.tail];
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
      Chunk& ch = slab_[c];
      for (std::int32_t i = 0; i < ch.count; ++i) prefetch(ch.items[i]);
      for (std::int32_t i = 0; i < ch.count; ++i) fn(ch.items[i]);
      const std::int32_t next = ch.next;
      slab_.release(c);
      c = next;
    }
    draining_ = false;
  }

  /// Resident bytes of the slab and slot table (memory-audit support).
  std::size_t footprint_bytes() const {
    return slab_.footprint_bytes() + slots_.capacity() * sizeof(Slot);
  }

  /// Checkpoint support: visit the slot's events in FIFO order WITHOUT
  /// recycling them (unlike drain). The wheel is unchanged afterwards.
  template <typename Fn>
  void visit(std::size_t slot, Fn&& fn) const {
    std::int32_t c = slots_[slot].head;
    while (c >= 0) {
      const Chunk& ch = slab_[c];
      for (std::int32_t i = 0; i < ch.count; ++i) fn(ch.items[i]);
      c = ch.next;
    }
  }

 private:
  using Chunk = typename ChunkSlab<T, kChunkCap>::Chunk;
  struct Slot {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  ChunkSlab<T, kChunkCap> slab_;
  std::vector<Slot> slots_;
  /// Set while a drain runs, so push() can assert it is not called from a
  /// drain callback. Present in every build: a member that existed only
  /// without NDEBUG would give the class (and Engine, which holds it) a
  /// different layout in assert-enabled and release translation units.
  bool draining_ = false;
};

}  // namespace dfsim
