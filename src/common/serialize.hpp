// Binary checkpoint archives.
//
// Every stateful class names its checkpoint fields once, in a
// `template <class Ar> void transfer(Ar& ar)`. Saving runs it with a
// Writer, restoring with a Reader. Both archives have the same members,
// so one field list drives both directions:
//   u64 u32 i32 u8 f64 str    one field; i32 also carries the narrower
//                             signed ints, u8 bools and enums
//   expect(value, what)       a header or shape field that must equal
//                             this configuration's value
//   index(v, bound, what)     a stream value later used as an index:
//                             0 <= v < bound (index_or_none also takes
//                             kInvalid)
//   count(n, max, what)       a stream value later used as a size
// A transfer branches on Ar::kLoading only where the two directions
// really differ (packet renumbering, appending to a queue, rebuilding
// derived state).
//
// Encoding: fixed-width little-endian integers, doubles as their IEEE-754
// bit pattern (restore is bit-exact, which resume determinism requires),
// strings as a u64 length and the bytes. The Reader validates as it reads
// and throws std::runtime_error with a pointed message on a truncated,
// mismatched or corrupt stream, so a damaged checkpoint is rejected
// instead of silently restoring garbage.
//
// The Writer stages its bytes in a fixed 64 KiB buffer and writes it out
// when it fills, before stream() hands out the raw stream, and at the end
// of save(): one ostream::write per field made the stream calls a visible
// share of a checkpointing sweep's CPU time, and a fixed buffer (rather
// than a whole checkpoint) keeps concurrent saves off the peak memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace dfsim::ser {

/// The 8-byte magic string `s` as the u64 whose little-endian bytes it is.
constexpr std::uint64_t magic(const char (&s)[9]) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
         << (8 * i);
  }
  return v;
}

/// One little-endian integer of `n` bytes (n <= 8).
inline std::uint64_t read_le(std::istream& is, int n, const char* what) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), n);
  if (is.gcount() != n) {
    throw std::runtime_error(
        std::string("checkpoint truncated while reading ") + what);
  }
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

inline std::uint64_t read_u64(std::istream& is, const char* what) {
  return read_le(is, 8, what);
}

inline std::int32_t read_i32(std::istream& is, const char* what) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(read_le(is, 4, what)));
}

class Writer {
 public:
  static constexpr bool kLoading = false;

  explicit Writer(std::ostream& os) : os_(os) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// The underlying stream, for state behind a virtual interface; the
  /// staged bytes are written out first, so the stream is in order.
  std::ostream& stream() {
    flush();
    return os_;
  }
  /// Write out the staged bytes.
  void flush() {
    os_.write(buf_, static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  template <class T>
  void u64(const T& v, const char*) {
    put(static_cast<std::uint64_t>(v), 8);
  }
  template <class T>
  void u32(const T& v, const char*) {
    put(static_cast<std::uint32_t>(v), 4);
  }
  template <class T>
  void i32(const T& v, const char*) {
    put(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)), 4);
  }
  template <class T>
  void u8(const T& v, const char*) {
    put(static_cast<std::uint8_t>(v), 1);
  }
  void f64(const double& v, const char*) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put(bits, 8);
  }
  void str(const std::string& s, const char*) {
    put(s.size(), 8);
    append(s.data(), s.size());
  }
  void expect(std::uint64_t v, const char*) { put(v, 8); }
  template <class T>
  void index(const T& v, std::int64_t, const char*) {
    i32(v, nullptr);
  }
  template <class T>
  void index_or_none(const T& v, std::int64_t, const char*) {
    i32(v, nullptr);
  }
  template <class T>
  void count(const T& n, std::uint64_t, const char*) {
    put(static_cast<std::uint64_t>(n), 8);
  }

 private:
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  void put(std::uint64_t v, int n) {
    char b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<char>(v >> (8 * i));
    append(b, static_cast<std::size_t>(n));
  }
  void append(const char* data, std::size_t n) {
    if (used_ + n > kBufferBytes) {
      flush();
      if (n > kBufferBytes) {
        os_.write(data, static_cast<std::streamsize>(n));
        return;
      }
    }
    std::memcpy(buf_ + used_, data, n);
    used_ += n;
  }

  std::ostream& os_;
  std::size_t used_ = 0;
  char buf_[kBufferBytes];
};

class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(std::istream& is) : is_(is) {}
  std::istream& stream() { return is_; }

  template <class T>
  void u64(T& v, const char* what) {
    v = static_cast<T>(read_le(is_, 8, what));
  }
  template <class T>
  void u32(T& v, const char* what) {
    v = static_cast<T>(read_le(is_, 4, what));
  }
  template <class T>
  void i32(T& v, const char* what) {
    v = static_cast<T>(read_i32(is_, what));
  }
  template <class T>
  void u8(T& v, const char* what) {
    v = static_cast<T>(read_le(is_, 1, what));
  }
  void f64(double& v, const char* what) {
    const std::uint64_t bits = read_le(is_, 8, what);
    std::memcpy(&v, &bits, 8);
  }
  void str(std::string& s, const char* what) {
    const std::uint64_t n = read_le(is_, 8, what);
    // A length beyond any sane checkpoint is corruption, not a string;
    // cap before allocating so a flipped length byte cannot demand
    // petabytes.
    if (n > (1ULL << 32)) {
      throw std::runtime_error(
          std::string("checkpoint corrupt: implausible string length for ") +
          what);
    }
    s.assign(static_cast<std::size_t>(n), '\0');
    is_.read(s.data(), static_cast<std::streamsize>(n));
    if (static_cast<std::uint64_t>(is_.gcount()) != n) {
      throw std::runtime_error(
          std::string("checkpoint truncated while reading ") + what);
    }
  }
  /// A checkpoint written for a different shape or config names the first
  /// mismatching field.
  void expect(std::uint64_t expected, const char* what) {
    const std::uint64_t got = read_le(is_, 8, what);
    if (got != expected) {
      throw std::runtime_error(
          std::string("checkpoint mismatch: ") + what + " is " +
          std::to_string(got) + " in the checkpoint but " +
          std::to_string(expected) + " in this configuration");
    }
  }
  template <class T>
  void index(T& v, std::int64_t bound, const char* what) {
    const std::int32_t got = read_i32(is_, what);
    if (got < 0 || got >= bound) out_of_range(what);
    v = static_cast<T>(got);
  }
  template <class T>
  void index_or_none(T& v, std::int64_t bound, const char* what) {
    const std::int32_t got = read_i32(is_, what);
    if (got < -1 || got >= bound) out_of_range(what);
    v = static_cast<T>(got);
  }
  template <class T>
  void count(T& n, std::uint64_t max, const char* what) {
    const std::uint64_t got = read_le(is_, 8, what);
    if (got > max) {
      throw std::runtime_error(
          std::string("checkpoint corrupt: implausible ") + what);
    }
    n = static_cast<T>(got);
  }

 private:
  [[noreturn]] static void out_of_range(const char* what) {
    throw std::runtime_error(std::string("checkpoint corrupt: ") + what +
                             " out of range");
  }

  std::istream& is_;
};

/// Throws "checkpoint corrupt: <what>" unless `ok`: for a stream value that
/// contradicts the state already read.
inline void check(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("checkpoint corrupt: ") + what);
}

/// Save `obj` through its transfer(). transfer() is non-const because the
/// Reader fills the same fields; the Writer only reads them.
template <class T>
void save(std::ostream& os, const T& obj) {
  Writer ar(os);
  const_cast<T&>(obj).transfer(ar);
  ar.flush();
}

template <class T>
void load(std::istream& is, T& obj) {
  Reader ar(is);
  obj.transfer(ar);
}

}  // namespace dfsim::ser
