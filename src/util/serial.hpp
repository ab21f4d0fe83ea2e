// Endian-stable binary state serialization for snapshots.
//
// StateWriter/StateReader are the byte-level substrate of the crash-
// recovery subsystem (src/service/snapshot.hpp): every stateful component
// (engine core, balancers, workloads, the steady tracker) implements a
// save_state/load_state pair against them. All multi-byte values are
// written little-endian, so a snapshot taken on any host restores on any
// other; doubles travel as their IEEE-754 bit pattern. On a little-endian
// host a whole vector is one memcpy (its in-memory bytes already are the
// format); elsewhere the values go byte by byte.
//
// The reader is strict: reading past the end of the buffer throws
// serial_error instead of returning garbage, and sequences carry explicit
// length prefixes which are bounds-checked before allocation. This is the
// mechanism that turns a forgotten field into a caught error — if a
// save_state writes N bytes and the matching load_state consumes M != N,
// the snapshot layer's section framing (see snapshot.cpp) detects the
// mismatch instead of silently mis-aligning every later section.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlb {

/// Error thrown on any malformed, truncated, or mismatched state buffer.
/// Distinct from invariant_error so callers can refuse a bad snapshot
/// cleanly without conflating it with a library-logic bug.
class serial_error : public std::runtime_error {
 public:
  explicit serial_error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// True when a vector of T may be copied as raw bytes: the host is
/// little-endian and T is a plain 4- or 8-byte value (int is 32-bit on
/// every platform the format targets).
template <class T>
inline constexpr bool kRawLE = std::endian::native == std::endian::little &&
                               (sizeof(T) == 4 || sizeof(T) == 8);
}  // namespace detail

/// Append-only little-endian byte sink.
class StateWriter {
 public:
  /// Makes room for `extra` more bytes in at most one reallocation. A
  /// writer that reserves its known image size up front never regrows;
  /// growth past the capacity is geometric, so repeated calls stay
  /// amortized O(1) per byte.
  void reserve(std::size_t extra) {
    const std::size_t need = buf_.size() + extra;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max(need, 2 * buf_.capacity()));
    }
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void vec_i64(std::span<const std::int64_t> v) { vec(v); }
  void vec_i32(std::span<const std::int32_t> v) { vec(v); }

  /// `int` vectors (rotor positions) travel as i32 — int is 32-bit on
  /// every platform we target, and pinning the width keeps the format
  /// host-independent.
  void vec_int(std::span<const int> v) {
    static_assert(sizeof(int) == 4, "the format stores int as i32");
    vec(v);
  }

  void vec_f64(std::span<const double> v) { vec(v); }

  /// Overwrites the 8 bytes at `at` (at + 8 <= size()) with `v`,
  /// little-endian: fills in a length or checksum once what it covers
  /// has been written behind it.
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  /// One unsigned value, little-endian.
  template <class U>
  void put(U v) {
    if constexpr (detail::kRawLE<U>) {
      append(&v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Length prefix, then the values: one memcpy when the host's bytes
  /// are the format's, the per-value writers otherwise.
  template <class T>
  void vec(std::span<const T> v) {
    reserve(8 + v.size_bytes());
    u64(v.size());
    if constexpr (detail::kRawLE<T>) {
      append(v.data(), v.size_bytes());
    } else {
      for (const T x : v) {
        if constexpr (sizeof(T) == 8) {
          u64(std::bit_cast<std::uint64_t>(x));
        } else {
          u32(std::bit_cast<std::uint32_t>(x));
        }
      }
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool b() { return u8() != 0; }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::size_t len = checked_len(1);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<std::int64_t> vec_i64() { return vec<std::int64_t>(); }
  std::vector<std::int32_t> vec_i32() { return vec<std::int32_t>(); }
  std::vector<int> vec_int() { return vec<int>(); }
  std::vector<double> vec_f64() { return vec<double>(); }

  /// Borrows the next `len` bytes without copying.
  std::span<const std::uint8_t> bytes(std::size_t len) {
    need(len);
    std::span<const std::uint8_t> s = data_.subspan(pos_, len);
    pos_ += len;
    return s;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

  /// Asserts the buffer was consumed exactly — the save/load symmetry
  /// check every component restore ends with.
  void expect_done(const char* what) const {
    if (!done()) {
      throw serial_error(std::string(what) +
                         ": trailing bytes after restore (save/load state "
                         "mismatch)");
    }
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw serial_error("state buffer truncated");
    }
  }

  /// One unsigned value, little-endian.
  template <class U>
  U get() {
    need(sizeof(U));
    U v = 0;
    if constexpr (detail::kRawLE<U>) {
      std::memcpy(&v, data_.data() + pos_, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        v |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << (8 * i));
      }
    }
    pos_ += sizeof v;
    return v;
  }

  /// Mirror of StateWriter::vec: one memcpy on a little-endian host.
  template <class T>
  std::vector<T> vec() {
    const std::size_t len = checked_len(sizeof(T));
    std::vector<T> v(len);
    if constexpr (detail::kRawLE<T>) {
      if (len != 0) {
        std::memcpy(v.data(), data_.data() + pos_, len * sizeof(T));
      }
      pos_ += len * sizeof(T);
    } else {
      for (T& x : v) {
        if constexpr (sizeof(T) == 8) {
          x = std::bit_cast<T>(u64());
        } else {
          x = std::bit_cast<T>(u32());
        }
      }
    }
    return v;
  }

  /// Reads a length prefix and verifies the payload fits *before* any
  /// allocation, so a corrupted length cannot trigger a huge reserve.
  std::size_t checked_len(std::size_t elem_size) {
    const std::uint64_t len = u64();
    if (len > (data_.size() - pos_) / elem_size) {
      throw serial_error("state buffer truncated (bad sequence length)");
    }
    return static_cast<std::size_t>(len);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit — the snapshot payload checksum. Not cryptographic; it
/// catches truncation and bit flips, which is the failure model of a
/// checkpoint file.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dlb
