// Endian-stable binary state serialization for snapshots.
//
// StateWriter/StateReader are the byte-level substrate of the crash-
// recovery subsystem (src/service/snapshot.hpp): every stateful component
// (engine core, balancers, workloads, the steady tracker) implements a
// save_state/load_state pair against them. All multi-byte values are
// written little-endian, so a snapshot taken on any host restores on any
// other; doubles travel as their IEEE-754 bit pattern. On a little-endian
// host a whole vector is one memcpy (its in-memory bytes already are the
// format); elsewhere the values go byte by byte. The writer's buffer is
// an ImageBytes: at checkpoint size (tens of MiB) it comes from the
// AlignedAllocator's huge-page mmap path, so a fresh image faults a few
// 2 MiB pages instead of thousands of 4 KiB ones.
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

#include "util/alloc.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

/// The AlignedAllocator of the hot arrays, for image bytes: a checkpoint
/// image (tens of MiB) lands on its huge-page mmap path. construct()
/// without a value default-initializes, so resize() leaves the new bytes
/// unwritten for one memcpy or read() to fill, instead of zeroing them
/// first.
template <class T>
class ImageAllocator : public AlignedAllocator<T> {
 public:
  template <class U>
  struct rebind {
    using other = ImageAllocator<U>;
  };

  ImageAllocator() noexcept = default;
  template <class U>
  ImageAllocator(const ImageAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A serialized state image.
using ImageBytes = std::vector<std::uint8_t, ImageAllocator<std::uint8_t>>;

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

/// Stores the unsigned value `v` at `at`, little-endian.
template <class U>
inline void store_le(std::uint8_t* at, U v) noexcept {
  if constexpr (detail::kRawLE<U>) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// The unsigned value stored little-endian at `at`.
template <class U>
inline U load_le(const std::uint8_t* at) noexcept {
  U v = 0;
  if constexpr (detail::kRawLE<U>) {
    std::memcpy(&v, at, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<U>(static_cast<U>(at[i]) << (8 * i));
    }
  }
  return v;
}

/// Append-only little-endian byte sink.
class StateWriter {
 public:
  /// Makes room for `extra` more bytes in at most one reallocation. A
  /// writer that reserves its known image size up front never regrows;
  /// growth past the capacity is geometric, so repeated calls stay
  /// amortized O(1) per byte.
  void reserve(std::size_t extra) {
    const std::size_t need = buf_.size() + extra;
    if (need <= buf_.capacity()) return;
    // By hand, because the vector's own regrow would move the bytes one
    // at a time under a user-supplied allocator.
    ImageBytes next;
    next.reserve(std::max(need, 2 * buf_.capacity()));
    next.resize(buf_.size());
    if (!buf_.empty()) std::memcpy(next.data(), buf_.data(), buf_.size());
    buf_.swap(next);
  }

  void u8(std::uint8_t v) { *extend(1) = v; }

  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u64(s.size());
    append(s.data(), s.size());
  }

  void bytes(std::span<const std::uint8_t> data) {
    append(data.data(), data.size());
  }

  /// Appends `n` unwritten bytes and returns where they start (valid
  /// until the next write); the caller must write every one. One
  /// pre-sized extent for a component that writes many fixed-width
  /// records.
  std::uint8_t* extend(std::size_t n) {
    reserve(n);
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
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
    store_le(buf_.data() + at, v);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const ImageBytes& data() const noexcept { return buf_; }
  ImageBytes take() { return std::move(buf_); }

 private:
  /// One unsigned value, little-endian.
  template <class U>
  void put(U v) {
    std::uint8_t le[sizeof v];
    store_le(le, v);
    append(le, sizeof v);
  }

  void append(const void* p, std::size_t n) {
    if (n != 0) std::memcpy(extend(n), p, n);
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

  ImageBytes buf_;
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
    const U v = load_le<U>(data_.data() + pos_);
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

/// FNV-1a 64-bit — the payload checksum of snapshot formats 1 and 2, and
/// of the shard wire frames. Not cryptographic; it catches truncation and
/// bit flips, which is the failure model of a checkpoint file.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------ block checksum --
//
// The payload checksum of snapshot format 3, built to run at memory
// speed. The payload is cut into fixed kChecksumBlockBytes blocks (the
// last one shorter). Each block is read as little-endian u64 words, dealt
// round-robin to four lanes whose states start from the block's index; a
// lane absorbs word w as acc = rotl(acc + w·P2, 31)·P1 (the xxHash64
// round, with the xxHash64 primes). That step is a bijection of acc for
// every w, and so is each later step, the lane merge and the final mix in
// any one lane, so one changed word — a single bit flip among them —
// always changes the block's digest. A partial last stripe is zero-padded;
// the block's byte count enters its digest, so the padding is
// unambiguous. The block digests are folded in block order, each through
// a step that is again a bijection of the digest, and the payload length
// closes the fold. Blocks are seeded by their index and the fold is
// ordered, so two swapped blocks change the value; the fold runs in block
// order whichever thread hashed a block, so the value does not depend on
// a pool or its size.

inline constexpr std::size_t kChecksumBlockBytes = std::size_t{64} << 10;

namespace detail {
inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t lane_step(std::uint64_t acc, std::uint64_t w) noexcept {
  return std::rotl(acc + w * kPrime2, 31) * kPrime1;
}

/// Final mix (the xxHash64 avalanche): a bijection of h.
inline std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}
}  // namespace detail

/// Digest of one checksum block, the `index`-th of its payload.
inline std::uint64_t block_digest(std::span<const std::uint8_t> block,
                                  std::uint64_t index) noexcept {
  using detail::kPrime1;
  using detail::kPrime2;
  using detail::lane_step;
  std::uint64_t v0 = index + kPrime1 + kPrime2;
  std::uint64_t v1 = index + kPrime2;
  std::uint64_t v2 = index;
  std::uint64_t v3 = index - kPrime1;
  const auto stripe = [&](const std::uint8_t* p) {
    v0 = lane_step(v0, load_le<std::uint64_t>(p));
    v1 = lane_step(v1, load_le<std::uint64_t>(p + 8));
    v2 = lane_step(v2, load_le<std::uint64_t>(p + 16));
    v3 = lane_step(v3, load_le<std::uint64_t>(p + 24));
  };
  const std::uint8_t* p = block.data();
  std::size_t left = block.size();
  for (; left >= 32; p += 32, left -= 32) stripe(p);
  if (left != 0) {
    std::uint8_t tail[32] = {};
    std::memcpy(tail, p, left);
    stripe(tail);
  }
  const std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) +
                          std::rotl(v2, 12) + std::rotl(v3, 18);
  return detail::avalanche(h + block.size());
}

/// The format-3 block checksum of `data` (see above). With a pool the
/// block digests are computed on it; the value is the same either way.
inline std::uint64_t block_checksum(std::span<const std::uint8_t> data,
                                    ThreadPool* pool = nullptr) {
  const std::size_t blocks =
      (data.size() + kChecksumBlockBytes - 1) / kChecksumBlockBytes;
  const auto digest = [data](std::size_t b) {
    const std::size_t at = b * kChecksumBlockBytes;
    return block_digest(
        data.subspan(at, std::min(kChecksumBlockBytes, data.size() - at)), b);
  };
  std::uint64_t h = detail::kPrime5;
  const auto fold = [&h](std::uint64_t d) {
    h = std::rotl(h ^ detail::lane_step(0, d), 27) * detail::kPrime1 +
        detail::kPrime4;
  };
  if (pool == nullptr || pool->parallelism() == 1 || blocks < 2) {
    for (std::size_t b = 0; b < blocks; ++b) fold(digest(b));
  } else {
    std::vector<std::uint64_t> digests(blocks);
    pool->for_ranges(static_cast<std::int64_t>(blocks),
                     [&](std::int64_t first, std::int64_t last) {
                       for (auto b = static_cast<std::size_t>(first);
                            b < static_cast<std::size_t>(last); ++b) {
                         digests[b] = digest(b);
                       }
                     });
    for (const std::uint64_t d : digests) fold(d);
  }
  return detail::avalanche(h ^ data.size());
}

}  // namespace dlb
