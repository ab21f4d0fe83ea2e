// Aligned / huge-page allocation for the hot arrays.
//
// The round kernels stream the load vector and the next-load buffer
// every step; at production sizes (2^20 nodes = 8 MiB per array) the two
// memory-system levers that matter are cache-line alignment (vector
// loads never straddle a line, no false sharing between the parallel
// apply shards) and TLB reach (4 KiB pages mean 2048 entries per array —
// transparent huge pages cut that to 4).
//
// AlignedAllocator<T, Align> delivers both:
//   * every allocation is at least Align-aligned (default and maximum 64,
//     one cache line — also covers the 32-byte AVX2 vector alignment);
//   * allocations of kHugeThreshold (2 MiB) or more come from a private
//     anonymous mmap, coloured (below) within its first page, with
//     madvise(MADV_HUGEPAGE) applied best-effort so the kernel backs the
//     range with huge pages where transparent-huge-page support is on.
//
// Page colouring. A private mmap always starts on a page boundary (this
// allocator even starts it on a huge-page boundary), so two huge arrays
// streamed in lockstep (the loads and the next-load buffer of a round)
// would sit at the same offset within every 4 KiB page: each store into
// next[u] then 4K-aliases the load of x[u], and the core stalls on a
// false store-to-load dependency. The huge path therefore maps one extra
// page and hands out base + (k mod 8) × 576 B, where k is the
// allocation's index in the process-wide huge-allocation counter. 576 B
// is nine cache lines: the eight colours are distinct mod 4 KiB and also
// land in distinct L1 sets (the odd line count walks the 64 sets without
// repeating), so any eight consecutive huge allocations are pairwise
// alias-free. Every colour is a cache-line multiple, which is why the
// allocator caps Align at one cache line.
//
// The mmap-vs-new decision is a pure function of the byte count, so
// deallocate(p, n) — which receives the same n back from the container —
// always unmaps/deletes through the path that allocated; the unmap
// recovers the mapping base by rounding p down to its page (the colour
// offset is always below 4 KiB). Allocators of equal Align compare equal
// (stateless), so containers swap/move freely; LoadVector (loads, next
// loads, flow rows) adopts it via the container's allocator parameter
// with zero call-site churn.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace dlb {

/// One cache line on every x86-64 / common AArch64 part we target.
inline constexpr std::size_t kCacheLineBytes = 64;

/// One x86-64 huge page.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocations at or above this many bytes are served by mmap so they
/// can be backed by transparent huge pages.
inline constexpr std::size_t kHugeThreshold = kHugePageBytes;

namespace detail {

/// Extra bytes mapped ahead of every huge allocation for its colour (the
/// smallest Linux page; a larger page only rounds the mapping up).
inline constexpr std::size_t kColourPageBytes = 4096;
/// Distance between consecutive colours: nine cache lines (see header).
inline constexpr std::size_t kColourStrideBytes = 9 * kCacheLineBytes;
/// Number of colours; kColours × kColourStrideBytes must fit in a page.
inline constexpr std::size_t kColours = 8;
static_assert((kColours - 1) * kColourStrideBytes < kColourPageBytes,
              "every colour offset must stay inside the extra page");

inline std::atomic<std::uint64_t>& madvise_failure_counter() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

inline std::atomic<std::uint64_t>& huge_alloc_counter() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

#if defined(__linux__)
inline std::size_t page_bytes() noexcept {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}
#endif

inline void* huge_page_alloc(std::size_t bytes) {
  const std::uint64_t k =
      huge_alloc_counter().fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
  const std::size_t page = page_bytes();
  // The array plus its colour page, in whole pages.
  const std::size_t mapped =
      (bytes + kColourPageBytes + page - 1) & ~(page - 1);
  // Start the mapping on a huge-page boundary: over-map by one huge page
  // and unmap the slack on both sides. The kernel aligns only mappings
  // whose length is a huge-page multiple, which the colour page breaks,
  // and an unaligned base would leave a partial huge page at each end on
  // 4 KiB pages — twice the first-touch cost and less TLB reach.
  void* raw = ::mmap(nullptr, mapped + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc{};
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (start + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t end = start + mapped + kHugePageBytes;
  if (aligned != start) ::munmap(raw, aligned - start);
  if (aligned + mapped != end) {
    ::munmap(reinterpret_cast<void*>(aligned + mapped),
             end - aligned - mapped);
  }
  auto* base = reinterpret_cast<std::byte*>(aligned);
#if defined(MADV_HUGEPAGE)
  // Best-effort: THP may be disabled or the madvise flag unsupported;
  // the mapping works either way. A failure (ENOMEM under memory
  // pressure, EINVAL with THP off) silently costs TLB reach, so count
  // it — the service exposes the tally via SIGUSR1 metrics.
  if (::madvise(base, mapped, MADV_HUGEPAGE) != 0) {
    madvise_failure_counter().fetch_add(1, std::memory_order_relaxed);
  }
#endif
  return base + (k % kColours) * kColourStrideBytes;
#else
  (void)k;
  return ::operator new(bytes, std::align_val_t{kCacheLineBytes});
#endif
}

inline void huge_page_free(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  ::munmap(reinterpret_cast<void*>(addr & ~(page_bytes() - 1)),
           bytes + kColourPageBytes);
#else
  ::operator delete(p, bytes, std::align_val_t{kCacheLineBytes});
#endif
}

}  // namespace detail

/// How many huge-page allocations lost their MADV_HUGEPAGE hint (madvise
/// returned -1; the mapping itself succeeded, just on 4 KiB pages).
/// Monotone process-lifetime counter, safe to read from any thread.
inline std::uint64_t huge_page_madvise_failures() noexcept {
  return detail::madvise_failure_counter().load(std::memory_order_relaxed);
}

/// Process-lifetime allocator outcomes, safe to read from any thread.
struct AllocStats {
  /// Allocations >= kHugeThreshold served by the mmap path.
  std::uint64_t huge_allocs = 0;
  /// Of those, how many lost the MADV_HUGEPAGE hint (see above).
  std::uint64_t madvise_failures = 0;
};

inline AllocStats alloc_stats() noexcept {
  return AllocStats{
      detail::huge_alloc_counter().load(std::memory_order_relaxed),
      detail::madvise_failure_counter().load(std::memory_order_relaxed)};
}

template <class T, std::size_t Align = kCacheLineBytes>
class AlignedAllocator {
  static_assert(Align >= alignof(T), "Align must satisfy T's alignment");
  static_assert(Align <= kCacheLineBytes,
                "huge allocations are coloured in cache-line steps");
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeThreshold) {
      return static_cast<T*>(detail::huge_page_alloc(bytes));
    }
    return static_cast<T*>(::operator new(bytes, std::align_val_t{Align}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeThreshold) {
      detail::huge_page_free(p, bytes);
      return;
    }
    ::operator delete(p, bytes, std::align_val_t{Align});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

}  // namespace dlb
