#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace dlb::simd {

namespace {

bool cpu_has_avx2() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

bool env_disabled() noexcept {
  const char* v = std::getenv("DLB_NO_SIMD");
  if (v == nullptr || v[0] == '\0') return false;
  // "0" means "not disabled"; anything else disables.
  return !(v[0] == '0' && v[1] == '\0');
}

bool initial_enabled() noexcept {
#ifdef DLB_SIMD_AVX2
  return cpu_has_avx2() && !env_disabled();
#else
  return false;
#endif
}

std::atomic<bool>& flag() noexcept {
  static std::atomic<bool> g{initial_enabled()};
  return g;
}

}  // namespace

bool compiled() noexcept {
#ifdef DLB_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool enabled() noexcept { return flag().load(std::memory_order_relaxed); }

bool avx512() noexcept {
  static const bool cpu = cpu_has_avx512();
  return cpu && enabled();
}

void set_enabled(bool on) noexcept {
  flag().store(on && compiled() && cpu_has_avx2(),
               std::memory_order_relaxed);
}

}  // namespace dlb::simd
