#include "common/simd_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace upanns::common {

namespace {

SimdLevel probe_cpu() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kSse2;  // baseline for x86-64
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel clamp_supported(SimdLevel want, const char* origin) {
  const SimdLevel max = simd_max_supported();
  if (static_cast<int>(want) <= static_cast<int>(max)) return want;
  std::fprintf(stderr, "upanns: %s requests %s but this CPU supports %s; using %s\n",
               origin, simd_level_name(want), simd_level_name(max),
               simd_level_name(max));
  return max;
}

SimdLevel resolve_initial() {
  SimdLevel level = simd_max_supported();
  if (const char* env = std::getenv("UPANNS_SIMD")) {
    SimdLevel want;
    if (parse_simd_level(env, &want)) {
      level = clamp_supported(want, "UPANNS_SIMD");
    } else {
      std::fprintf(stderr,
                   "upanns: unknown UPANNS_SIMD value '%s' "
                   "(expected scalar|sse2|avx2|avx512); using %s\n",
                   env, simd_level_name(level));
    }
  }
  return level;
}

std::atomic<SimdLevel>& active_slot() {
  static std::atomic<SimdLevel> slot{resolve_initial()};
  return slot;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse2: return "sse2";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

bool parse_simd_level(std::string_view name, SimdLevel* out) {
  if (name == "scalar") { *out = SimdLevel::kScalar; return true; }
  if (name == "sse2") { *out = SimdLevel::kSse2; return true; }
  if (name == "avx2") { *out = SimdLevel::kAvx2; return true; }
  if (name == "avx512") { *out = SimdLevel::kAvx512; return true; }
  return false;
}

SimdLevel simd_max_supported() {
  static const SimdLevel probed = probe_cpu();
  return probed;
}

SimdLevel simd_active_level() {
  return active_slot().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) {
  const SimdLevel effective = clamp_supported(level, "set_simd_level");
  active_slot().store(effective, std::memory_order_relaxed);
  return effective;
}

}  // namespace upanns::common
