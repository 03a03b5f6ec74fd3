// Runtime SIMD dispatch for the host-side kernels (k-means / PQ training,
// the DPU kernel's LUT build and quantize, token and raw-code scans and
// tasklet top-k). The binary is compiled without -march flags, so SSE2 is
// the compile-time baseline (implied by x86-64) and wider variants are
// emitted per function via __attribute__((target(...))) and selected once
// at startup from cpuid. Levels are ordered: a kernel without a body of
// its own at a level runs its widest body below it, so the avx512 level
// runs every AVX2 body (k-means, the raw-code scan) except where the DPU
// kernel has a 16-lane one. The `UPANNS_SIMD=scalar|sse2|avx2|avx512`
// environment variable (or set_simd_level, used by `upanns_cli --simd`)
// overrides the probe for A/B testing; requests above what the CPU supports
// clamp down with a warning. Every kernel keeps one IEEE operation order
// across all levels (no FMA contraction), so changing the level never
// changes results — the parity suite in tests/test_simd.cpp pins this.
#pragma once

#include <string_view>

/// Target attribute of the kAvx512 bodies: the four feature sets the
/// probe requires. GCC 12's unmasked forms of several AVX-512 intrinsics
/// pass an undefined vector as their source and warn under -Wuninitialized
/// once inlined, so the bodies use the masked forms with an all-lanes mask.
#define UPANNS_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))

namespace upanns::common {

enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,  ///< AVX-512 F, BW, VL and DQ together
};

/// Lower-case name of a level ("scalar", "sse2", "avx2", "avx512").
const char* simd_level_name(SimdLevel level);

/// Parse a level name (case-sensitive, lower-case). Returns false on
/// unknown input and leaves *out untouched.
bool parse_simd_level(std::string_view name, SimdLevel* out);

/// Highest level this CPU supports (probed once via cpuid).
SimdLevel simd_max_supported();

/// The level kernels dispatch on. First call resolves it from cpuid,
/// lowered by UPANNS_SIMD if set (unknown values warn and are ignored;
/// unsupported values warn and clamp to the probe).
SimdLevel simd_active_level();

/// Override the active level (clamped to simd_max_supported, with a warning
/// when clamping). Returns the level actually in effect. Not thread-safe
/// against in-flight kernels; call before starting work.
SimdLevel set_simd_level(SimdLevel level);

}  // namespace upanns::common
