// How the repo's vector kernels are built and dispatched: the Viterbi
// ACS (baseband/viterbi_kernel.cpp), the FFT butterflies
// (baseband/fft.cpp), the channel FIR (baseband/channel.cpp) and the
// network cell kernel (sim/netkernel_batch.cpp). Internal to those four
// translation units, which src/CMakeLists.txt's one flag list builds.
//
// Each kernel is one GCC/Clang vector-extension source. Its generic
// 32-byte vectors lower to SSE2 pairs on baseline x86-64;
// ACORN_TARGET_CLONES adds an AVX2 clone that the dynamic linker picks
// at load time, so one portable binary still uses the full 256-bit units
// where they exist. The AVX2 target does not enable FMA, and the four
// files build with -ffp-contract=off, so every clone rounds each IEEE
// multiply and add on its own, exactly as the scalar oracles do.
//
// A helper taking or returning a vector must be inlined into the clone
// that calls it (ACORN_VECTOR_INLINE): out of line it is compiled for
// the baseline target, which passes 32-byte vectors in memory, while the
// AVX2 clone passes them in ymm registers.
//
// target_clones dispatches through an IFUNC resolver that the dynamic
// loader runs before sanitizer runtimes initialize; ThreadSanitizer
// binaries segfault on it, so the kernels clone only in uninstrumented
// builds.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define ACORN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ACORN_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(ACORN_TSAN)
#define ACORN_VECTOR_CLONES 1
#define ACORN_TARGET_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ACORN_VECTOR_CLONES 0
#define ACORN_TARGET_CLONES
#endif

#define ACORN_VECTOR_INLINE inline __attribute__((always_inline))

namespace acorn::util {

/// One vector of type V from `p`, which need not be aligned.
template <typename V>
ACORN_VECTOR_INLINE V vload(const void* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

/// `v` to `p`, which need not be aligned.
template <typename V>
ACORN_VECTOR_INLINE void vstore(void* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

}  // namespace acorn::util
