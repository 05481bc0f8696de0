// Build guard shared by the baseband's vector kernels: the Viterbi ACS
// (viterbi_kernel.cpp), the FFT butterflies (fft.cpp) and the channel
// FIR (channel.cpp). Internal to those three translation units.
//
// Each kernel is one GCC/Clang vector-extension source. Its generic
// 32-byte vectors lower to SSE2 pairs on baseline x86-64;
// ACORN_TARGET_CLONES adds an AVX2 clone that the dynamic linker picks
// at load time, so one portable binary still uses the full 256-bit units
// where they exist. The AVX2 target does not enable FMA, and the three
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
