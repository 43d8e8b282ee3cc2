#ifndef SGNN_SIMD_KERNELS_H_
#define SGNN_SIMD_KERNELS_H_

#include "simd/simd.h"

namespace sgnn::simd::internal {

/// The portable backend; always available.
const KernelTable& ScalarTable();

/// The AVX2+FMA+PCLMUL backend, or nullptr when the build target cannot
/// express it (non-x86). Availability of the *running* CPU is probed
/// separately by `Supported()`; this only says the code exists.
const KernelTable* Avx2Table();

/// True when the running CPU reports AVX2, FMA and PCLMUL.
bool CpuHasAvx2FmaPclmul();

}  // namespace sgnn::simd::internal

#endif  // SGNN_SIMD_KERNELS_H_
