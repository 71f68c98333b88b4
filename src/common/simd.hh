/**
 * @file
 * The SIMD ISA a run reports in its fingerprint.
 *
 * No kernel in this repository dispatches on the ISA: the batched
 * predictors' set scans are plain loops (harness/batched_predictors.cc),
 * and a hand-written AVX2 path for them was measured slower on the
 * exhaustive autotuner search and removed.  The name stays because
 * benchmark fingerprints still record it.
 */

#ifndef TPRED_COMMON_SIMD_HH
#define TPRED_COMMON_SIMD_HH

namespace tpred::simd
{

/** The way-scan ISA, for run fingerprints: always "scalar". */
inline const char *
activeIsa()
{
    return "scalar";
}

} // namespace tpred::simd

#endif // TPRED_COMMON_SIMD_HH
