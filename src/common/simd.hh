/**
 * @file
 * Way-scan kernels for the batched sweep hot loops.
 *
 * The fused sweep kernel's per-branch cost is dominated by two scans
 * over a tagged bank's way columns: the tag-match probe (valid &&
 * tag == needle) and the allocation victim scan (first invalid way,
 * else the true-LRU minimum).  Both walk small contiguous SoA
 * columns.  They are plain loops: a hand-written AVX2 path was
 * measured slower than these on the exhaustive autotuner search and
 * was removed.
 *
 * Order is part of the contract: findTagMatch returns the FIRST
 * matching way, and findVictim returns the FIRST invalid way, else
 * the FIRST way holding the minimum lastUsed value (ties keep the
 * lowest index).
 */

#ifndef TPRED_COMMON_SIMD_HH
#define TPRED_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace tpred::simd
{

/** "No way matched" sentinel, distinct from every way index. */
inline constexpr size_t kNone = static_cast<size_t>(-1);

/** The way-scan ISA, for run fingerprints: always "scalar". */
inline const char *
activeIsa()
{
    return "scalar";
}

/**
 * Index of the first way with valid[w] && tags[w] == tag, or kNone.
 * @p valid and @p tags are parallel columns of one set's ways.
 */
inline size_t
findTagMatch(const uint8_t *valid, const uint64_t *tags, size_t ways,
             uint64_t tag)
{
    for (size_t w = 0; w < ways; ++w) {
        if (valid[w] && tags[w] == tag)
            return w;
    }
    return kNone;
}

/**
 * Allocation victim for one set: the first invalid way, else the
 * first way holding the minimum lastUsed (true LRU, lowest index on
 * ties).  Never kNone — a set always yields a victim.
 */
inline size_t
findVictim(const uint8_t *valid, const uint64_t *last_used,
           size_t ways)
{
    size_t e = 0;
    for (size_t w = 0; w < ways; ++w) {
        if (!valid[w])
            return w;
        if (last_used[w] < last_used[e])
            e = w;
    }
    return e;
}

} // namespace tpred::simd

#endif // TPRED_COMMON_SIMD_HH
