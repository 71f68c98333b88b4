/**
 * @file
 * Functional-unit latencies (paper Table 3).
 *
 * "Each functional unit can execute instructions from any of the
 * instruction classes" — so the pool is modelled as a count of
 * identical units plus a per-class latency table.  The OCR of Table 3
 * is partially garbled; the assumed values below are the standard
 * latencies of the era and are called out in DESIGN.md section 5.
 */

#ifndef TPRED_UARCH_FU_POOL_HH
#define TPRED_UARCH_FU_POOL_HH

#include <array>
#include <cstdint>

#include "trace/micro_op.hh"

namespace tpred
{

/**
 * Per-class latency table in InstClass order: Integer, FpAdd, Mul,
 * Div, Load, Store, BitField, Branch.  Load latency here is the
 * execute stage only; the data-cache model adds hit/miss time on top.
 */
inline constexpr std::array<unsigned, kNumInstClasses> kExecutionLatencies =
    {1, 3, 3, 8, 1, 1, 1, 1};

/** Execution latency of one instruction class, in cycles. */
inline unsigned
executionLatency(InstClass cls)
{
    return kExecutionLatencies[static_cast<size_t>(cls)];
}

/** Per-class latency table in InstClass order (for reporting). */
inline const std::array<unsigned, kNumInstClasses> &
latencyTable()
{
    return kExecutionLatencies;
}

} // namespace tpred

#endif // TPRED_UARCH_FU_POOL_HH
