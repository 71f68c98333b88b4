/**
 * @file
 * Binary trace serialization.
 *
 * Lets users capture a workload's dynamic instruction stream once and
 * replay it across experiments or ship it alongside results — the
 * moral equivalent of the paper's trace files.
 *
 * A trace file is the "TPRT" magic and a version word followed by a
 * serialized CompactTrace container (trace/compact_io.hh): the
 * columnar encoding goes to disk verbatim, with per-section CRC32C
 * integrity checking, and loads back with **no MicroOp round-trip**
 * — the ~8-10x on-disk size win matches the in-memory one.  Version
 * 2 is the only version; the retired per-record version 1 is
 * rejected like any other unsupported version.
 *
 * All loads are buffered: a file is read in a single pass into
 * memory and parsed from there (never one istream read per record),
 * and every parse error names the offending input.
 */

#ifndef TPRED_TRACE_TRACE_IO_HH
#define TPRED_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/compact_trace.hh"

namespace tpred
{

/** Magic bytes identifying a trace file ("TPRT"). */
constexpr uint32_t kTraceMagic = 0x54505254;

/** Current version: compact-container payload. */
constexpr uint32_t kTraceVersion = 2;

/**
 * Writes @p trace to @p out — the columnar encoding is serialized
 * directly, without materializing MicroOps.
 * @throws std::runtime_error on stream failure.
 */
void writeTrace(std::ostream &out, const CompactTrace &trace,
                const std::string &name);

/**
 * Reads a trace into its columnar form, adopting the columns from
 * the file image directly — no per-op decode.  The whole stream is
 * consumed in one buffered read.
 * @param name_out Receives the recorded stream name.
 * @throws std::runtime_error on bad magic, version or corruption.
 */
CompactTrace readCompactTrace(std::istream &in, std::string &name_out);

/** File-path convenience wrappers; errors name @p path. */
void saveTraceFile(const std::string &path, const CompactTrace &trace,
                   const std::string &name);
CompactTrace loadCompactTraceFile(const std::string &path,
                                  std::string &name_out);

} // namespace tpred

#endif // TPRED_TRACE_TRACE_IO_HH
