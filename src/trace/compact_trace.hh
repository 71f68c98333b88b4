/**
 * @file
 * Columnar compact trace storage.
 *
 * A recorded trace of N MicroOps costs N * sizeof(MicroOp) = 56 N
 * bytes as a vector — ~112 MB for a default 2M-op recording — yet
 * almost every field is redundant: instruction streams are coherent
 * (each op starts where the previous one resolved), fallthrough is
 * always pc + 4, most successor addresses *are* the fallthrough,
 * memory addresses and dispatch selectors are populated only on a
 * minority of ops, and register indices fit in a byte.
 *
 * CompactTrace exploits that with a structure-of-arrays encoding:
 *
 *  - one flags byte per op packs InstClass (3 bits), BranchKind
 *    (3 bits), the taken bit, and a "redirect" bit that marks
 *    nextPc != pc + 4;
 *  - redirect targets are stored as zigzag varints of nextPc - (pc+4)
 *    — branch displacements are small, so 1-3 bytes cover most;
 *  - pc itself is never stored: it is chained from the previous op's
 *    nextPc, with a sparse (position, pc) side array for the rare
 *    stream discontinuity (position 0 seeds the chain);
 *  - fallthrough is dropped entirely (reconstructed as pc + 4, with a
 *    sparse side array for hand-built ops that violate the invariant);
 *  - memAddr and selector live in sparse position-indexed columns
 *    touched only where non-zero, memAddr delta-varint coded against
 *    the previous memory address;
 *  - dstReg/srcRegs are biased to one byte each with a two's-
 *    complement i16 escape column for out-of-range values.
 *
 * Decoding is a branch-light forward scan that materializes ops in
 * blocks of kReplayBlock into a caller-owned buffer — no virtual call
 * and no 56-byte copy per op on the hot path.  A precomputed index of
 * control-transfer positions additionally lets accuracy experiments
 * decode *only* the branches and account for the ops in between
 * arithmetically (see forEachBranch and docs/trace_format.md).
 *
 * Storage is accessed through read-only spans, so a trace can be
 * backed two ways with one decoder:
 *
 *  - **owned** — encode() materializes heap vectors (behind a stable
 *    unique_ptr, so moves never invalidate the spans);
 *  - **borrowed** — fromColumns() views caller-provided memory, e.g.
 *    an mmap'd corpus file (src/corpus/), kept alive by an opaque
 *    shared backing handle.  Decode then runs zero-copy straight out
 *    of the page cache with no deserialization pass.
 *
 * The encoding is lossless for arbitrary MicroOp sequences; for
 * coherent generated workloads it is ~8-10x smaller than the vector.
 */

#ifndef TPRED_TRACE_COMPACT_TRACE_HH
#define TPRED_TRACE_COMPACT_TRACE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/branch_stream.hh"
#include "trace/micro_op.hh"

namespace tpred
{

/** Ops materialized per refill on the batch replay path. */
constexpr size_t kReplayBlock = 256;

/**
 * Read-only views of every column of a CompactTrace, in one flat
 * struct — the exchange format between the trace and its serialized
 * container (trace/compact_io.hh): writers iterate the spans,
 * loaders fill them in from mapped or buffered file sections.
 */
struct CompactColumns
{
    size_t count = 0;            ///< number of encoded ops
    bool fastBranchScan = false; ///< O(branches) scan applicable

    std::span<const uint8_t> flags;         ///< 1 byte per op
    std::span<const uint8_t> regBytes;      ///< 3 bytes per op
    std::span<const int16_t> regEscapes;    ///< out-of-range regs
    std::span<const uint8_t> targetDeltas;  ///< varint redirect deltas
    std::span<const uint32_t> discontPos;   ///< pc-chain breaks
    std::span<const uint64_t> discontPc;
    std::span<const uint32_t> memPos;       ///< ops with memAddr != 0
    std::span<const uint8_t> memDeltas;     ///< varint mem deltas
    std::span<const uint32_t> selPos;       ///< ops with selector != 0
    std::span<const uint8_t> selVals;       ///< varint selectors
    std::span<const uint32_t> fallPos;      ///< fallthrough overrides
    std::span<const uint64_t> fallVals;
    std::span<const uint32_t> branchPos;    ///< control-transfer index
};

class CompactTrace
{
  public:
    /** Empty trace. */
    CompactTrace() = default;

    CompactTrace(CompactTrace &&) = default;
    CompactTrace &operator=(CompactTrace &&) = default;

    /** Losslessly encodes @p ops (any sequence, coherent or not). */
    static CompactTrace encode(const std::vector<MicroOp> &ops);

    /**
     * Adopts already-encoded columns without copying them.  The spans
     * in @p cols must stay valid for the lifetime of @p backing (an
     * opaque keep-alive handle: a MappedFile, a file buffer, ...),
     * which the trace holds until destroyed.  This is the zero-copy
     * load path: decode cursors read straight from the viewed memory.
     *
     * The caller is responsible for the columns being internally
     * consistent (compact_io checks columnDefect() before handing
     * them here); no re-validation is performed.
     */
    static CompactTrace fromColumns(const CompactColumns &cols,
                                    std::shared_ptr<const void> backing);

    /**
     * Why decoding @p cols could read outside a column, or nullptr
     * when it cannot: the dense columns must match the op count,
     * paired sparse columns each other, branch positions must ascend
     * strictly below the op count, and every escape byte, redirect
     * flag and sparse position must have its entry in the column it
     * consumes (varint columns ending on a complete varint).
     */
    static const char *columnDefect(const CompactColumns &cols);

    /** The column views (serialization, diagnostics). */
    CompactColumns columns() const;

    /** Number of encoded ops. */
    size_t size() const { return count_; }

    /** True when forEachBranch may take the O(branches) scan. */
    bool fastBranchScan() const { return fastBranchScan_; }

    /** Positions of control-transfer ops, ascending (branch index). */
    std::span<const uint32_t> branchPositions() const
    {
        return branchPos_;
    }

    /** Bytes resident in the columnar encoding. */
    size_t residentBytes() const;

    /** Bytes the same trace costs as a std::vector<MicroOp>. */
    static size_t legacyBytes(size_t ops) { return ops * sizeof(MicroOp); }

    /**
     * Sequential block decoder.  Obtain via cursor(); refill a
     * caller-owned buffer with fill().  The cursor borrows the trace,
     * which must outlive it.
     */
    class Cursor
    {
      public:
        /**
         * Decodes up to @p cap ops into @p buf.
         * @return the number of ops produced; 0 at end of trace.
         */
        size_t fill(MicroOp *buf, size_t cap);

        /** Index of the next op fill() would produce. */
        size_t position() const { return pos_; }

      private:
        friend class CompactTrace;
        explicit Cursor(const CompactTrace &trace) : trace_(&trace) {}

        const CompactTrace *trace_;
        size_t pos_ = 0;       ///< next op index
        size_t targetByte_ = 0; ///< cursor into targetDeltas_
        size_t discontIdx_ = 0;
        size_t memIdx_ = 0;
        size_t memByte_ = 0;   ///< cursor into memDeltas_
        size_t selIdx_ = 0;
        size_t selByte_ = 0;   ///< cursor into selVals_
        size_t fallIdx_ = 0;
        size_t escIdx_ = 0;    ///< cursor into regEscapes_
        uint64_t expectedPc_ = 0;
        uint64_t prevMemAddr_ = 0;
    };

    Cursor cursor() const { return Cursor(*this); }

    /**
     * Devirtualized batch replay: decodes the whole trace in
     * kReplayBlock chunks through a stack buffer and invokes
     * fn(const MicroOp &) for every op, in order.
     */
    template <typename Fn>
    void
    forEachOp(Fn &&fn) const
    {
        MicroOp buf[kReplayBlock];
        Cursor cur = cursor();
        size_t n;
        while ((n = cur.fill(buf, kReplayBlock)) != 0) {
            for (size_t i = 0; i < n; ++i)
                fn(static_cast<const MicroOp &>(buf[i]));
        }
    }

    /**
     * Branch-index fast path: invokes fn(const MicroOp &, size_t
     * position) for control-transfer ops only, in order.  Non-branch
     * ops are skipped in bulk — the caller accounts for them from the
     * position gaps (only branches touch predictor state; a skipped
     * op contributes exactly one instruction to the counters).
     *
     * On coherent traces (no register escapes, no fallthrough
     * overrides, redirects only at branches, no memory address on a
     * branch — everything the workload generators emit) this runs in
     * O(branches), not O(ops): a branch's flags and registers are
     * fixed-stride columns addressed by position, and the pc chain
     * across a gap of g redirect-free ops is just +4g.  Hand-built
     * traces that violate a precondition fall back to a full
     * block-decode scan with identical results.
     */
    template <typename Fn>
    void
    forEachBranch(Fn &&fn) const
    {
        using F = std::remove_reference_t<Fn>;
        forEachBranchImpl(
            [](void *ctx, const MicroOp &op, size_t pos) {
                (*static_cast<F *>(ctx))(op, pos);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(fn))));
    }

    /** Full decode into a fresh vector (compatibility / tooling). */
    std::vector<MicroOp> decodeAll() const;

    /**
     * The dense branch stream of this trace, extracted lazily on
     * first request and cached for the trace's lifetime — all sweep
     * configurations and all threads share one extraction.
     *
     * Thread safety: concurrent callers race only on a call_once;
     * exactly one performs the extraction.  @p on_build, when given,
     * runs inside that once-block (after the build), so callers can
     * count builds deterministically regardless of scheduling.
     */
    const BranchStream &
    branchStream(const std::function<void()> &on_build = {}) const;

    /**
     * Seeds the lazy stream cache with an already-materialized stream
     * — the zero-copy corpus adoption path: a validated mmap'd TPBS
     * container (trace/stream_io.hh) becomes this trace's stream and
     * branchStream() never pays the extraction.  Copies of @p stream
     * are cheap (spans plus a shared backing handle).
     *
     * @return true when this call populated the cache; false when a
     *         stream was already built or adopted (the existing one
     *         wins — both are bit-identical by the container proofs).
     */
    bool adoptBranchStream(BranchStream stream) const;

    /** True when branchStream() has already been built (tests). */
    bool branchStreamBuilt() const;

  private:
    // Flags byte layout.
    static constexpr uint8_t kClsShift = 0;      // bits 0-2
    static constexpr uint8_t kBranchShift = 3;   // bits 3-5
    static constexpr uint8_t kTakenBit = 1u << 6;
    static constexpr uint8_t kRedirectBit = 1u << 7;

    // Register byte: kNoReg..253 biased by +1; 0xFF = escape column.
    static constexpr uint8_t kRegEscape = 0xFF;

    /**
     * Heap storage for encode()-built traces.  Held behind a
     * unique_ptr so the column spans stay valid across moves of the
     * owning CompactTrace; absent entirely for view-backed traces.
     */
    struct OwnedColumns
    {
        std::vector<uint8_t> flags;
        std::vector<uint8_t> regBytes;
        std::vector<int16_t> regEscapes;
        std::vector<uint8_t> targetDeltas;
        std::vector<uint32_t> discontPos;
        std::vector<uint64_t> discontPc;
        std::vector<uint32_t> memPos;
        std::vector<uint8_t> memDeltas;
        std::vector<uint32_t> selPos;
        std::vector<uint8_t> selVals;
        std::vector<uint32_t> fallPos;
        std::vector<uint64_t> fallVals;
        std::vector<uint32_t> branchPos;
    };

    /** Points the column spans at the owned vectors. */
    void bindOwned();

    /** Type-erased callback behind the forEachBranch template. */
    using BranchFn = void (*)(void *ctx, const MicroOp &op, size_t pos);
    void forEachBranchImpl(BranchFn fn, void *ctx) const;

    size_t count_ = 0;
    /// encode() verdict: true when the O(branches) scan is applicable.
    bool fastBranchScan_ = false;

    // Decode always reads through these spans, whether the bytes live
    // in owned_ or in the memory backing_ keeps alive.
    std::span<const uint8_t> flags_;        ///< 1 byte per op
    std::span<const uint8_t> regBytes_;     ///< 3 bytes per op (dst, s0, s1)
    std::span<const int16_t> regEscapes_;   ///< out-of-range regs, in order
    std::span<const uint8_t> targetDeltas_; ///< varint zigzag(nextPc-(pc+4))
    std::span<const uint32_t> discontPos_;  ///< ops where pc != chained pc
    std::span<const uint64_t> discontPc_;
    std::span<const uint32_t> memPos_;      ///< ops with memAddr != 0
    std::span<const uint8_t> memDeltas_;    ///< varint zigzag vs. previous
    std::span<const uint32_t> selPos_;      ///< ops with selector != 0
    std::span<const uint8_t> selVals_;      ///< varint selector values
    std::span<const uint32_t> fallPos_;     ///< ops w/ fallthrough != pc+4
    std::span<const uint64_t> fallVals_;
    std::span<const uint32_t> branchPos_;   ///< control-transfer index

    std::unique_ptr<OwnedColumns> owned_;   ///< encode()-built storage
    std::shared_ptr<const void> backing_;   ///< borrowed-view keep-alive

    /**
     * Once-per-trace lazy BranchStream cache.  std::once_flag and
     * std::atomic are immovable, so the box lives behind a shared_ptr
     * the (movable) trace carries; every handle to the same trace
     * shares one extraction.
     */
    struct StreamBox
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        BranchStream stream;
    };
    mutable std::shared_ptr<StreamBox> streamBox_ =
        std::make_shared<StreamBox>();
};

/**
 * Non-virtual replay source over a CompactTrace: the devirtualized
 * drop-in for the TraceSource pull loop.  next() is an inline bounds
 * check plus copy from an internal block buffer; the decoder runs
 * once per kReplayBlock ops.  A copy continues from the same op (a
 * forked timing member takes a copy of its lead's replay).  The trace
 * must outlive the source.
 */
class CompactReplay
{
  public:
    explicit CompactReplay(const CompactTrace &trace)
        : cursor_(trace.cursor())
    {
    }

    bool
    next(MicroOp &op)
    {
        if (pos_ == count_) {
            count_ = cursor_.fill(buf_, kReplayBlock);
            pos_ = 0;
            if (count_ == 0)
                return false;
        }
        op = buf_[pos_++];
        return true;
    }

  private:
    CompactTrace::Cursor cursor_;
    size_t pos_ = 0;
    size_t count_ = 0;
    MicroOp buf_[kReplayBlock];
};

} // namespace tpred

#endif // TPRED_TRACE_COMPACT_TRACE_HH
