/** @file Unit tests for binary trace serialization. */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "test_util.hh"
#include "trace/compact_io.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace tpred
{
namespace
{

std::vector<MicroOp>
sampleOps()
{
    std::vector<MicroOp> ops;
    ops.push_back(test::plainOp(0x100, InstClass::Load));
    ops.back().memAddr = 0xbeef8;
    ops.push_back(test::indirectOp(0x104, 0x4000, 7));
    ops.push_back(test::branchOp(0x4000, BranchKind::CondDirect, 0x200,
                                 false));
    return ops;
}

/** Writes @p ops through their columnar encoding. */
void
writeOps(std::ostream &out, const std::vector<MicroOp> &ops,
         const std::string &name)
{
    writeTrace(out, CompactTrace::encode(ops), name);
}

/** Reads a trace and decodes every op. */
std::vector<MicroOp>
readOps(std::istream &in, std::string &name)
{
    return readCompactTrace(in, name).decodeAll();
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    std::stringstream buffer;
    writeOps(buffer, sampleOps(), "sample");

    std::string name;
    auto ops = readOps(buffer, name);
    EXPECT_EQ(name, "sample");
    ASSERT_EQ(ops.size(), 3u);

    EXPECT_EQ(ops[0].pc, 0x100u);
    EXPECT_EQ(ops[0].cls, InstClass::Load);
    EXPECT_EQ(ops[0].memAddr, 0xbeef8u);
    EXPECT_EQ(ops[0].fallthrough, 0x104u);

    EXPECT_EQ(ops[1].branch, BranchKind::IndirectJump);
    EXPECT_EQ(ops[1].nextPc, 0x4000u);
    EXPECT_EQ(ops[1].selector, 7u);
    EXPECT_TRUE(ops[1].taken);

    EXPECT_EQ(ops[2].branch, BranchKind::CondDirect);
    EXPECT_FALSE(ops[2].taken);
    EXPECT_EQ(ops[2].nextPc, 0x4004u);
}

TEST(TraceIo, RoundTripRegisters)
{
    auto ops = sampleOps();
    ops[0].dstReg = 12;
    ops[0].srcRegs = {3, kNoReg};
    std::stringstream buffer;
    writeOps(buffer, ops, "r");
    std::string name;
    auto back = readOps(buffer, name);
    EXPECT_EQ(back[0].dstReg, 12);
    EXPECT_EQ(back[0].srcRegs[0], 3);
    EXPECT_EQ(back[0].srcRegs[1], kNoReg);
}

TEST(TraceIo, EmptyTrace)
{
    std::stringstream buffer;
    writeOps(buffer, std::vector<MicroOp>{}, "");
    std::string name;
    auto ops = readOps(buffer, name);
    EXPECT_TRUE(ops.empty());
    EXPECT_TRUE(name.empty());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buffer("this is not a trace file at all......");
    std::string name;
    EXPECT_THROW(readOps(buffer, name), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation)
{
    std::stringstream buffer;
    writeOps(buffer, sampleOps(), "t");
    std::string data = buffer.str();
    std::stringstream cut(data.substr(0, data.size() - 10));
    std::string name;
    EXPECT_THROW(readOps(cut, name), std::runtime_error);
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::stringstream buffer;
    writeOps(buffer, std::vector<MicroOp>{}, "v");
    // 99 is from the future; 1 is the retired per-record format.
    for (const char version : {99, 1}) {
        std::string data = buffer.str();
        data[4] = version;  // clobber the version field
        std::stringstream bad(data);
        std::string name;
        try {
            readOps(bad, name);
            FAIL() << "version " << int{version} << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unsupported trace file version"),
                      std::string::npos);
        }
    }
}

TEST(TraceIo, FileRoundTripOfWorkloadTrace)
{
    auto workload = makeWorkload("compress", 3);
    auto ops = drainTrace(*workload, 5000);
    const std::string path = "/tmp/tpred_test_trace.tpr";
    saveTraceFile(path, CompactTrace::encode(ops), "compress");

    std::string name;
    auto back = loadCompactTraceFile(path, name).decodeAll();
    EXPECT_EQ(name, "compress");
    ASSERT_EQ(back.size(), ops.size());
    for (size_t i = 0; i < ops.size(); i += 101) {
        EXPECT_EQ(back[i].pc, ops[i].pc);
        EXPECT_EQ(back[i].nextPc, ops[i].nextPc);
        EXPECT_EQ(back[i].cls, ops[i].cls);
        EXPECT_EQ(back[i].branch, ops[i].branch);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows)
{
    std::string name;
    EXPECT_THROW(loadCompactTraceFile("/nonexistent/path.tpr", name),
                 std::runtime_error);
}

TEST(TraceIo, CompactRoundTripSkipsTheMicroOpDetour)
{
    auto workload = makeWorkload("vortex", 5);
    const CompactTrace trace =
        CompactTrace::encode(drainTrace(*workload, 5000));
    const std::string path = "/tmp/tpred_test_trace_v2.tpr";
    saveTraceFile(path, trace, "vortex");

    std::string name;
    const CompactTrace back = loadCompactTraceFile(path, name);
    EXPECT_EQ(name, "vortex");
    ASSERT_EQ(back.size(), trace.size());

    // The v2 payload is the container image: re-serializing the
    // loaded trace must reproduce it byte for byte.
    EXPECT_EQ(serializeCompactTrace(back, name),
              serializeCompactTrace(trace, "vortex"));
    std::remove(path.c_str());
}

TEST(TraceIo, FileErrorsNameThePath)
{
    const std::string path = "/tmp/tpred_test_not_a_trace.tpr";
    std::ofstream(path, std::ios::binary)
        << "certainly not a trace file";
    std::string name;
    try {
        loadCompactTraceFile(path, name);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedV2FileErrorNamesThePath)
{
    const std::string path = "/tmp/tpred_test_truncated.tpr";
    {
        std::stringstream buffer;
        writeOps(buffer, sampleOps(), "t");
        const std::string data = buffer.str();
        std::ofstream out(path, std::ios::binary);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() - 9));
    }
    std::string name;
    try {
        loadCompactTraceFile(path, name);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tpred
