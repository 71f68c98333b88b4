/** @file Unit tests for the data cache model. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "uarch/dcache.hh"

namespace tpred
{
namespace
{

DCacheConfig
tiny()
{
    DCacheConfig config;
    config.sizeBytes = 1024;
    config.lineBytes = 32;
    config.ways = 2;
    return config;  // 16 sets
}

TEST(DCache, PaperGeometry)
{
    DCacheConfig config;
    EXPECT_EQ(config.sizeBytes, 16u * 1024);
    EXPECT_EQ(config.missLatency, 20u);
    EXPECT_EQ(config.sets(), 128u);
}

/**
 * access() indexes sets and line offsets by bit fields, so a geometry
 * without whole power-of-two fields is rejected in every build, naming
 * the field: no ways or no line bytes would divide by zero, and 3000
 * bytes of 32-byte 4-way lines would be 23 sets of which the index
 * reaches 16.
 */
TEST(DCache, RejectsUnindexableGeometry)
{
    const auto rejection = [](const DCacheConfig &config) -> std::string {
        try {
            DCache cache(config);
        } catch (const std::invalid_argument &e) {
            return e.what();
        }
        return "";
    };
    DCacheConfig config;
    EXPECT_EQ(rejection(config), "");
    config.ways = 0;
    EXPECT_NE(rejection(config).find("ways"), std::string::npos);
    config = DCacheConfig{};
    config.lineBytes = 0;
    EXPECT_NE(rejection(config).find("lineBytes"), std::string::npos);
    config.lineBytes = 24;
    EXPECT_NE(rejection(config).find("lineBytes"), std::string::npos);
    config = DCacheConfig{};
    for (unsigned size : {3000u, 64u, 3u * 32 * 4 * 16}) {
        config.sizeBytes = size;  // 23.4, half a set, 48 sets
        EXPECT_NE(rejection(config).find("sizeBytes"), std::string::npos)
            << size;
    }
    config = DCacheConfig{};
    config.ways = 3;
    config.sizeBytes = 3 * 32 * 64;  // 64 sets of three ways
    EXPECT_EQ(rejection(config), "");
}

TEST(DCache, ColdMissThenHit)
{
    DCache cache(tiny());
    EXPECT_EQ(cache.access(0x1000, false), 21u);
    EXPECT_EQ(cache.access(0x1000, false), 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DCache, SameLineHits)
{
    DCache cache(tiny());
    cache.access(0x1000, false);
    EXPECT_EQ(cache.access(0x101f, false), 1u);  // same 32B line
    EXPECT_EQ(cache.access(0x1020, false), 21u); // next line
}

TEST(DCache, StoresAllocate)
{
    DCache cache(tiny());
    cache.access(0x2000, true);
    EXPECT_EQ(cache.access(0x2000, false), 1u);
}

TEST(DCache, ConflictEviction)
{
    // 16 sets x 32B lines: addresses 0x200 apart share a set.
    DCache cache(tiny());
    cache.access(0x0, false);
    cache.access(0x200, false);
    cache.access(0x0, false);    // refresh LRU
    cache.access(0x400, false);  // evicts 0x200
    EXPECT_EQ(cache.access(0x0, false), 1u);
    EXPECT_EQ(cache.access(0x200, false), 21u);
}

TEST(DCache, MissRateOverWorkingSetLargerThanCache)
{
    DCache cache(tiny());
    // Cycle a 4 KB working set through a 1 KB cache: ~all misses.
    for (int round = 0; round < 4; ++round)
        for (uint64_t a = 0; a < 4096; a += 32)
            cache.access(a, false);
    EXPECT_GT(cache.stats().missRate(), 0.9);
}

TEST(DCache, HitRateOverSmallWorkingSet)
{
    DCache cache(tiny());
    for (int round = 0; round < 16; ++round)
        for (uint64_t a = 0; a < 512; a += 32)
            cache.access(a, false);
    EXPECT_GT(1.0 - cache.stats().missRate(), 0.9);
}

} // namespace
} // namespace tpred
