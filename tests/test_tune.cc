/**
 * @file
 * Autotuner suite: Pareto-frontier properties (no dominated survivor,
 * permutation invariance, exact rational rate comparison), config
 * space enumeration (size floors, unique ids, deterministic capped
 * subsampling, fail-loud unknown names), the successive-halving
 * engine's determinism contract (byte-identical results run-to-run
 * and serial vs parallel), the exhaustive-vs-halving differential on
 * the tiny and bench spaces, and the tune.* deterministic-counter
 * contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "obs/metrics.hh"
#include "tune/config_space.hh"
#include "tune/pareto.hh"
#include "tune/successive_halving.hh"
#include "tune/tune_report.hh"

namespace tpred::tune
{
namespace
{

ParetoPoint
point(uint64_t bits, uint64_t misses, uint64_t total,
      const std::string &id)
{
    ParetoPoint p;
    p.storageBits = bits;
    p.misses = misses;
    p.total = total;
    p.id = id;
    return p;
}

TEST(CompareMissRate, ExactRationalOrdering)
{
    EXPECT_LT(compareMissRate(1, 3, 1, 2), 0);
    EXPECT_GT(compareMissRate(1, 2, 1, 3), 0);
    EXPECT_EQ(compareMissRate(2, 4, 1, 2), 0);
    // A double can't tell these apart; the rational must.
    EXPECT_LT(compareMissRate(333'333'333'333ULL, 1'000'000'000'000ULL,
                              1, 3),
              0);
    // Zero totals compare as rate zero.
    EXPECT_EQ(compareMissRate(0, 0, 0, 100), 0);
    EXPECT_LT(compareMissRate(0, 0, 1, 100), 0);
}

TEST(ParetoFrontier, NoDominatedPointSurvives)
{
    std::vector<ParetoPoint> points = {
        point(100, 50, 100, "a"),  point(100, 40, 100, "b"),
        point(200, 40, 100, "c"),  point(200, 30, 100, "d"),
        point(400, 30, 100, "e"),  point(400, 10, 100, "f"),
        point(800, 20, 100, "g"),  // dominated by f
        point(50, 60, 100, "h"),
    };
    const std::vector<ParetoPoint> frontier = paretoFrontier(points);
    for (const ParetoPoint &p : frontier)
        for (const ParetoPoint &q : points)
            EXPECT_FALSE(dominates(q, p))
                << q.id << " dominates surviving " << p.id;
    // h (cheapest), b, d, f — c and g dominated, a beaten by b.
    ASSERT_EQ(frontier.size(), 4u);
    EXPECT_EQ(frontier[0].id, "h");
    EXPECT_EQ(frontier[1].id, "b");
    EXPECT_EQ(frontier[2].id, "d");
    EXPECT_EQ(frontier[3].id, "f");
    // Sorted ascending in storage, strictly descending in rate.
    for (size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_LT(frontier[i - 1].storageBits, frontier[i].storageBits);
        EXPECT_GT(compareMissRate(frontier[i - 1].misses,
                                  frontier[i - 1].total,
                                  frontier[i].misses,
                                  frontier[i].total),
                  0);
    }
}

TEST(ParetoFrontier, InvariantUnderPermutation)
{
    std::vector<ParetoPoint> points;
    for (uint64_t i = 0; i < 40; ++i)
        points.push_back(point(64 << (i % 5), (i * 7919) % 100, 100,
                               "p" + std::to_string(i)));
    const std::vector<ParetoPoint> want = paretoFrontier(points);
    std::mt19937 rng(42);
    for (int round = 0; round < 10; ++round) {
        std::shuffle(points.begin(), points.end(), rng);
        const std::vector<ParetoPoint> got = paretoFrontier(points);
        ASSERT_EQ(got.size(), want.size()) << "round " << round;
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i].id, want[i].id) << "round " << round;
    }
}

TEST(ParetoFrontier, EqualPointsKeepSmallestId)
{
    const std::vector<ParetoPoint> frontier = paretoFrontier(
        {point(100, 10, 100, "zeta"), point(100, 10, 100, "alpha")});
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].id, "alpha");
}

TEST(ConfigSpace, PresetsEnumerateDeterministically)
{
    for (const std::string &name : spaceNames()) {
        EXPECT_TRUE(isSpaceName(name));
        const ConfigSpace a = enumerateSpace(name);
        const ConfigSpace b = enumerateSpace(name);
        ASSERT_EQ(a.candidates.size(), b.candidates.size()) << name;
        for (size_t i = 0; i < a.candidates.size(); ++i) {
            EXPECT_EQ(a.candidates[i].id, b.candidates[i].id) << name;
            EXPECT_EQ(a.candidates[i].storageBits,
                      b.candidates[i].storageBits)
                << name;
        }
        // Unique ids and consistent hashes.
        std::vector<std::string> ids;
        for (const TuneCandidate &c : a.candidates) {
            ids.push_back(c.id);
            EXPECT_EQ(c.hash, candidateHash(c.id));
            EXPECT_GT(c.storageBits, 0u) << c.id;
        }
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
            << name << " has duplicate candidate ids";
    }
    EXPECT_FALSE(isSpaceName("nonsense"));
    EXPECT_THROW(enumerateSpace("nonsense"), std::invalid_argument);
}

TEST(ConfigSpace, StandardSpaceSpansAThousandConfigs)
{
    const ConfigSpace space = enumerateSpace("standard");
    EXPECT_GE(space.candidates.size(), 1000u);
    EXPECT_EQ(space.truncated(), 0u);
}

TEST(ConfigSpace, CapTruncatesDeterministically)
{
    const ConfigSpace full = enumerateSpace("standard");
    const ConfigSpace a = enumerateSpace("standard", 100);
    const ConfigSpace b = enumerateSpace("standard", 100);
    ASSERT_EQ(a.candidates.size(), 100u);
    EXPECT_EQ(a.enumerated, full.candidates.size());
    EXPECT_EQ(a.truncated(), full.candidates.size() - 100);
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].id, b.candidates[i].id);
    // The survivors are a subset of the full space, in its order.
    size_t cursor = 0;
    for (const TuneCandidate &c : a.candidates) {
        while (cursor < full.candidates.size() &&
               full.candidates[cursor].id != c.id)
            ++cursor;
        ASSERT_LT(cursor, full.candidates.size())
            << c.id << " not found in enumeration order";
        ++cursor;
    }
}

TEST(RungSchedule, GeometricWithClampsAndExactFinalRung)
{
    TuneOptions opt;
    opt.fullOps = 2'000'000;
    opt.rungs = 4;
    opt.eta = 4;
    const std::vector<size_t> want = {31'250, 125'000, 500'000,
                                      2'000'000};
    EXPECT_EQ(rungSchedule(opt), want);

    opt.rungs = 1;
    EXPECT_EQ(rungSchedule(opt), std::vector<size_t>{2'000'000});

    // Deep schedules clamp at minRungOps instead of hitting zero.
    opt.rungs = 12;
    opt.minRungOps = 2000;
    const std::vector<size_t> deep = rungSchedule(opt);
    ASSERT_EQ(deep.size(), 12u);
    EXPECT_EQ(deep.front(), 2000u);
    EXPECT_EQ(deep.back(), 2'000'000u);
    for (size_t i = 1; i < deep.size(); ++i)
        EXPECT_LE(deep[i - 1], deep[i]);
}

TEST(SuccessiveHalving, RejectsDegenerateOptions)
{
    const ConfigSpace space = enumerateSpace("tiny");
    TuneOptions opt;
    opt.fullOps = 20'000;

    TuneOptions bad = opt;
    bad.rungs = 0;
    EXPECT_THROW(runSuccessiveHalving(space, bad),
                 std::invalid_argument);
    bad = opt;
    bad.eta = 1;
    EXPECT_THROW(runSuccessiveHalving(space, bad),
                 std::invalid_argument);
    bad = opt;
    bad.fullOps = 0;
    EXPECT_THROW(runSuccessiveHalving(space, bad),
                 std::invalid_argument);
    bad = opt;
    bad.workloads = {"not-a-workload"};
    EXPECT_THROW(runSuccessiveHalving(space, bad),
                 std::invalid_argument);
}

void
expectSameResult(const TuneResult &want, const TuneResult &got)
{
    EXPECT_EQ(want.workloads, got.workloads);
    EXPECT_EQ(want.schedule, got.schedule);
    EXPECT_EQ(want.evals, got.evals);
    EXPECT_EQ(want.fullEvals, got.fullEvals);
    ASSERT_EQ(want.finalists.size(), got.finalists.size());
    for (size_t i = 0; i < want.finalists.size(); ++i) {
        EXPECT_EQ(want.finalists[i].candidate,
                  got.finalists[i].candidate);
        EXPECT_EQ(want.finalists[i].aggMisses,
                  got.finalists[i].aggMisses);
        EXPECT_EQ(want.finalists[i].aggTotal,
                  got.finalists[i].aggTotal);
    }
    ASSERT_EQ(want.aggregateFrontier.size(),
              got.aggregateFrontier.size());
    for (size_t i = 0; i < want.aggregateFrontier.size(); ++i) {
        EXPECT_EQ(want.aggregateFrontier[i].id,
                  got.aggregateFrontier[i].id);
        EXPECT_EQ(want.aggregateFrontier[i].misses,
                  got.aggregateFrontier[i].misses);
    }
}

TEST(SuccessiveHalving, DeterministicRunToRun)
{
    const ConfigSpace space = enumerateSpace("tiny");
    TuneOptions opt;
    opt.fullOps = 20'000;
    opt.rungs = 3;
    const TuneResult a = runSuccessiveHalving(space, opt);
    const TuneResult b = runSuccessiveHalving(space, opt);
    expectSameResult(a, b);
    // Down to the serialized report (the byte-identity the json-label
    // CLI tests assert end to end, minus the volatile runtime block).
    const auto deterministicPart = [&](const TuneResult &r) {
        return renderRungTable(r) +
               renderFrontierTable(r.aggregateFrontier);
    };
    EXPECT_EQ(deterministicPart(a), deterministicPart(b));
}

TEST(SuccessiveHalving, SerialAndParallelAgree)
{
    const ConfigSpace space = enumerateSpace("tiny");
    TuneOptions opt;
    opt.fullOps = 20'000;
    opt.rungs = 3;
    setDefaultJobs(1);
    const TuneResult serial = runSuccessiveHalving(space, opt);
    setDefaultJobs(3);
    const TuneResult parallel = runSuccessiveHalving(space, opt);
    setDefaultJobs(0);
    expectSameResult(serial, parallel);
}

TEST(SuccessiveHalving, HalvingFrontierMatchesExhaustive)
{
    // On spaces cheap enough to brute-force, every halving frontier
    // point must sit on the exhaustive frontier with identical
    // full-budget numbers, and the exhaustive winner must survive to
    // the halving finale.  On the ~115-config bench space the two
    // frontiers must be identical point for point, and halving must
    // pay at most a fifth of the exhaustive full-budget evaluations.
    const struct
    {
        const char *space;
        size_t fullOps;
        bool sameFrontierAtAFifth;
    } cases[] = {{"tiny", 40'000, false}, {"bench", 20'000, true}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.space);
        const ConfigSpace space = enumerateSpace(c.space);
        TuneOptions opt;
        opt.fullOps = c.fullOps;
        opt.rungs = 3;
        const TuneResult halving = runSuccessiveHalving(space, opt);
        const TuneResult exhaustive = runExhaustive(space, opt);

        EXPECT_EQ(exhaustive.fullEvals, exhaustive.exhaustiveEvals);
        EXPECT_LT(halving.fullEvals, exhaustive.fullEvals);
        ASSERT_FALSE(halving.aggregateFrontier.empty());

        for (const ParetoPoint &p : halving.aggregateFrontier) {
            EXPECT_TRUE(onFrontier(exhaustive.aggregateFrontier, p))
                << p.id << " not on the exhaustive frontier";
            for (const ParetoPoint &q : exhaustive.aggregateFrontier) {
                if (q.id != p.id)
                    continue;
                // Same full-budget evaluation, bit for bit.
                EXPECT_EQ(q.misses, p.misses) << p.id;
                EXPECT_EQ(q.total, p.total) << p.id;
            }
        }

        // The exhaustive winner (lowest aggregate rate, canonical
        // tie-break) is the halving frontier's most accurate point.
        const ParetoPoint &want = exhaustive.aggregateFrontier.back();
        const ParetoPoint &got = halving.aggregateFrontier.back();
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.misses, want.misses);
        EXPECT_EQ(got.total, want.total);

        if (!c.sameFrontierAtAFifth)
            continue;
        EXPECT_LE(halving.fullEvals * 5, exhaustive.fullEvals);
        ASSERT_EQ(halving.aggregateFrontier.size(),
                  exhaustive.aggregateFrontier.size());
        for (size_t i = 0; i < halving.aggregateFrontier.size(); ++i) {
            EXPECT_EQ(halving.aggregateFrontier[i].id,
                      exhaustive.aggregateFrontier[i].id);
            EXPECT_EQ(halving.aggregateFrontier[i].misses,
                      exhaustive.aggregateFrontier[i].misses);
            EXPECT_EQ(halving.aggregateFrontier[i].total,
                      exhaustive.aggregateFrontier[i].total);
        }
    }
}

TEST(SuccessiveHalving, CountersFollowTheTrajectory)
{
    const auto counter = [](const obs::MetricsSnapshot &snap,
                            const char *name) -> uint64_t {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    const ConfigSpace space = enumerateSpace("tiny");
    TuneOptions opt;
    opt.fullOps = 20'000;
    opt.rungs = 3;

    const obs::MetricsSnapshot before = obs::globalMetrics().snapshot();
    const TuneResult result = runSuccessiveHalving(space, opt);
    const obs::MetricsSnapshot after = obs::globalMetrics().snapshot();

    EXPECT_EQ(counter(after, "tune.rungs") - counter(before, "tune.rungs"),
              result.rungs.size());
    EXPECT_EQ(counter(after, "tune.evals") - counter(before, "tune.evals"),
              result.evals);
    EXPECT_EQ(counter(after, "tune.full_evals") -
                  counter(before, "tune.full_evals"),
              result.fullEvals);
    EXPECT_EQ(counter(after, "tune.frontier_size") -
                  counter(before, "tune.frontier_size"),
              result.aggregateFrontier.size());
    uint64_t promoted = 0;
    for (const RungRecord &r : result.rungs)
        promoted += r.promoted;
    EXPECT_EQ(counter(after, "tune.promotions") -
                  counter(before, "tune.promotions"),
              promoted);
}

TEST(TuneReport, CarriesTheContractSections)
{
    const ConfigSpace space = enumerateSpace("tiny");
    TuneOptions opt;
    opt.fullOps = 20'000;
    opt.rungs = 2;
    const TuneResult result = runSuccessiveHalving(space, opt);
    obs::RunReport report =
        makeTuneReport("test_tune", space, opt, result);
    report.captureProcess();
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\": \"tpred-tune-report/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"space\": \"tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"tune.evals\""), std::string::npos);
    EXPECT_NE(json.find("\"frontier_aggregate\""), std::string::npos);
    EXPECT_NE(json.find("\"rungs\""), std::string::npos);
}

} // namespace
} // namespace tpred::tune
