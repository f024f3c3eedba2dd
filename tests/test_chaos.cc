/**
 * @file
 * Chaos suite for the serving stack's failure model: deterministic
 * fault injection, structured Status propagation, per-request timeouts
 * with cooperative cancellation, bounded retry/quarantine, watchdog
 * crash-respawn and hang-kick, and a multi-round overload fuzz that
 * asserts the hard invariants — no future is ever lost or fulfilled
 * twice, every failure carries a taxonomy code, and every success
 * replays bit-identically through the engine's synchronous entry
 * points.  Run under ASan/UBSan in CI, in both SIMD dispatch modes.
 *
 * Every test arms a ScopedFaultPlan with a fixed seed, so a failing
 * round reproduces exactly by rerunning the binary: fire decisions are
 * a pure hash of (seed, site, key), independent of thread timing.
 */

#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "core/status.h"
#include "data/digits.h"
#include "serving/frontend.h"

namespace aqfpsc::serving {
namespace {

using core::FaultPlan;
using core::FaultSite;
using core::ScopedFaultPlan;
using core::Status;
using core::StatusCode;
using core::StatusError;

std::vector<nn::Sample>
testImages(int n)
{
    return data::generateDigits(n, 77);
}

core::EngineOptions
engineOpts(std::size_t stream_len = 128)
{
    core::EngineOptions opts;
    opts.streamLen = stream_len;
    return opts;
}

void
addTinyModel(ServingFrontend &fe, std::size_t stream_len = 128)
{
    fe.addModel("m", core::buildTinyCnn(3), engineOpts(stream_len));
}

TenantConfig
tenant(const std::string &name)
{
    TenantConfig cfg;
    cfg.name = name;
    cfg.model = "m";
    return cfg;
}

/** A watchdog fast enough for test-scale supervision assertions. */
FrontendOptions
supervisedOpts(int workers)
{
    FrontendOptions opts;
    opts.workers = workers;
    opts.watchdogSeconds = 0.01;
    opts.stallSeconds = 0.03;
    return opts;
}

// ---------------------------------------------------------------------
// The injection framework itself.

TEST(FaultInjection, DecisionsAreDeterministicInSeedSiteKey)
{
    FaultPlan a(42);
    FaultPlan b(42);
    FaultPlan c(43);
    a.arm(FaultSite::WorkerException, 0.3);
    b.arm(FaultSite::WorkerException, 0.3);
    c.arm(FaultSite::WorkerException, 0.3);
    std::size_t fires = 0;
    std::size_t disagrees = 0;
    for (std::uint64_t key = 0; key < 2000; ++key) {
        const bool fa = a.decides(FaultSite::WorkerException, key);
        EXPECT_EQ(fa, b.decides(FaultSite::WorkerException, key));
        fires += fa ? 1u : 0u;
        disagrees +=
            fa != c.decides(FaultSite::WorkerException, key) ? 1u : 0u;
    }
    // ~30% fire rate, and a different seed draws a different pattern.
    EXPECT_GT(fires, 400u);
    EXPECT_LT(fires, 800u);
    EXPECT_GT(disagrees, 0u);
}

TEST(FaultInjection, ProbabilityEndpointsAndMaxFires)
{
    FaultPlan plan(7);
    plan.arm(FaultSite::WorkerException, 1.0);
    plan.arm(FaultSite::WorkerCrash, 0.0);
    plan.arm(FaultSite::EngineCompile, 1.0, std::chrono::milliseconds{0},
             2);
    for (std::uint64_t key = 0; key < 64; ++key) {
        EXPECT_TRUE(plan.decides(FaultSite::WorkerException, key));
        EXPECT_FALSE(plan.decides(FaultSite::WorkerCrash, key));
    }
    // maxFires caps the counted tryFire path, not the pure decision.
    EXPECT_TRUE(plan.tryFire(FaultSite::EngineCompile, 1));
    EXPECT_TRUE(plan.tryFire(FaultSite::EngineCompile, 2));
    EXPECT_FALSE(plan.tryFire(FaultSite::EngineCompile, 3));
    EXPECT_EQ(plan.fired(FaultSite::EngineCompile), 2u);
}

TEST(FaultInjection, ScopedPlanInstallsAndDisarms)
{
    EXPECT_EQ(core::fault::activePlan(), nullptr);
    EXPECT_FALSE(core::fault::shouldFire(FaultSite::WorkerException, 0));
    {
        FaultPlan plan(1);
        plan.arm(FaultSite::WorkerException, 1.0);
        ScopedFaultPlan scope(plan);
        EXPECT_EQ(core::fault::activePlan(), &plan);
        EXPECT_TRUE(
            core::fault::shouldFire(FaultSite::WorkerException, 0));
    }
    EXPECT_EQ(core::fault::activePlan(), nullptr);
    EXPECT_FALSE(core::fault::shouldFire(FaultSite::WorkerException, 0));
}

TEST(FaultInjection, EngineCompileFailureSurfacesAsStatusError)
{
    FaultPlan plan(5);
    plan.arm(FaultSite::EngineCompile, 1.0);
    ScopedFaultPlan scope(plan);
    const core::InferenceSession session(core::buildTinyCnn(3),
                                         engineOpts());
    try {
        session.engine();
        FAIL() << "engine compile should have failed by injection";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code, StatusCode::EngineCompileFailed);
    }
}

// ---------------------------------------------------------------------
// Retry, quarantine, timeout.

TEST(ChaosRetry, PoisonRequestsQuarantineAfterRetryBudget)
{
    FaultPlan plan(9);
    // Every serve attempt throws: chunk and per-request isolation both.
    plan.arm(FaultSite::WorkerException, 1.0);
    ScopedFaultPlan scope(plan);

    ServingFrontend fe(supervisedOpts(2));
    addTinyModel(fe);
    TenantConfig cfg = tenant("t");
    cfg.maxRetries = 2;
    cfg.retryBackoffSeconds = 0.001;
    fe.addTenant(cfg);
    fe.start();

    const auto samples = testImages(6);
    std::vector<std::future<ServedResult>> futures;
    for (const auto &s : samples)
        futures.push_back(fe.submit("t", s.image));
    std::size_t quarantined = 0;
    for (auto &f : futures) {
        try {
            f.get();
            ADD_FAILURE() << "expected every request to fail";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code, StatusCode::Quarantined);
            ++quarantined;
        }
    }
    fe.shutdown();
    EXPECT_EQ(quarantined, samples.size());

    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.submitted, samples.size());
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.failed, samples.size());
    EXPECT_EQ(stats.quarantined, samples.size());
    // maxRetries extra attempts per request, every one retried.
    EXPECT_EQ(stats.retried, 2 * samples.size());
    const HealthSnapshot health = fe.health();
    EXPECT_EQ(health.quarantined, samples.size());
    EXPECT_EQ(health.failed, samples.size());
}

TEST(ChaosRetry, TransientFaultsAreRetriedToSuccess)
{
    FaultPlan plan(13);
    // The first two chunk dispatches throw, then the site goes quiet:
    // the isolation rerun / retry path must finish every request.
    plan.arm(FaultSite::WorkerException, 1.0,
             std::chrono::milliseconds{0}, 2);
    ScopedFaultPlan scope(plan);

    ServingFrontend fe(supervisedOpts(1));
    addTinyModel(fe);
    TenantConfig cfg = tenant("t");
    cfg.maxRetries = 3;
    cfg.retryBackoffSeconds = 0.001;
    fe.addTenant(cfg);
    fe.start();

    const auto samples = testImages(8);
    std::vector<std::future<ServedResult>> futures;
    for (const auto &s : samples)
        futures.push_back(fe.submit("t", s.image));
    for (auto &f : futures)
        EXPECT_EQ(f.get().prediction.scores.size(), 10u);
    fe.shutdown();
    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.completed, samples.size());
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ChaosTimeout, SlowdownTripsPerRequestTimeout)
{
    FaultPlan plan(21);
    // One injected 300 ms stall against a 40 ms budget.  The default
    // stallSeconds (1 s) keeps the watchdog out of the way: the stalled
    // run must be cancelled by its own deadline, mid-run, not kicked.
    plan.arm(FaultSite::WorkerSlowdown, 1.0,
             std::chrono::milliseconds{300}, 1);
    ScopedFaultPlan scope(plan);

    FrontendOptions opts;
    opts.workers = 1;
    ServingFrontend fe(opts);
    addTinyModel(fe);
    TenantConfig cfg = tenant("t");
    cfg.timeoutSeconds = 0.04;
    fe.addTenant(cfg);
    fe.start();

    const auto samples = testImages(6);
    std::vector<std::future<ServedResult>> futures;
    futures.push_back(fe.submit("t", samples[0].image));
    std::size_t completed = 0;
    std::size_t timed_out = 0;
    try {
        futures[0].get();
        ++completed;
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code, StatusCode::Timeout);
        ++timed_out;
    }
    EXPECT_EQ(timed_out, 1u) << "the 40 ms budget must cancel the "
                                "stalled run mid-slowdown";

    // The slowdown is spent (maxFires = 1): later requests run clean
    // and complete inside the same budget.
    for (std::size_t i = 1; i < samples.size(); ++i)
        futures.push_back(fe.submit("t", samples[i].image));
    for (std::size_t i = 1; i < futures.size(); ++i) {
        try {
            futures[i].get();
            ++completed;
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code, StatusCode::Timeout);
            ++timed_out;
        }
    }
    fe.shutdown();
    EXPECT_GE(completed, 1u);
    EXPECT_EQ(completed + timed_out, samples.size());
    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.timedOut, timed_out);
    EXPECT_EQ(stats.completed + stats.failed, samples.size());
}

// ---------------------------------------------------------------------
// Worker supervision.

TEST(ChaosSupervision, RearmCountsOneBeat)
{
    // Starting a run is progress: the watchdog's stall window restarts
    // at every rearm, so a kicked batch's isolation re-run is not
    // kicked again before its first checkpoint.
    core::RunControl control;
    EXPECT_EQ(control.beats(), 0u);
    control.requestCancel();
    control.rearm();
    EXPECT_EQ(control.beats(), 1u);
    EXPECT_FALSE(control.cancelRequested());
    EXPECT_EQ(control.poll(), StatusCode::Ok);
    EXPECT_EQ(control.beats(), 2u);
    control.rearm(std::chrono::steady_clock::now() +
                  std::chrono::hours(1));
    EXPECT_EQ(control.beats(), 3u);
    // The stall probes themselves never beat.
    EXPECT_FALSE(control.cancelRequested());
    EXPECT_FALSE(control.expired());
    EXPECT_EQ(control.beats(), 3u);
}

TEST(ChaosSupervision, CrashedWorkerIsRespawnedAndBatchRetried)
{
    FaultPlan plan(31);
    // The first popped batch kills its worker thread outright.
    plan.arm(FaultSite::WorkerCrash, 1.0, std::chrono::milliseconds{0},
             1);
    ScopedFaultPlan scope(plan);

    ServingFrontend fe(supervisedOpts(1));
    addTinyModel(fe);
    TenantConfig cfg = tenant("t");
    cfg.maxRetries = 2;
    cfg.retryBackoffSeconds = 0.001;
    fe.addTenant(cfg);
    fe.start();

    const auto samples = testImages(6);
    std::vector<std::future<ServedResult>> futures;
    for (const auto &s : samples)
        futures.push_back(fe.submit("t", s.image));
    for (auto &f : futures) {
        const ServedResult r = f.get();
        EXPECT_EQ(r.prediction.scores.size(), 10u);
    }
    const HealthSnapshot health = fe.health();
    fe.shutdown();
    EXPECT_GE(health.respawns, 1u);
    EXPECT_EQ(health.workersAlive, 1);
    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.completed, samples.size());
    EXPECT_GE(stats.retried, 1u);
}

TEST(ChaosSupervision, WedgedWorkerIsKickedByTheWatchdog)
{
    FaultPlan plan(37);
    // A 10 s hang against a 30 ms stall threshold: without the kick
    // this test cannot finish in time; with it, the hang aborts at its
    // next 1 ms slice and the batch recovers per-request.
    plan.arm(FaultSite::WorkerHang, 1.0, std::chrono::milliseconds{10000},
             1);
    ScopedFaultPlan scope(plan);

    ServingFrontend fe(supervisedOpts(1));
    addTinyModel(fe);
    fe.addTenant(tenant("t"));
    fe.start();

    const auto samples = testImages(4);
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::future<ServedResult>> futures;
    for (const auto &s : samples)
        futures.push_back(fe.submit("t", s.image));
    for (auto &f : futures)
        EXPECT_EQ(f.get().prediction.scores.size(), 10u);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    const HealthSnapshot health = fe.health();
    fe.shutdown();
    EXPECT_GE(health.watchdogKicks, 1u);
    EXPECT_LT(elapsed, 5.0) << "the kick must preempt the 10 s hang";
    EXPECT_EQ(fe.tenantStats("t").completed, samples.size());
}

// ---------------------------------------------------------------------
// The multi-round overload fuzz.

TEST(ChaosFuzz, OverloadWithFaultsLosesNothingAndReplaysBitIdentically)
{
    const auto samples = testImages(30);

    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        FaultPlan plan(seed);
        plan.arm(FaultSite::WorkerException, 0.08);
        plan.arm(FaultSite::WorkerCrash, 0.03);
        plan.arm(FaultSite::WorkerSlowdown, 0.10,
                 std::chrono::milliseconds{3});
        plan.arm(FaultSite::WorkerHang, 0.01,
                 std::chrono::milliseconds{2000});
        ScopedFaultPlan scope(plan);

        FrontendOptions opts = supervisedOpts(2);
        opts.maxBatch = 4;
        opts.policy = SchedPolicy::WeightedFair;
        opts.stallSeconds = 0.05;
        ServingFrontend fe(opts);
        addTinyModel(fe);

        TenantConfig gold = tenant("gold");
        gold.weight = 3.0;
        gold.queueCapacity = 16;
        gold.adaptive = true;
        gold.policy.checkpointCycles = 64;
        gold.policy.exitMargin = 0.10;
        gold.policy.minCycles = 64;
        gold.deadlineSeconds = 0.2;
        gold.shed.enabled = true;
        gold.shed.marginFloor = 0.02;
        gold.shed.minCyclesFloor = 64;
        gold.maxRetries = 2;
        gold.retryBackoffSeconds = 0.001;
        fe.addTenant(gold);

        TenantConfig bulk = tenant("bulk");
        bulk.queueCapacity = 16;
        bulk.timeoutSeconds = 0.5;
        bulk.maxRetries = 1;
        bulk.retryBackoffSeconds = 0.001;
        fe.addTenant(bulk);
        fe.start();

        // Overload: ~1.5x the combined queue capacity per burst wave,
        // admission-controlled through trySubmit.
        struct Pending
        {
            std::string tenant;
            const nn::Tensor *image;
            std::future<ServedResult> future;
        };
        std::vector<Pending> pending;
        std::size_t rejected = 0;
        for (int wave = 0; wave < 3; ++wave) {
            for (std::size_t i = 0; i < 48; ++i) {
                const std::string name = i % 2 ? "bulk" : "gold";
                const nn::Tensor &image = samples[i % samples.size()].image;
                auto f = fe.trySubmit(name, image);
                if (f)
                    pending.push_back({name, &image, std::move(*f)});
                else
                    ++rejected;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }

        struct Success
        {
            std::string tenant;
            const nn::Tensor *image;
            ServedResult result;
        };
        std::vector<Success> successes;
        std::set<std::uint64_t> successIds;
        std::size_t failed = 0;
        for (Pending &p : pending) {
            try {
                ServedResult r = p.future.get();
                EXPECT_TRUE(successIds.insert(r.requestId).second)
                    << "duplicate requestId " << r.requestId;
                successes.push_back(
                    {p.tenant, p.image, std::move(r)});
            } catch (const StatusError &e) {
                const StatusCode code = e.status().code;
                EXPECT_TRUE(code == StatusCode::Timeout ||
                            code == StatusCode::Quarantined ||
                            code == StatusCode::Cancelled)
                    << "unexpected failure taxonomy: "
                    << e.status().toString();
                ++failed;
            }
            // Anything else (std::future_error from a lost promise,
            // a foreign exception) fails the test by escaping.
        }
        fe.shutdown();

        // Lossless accounting: every accepted request resolved exactly
        // once, as a success or a taxonomy-coded failure.
        EXPECT_EQ(successes.size() + failed, pending.size())
            << "seed " << seed;
        const TenantStats gstats = fe.tenantStats("gold");
        const TenantStats bstats = fe.tenantStats("bulk");
        EXPECT_EQ(gstats.submitted + bstats.submitted, pending.size());
        EXPECT_EQ(gstats.completed + bstats.completed, successes.size());
        EXPECT_EQ(gstats.failed + bstats.failed, failed);
        EXPECT_EQ(gstats.rejected + bstats.rejected, rejected);

        // Determinism under chaos: every success replays bit-identically
        // through the synchronous engine entry points, no matter how
        // many retries, kicks or crashes the request lived through.
        const core::ScNetworkEngine &engine = fe.model("m").engine();
        for (const Success &s : successes) {
            if (s.result.adaptive) {
                const core::AdaptivePrediction ref = engine.inferAdaptive(
                    *s.image, s.result.requestId,
                    s.result.effectivePolicy);
                EXPECT_EQ(s.result.prediction.scores,
                          ref.prediction.scores);
                EXPECT_EQ(s.result.consumedCycles, ref.consumedCycles);
            } else {
                const core::ScPrediction ref =
                    engine.inferIndexed(*s.image, s.result.requestId);
                EXPECT_EQ(s.result.prediction.scores, ref.scores);
            }
        }
    }
}

} // namespace
} // namespace aqfpsc::serving
