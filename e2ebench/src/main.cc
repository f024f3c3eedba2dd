/**
 * @file
 * e2ebench: the end-to-end benchmark program of the aqfpsc engine.
 *
 *   e2ebench prepare --workload NAME --models DIR
 *       Train the workload's model with fixed seeds and save it as a
 *       model artifact (a no-op when it is already there).  Runs in its
 *       own process, so training time and memory stay out of every
 *       metric.
 *
 *   e2ebench run --workload NAME --seed N --seconds S --trace 0|1
 *                --models DIR [--spans FILE]
 *       Run one workload through the public InferenceSession /
 *       ServingFrontend APIs, check its outputs, and print a JSON
 *       report: every metric by name with its unit and sample count,
 *       the correctness gates, and the build and host stamp.  With
 *       --trace 1 a traced re-execution of the engine loop follows the
 *       untraced phases and adds the per-layer split; its spans go to
 *       --spans.
 *
 * Workloads (see README.md next to this directory's build file for why
 * each was chosen):
 *   tiny-batch  trained tiny CNN, predict() at cohort 1 + lone infer()
 *   snn-batch   trained Table 8 SNN, predict() at cohort 4 + lone infer();
 *               run on demand, not listed in BENCHMARK.json (its timings
 *               follow the host's shared-cache load, see README.md)
 *   tiny-serve  open-loop Poisson arrivals to one adaptive tenant of a
 *               ServingFrontend
 * All run 2 workers, N = 1024 and the aqfp-sorter backend.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "bench_util.h"
#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "core/workspace.h"
#include "data/digits.h"
#include "serving/frontend.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace aqfpsc;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 2;
constexpr std::size_t kStreamLen = 1024;
constexpr const char *kBackend = "aqfp-sorter";

/** Training recipe of one benchmark model (fixed seeds throughout). */
struct ModelRecipe
{
    const char *name;
    unsigned buildSeed;
    int epochs;
    int trainSamples;
};

/** tiny: the adaptive-serving bench's recipe (~91% SC accuracy).  snn:
 *  twice the CLI's default epochs on 1600 digits (~95% SC accuracy where
 *  the default reaches ~78%), so a run's accuracy over a few dozen
 *  images is not dominated by sampling noise. */
constexpr ModelRecipe kModels[] = {
    {"tiny", 3, 12, 1600},
    {"snn", 3, 8, 1600},
};
constexpr std::uint64_t kTrainDataSeed = 11;

/** One benchmark workload. */
struct Workload
{
    const char *name;
    const char *model;
    int cohort;          ///< predict() cohort, or the serving maxBatch
    bool serve;          ///< open-loop ServingFrontend instead of batches
    int testImages;      ///< held-out digits (batch workloads)
    int roundImages;     ///< images per timed predict() round
    double sloMs;        ///< latency limit of slo_fraction
    /** Cold set-ups per run; setup_s is their median.  The host has
     *  sub-second slow bursts, and 31 tiny set-ups (~1.5 s) keep one
     *  burst from owning the median. */
    int setups;
};

constexpr Workload kWorkloads[] = {
    {"tiny-batch", "tiny", 1, false, 256, 64, 250.0, 31},
    {"snn-batch", "snn", 4, false, 64, 32, 1000.0, 3},
    {"tiny-serve", "tiny", 4, true, 0, 0, 250.0, 31},
};

/** Accuracy floor of every workload (both models score ~0.9 or more). */
constexpr double kAccuracyFloor = 0.8;

/** Traced calls per run (images; cohorts on snn-batch), at most; the
 *  traced phase also stops after half of --seconds. */
constexpr std::size_t kMaxTraceUnits = 64;

/** tiny-serve arrival rate: about a third of the 2-worker capacity. */
constexpr double kServeRate = 20.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1000.0;
}

/** Peak resident set of this process (VmHWM), MiB. */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/**
 * Moves the calling thread round-robin over the CPUs it may run on, one
 * CPU per next() call, and restores the original CPU set when destroyed.
 * Single-threaded timings (cold set-ups, lone calls, traced calls) are
 * taken this way because on a shared host the CPUs' speeds differ: a run
 * whose thread stayed on a CPU with a busy neighbour read ~40% slower
 * than the next run's.  Rotating gives every run the same mix of CPUs.
 * Threads must not be started while a rotation is active: they would
 * inherit its one-CPU set.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
        }
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof(original_), &original_); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU of the rotation. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original_{};
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

bool
samePrediction(const core::ScPrediction &a, const core::ScPrediction &b)
{
    return a.label == b.label && a.scores == b.scores;
}

std::string
modelPath(const std::string &dir, const std::string &model)
{
    return dir + "/" + model + ".bin";
}

core::EngineOptions
engineOptions(const Workload &w)
{
    core::EngineOptions opts;
    opts.backend = kBackend;
    opts.streamLen = kStreamLen;
    opts.threads = kWorkers;
    opts.cohort = w.cohort;
    return opts;
}

/** Held-out digits of a batch run's seed (training uses data seed 11). */
std::vector<nn::Sample>
testSet(const Workload &w, std::uint64_t seed)
{
    return data::generateDigits(w.testImages, 0xE2E00000ULL + seed);
}

/**
 * tiny-serve's digits: one fixed set, one image per scheduled request,
 * in a seeded order.  The latency tail sits where images that never exit
 * early (~8%) take over, so a seed-dependent mix of them would move the
 * p90 and the modelled energy more than any change to the program does.
 */
std::vector<nn::Sample>
serveSet(std::size_t count, std::uint64_t seed)
{
    std::vector<nn::Sample> set =
        data::generateDigits(static_cast<int>(count), 0xE2E00000ULL);
    e2e::SplitMix64 rng(seed);
    for (std::size_t i = set.size(); i > 1; --i)
        std::swap(set[i - 1], set[rng.next() % i]);
    return set;
}

/** Metrics, gates and operation counts of one run. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit,
           std::size_t samples)
    {
        metrics_.set(name, bench::Json::object()
                               .set("value", value)
                               .set("unit", unit)
                               .set("samples", samples));
    }

    /** Count @p attempted operations. */
    void attempt(std::uint64_t n) { attempted_ += n; }

    /** A correctness gate: each mismatch counts as a failed operation. */
    void
    gate(const std::string &name, std::uint64_t checked,
         std::uint64_t mismatches)
    {
        gates_.push(bench::Json::object()
                        .set("name", name)
                        .set("checked", checked)
                        .set("mismatches", mismatches));
        failed_ += mismatches;
    }

    /** Print the report, stamped with the build and host (the repo's
     *  bench stamp: git SHA, compiler, flags, CPUs, SIMD dispatch). */
    void
    print(const Workload &w, std::uint64_t seed, double seconds,
          bool trace) const
    {
        bench::Json out = bench::Json::object();
        out.set("workload", w.name)
            .set("seed", seed)
            .set("seconds", seconds)
            .set("trace", trace)
            .set("build", bench::buildInfoJson())
            .set("engine", bench::engineJson(engineOptions(w).toConfig()))
            .set("attempted", attempted_)
            .set("failed", failed_)
            .set("gates", gates_)
            .set("metrics", metrics_);
        std::printf("%s\n", out.dump().c_str());
    }

  private:
    bench::Json metrics_ = bench::Json::object();
    bench::Json gates_ = bench::Json::array();
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------- set-up

/** Timings of one cold set-up. */
struct SetupTimes
{
    double load = 0.0;
    double compile = 0.0;
    double workspace = 0.0;
    double total() const { return load + compile + workspace; }
};

/** Cold set-ups of a run: medians per phase plus plan-cache gauges. */
class SetupLog
{
  public:
    /** Note whether the plan cache is empty before a cold set-up. */
    void
    checkCold()
    {
        const core::PlanCacheStats s = core::PlanCache::instance().stats();
        notCold_ += s.residentPlans == 0 ? 0 : 1;
        missesBefore_ = s.misses;
    }

    void
    add(const SetupTimes &t)
    {
        const core::PlanCacheStats s = core::PlanCache::instance().stats();
        load_.push_back(t.load);
        compile_.push_back(t.compile);
        workspace_.push_back(t.workspace);
        total_.push_back(t.total());
        misses_ = static_cast<double>(s.misses - missesBefore_);
        residentMib_ = static_cast<double>(s.residentBytes) / (1 << 20);
    }

    void
    report(Report &r) const
    {
        const std::size_t n = total_.size();
        r.gate("plan_cache_empty_before_setup", n, notCold_);
        r.metric("setup_s", e2e::median(total_), "s", n);
        r.metric("setup.load_s", e2e::median(load_), "s", n);
        r.metric("setup.compile_s", e2e::median(compile_), "s", n);
        r.metric("setup.workspace_s", e2e::median(workspace_), "s", n);
        r.metric("plan_cache.misses", misses_, "count", 1);
        r.metric("plan_cache.resident_mib", residentMib_, "MiB", 1);
    }

  private:
    std::vector<double> load_, compile_, workspace_, total_;
    std::uint64_t notCold_ = 0;
    std::uint64_t missesBefore_ = 0;
    double misses_ = 0.0;
    double residentMib_ = 0.0;
};

// ------------------------------------------------------------- energy

/**
 * Modelled AQFP energy per image: per-layer JJ x energy per JJ-cycle x
 * cycles executed, split by layer kind, and the whole-network figure
 * analyzeNetworkHardware(net, N).aqfpEnergyPerImageJ x cycles / N.
 */
void
reportEnergy(const nn::Network &net, double cyclesPerImage, Report &r)
{
    const core::NetworkHardware hw =
        core::analyzeNetworkHardware(net, kStreamLen);
    const aqfp::AqfpTechnology tech;
    double kind[4] = {0, 0, 0, 0}; // conv, pool, dense, output (J/cycle)
    for (std::size_t i = 0; i < hw.layers.size(); ++i) {
        const core::LayerHardware &l = hw.layers[i];
        const double perCycle =
            static_cast<double>(l.instances) * l.aqfpPerBlock.energyPerCycleJ;
        const int k = i + 1 == hw.layers.size()   ? 3
                      : l.name == "AvgPool2"      ? 1
                      : l.name.rfind("Conv", 0) == 0 ? 0
                                                     : 2;
        kind[k] += perCycle;
    }
    const double sng =
        static_cast<double>(hw.aqfpSngJj) * tech.energyPerJjPerCycle;
    const double toNj = cyclesPerImage * 1e9;
    const double totalNj = hw.aqfpEnergyPerImageJ * cyclesPerImage /
                           static_cast<double>(kStreamLen) * 1e9;
    r.metric("modelled_energy_nj_per_img", totalNj, "nJ", 1);
    r.metric("energy.conv_nj", kind[0] * toNj, "nJ", 1);
    r.metric("energy.pool_nj", kind[1] * toNj, "nJ", 1);
    r.metric("energy.dense_nj", kind[2] * toNj, "nJ", 1);
    r.metric("energy.output_nj", kind[3] * toNj, "nJ", 1);
    r.metric("energy.sng_nj", sng * toNj, "nJ", 1);
    const double parts = (kind[0] + kind[1] + kind[2] + kind[3] + sng) * toNj;
    r.gate("energy_parts_sum_to_total", 1,
           std::abs(parts - totalNj) <= 1e-9 * totalNj ? 0 : 1);
    const double fullNj = hw.aqfpEnergyPerImageJ * 1e9;
    const bool full = cyclesPerImage == static_cast<double>(kStreamLen);
    // Full-length runs must read the full-length figure exactly; adaptive
    // serving executes fewer cycles, so it must read strictly below it.
    r.gate(full ? "energy_equals_full_length" : "energy_below_full_length",
           1, (full ? totalNj == fullNj : totalNj < fullNj) ? 0 : 1);
}

// -------------------------------------------------------------- trace

/** Per-image aggregation of traced calls against untraced engine calls. */
class TraceStats
{
  public:
    /** One traced unit of @p images images: the untraced engine call
     *  time and the spans the re-execution recorded from @p first. */
    void
    add(const aqfpsc::core::ScNetworkEngine &engine,
        const e2e::SpanRecorder &rec, std::size_t first, double engineMs,
        std::size_t images)
    {
        const double n = static_cast<double>(images);
        double fill = 0.0, call = 0.0, kind[4] = {0, 0, 0, 0};
        for (std::size_t i = first; i < rec.spans().size(); ++i) {
            const e2e::Span &s = rec.spans()[i];
            if (std::strcmp(s.name, e2e::kCallSpan) == 0)
                call += s.ms();
            else if (std::strcmp(s.name, e2e::kFillSpan) == 0)
                fill += s.ms();
            else
                kind[static_cast<int>(e2e::stageKind(
                    engine.stage(static_cast<std::size_t>(s.stage))))] +=
                    s.ms();
        }
        const double children = fill + kind[0] + kind[1] + kind[2] + kind[3];
        fill_.push_back(fill / n);
        for (int k = 0; k < 4; ++k)
            kind_[k].push_back(kind[k] / n);
        engine_.push_back(engineMs / n);
        self_.push_back((engineMs - children) / n);
        sumChildren_ += children;
        sumEngine_ += engineMs;
        sumTraced_ += call;
        images_ += images;
    }

    double engineCallMs() const { return e2e::median(engine_); }

    void
    report(Report &r) const
    {
        r.metric("sc.input_fill_ms", e2e::median(fill_), "ms", images_);
        r.metric("stages.conv_ms", e2e::median(kind_[0]), "ms", images_);
        r.metric("stages.pool_ms", e2e::median(kind_[1]), "ms", images_);
        r.metric("stages.dense_ms", e2e::median(kind_[2]), "ms", images_);
        r.metric("stages.output_ms", e2e::median(kind_[3]), "ms", images_);
        r.metric("engine.call_ms", engineCallMs(), "ms", images_);
        r.metric("engine.self_ms", e2e::median(self_), "ms", images_);
        r.metric("trace.coverage",
                 sumEngine_ > 0 ? sumChildren_ / sumEngine_ : 0.0,
                 "fraction", images_);
        r.metric("trace.overhead_fraction",
                 sumEngine_ > 0 ? sumTraced_ / sumEngine_ - 1.0 : 0.0,
                 "fraction", images_);
        r.metric("trace.images", static_cast<double>(images_), "count",
                 images_);
    }

  private:
    std::vector<double> fill_, kind_[4], engine_, self_;
    double sumChildren_ = 0.0, sumEngine_ = 0.0, sumTraced_ = 0.0;
    std::size_t images_ = 0;
};

/** Write the traced run's spans, labelled with the compiled stages. */
void
writeSpans(const core::ScNetworkEngine &engine, const e2e::SpanRecorder &rec,
           const std::string &path, Report &report)
{
    std::vector<std::string> names;
    for (std::size_t s = 0; s < engine.stageCount(); ++s)
        names.push_back(engine.stage(s).name());
    report.gate("spans_written", 1, rec.write(path, names) ? 0 : 1);
}

/** A traced unit's untraced engine call and its traced re-execution,
 *  run in alternating order so neither side always runs cache-warm. */
template <typename EngineCall, typename TracedCall>
double
timedPair(std::size_t unit, EngineCall engineCall, TracedCall tracedCall)
{
    double engineMs = 0.0;
    const auto timeEngine = [&] {
        const auto t0 = Clock::now();
        engineCall();
        engineMs = msSince(t0);
    };
    if (unit % 2 == 0) {
        timeEngine();
        tracedCall();
    } else {
        tracedCall();
        timeEngine();
    }
    return engineMs;
}

// -------------------------------------------------------------- batch

/** tiny-batch / snn-batch: throughput rounds, lone-infer latency, and
 *  (traced runs) the per-layer split. */
void
runBatch(const Workload &w, const std::string &models, std::uint64_t seed,
         double seconds, bool trace, const std::string &spansPath,
         Report &report)
{
    const std::vector<nn::Sample> test = testSet(w, seed);
    const core::EngineOptions opts = engineOptions(w);

    // ---- Cold set-ups; the last one's session is measured. ----
    SetupLog setups;
    std::unique_ptr<core::InferenceSession> session;
    {
        CpuRotation cpus; // set-ups start no threads
        for (int k = 0; k < w.setups; ++k) {
            cpus.next();
            session.reset();
            setups.checkCold();
            SetupTimes t;
            auto t0 = Clock::now();
            nn::Network net =
                nn::Network::loadModel(modelPath(models, w.model));
            t.load = secondsSince(t0);
            t0 = Clock::now();
            session = std::make_unique<core::InferenceSession>(
                std::move(net), opts);
            const core::ScNetworkEngine &engine = session->engine();
            t.compile = secondsSince(t0);
            t0 = Clock::now();
            {
                std::vector<std::unique_ptr<core::CohortWorkspace>> arenas;
                for (int i = 0; i < kWorkers; ++i)
                    arenas.push_back(
                        std::make_unique<core::CohortWorkspace>(
                            engine, static_cast<std::size_t>(w.cohort)));
            }
            t.workspace = secondsSince(t0);
            setups.add(t);
        }
    }
    setups.report(report);
    const core::ScNetworkEngine &engine = session->engine();

    // ---- Throughput: predict() rounds over the seeded test set. ----
    std::vector<std::vector<nn::Sample>> windows;
    for (int b = 0; b < w.testImages; b += w.roundImages)
        windows.emplace_back(test.begin() + b,
                             test.begin() + std::min(b + w.roundImages,
                                                     w.testImages));
    const double throughputSeconds = 0.4 * seconds;
    std::vector<double> roundRates;
    std::size_t correct = 0;
    std::vector<core::ScPrediction> firstRound;
    const auto tpStart = Clock::now();
    for (std::size_t r = 0;
         r < windows.size() || secondsSince(tpStart) < throughputSeconds;
         ++r) {
        const std::vector<nn::Sample> &win = windows[r % windows.size()];
        const auto t0 = Clock::now();
        std::vector<core::ScPrediction> preds = session->predict(win);
        roundRates.push_back(static_cast<double>(win.size()) /
                             secondsSince(t0));
        report.attempt(win.size());
        if (r < windows.size()) {
            // Accuracy over the first pass: every seeded image once.
            for (std::size_t i = 0; i < win.size(); ++i)
                correct += preds[i].label == win[i].label ? 1 : 0;
        }
        if (r == 0)
            firstRound = std::move(preds);
    }
    const double imgS = e2e::median(roundRates);
    report.metric("img_s", imgS, "1/s", roundRates.size());
    report.metric("samples.img_s_rounds",
                  static_cast<double>(roundRates.size()), "count",
                  roundRates.size());
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(w.testImages);
    report.metric("accuracy", accuracy, "fraction", w.testImages);
    report.gate("accuracy_floor", 1, accuracy >= kAccuracyFloor ? 0 : 1);

    // Batch predictions are pure functions of (image, index).
    {
        const std::size_t n = std::min<std::size_t>(firstRound.size(), 4);
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < n; ++i)
            bad += samePrediction(firstRound[i],
                                  engine.inferIndexed(windows[0][i].image, i))
                       ? 0
                       : 1;
        report.gate("batch_equals_inferIndexed", n, bad);
    }

    // ---- Latency: lone infer() calls with nothing else in flight. ----
    std::vector<double> latencies;
    {
        CpuRotation cpus; // lone calls start no threads
        const auto latStart = Clock::now();
        for (std::size_t k = 0;
             latencies.size() < 5 ||
             secondsSince(latStart) < seconds - throughputSeconds;
             ++k) {
            cpus.next();
            const auto t0 = Clock::now();
            session->infer(test[k % test.size()].image);
            latencies.push_back(msSince(t0));
            report.attempt(1);
        }
    }
    const std::size_t nLat = latencies.size();
    report.metric("latency_p50_ms", e2e::median(latencies), "ms", nLat);
    report.metric("latency_p90_ms", e2e::quantile(latencies, 0.9), "ms", nLat);
    report.metric("samples.latency", static_cast<double>(nLat), "count", nLat);
    std::size_t withinSlo = 0;
    for (const double ms : latencies)
        withinSlo += ms <= w.sloMs ? 1 : 0;
    report.metric("slo_fraction",
                  static_cast<double>(withinSlo) / static_cast<double>(nLat),
                  "fraction", nLat);

    reportEnergy(session->network(), static_cast<double>(kStreamLen), report);
    report.metric("engine.cycles_per_img", static_cast<double>(kStreamLen),
                  "cycles", 1);
    report.metric("engine.early_exit_fraction", 0.0, "fraction", 1);
    report.metric("engine.checkpoints_per_img", 0.0, "count", 1);
    // The serving layer is not on this path.
    for (const char *name :
         {"serving.queue_p50_ms", "serving.queue_p90_ms",
          "serving.service_p50_ms", "serving.service_p90_ms",
          "serving.latency_p99_ms", "serving.overhead_ms",
          "loadgen.late_p99_ms"})
        report.metric(name, 0.0, "ms", 0);
    for (const char *name :
         {"serving.rejected", "serving.failed",
          "serving.queue_depth_high_water", "loadgen.sent",
          "loadgen.accepted", "loadgen.completed"})
        report.metric(name, 0.0, "count", 0);

    if (!trace)
        return;

    // ---- Traced re-execution: runInto per stage at cohort 1,
    //      runCohortSpan per stage for cohorts. ----
    e2e::SpanRecorder rec;
    TraceStats stats;
    const std::size_t cohort = static_cast<std::size_t>(w.cohort);
    e2e::TracedExecutor traced(engine, cohort);
    core::StageWorkspace single(engine);
    core::CohortWorkspace cohortWs(engine, cohort);
    std::uint64_t checked = 0, bad = 0;
    CpuRotation cpus; // the traced phase starts no threads
    const auto trStart = Clock::now();
    for (std::size_t u = 0;
         u < kMaxTraceUnits &&
         (u < 2 || secondsSince(trStart) < 0.5 * seconds);
         ++u) {
        cpus.next();
        std::vector<const nn::Tensor *> images(cohort);
        std::vector<std::size_t> indices(cohort);
        for (std::size_t c = 0; c < cohort; ++c) {
            indices[c] = u * cohort + c;
            images[c] = &test[indices[c] % test.size()].image;
        }
        std::vector<core::ScPrediction> want(cohort), got(cohort);
        const std::size_t first = rec.spans().size();
        const double engineMs = timedPair(
            u,
            [&] {
                if (cohort == 1)
                    want[0] = engine.inferIndexed(*images[0], indices[0],
                                                  single);
                else
                    engine.inferCohort(images.data(), indices.data(),
                                       cohort, cohortWs, want.data());
            },
            [&] {
                const long call = rec.begin(e2e::kCallSpan, -1, indices[0]);
                if (cohort == 1)
                    got[0] = traced.runFull(*images[0], indices[0], rec, call);
                else
                    traced.runCohort(images.data(), indices.data(), cohort,
                                     rec, call, got.data());
                rec.end(call);
            });
        stats.add(engine, rec, first, engineMs, cohort);
        for (std::size_t c = 0; c < cohort; ++c) {
            ++checked;
            bad += samePrediction(want[c], got[c]) ? 0 : 1;
        }
    }
    report.gate("traced_equals_engine", checked, bad);
    stats.report(report);
    report.metric("batch_runner.parallel_efficiency",
                  imgS / (kWorkers * 1000.0 / stats.engineCallMs()),
                  "fraction", roundRates.size());

    writeSpans(engine, rec, spansPath, report);
}

// -------------------------------------------------------------- serve

/** One open-loop request. */
struct Sent
{
    std::size_t image = 0;        ///< test-set index
    double dueMs = 0.0;           ///< scheduled send time
    double lateMs = 0.0;          ///< actual send - due
    std::future<serving::ServedResult> future;
};

/** tiny-serve: seeded Poisson arrivals from one thread to a 2-worker
 *  front end with one adaptive tenant. */
void
runServe(const Workload &w, const std::string &models, std::uint64_t seed,
         double seconds, bool trace, const std::string &spansPath,
         Report &report)
{
    const std::vector<double> due =
        e2e::poissonSchedule(seed, kServeRate, seconds);
    const std::vector<nn::Sample> test = serveSet(due.size(), seed);
    const core::EngineOptions opts = engineOptions(w);
    serving::TenantConfig tenant;
    tenant.name = "t";
    tenant.model = "m";
    tenant.adaptive = true; // default AdaptivePolicy
    tenant.queueCapacity = 64;
    serving::FrontendOptions feOpts;
    feOpts.workers = kWorkers;
    feOpts.maxBatch = w.cohort;

    // ---- Cold set-ups; the last front end serves the schedule. ----
    SetupLog setups;
    std::unique_ptr<serving::ServingFrontend> fe;
    for (int k = 0; k < w.setups; ++k) {
        fe.reset();
        setups.checkCold();
        SetupTimes t;
        auto t0 = Clock::now();
        nn::Network net = nn::Network::loadModel(modelPath(models, w.model));
        t.load = secondsSince(t0);
        t0 = Clock::now();
        fe = std::make_unique<serving::ServingFrontend>(feOpts);
        fe->addModel("m", std::move(net), opts);
        fe->addTenant(tenant); // compiles the engine
        t.compile = secondsSince(t0);
        t0 = Clock::now();
        {
            // The per-worker arenas the workers build on first use.
            std::vector<std::unique_ptr<core::CohortWorkspace>> arenas;
            for (int i = 0; i < kWorkers; ++i)
                arenas.push_back(std::make_unique<core::CohortWorkspace>(
                    fe->model("m").engine(),
                    static_cast<std::size_t>(w.cohort)));
        }
        fe->start();
        t.workspace = secondsSince(t0);
        setups.add(t);
    }
    setups.report(report);
    const core::ScNetworkEngine &engine = fe->model("m").engine();

    // ---- Open loop: one thread sends on the seeded schedule. ----
    std::vector<Sent> sent;
    sent.reserve(due.size());
    std::uint64_t rejected = 0;
    const auto start = Clock::now();
    for (std::size_t k = 0; k < due.size(); ++k) {
        const auto when = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(due[k]));
        std::this_thread::sleep_until(when);
        Sent s;
        s.image = k;
        s.dueMs = due[k] * 1000.0;
        s.lateMs = msSince(start) - s.dueMs;
        auto f = fe->trySubmit("t", test[s.image].image);
        if (!f) {
            ++rejected;
            continue;
        }
        s.future = std::move(*f);
        sent.push_back(std::move(s));
    }

    // ---- Collect; latency runs from each request's due time. ----
    std::vector<double> latency, queue, service, late;
    std::vector<serving::ServedResult> results;
    std::vector<std::size_t> resultImage; ///< test-set index per result
    std::uint64_t failed = 0, correct = 0, exits = 0, cycles = 0;
    double lastDoneMs = 0.0;
    for (Sent &s : sent) {
        late.push_back(s.lateMs);
        try {
            serving::ServedResult r = s.future.get();
            const double queueMs = r.queueSeconds * 1000.0;
            const double serviceMs = r.serviceSeconds * 1000.0;
            latency.push_back(s.lateMs + queueMs + serviceMs);
            lastDoneMs = std::max(lastDoneMs, s.dueMs + latency.back());
            queue.push_back(queueMs);
            service.push_back(serviceMs);
            correct += r.prediction.label == test[s.image].label ? 1 : 0;
            exits += r.exitedEarly ? 1 : 0;
            cycles += r.consumedCycles;
            results.push_back(std::move(r));
            resultImage.push_back(s.image);
        } catch (const std::exception &) {
            ++failed;
        }
    }
    const serving::TenantStats ts = fe->tenantStats("t");
    const std::size_t nSent = due.size();
    const std::size_t nDone = results.size();
    report.attempt(nSent);
    report.gate("requests_completed", nSent, rejected + failed);

    // Completed over the schedule span: below the rate only under backlog.
    const double imgS = lastDoneMs > 0 ? static_cast<double>(nDone) /
                                             (lastDoneMs / 1000.0)
                                       : 0.0;
    report.metric("img_s", imgS, "1/s", nDone);
    report.metric("samples.img_s_rounds", 0.0, "count", 0);
    report.metric("latency_p50_ms", e2e::median(latency), "ms", nDone);
    report.metric("latency_p90_ms", e2e::quantile(latency, 0.9), "ms", nDone);
    report.metric("serving.latency_p99_ms", e2e::quantile(latency, 0.99),
                  "ms", nDone);
    std::size_t withinSlo = 0;
    for (const double ms : latency)
        withinSlo += ms <= w.sloMs ? 1 : 0;
    report.metric("slo_fraction",
                  static_cast<double>(withinSlo) / static_cast<double>(nSent),
                  "fraction", nSent);
    const double accuracy =
        nDone ? static_cast<double>(correct) / static_cast<double>(nDone)
              : 0.0;
    report.metric("accuracy", accuracy, "fraction", nDone);
    report.gate("accuracy_floor", 1, accuracy >= kAccuracyFloor ? 0 : 1);
    report.metric("samples.latency", static_cast<double>(nDone), "count",
                  nDone);
    report.metric("serving.queue_p50_ms", e2e::median(queue), "ms", nDone);
    report.metric("serving.queue_p90_ms", e2e::quantile(queue, 0.9), "ms",
                  nDone);
    report.metric("serving.service_p50_ms", e2e::median(service), "ms", nDone);
    report.metric("serving.service_p90_ms", e2e::quantile(service, 0.9), "ms",
                  nDone);
    report.metric("serving.rejected", static_cast<double>(rejected), "count",
                  nSent);
    report.metric("serving.failed", static_cast<double>(failed), "count",
                  nSent);
    report.metric("serving.queue_depth_high_water",
                  static_cast<double>(ts.queueDepthHighWater), "count", 1);
    report.metric("loadgen.late_p99_ms", e2e::quantile(late, 0.99), "ms",
                  late.size());
    report.metric("loadgen.sent", static_cast<double>(nSent), "count", 1);
    report.metric("loadgen.accepted", static_cast<double>(sent.size()),
                  "count", 1);
    report.metric("loadgen.completed", static_cast<double>(nDone), "count", 1);

    const double cyclesPerImg =
        nDone ? static_cast<double>(cycles) / static_cast<double>(nDone) : 0.0;
    report.metric("engine.cycles_per_img", cyclesPerImg, "cycles", nDone);
    report.metric("engine.early_exit_fraction",
                  nDone ? static_cast<double>(exits) /
                              static_cast<double>(nDone)
                        : 0.0,
                  "fraction", nDone);
    reportEnergy(fe->model("m").network(), cyclesPerImg, report);

    // Served predictions are pure functions of (image, requestId,
    // effective policy): a sample is recomputed on the engine directly.
    {
        const std::size_t step = std::max<std::size_t>(1, nDone / 16);
        std::uint64_t n = 0, bad = 0;
        for (std::size_t i = 0; i < nDone; i += step) {
            const serving::ServedResult &r = results[i];
            const core::AdaptivePrediction want = engine.inferAdaptive(
                test[resultImage[i]].image, r.requestId,
                r.effectivePolicy);
            ++n;
            bad += samePrediction(want.prediction, r.prediction) &&
                           want.consumedCycles == r.consumedCycles
                       ? 0
                       : 1;
        }
        report.gate("served_equals_inferAdaptive", n, bad);
    }

    if (!trace) {
        fe.reset();
        return;
    }

    // ---- Traced re-execution of served requests: runSpan per stage
    //      and checkpoint block, then scoreMargin. ----
    fe->shutdown();
    e2e::SpanRecorder rec;
    TraceStats stats;
    e2e::TracedExecutor traced(engine, 1);
    core::StageWorkspace ws(engine);
    std::uint64_t bad = 0, checkpoints = 0;
    CpuRotation cpus; // the front end is shut down: no threads start
    const auto trStart = Clock::now();
    std::size_t u = 0;
    for (; u < std::min(nDone, kMaxTraceUnits) &&
           (u < 2 || secondsSince(trStart) < 0.5 * seconds);
         ++u) {
        cpus.next();
        const serving::ServedResult &r = results[u];
        const nn::Tensor &image = test[resultImage[u]].image;
        core::AdaptivePrediction want, got;
        const std::size_t first = rec.spans().size();
        const double ms = timedPair(
            u,
            [&] {
                want = engine.inferAdaptive(image, r.requestId, ws,
                                            r.effectivePolicy);
            },
            [&] {
                const long call = rec.begin(e2e::kCallSpan, -1, r.requestId);
                got = traced.runAdaptive(image, r.requestId,
                                         r.effectivePolicy, rec, call);
                rec.end(call);
            });
        stats.add(engine, rec, first, ms, 1);
        checkpoints += want.checkpoints;
        bad += samePrediction(want.prediction, got.prediction) &&
                       want.consumedCycles == got.consumedCycles &&
                       want.checkpoints == got.checkpoints &&
                       want.exitedEarly == got.exitedEarly &&
                       samePrediction(want.prediction, r.prediction)
                   ? 0
                   : 1;
    }
    report.gate("traced_equals_engine", u, bad);
    stats.report(report);
    report.metric("engine.checkpoints_per_img",
                  u ? static_cast<double>(checkpoints) / static_cast<double>(u)
                    : 0.0,
                  "count", u);
    // Front-end overhead: served time of the same images beyond the
    // engine's own adaptive call.
    std::vector<double> servedMs(service.begin(), service.begin() + u);
    report.metric("serving.overhead_ms",
                  e2e::median(servedMs) - stats.engineCallMs(), "ms", u);
    report.metric("batch_runner.parallel_efficiency",
                  imgS / (kWorkers * 1000.0 / stats.engineCallMs()),
                  "fraction", nDone);
    writeSpans(engine, rec, spansPath, report);
    fe.reset();
}

} // namespace

namespace {

const char *
argValue(int argc, char **argv, const char *name)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench prepare --workload NAME --models DIR\n"
                 "       e2ebench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --models DIR [--spans FILE]\n"
                 "workloads: tiny-batch snn-batch tiny-serve\n");
    return 2;
}

/** Train the model @p w runs and save it as an artifact, unless a
 *  previous prepare already did. */
int
prepare(const Workload &w, const std::string &dir)
{
    const std::string path = modelPath(dir, w.model);
    if (std::ifstream(path).good())
        return 0;
    for (const ModelRecipe &m : kModels) {
        if (std::strcmp(m.name, w.model) != 0)
            continue;
        const auto t0 = Clock::now();
        nn::Network net = core::buildModel(m.name, m.buildSeed);
        nn::TrainConfig cfg;
        cfg.epochs = m.epochs;
        cfg.learningRate = 0.08f;
        std::vector<nn::Sample> train =
            data::generateDigits(m.trainSamples, kTrainDataSeed);
        net.train(train, cfg);
        net.quantizeParams(10);
        // Write-then-rename: a run never sees a half-written artifact.
        const std::string partial = path + ".partial";
        if (!net.saveModel(partial) ||
            std::rename(partial.c_str(), path.c_str()) != 0) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("trained %s (%d epochs, %d digits) in %.1f s -> %s\n",
                    m.name, m.epochs, m.trainSamples, secondsSince(t0),
                    path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    const char *models = argValue(argc, argv, "--models");
    const char *name = argValue(argc, argv, "--workload");
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (name != nullptr && std::strcmp(cand.name, name) == 0)
            w = &cand;
    }
    if (models == nullptr || w == nullptr)
        return usage();
    if (cmd == "prepare")
        return prepare(*w, models);
    if (cmd != "run")
        return usage();

    const char *seedArg = argValue(argc, argv, "--seed");
    const char *secondsArg = argValue(argc, argv, "--seconds");
    const char *traceArg = argValue(argc, argv, "--trace");
    const char *spans = argValue(argc, argv, "--spans");
    if (!seedArg || !secondsArg || !traceArg)
        return usage();
    const std::uint64_t seed = std::strtoull(seedArg, nullptr, 10);
    const double seconds = std::strtod(secondsArg, nullptr);
    const bool trace = std::strcmp(traceArg, "1") == 0;
    if (!(seconds > 0.0) || (trace && spans == nullptr))
        return usage();

    Report report;
    const double hostBefore = e2e::hostRefMs(kWorkers);
    try {
        if (w->serve)
            runServe(*w, models, seed, seconds, trace, spans ? spans : "",
                     report);
        else
            runBatch(*w, models, seed, seconds, trace, spans ? spans : "",
                     report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    report.metric("host.ref_ms",
                  e2e::median({hostBefore, e2e::hostRefMs(kWorkers)}), "ms", 2);
    report.metric("peak_rss_mib", peakRssMib(), "MiB", 1);
    report.print(*w, seed, seconds, trace);
    return 0;
}
