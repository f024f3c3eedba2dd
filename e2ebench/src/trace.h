/**
 * @file
 * The traced run of the end-to-end benchmark: an in-memory span recorder
 * and a re-execution of the engine loop built from the public stage API
 * (sc::StreamMatrix::fillBipolar for the input SNG, then per stage
 * ScStage::runInto, runCohortSpan, or runSpan + scoreMargin), with a span
 * around every call.  Nothing inside the library is instrumented; the
 * caller checks that each re-execution reproduces the engine's own
 * result bit for bit, which pins the re-execution to the engine loop it
 * mirrors.
 */

#ifndef AQFPSC_E2EBENCH_TRACE_H
#define AQFPSC_E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sc_engine.h"
#include "core/stages/stage.h"
#include "nn/tensor.h"
#include "sc/stream_matrix.h"

namespace e2e {

/** One timed call: [start, end) in microseconds since the recorder
 *  was built.  @c parent indexes the enclosing span (-1 = root);
 *  spans of one image share @c request (its inference index). */
struct Span
{
    const char *name = "";
    int stage = -1; ///< compiled stage index, -1 if not a stage call
    double startUs = 0.0;
    double endUs = 0.0;
    long parent = -1;
    std::uint64_t request = 0;

    double ms() const { return (endUs - startUs) / 1000.0; }
};

/** Spans kept in memory and written out when the run ends. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span now; returns its index (the parent of later spans). */
    long begin(const char *name, long parent, std::uint64_t request,
               int stage = -1);

    /** Close span @p id now. */
    void end(long id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as JSON, with @p stageNames indexed by
     *  Span::stage.  @return success. */
    bool write(const std::string &path,
               const std::vector<std::string> &stageNames) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Stage kind of the per-layer split. */
enum class StageKind
{
    Conv,
    Pool,
    Dense,
    Output,
};

/** Kind of a compiled stage, from its terminal flag and name. */
StageKind stageKind(const aqfpsc::core::ScStage &stage);

/** Span names the re-execution records. */
inline constexpr const char *kCallSpan = "engine.traced_call";
inline constexpr const char *kFillSpan = "sc.input_fill";
inline constexpr const char *kStageSpan = "stage";
inline constexpr const char *kMarginSpan = "stage.score_margin";

/**
 * Per-slot buffers of the re-execution (input SNG streams, ping-pong
 * activations, per-stage scratch, context), the same arena the engine's
 * workspaces hold, built from the public stage API.
 */
class TracedExecutor
{
  public:
    /** @param engine Must outlive the executor.
     *  @param capacity Image slots (the largest cohort traced). */
    TracedExecutor(const aqfpsc::core::ScNetworkEngine &engine,
                   std::size_t capacity);

    /** runInto per stage; mirrors ScNetworkEngine::inferIndexed. */
    aqfpsc::core::ScPrediction runFull(const aqfpsc::nn::Tensor &image,
                                       std::size_t index, SpanRecorder &rec,
                                       long parent);

    /** runCohortSpan per stage over [0, stage length); mirrors
     *  ScNetworkEngine::inferCohort.  @p count <= capacity. */
    void runCohort(const aqfpsc::nn::Tensor *const images[],
                   const std::size_t indices[], std::size_t count,
                   SpanRecorder &rec, long parent,
                   aqfpsc::core::ScPrediction out[]);

    /** runSpan per stage and checkpoint block, then scoreMargin;
     *  mirrors ScNetworkEngine::inferAdaptive for a deterministic
     *  @p policy. */
    aqfpsc::core::AdaptivePrediction
    runAdaptive(const aqfpsc::nn::Tensor &image, std::size_t index,
                const aqfpsc::core::AdaptivePolicy &policy,
                SpanRecorder &rec, long parent);

  private:
    struct Slot
    {
        aqfpsc::sc::StreamMatrix input;
        aqfpsc::sc::StreamMatrix pingPong[2];
        std::vector<std::unique_ptr<aqfpsc::core::StageScratch>> scratch;
        aqfpsc::core::StageContext ctx;
    };

    /** Arm @p slot for one image and fill its input streams at full
     *  length under a fill span. */
    void armAndFill(Slot &slot, const aqfpsc::nn::Tensor &image,
                    std::size_t index, SpanRecorder &rec, long parent);

    const aqfpsc::core::ScNetworkEngine &engine_;
    std::vector<Slot> slots_;
};

} // namespace e2e

#endif // AQFPSC_E2EBENCH_TRACE_H
