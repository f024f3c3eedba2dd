/**
 * @file
 * Polymorphic stage interface of the SC inference stage graph.
 *
 * A compiled network is a linear graph of ScStage nodes.  Every stage
 * consumes a StreamMatrix of packed stochastic streams (one row per
 * neuron/pixel of the previous stage) and produces the next one; the
 * terminal (categorization) stage instead writes per-class scores into
 * the StageContext.
 *
 * Stages are immutable after compilation: execution is const and keeps
 * all mutable per-image state either on the stack or in a caller-owned
 * StageScratch, so one stage graph can execute many images concurrently
 * from different threads (see core::BatchRunner).  All per-image
 * randomness derives from StageContext::imageSeed, which makes results a
 * pure function of (network, config, image, image index) regardless of
 * thread schedule.
 *
 * One execution entry point: runCohortSpan(slots, count, begin, end)
 * processes stream cycles [begin, end) of a cohort of images in one
 * stage dispatch.  A full-length run is the one span [0, stream length),
 * a single image is a cohort of one, and adaptive early exit is a
 * sequence of adjacent 64-cycle-aligned spans with per-image state
 * resumed in the scratch.  runInto() and runSpan() are non-virtual
 * single-image conveniences over it.  Steady-state execution through a
 * core::CohortWorkspace performs no heap allocation.
 */

#ifndef AQFPSC_CORE_STAGES_STAGE_H
#define AQFPSC_CORE_STAGES_STAGE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sc/stream_matrix.h"

namespace aqfpsc::nn {
class Tensor;
} // namespace aqfpsc::nn

namespace aqfpsc::core {

namespace stages {
struct StageShared;
} // namespace stages

/** Gap between the largest and second-largest score (0 if fewer than
 *  two) — the raw confidence quantity every ScStage::scoreMargin
 *  normalizes into [0, 1]. */
double scoreTopTwoGap(const std::vector<double> &scores);

/** Per-image state threaded through one stage-graph execution. */
struct StageContext
{
    /** Deterministic per-image seed (sc::deriveStreamSeed of engine seed). */
    std::uint64_t imageSeed = 0;

    /** Per-class scores; written by the terminal stage. */
    std::vector<double> scores;

    /** The raw input image; always set by the engine.  Value-domain
     *  backends ("float-ref") read it instead of the input streams. */
    const nn::Tensor *image = nullptr;

    /** Value-domain side channel: float stages pass activations here and
     *  return empty stream matrices.  Empty means "not started". */
    std::vector<float> values;

    /**
     * Multi-span execution only: when true, stages whose randomness
     * consumption depends on stream position (CmosPool's MUX selects)
     * replay the exact draw sequence of the uninterrupted path, so
     * block-wise execution is bit-identical to one full span.  When
     * false, they may draw from cheaper per-block substreams instead
     * (statistically equivalent, not bit-identical).
     */
    bool deterministicSpans = true;
};

/**
 * Opaque per-thread mutable state of one stage (column counters,
 * feedback units, ...), built once by ScStage::makeScratch() and reused
 * across images so the inference inner loop never allocates.  A scratch
 * object may only be passed back to the stage that created it, and to
 * one stage execution at a time.
 */
class StageScratch
{
  public:
    virtual ~StageScratch() = default;
};

/**
 * Compile-time resource declaration of one stage, used by the stage
 * compiler to plan the workspace buffers before the first image runs.
 */
struct StageFootprint
{
    /** Rows the stage writes into its output (0 = terminal /
     *  value-domain). */
    std::size_t outputRows = 0;
    /** Cycles of one full run: the stage's compiled stream length (0 for
     *  value-domain stages, which ignore stream cycles). */
    std::size_t streamLen = 0;
};

/**
 * Upper bound on the images one cohort may execute together
 * (ScEngineConfig::cohort, CohortWorkspace capacity).  Keeps the
 * per-cohort pointer tables of the interleaved kernel cores stack-sized;
 * larger batches are simply executed as several cohorts.
 */
inline constexpr std::size_t kMaxCohortImages = 64;

/**
 * One image's execution slot within a cohort: the per-image buffers and
 * state a stage needs to process that image's span.  @c in holds the
 * upstream streams (possibly longer than this stage's own length: a
 * stage consumes their prefix), @c out the stage's output buffer (reused
 * across images, only ever grows); @c scratch must come from this
 * stage's makeScratch() and belong to this slot alone.
 */
struct CohortSlot
{
    const sc::StreamMatrix *in = nullptr;
    sc::StreamMatrix *out = nullptr;
    StageContext *ctx = nullptr;
    StageScratch *scratch = nullptr;
};

/** One node of the compiled SC pipeline. */
class ScStage
{
  public:
    virtual ~ScStage() = default;

    /** Stage name for reports/debugging, e.g. "AqfpConv 8x28x28". */
    virtual std::string name() const = 0;

    /** True for the terminal stage (writes scores, returns no streams). */
    virtual bool terminal() const { return false; }

    /** Declared output/scratch footprint (defaults to "no streams"). */
    virtual StageFootprint footprint() const { return {}; }

    /**
     * The interned immutable compile product this stage references, or
     * nullptr for stages without one (pooling, value-domain reference).
     * Identical specs compiled through the core::PlanCache return stages
     * whose sharedState() pointers compare equal — the observable handle
     * of cross-engine weight-state sharing, used by cache statistics and
     * the differential tests.
     */
    virtual const stages::StageShared *sharedState() const
    {
        return nullptr;
    }

    /**
     * Build this stage's reusable scratch state (may be null for stages
     * that need none).  Called once per worker thread at workspace
     * construction, never on the per-image path.
     */
    virtual std::unique_ptr<StageScratch> makeScratch() const
    {
        return nullptr;
    }

    /**
     * True when this stage can execute a stream in several adjacent
     * spans with per-image state resumed across them.  A multi-span run
     * (adaptive early exit) requires every stage of the graph to be
     * resumable; a non-resumable stage accepts only full spans — from
     * cycle 0 over its whole input — and throws std::logic_error for
     * partial ones.
     */
    virtual bool resumable() const { return false; }

    /**
     * THE execution entry point: process stream cycles [@p begin, @p end)
     * of @p count images (1 <= count <= kMaxCohortImages) in one stage
     * dispatch.  @p begin must be 64-aligned and @p end must not exceed
     * the stage's own length (footprint().streamLen).
     *
     * Per image, a span with begin == 0 re-arms the scratch for a new
     * image and reshapes @c out; later spans resume it, so covering
     * [0, N) with any sequence of adjacent spans is bit-identical to the
     * one span [0, N) (see StageContext::deterministicSpans for the one
     * permitted deviation).  Within one image, spans must be executed in
     * order and without gaps.  Only the covered words of @c out are
     * written.  Terminal stages write ctx.scores over cycles [0, @p end)
     * instead of streams.
     *
     * The result per image never depends on @p count or on the other
     * images of the cohort — cohort size changes only how often shared
     * weight streams are traversed.  Thread-safe across distinct
     * (out, scratch) pairs.
     */
    virtual void runCohortSpan(const CohortSlot *slots, std::size_t count,
                               std::size_t begin, std::size_t end) const = 0;

    /** runCohortSpan() over one image: cycles [@p begin, @p end). */
    void runSpan(const sc::StreamMatrix &in, sc::StreamMatrix &out,
                 StageContext &ctx, StageScratch *scratch, std::size_t begin,
                 std::size_t end) const;

    /** runSpan() over the stage's whole stream [0, footprint().streamLen). */
    void runInto(const sc::StreamMatrix &in, sc::StreamMatrix &out,
                 StageContext &ctx, StageScratch *scratch) const;

    /**
     * Terminal stages: normalized confidence margin of the scores
     * currently in @p ctx, computed over the first @p cycles cycles of
     * stream.  Returns (top-1 − top-2) mapped to [0, 1] in the backend's
     * own score scale, comparable across checkpoints of one execution;
     * 0 when fewer than two classes.  The default implementation assumes
     * scores in [−1, 1] (bipolar stream values, the AQFP convention) and
     * returns half the top-2 gap; backends with other score scales
     * override it.
     */
    virtual double scoreMargin(const StageContext &ctx,
                               std::size_t cycles) const;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_STAGES_STAGE_H
