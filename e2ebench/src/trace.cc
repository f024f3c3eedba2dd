#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "core/stages/stage_compiler.h"
#include "sc/rng.h"

namespace e2e {

using namespace aqfpsc;

namespace {

/** Argmax with the engine's tie rule (first index wins). */
int
argmaxLabel(const std::vector<double> &scores)
{
    int label = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] > scores[static_cast<std::size_t>(label)])
            label = static_cast<int>(i);
    }
    return label;
}

/** The engine's input-SNG substream salt.  The re-execution must draw
 *  exactly the engine's input streams; if the engine ever changes how it
 *  seeds them, the bit-identity gate of every traced image fails. */
constexpr std::uint64_t kInputStreamSalt = 0xABCDEF12345ULL;

} // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now())
{
    spans_.reserve(1 << 15);
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

long
SpanRecorder::begin(const char *name, long parent, std::uint64_t request,
                    int stage)
{
    Span span;
    span.name = name;
    span.stage = stage;
    span.parent = parent;
    span.request = request;
    span.startUs = nowUs();
    spans_.push_back(span);
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanRecorder::end(long id)
{
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
}

bool
SpanRecorder::write(const std::string &path,
                    const std::vector<std::string> &stageNames) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"stages\": [");
    for (std::size_t s = 0; s < stageNames.size(); ++s)
        std::fprintf(f, "%s\"%s\"", s ? ", " : "", stageNames[s].c_str());
    std::fprintf(f, "],\n  \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "    {\"id\": %zu, \"name\": \"%s\", \"stage\": %d, "
                     "\"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"parent\": %ld, \"request\": %llu}%s\n",
                     i, s.name, s.stage, s.startUs, s.endUs, s.parent,
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

StageKind
stageKind(const core::ScStage &stage)
{
    if (stage.terminal())
        return StageKind::Output;
    const std::string name = stage.name();
    if (name.find("Conv") != std::string::npos)
        return StageKind::Conv;
    if (name.find("Pool") != std::string::npos)
        return StageKind::Pool;
    return StageKind::Dense;
}

TracedExecutor::TracedExecutor(const core::ScNetworkEngine &engine,
                               std::size_t capacity)
    : engine_(engine), slots_(std::max<std::size_t>(capacity, 1))
{
    const core::stages::ExecutionPlan &plan = engine.plan();
    for (Slot &slot : slots_) {
        for (std::size_t s = 0; s < plan.stageCount(); ++s)
            slot.scratch.push_back(plan.stage(s).makeScratch());
        for (int i = 0; i < 2; ++i)
            slot.pingPong[i].reset(plan.bufferRows[i], plan.bufferLen[i]);
    }
}

void
TracedExecutor::armAndFill(Slot &slot, const nn::Tensor &image,
                           std::size_t index, SpanRecorder &rec, long parent)
{
    core::StageContext &ctx = slot.ctx;
    ctx.imageSeed = sc::deriveStreamSeed(engine_.config().seed, index);
    ctx.image = &image;
    ctx.values.clear();
    ctx.scores.clear();
    ctx.deterministicSpans = true;

    const long fill = rec.begin(kFillSpan, parent, index);
    slot.input.reset(image.size(), engine_.plan().streamLen);
    sc::Xoshiro256StarStar rng(ctx.imageSeed ^ kInputStreamSalt);
    for (std::size_t i = 0; i < image.size(); ++i)
        slot.input.fillBipolar(i, image[i], engine_.config().rngBits, rng);
    rec.end(fill);
}

core::ScPrediction
TracedExecutor::runFull(const nn::Tensor &image, std::size_t index,
                        SpanRecorder &rec, long parent)
{
    Slot &slot = slots_[0];
    armAndFill(slot, image, index, rec, parent);
    const core::stages::ExecutionPlan &plan = engine_.plan();
    const sc::StreamMatrix *cur = &slot.input;
    int flip = 0;
    for (std::size_t s = 0; s < plan.stageCount(); ++s) {
        const core::ScStage &stage = plan.stage(s);
        sc::StreamMatrix &out = slot.pingPong[flip];
        const long span =
            rec.begin(kStageSpan, parent, index, static_cast<int>(s));
        stage.runInto(*cur, out, slot.ctx, slot.scratch[s].get());
        rec.end(span);
        if (stage.terminal())
            break;
        cur = &out;
        flip ^= 1;
    }
    core::ScPrediction pred;
    pred.scores = slot.ctx.scores;
    pred.label = argmaxLabel(pred.scores);
    return pred;
}

void
TracedExecutor::runCohort(const nn::Tensor *const images[],
                          const std::size_t indices[], std::size_t count,
                          SpanRecorder &rec, long parent,
                          core::ScPrediction out[])
{
    count = std::min(count, slots_.size());
    for (std::size_t c = 0; c < count; ++c)
        armAndFill(slots_[c], *images[c], indices[c], rec, parent);

    const core::stages::ExecutionPlan &plan = engine_.plan();
    std::vector<core::CohortSlot> views(count);
    int flip = 0;
    for (std::size_t s = 0; s < plan.stageCount(); ++s) {
        const core::ScStage &stage = plan.stage(s);
        for (std::size_t c = 0; c < count; ++c) {
            Slot &slot = slots_[c];
            views[c] = core::CohortSlot{
                s == 0 ? &slot.input : &slot.pingPong[flip ^ 1],
                &slot.pingPong[flip], &slot.ctx, slot.scratch[s].get()};
        }
        const long span =
            rec.begin(kStageSpan, parent, indices[0], static_cast<int>(s));
        stage.runCohortSpan(views.data(), count, 0, plan.stageStreamLens[s]);
        rec.end(span);
        if (stage.terminal())
            break;
        flip ^= 1;
    }
    for (std::size_t c = 0; c < count; ++c) {
        out[c].scores = slots_[c].ctx.scores;
        out[c].label = argmaxLabel(out[c].scores);
    }
}

core::AdaptivePrediction
TracedExecutor::runAdaptive(const nn::Tensor &image, std::size_t index,
                            const core::AdaptivePolicy &policy,
                            SpanRecorder &rec, long parent)
{
    Slot &slot = slots_[0];
    armAndFill(slot, image, index, rec, parent);
    const core::stages::ExecutionPlan &plan = engine_.plan();
    const std::size_t len = plan.streamLen;
    const std::vector<std::size_t> &lens = plan.stageStreamLens;
    const std::size_t block = std::min(policy.checkpointCycles, len);

    core::AdaptivePrediction result;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t end = std::min(begin + block, len);
        const sc::StreamMatrix *cur = &slot.input;
        const core::ScStage *terminal = nullptr;
        int flip = 0;
        for (std::size_t s = 0; s < plan.stageCount(); ++s) {
            const core::ScStage &stage = plan.stage(s);
            sc::StreamMatrix &out = slot.pingPong[flip];
            const std::size_t stageEnd = std::min(end, lens[s]);
            if (begin < stageEnd) {
                const long span = rec.begin(kStageSpan, parent, index,
                                            static_cast<int>(s));
                stage.runSpan(*cur, out, slot.ctx, slot.scratch[s].get(),
                              begin, stageEnd);
                rec.end(span);
            }
            if (stage.terminal()) {
                terminal = &stage;
                break;
            }
            cur = &out;
            flip ^= 1;
        }

        ++result.checkpoints;
        result.consumedCycles = end;
        if (end >= len)
            break;
        if (end >= policy.minCycles && terminal != nullptr) {
            const long span = rec.begin(
                kMarginSpan, parent, index,
                static_cast<int>(plan.stageCount() - 1));
            const double margin =
                terminal->scoreMargin(slot.ctx, std::min(end, lens.back()));
            rec.end(span);
            if (margin >= policy.exitMargin) {
                result.exitedEarly = true;
                break;
            }
        }
        begin = end;
    }
    result.prediction.scores = slot.ctx.scores;
    result.prediction.label = argmaxLabel(result.prediction.scores);
    return result;
}

} // namespace e2e
