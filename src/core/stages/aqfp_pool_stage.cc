#include "aqfp_pool_stage.h"

#include <algorithm>
#include <cassert>

#include "blocks/feedback_unit.h"
#include "core/backend_registry.h"

namespace aqfpsc::core::stages {

namespace {

const PoolStageRegistration kRegistration{
    "aqfp-sorter", [](const PoolGeometry &g, const ScEngineConfig &cfg) {
        return std::make_unique<AqfpPoolStage>(g, cfg.streamLen);
    }};

/**
 * 2x2 window counters of one group of output pixels, the bit-sliced
 * pooling feedback units that drive them together, and the per-pixel
 * remainders resumed across spans.
 */
struct PoolScratch final : StageScratch
{
    PoolScratch(std::size_t len, std::size_t rows)
        : counts(sc::ColumnCounts::kGroupRows, sc::ColumnCounts(len, 4)),
          carries(rows, 0)
    {
    }

    std::vector<sc::ColumnCounts> counts;
    blocks::PoolingFeedbackSlices unit;
    /** Per-output-pixel remainder count, resumed across spans. */
    std::vector<int> carries;
};

} // namespace

std::string
AqfpPoolStage::name() const
{
    return "AqfpPool " + std::to_string(geom_.channels) + "x" +
           std::to_string(geom_.outH) + "x" + std::to_string(geom_.outW);
}

StageFootprint
AqfpPoolStage::footprint() const
{
    return {static_cast<std::size_t>(geom_.channels) * geom_.outH *
                geom_.outW,
            streamLen_};
}

std::unique_ptr<StageScratch>
AqfpPoolStage::makeScratch() const
{
    return std::make_unique<PoolScratch>(streamLen_,
                                         footprint().outputRows);
}

void
AqfpPoolStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                             std::size_t begin, std::size_t end) const
{
    // The stage runs at its own compiled length and consumes only the
    // prefix of a (possibly longer) upstream stream.
    const std::size_t len = streamLen_;
    assert(begin % 64 == 0 && begin < end && end <= len);
    const std::size_t w0 = begin / 64;
    const std::size_t sw = (end - begin + 63) / 64;
    const std::size_t rows = footprint().outputRows;

    const std::size_t plane = static_cast<std::size_t>(geom_.outH) *
                              geom_.outW;
    constexpr std::size_t kGroup = sc::ColumnCounts::kGroupRows;

    for (std::size_t i = 0; i < count; ++i) {
        const sc::StreamMatrix &in = *slots[i].in;
        sc::StreamMatrix &out = *slots[i].out;
        assert(in.streamLen() >= len);
        out.reset(rows, len);
        auto &ws = *static_cast<PoolScratch *>(slots[i].scratch);

        // Output pixels are driven 64 at a time, in row order: each
        // pixel's 2x2 window is counted into its own counter, then the
        // group steps together one bit per pixel.
        for (std::size_t r0 = 0; r0 < rows; r0 += kGroup) {
            const std::size_t n = std::min(kGroup, rows - r0);
            std::uint64_t *dst[kGroup];
            for (std::size_t j = 0; j < n; ++j) {
                const std::size_t r = r0 + j;
                const std::size_t c = r / plane;
                const int y = static_cast<int>(r % plane) / geom_.outW;
                const int x = static_cast<int>(r % plane) % geom_.outW;
                sc::ColumnCounts &counts = ws.counts[j];
                counts.clear();
                for (int dy = 0; dy < 2; ++dy) {
                    for (int dx = 0; dx < 2; ++dx) {
                        counts.addWords(
                            in.row((c * geom_.inH + (2 * y + dy)) *
                                       geom_.inW +
                                   (2 * x + dx)) +
                                w0,
                            sw);
                    }
                }
                dst[j] = out.row(r) + w0;
            }
            driveFeedbackGroup(
                ws.unit, ws.counts.data(), n, [](std::size_t) { return 4; },
                &ws.carries[r0], begin, end, dst);
        }
    }
}

} // namespace aqfpsc::core::stages
