/**
 * @file
 * Counter-form equivalents of the paper's sorter + feedback loops.
 *
 * Both Algorithm 1 (feature extraction) and Algorithm 2 (average pooling)
 * sort [current column | previous feedback] descending and slice the
 * result.  A descending-sorted binary vector of length 2M containing s
 * ones has bit p (0-indexed) equal to (s > p), so each algorithm reduces
 * to integer bookkeeping on s = column_ones + feedback_ones.
 *
 * Feature extraction realizes Eq. (3) of the paper: the n-th output bit
 * is set when the running accumulation of D_i = col_i - (M-1)/2 - SO_i
 * is positive.  A feedback vector can only store a non-negative count,
 * so the accumulator is kept with a +(M-1)/2 *offset*: the carry's
 * operating point is c* = (M-1)/2, deficits swing it toward 0 and
 * surpluses toward M.  Concretely, per cycle:
 *
 *    out = (s >= M)                        (sorted bit M-1)
 *    c'  = clamp(s - (M-1)/2 - out, 0, M)  (slice selected by out:
 *                                           [(M+1)/2 ..) if out else
 *                                           [(M-1)/2 ..))
 *    c0  = (M-1)/2                         (operating-point init)
 *
 * so that sum(SO) tracks clip(sum(col) - (M-1)/2 * N, 0, N) (Eq. (2)) and
 * value(SO) = clip(sum_j x_j w_j, -1, 1) in the bipolar domain.  Note
 * Algorithm 1 as printed initializes the feedback to zero and keeps a
 * fixed slice; with a fixed slice the carry cannot represent deficits
 * and the output acquires a large positive bias (O(sigma^2/drift) ones
 * per stream), contradicting the paper's own Table 1 -- see
 * tests/test_blocks.cc (MarkovSpec).  The offset
 * reading is the one consistent with Eq. (2)/(3) and with the reported
 * accuracy, and costs the same hardware as the pooling block's
 * output-selected feedback mux (Fig. 14).
 *
 * Average pooling (Algorithm 2) needs no offset -- it only ever tracks a
 * non-negative remainder:
 *
 *    out = (s >= M)
 *    c'  = out ? s - M : s
 *
 * These counter forms are what the fast functional models execute, and
 * the per-row reference of the bit-sliced forms below
 * (FeatureFeedbackSlices / PoolingFeedbackSlices: 64 rows per step),
 * which the whole-network SC inference engine runs; unit tests assert
 * bit-exact equivalence against the literal sorted-vector procedure and
 * against the gate-level netlists.
 */

#ifndef AQFPSC_BLOCKS_FEEDBACK_UNIT_H
#define AQFPSC_BLOCKS_FEEDBACK_UNIT_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace aqfpsc::blocks {

/** Counter form of the feature-extraction sorter + feedback loop. */
class FeatureFeedbackUnit
{
  public:
    /** @param m Number of sorter data inputs; must be odd. */
    explicit FeatureFeedbackUnit(int m) : m_(m), carry_((m - 1) / 2)
    {
        assert(m >= 1 && m % 2 == 1);
    }

    /** Process one column; @p column_ones in [0, m]. Returns the SO bit. */
    bool
    step(int column_ones)
    {
        assert(column_ones >= 0 && column_ones <= m_);
        const int s = column_ones + carry_;
        const bool out = s >= m_;
        carry_ = std::clamp(s - (m_ - 1) / 2 - (out ? 1 : 0), 0, m_);
        return out;
    }

    /** Ones currently held in the feedback vector. */
    int carry() const { return carry_; }

    /** Reset the feedback vector to the operating point (M-1)/2. */
    void reset() { carry_ = (m_ - 1) / 2; }

    /**
     * Re-arm for a (possibly different) input count @p m — equivalent to
     * constructing FeatureFeedbackUnit(m), without the per-use object
     * churn in the inference inner loops (conv border windows change M
     * per output pixel).
     */
    void
    reset(int m)
    {
        assert(m >= 1 && m % 2 == 1);
        m_ = m;
        carry_ = (m - 1) / 2;
    }

    /**
     * Re-arm for input count @p m with an explicit feedback count —
     * resumes a block-wise (checkpointed) execution exactly where a
     * previous block's carry() left off, so processing a stream in
     * 64-cycle-aligned blocks is bit-identical to one uninterrupted
     * pass.
     */
    void
    restore(int m, int carry)
    {
        assert(m >= 1 && m % 2 == 1);
        assert(carry >= 0 && carry <= m);
        m_ = m;
        carry_ = carry;
    }

    int m() const { return m_; }

  private:
    int m_;
    int carry_;
};

/** Counter form of Algorithm 2's sorter + half feedback loop. */
class PoolingFeedbackUnit
{
  public:
    /** @param m Number of pooled inputs (>= 1). */
    explicit PoolingFeedbackUnit(int m) : m_(m) { assert(m >= 1); }

    /** Process one column; @p column_ones in [0, m]. Returns the SO bit. */
    bool
    step(int column_ones)
    {
        assert(column_ones >= 0 && column_ones <= m_);
        const int s = column_ones + carry_;
        const bool out = s >= m_;
        carry_ = out ? s - m_ : s;
        return out;
    }

    /** Ones currently held in the feedback vector. */
    int carry() const { return carry_; }

    /** Reset the feedback vector to all zeros. */
    void reset() { carry_ = 0; }

    /** Re-arm for input count @p m (== constructing PoolingFeedbackUnit(m)). */
    void
    reset(int m)
    {
        assert(m >= 1);
        m_ = m;
        carry_ = 0;
    }

    /** Re-arm with an explicit remainder count — resumes a block-wise
     *  execution from a previous block's carry() (see
     *  FeatureFeedbackUnit::restore). */
    void
    restore(int m, int carry)
    {
        assert(m >= 1);
        assert(carry >= 0 && carry < m);
        m_ = m;
        carry_ = carry;
    }

    int m() const { return m_; }

  private:
    int m_;
    int carry_ = 0;
};

/**
 * Bit-sliced state of up to 64 feedback units stepped together: word k
 * of each operand holds bit k of that quantity for every row (bit j of
 * a word belongs to row j).  Rows keep their own m, so conv border
 * windows, which gather fewer products, share a group with interior
 * ones.  The slice width is bit_width(2 m) of the widest row: the
 * per-cycle sum s = count + carry never exceeds 2 m.  Unarmed rows hold
 * m = 0 and produce bits nobody reads.
 */
class FeedbackSlices
{
  public:
    /** Rows per group (one bit of a word each). */
    static constexpr int kRows = 64;
    /** Widest slice supported: 2 m < 2^kMaxBits. */
    static constexpr int kMaxBits = 31;

    /** Disarm every row. */
    void
    clear()
    {
        for (int k = 0; k < width_; ++k)
            m_[k] = h_[k] = carry_[k] = 0;
        width_ = 0;
    }

    /** Ones held in row @p row's feedback vector. */
    int
    carry(int row) const
    {
        int c = 0;
        for (int k = 0; k < width_; ++k)
            c |= static_cast<int>((carry_[k] >> row) & 1ULL) << k;
        return c;
    }

    /** Slice width of the armed rows. */
    int width() const { return width_; }

  protected:
    /** Arm row @p row with input count @p m, offset @p h and @p carry. */
    void
    arm(int row, int m, int h, int carry)
    {
        assert(row >= 0 && row < kRows);
        assert(m >= 1 && 2 * static_cast<long>(m) < (1L << kMaxBits));
        const int w = std::bit_width(2u * static_cast<unsigned>(m));
        for (; width_ < w; ++width_)
            m_[width_] = h_[width_] = carry_[width_] = 0;
        const std::uint64_t bit = 1ULL << row;
        for (int k = 0; k < width_; ++k) {
            m_[k] = (m_[k] & ~bit) | (((m >> k) & 1) ? bit : 0);
            h_[k] = (h_[k] & ~bit) | (((h >> k) & 1) ? bit : 0);
            carry_[k] = (carry_[k] & ~bit) | (((carry >> k) & 1) ? bit : 0);
        }
    }

    /** s = count + carry, into @p s (width_ slices); @p count has
     *  @p planes slices, all above them zero. */
    void
    sum(const std::uint64_t *count, int planes, std::uint64_t *s) const
    {
        assert(planes <= width_);
        std::uint64_t cy = 0;
        int k = 0;
        for (; k < planes; ++k) {
            const std::uint64_t a = count[k];
            const std::uint64_t b = carry_[k];
            const std::uint64_t t = a ^ b;
            s[k] = t ^ cy;
            cy = (a & b) | (t & cy);
        }
        for (; k < width_; ++k) {
            s[k] = carry_[k] ^ cy;
            cy &= carry_[k];
        }
    }

    /** Rows where a >= m: the complement of the borrow out of a - m. */
    std::uint64_t
    atLeastM(const std::uint64_t *a) const
    {
        std::uint64_t br = 0;
        for (int k = 0; k < width_; ++k)
            br = (~a[k] & m_[k]) | (~(a[k] ^ m_[k]) & br);
        return ~br;
    }

    int width_ = 0;
    std::uint64_t m_[kMaxBits]{};
    std::uint64_t h_[kMaxBits]{};
    std::uint64_t carry_[kMaxBits]{};
};

/**
 * FeatureFeedbackUnit for up to 64 rows at once (see FeedbackSlices).
 * Per row and cycle it computes exactly FeatureFeedbackUnit::step: with
 * h = (m - 1) / 2,
 *
 *    s = count + carry,   out = s >= m,
 *    carry' = out ? min(s - h - 1, m) : max(s - h, 0)
 *
 * (for odd m the scalar clamp binds on one side per branch only), as
 * one ripple add, one ripple subtract s - h - out, and two ripple
 * compares.  The arithmetic is exact, so every row's output bits equal
 * the per-row unit's.
 */
class FeatureFeedbackSlices : public FeedbackSlices
{
  public:
    /** Row @p row as FeatureFeedbackUnit(m): carry at the operating
     *  point (m - 1) / 2. */
    void reset(int row, int m) { restore(row, m, (m - 1) / 2); }

    /** Row @p row as FeatureFeedbackUnit::restore(m, carry). */
    void
    restore(int row, int m, int carry)
    {
        assert(m % 2 == 1);
        assert(carry >= 0 && carry <= m);
        arm(row, m, (m - 1) / 2, carry);
    }

    /** One cycle of every row; returns the SO bits (bit j = row j). */
    std::uint64_t
    step(const std::uint64_t *count, int planes)
    {
        std::uint64_t s[kMaxBits];
        sum(count, planes, s);
        const std::uint64_t out = atLeastM(s);
        // d = s - h - out; a final borrow means d < 0 (only when !out).
        std::uint64_t d[kMaxBits];
        std::uint64_t br = out;
        for (int k = 0; k < width_; ++k) {
            const std::uint64_t t = s[k] ^ h_[k];
            d[k] = t ^ br;
            br = (~s[k] & h_[k]) | (~t & br);
        }
        // d > m (only when out): the borrow out of m - d.
        std::uint64_t gt = 0;
        for (int k = 0; k < width_; ++k)
            gt = (~m_[k] & d[k]) | (~(m_[k] ^ d[k]) & gt);
        for (int k = 0; k < width_; ++k)
            carry_[k] = ~br & ((gt & m_[k]) | (~gt & d[k]));
        return out;
    }
};

/**
 * PoolingFeedbackUnit for up to 64 rows at once (see FeedbackSlices):
 * per row and cycle s = count + carry, out = s >= m,
 * carry' = out ? s - m : s — one ripple add and one ripple subtract.
 */
class PoolingFeedbackSlices : public FeedbackSlices
{
  public:
    /** Row @p row as PoolingFeedbackUnit(m): empty remainder. */
    void reset(int row, int m) { restore(row, m, 0); }

    /** Row @p row as PoolingFeedbackUnit::restore(m, carry). */
    void
    restore(int row, int m, int carry)
    {
        assert(carry >= 0 && carry < m);
        arm(row, m, 0, carry);
    }

    /** One cycle of every row; returns the SO bits (bit j = row j). */
    std::uint64_t
    step(const std::uint64_t *count, int planes)
    {
        std::uint64_t s[kMaxBits];
        sum(count, planes, s);
        // d = s - m; no final borrow means s >= m.
        std::uint64_t d[kMaxBits];
        std::uint64_t br = 0;
        for (int k = 0; k < width_; ++k) {
            const std::uint64_t t = s[k] ^ m_[k];
            d[k] = t ^ br;
            br = (~s[k] & m_[k]) | (~t & br);
        }
        for (int k = 0; k < width_; ++k)
            carry_[k] = (br & s[k]) | (~br & d[k]);
        return ~br;
    }
};

} // namespace aqfpsc::blocks

#endif // AQFPSC_BLOCKS_FEEDBACK_UNIT_H
