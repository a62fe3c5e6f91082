/**
 * @file
 * Shared pieces of the end-to-end benchmark: the seeded generator,
 * the benchmark's own matrix oracle, exact percentiles, and the
 * span tracer of the traced run.
 *
 * Every matrix value is an odd multiple of 1/8 and every operand
 * value a multiple of 1/16, so every product is a multiple of 1/128
 * and every sum the benchmark's matrices produce is exact in
 * doubles, in any order. That is what lets each response be compared
 * with the oracle bit for bit, whatever format, kernel, thread count
 * or shard count the server picked.
 */

#ifndef SMASH_E2EBENCH_COMMON_HH
#define SMASH_E2EBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "formats/coo_matrix.hh"
#include "formats/dense_matrix.hh"

namespace bench
{

using smash::Index;
using smash::Value;
using Clock = std::chrono::steady_clock;

/** splitmix64: a fixed, portable stream for every seeded input. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    Index below(Index n) { return static_cast<Index>(next() % n); }

    /** Matrix value: an odd multiple of 1/8 in [-15/8, 15/8]. */
    Value matrixValue() { return static_cast<Value>(2 * below(16) - 15) / 8; }

    /** Operand value: a multiple of 1/16 in [-1, 1]. */
    Value operandValue() { return static_cast<Value>(below(33) - 16) / 16; }

  private:
    std::uint64_t state_;
};

/** A seed for stream @p stream of a run seeded with @p seed. */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng r(seed * 0x100000001b3ull + stream);
    return r.next();
}

/** One stored entry of an Oracle row. */
struct Entry
{
    Index col;
    Value value;
};

/**
 * The benchmark's own copy of a matrix: sorted rows of (col, value),
 * no stored zeros. It computes every expected result, and follows
 * the same writes the registry receives.
 */
class Oracle
{
  public:
    Oracle() = default;
    Oracle(Index rows, Index cols)
        : rows_(rows), cols_(cols),
          row_(static_cast<std::size_t>(rows))
    {}

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const;
    const std::vector<Entry>& row(Index r) const
    {
        return row_[static_cast<std::size_t>(r)];
    }
    /** Mutable row (generators fill it; must end sorted, zero-free). */
    std::vector<Entry>& row(Index r)
    {
        return row_[static_cast<std::size_t>(r)];
    }

    /** True when (r, c) is stored. */
    bool has(Index r, Index c) const;

    /** y = A x. */
    std::vector<Value> spmv(const std::vector<Value>& x) const;
    /** C = A B, one column of B per right-hand side. */
    smash::fmt::DenseMatrix spmm(const smash::fmt::DenseMatrix& b) const;
    /** A + B as canonical entries; exact zero sums are dropped. */
    std::vector<smash::fmt::CooEntry> add(const Oracle& b) const;

    /** A(r, c) += v for each canonical delta; zero sums are removed. */
    void apply(const smash::fmt::CooMatrix& deltas);
    void scale(Value factor);

    smash::fmt::CooMatrix toCoo() const;

    bool operator==(const Oracle& o) const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<std::vector<Entry>> row_;
};

/** Exact quantile (linear between closest ranks) of @p v; sorts it. */
double quantile(std::vector<double>& v, double q);

/** Median of @p v (sorts it). */
inline double
median(std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Microseconds between two time points. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * In-memory span recorder of the traced run: one span per layer call
 * the benchmark makes, with its parent span and request id. Spans
 * are written out once, at exit. Disabled (the untraced run), every
 * call is a branch on one bool.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t name = 0;     //!< index into the name table
        Clock::time_point start;
        Clock::time_point end;
        std::int64_t parent = -1;   //!< index of the parent span
        std::uint64_t request = 0;  //!< request id (0 = none)
        std::uint32_t thread = 0;   //!< recording thread (0, 1, ...)
    };

    /** RAII span; parent is the innermost open span of the thread. */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* name, std::uint64_t request = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        std::int64_t index_ = -1;
        std::int64_t saved_parent_ = -1;
    };

    void enable() { enabled_ = true; }

    /**
     * Write the spans as Chrome trace events (the first
     * kEventsPerName of each name) plus, over all spans, per-name
     * count, total and self time (self = duration minus the time its
     * children cover), to @p path. False when it cannot be written.
     */
    bool write(const std::string& path) const;

  private:
    std::int64_t open(const char* name, std::uint64_t request,
                      std::int64_t parent);
    void close(std::int64_t index);

    static constexpr std::uint64_t kEventsPerName = 1000;

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> name_ids_;
    Clock::time_point epoch_ = Clock::now();
};

} // namespace bench

#endif // SMASH_E2EBENCH_COMMON_HH
