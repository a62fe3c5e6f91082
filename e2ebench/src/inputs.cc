#include "inputs.hh"

#include <algorithm>
#include <cmath>

namespace bench
{

const char*
toString(Workload w)
{
    switch (w) {
      case Workload::kRpcSmall: return "rpc_small";
      case Workload::kRpcLarge: return "rpc_large";
      case Workload::kRpcMutate: return "rpc_mutate";
    }
    return "unknown";
}

bool
parseWorkload(const std::string& text, Workload& out)
{
    for (Workload w : {Workload::kRpcSmall, Workload::kRpcLarge,
                       Workload::kRpcMutate}) {
        if (text == toString(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

namespace
{

/** @p count distinct sorted columns of row @p r, uniform in [0, n). */
void
fillUniformRow(Oracle& a, Index r, Index count, Rng& rng,
               std::vector<char>& mark)
{
    std::vector<Entry>& row = a.row(r);
    while (static_cast<Index>(row.size()) < count) {
        const Index c = rng.below(a.cols());
        if (mark[static_cast<std::size_t>(c)])
            continue;
        mark[static_cast<std::size_t>(c)] = 1;
        row.push_back({c, 0});
    }
    std::sort(row.begin(), row.end(),
              [](const Entry& x, const Entry& y) { return x.col < y.col; });
    for (Entry& e : row) {
        mark[static_cast<std::size_t>(e.col)] = 0;
        e.value = rng.matrixValue();
    }
}

/** Runs of @p run_len entries inside distinct aligned 8-blocks,
 *  runs_lo..runs_hi per row, within +-@p band of the diagonal. */
Oracle
genClustered(Index n, Index runs_lo, Index runs_hi, Index run_len,
             Index band, Rng& rng)
{
    Oracle a(n, n);
    std::vector<Index> picked;
    for (Index r = 0; r < n; ++r) {
        const Index lo = std::max<Index>(0, r - band) / 8;
        const Index hi = std::min<Index>(n - 1, r + band) / 8;
        const Index runs =
            std::min(runs_lo + rng.below(runs_hi - runs_lo + 1), hi - lo + 1);
        picked.clear();
        while (static_cast<Index>(picked.size()) < runs) {
            const Index b = lo + rng.below(hi - lo + 1);
            if (std::find(picked.begin(), picked.end(), b) == picked.end())
                picked.push_back(b);
        }
        std::sort(picked.begin(), picked.end());
        for (Index b : picked) {
            const Index start = b * 8 + rng.below(8 - run_len + 1);
            for (Index c = start; c < start + run_len && c < n; ++c)
                a.row(r).push_back({c, rng.matrixValue()});
        }
    }
    return a;
}

/** Zipf-like row populations (exponent @p alpha over a random rank
 *  order) summing to about @p nnz, uniform distinct columns. */
Oracle
genPowerLaw(Index n, Index nnz, double alpha, Rng& rng)
{
    Oracle a(n, n);
    std::vector<Index> rank(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        rank[static_cast<std::size_t>(i)] = i;
    for (Index i = n - 1; i > 0; --i)
        std::swap(rank[static_cast<std::size_t>(i)],
                  rank[static_cast<std::size_t>(rng.below(i + 1))]);
    double total = 0;
    for (Index i = 0; i < n; ++i)
        total += std::pow(static_cast<double>(i + 1), -alpha);
    std::vector<char> mark(static_cast<std::size_t>(n), 0);
    for (Index r = 0; r < n; ++r) {
        const double w = std::pow(
            static_cast<double>(rank[static_cast<std::size_t>(r)] + 1),
            -alpha);
        const auto pop = std::clamp<Index>(
            static_cast<Index>(std::llround(static_cast<double>(nnz) * w /
                                            total)),
            1, n / 2);
        fillUniformRow(a, r, pop, rng, mark);
    }
    return a;
}

/** (2 rx + 1) x (2 ry + 1)-point stencil on an nx x ny grid. */
Oracle
genBanded(Index nx, Index ny, Index rx, Index ry, Rng& rng)
{
    Oracle a(nx * ny, nx * ny);
    for (Index y = 0; y < ny; ++y)
        for (Index x = 0; x < nx; ++x)
            for (Index dy = -ry; dy <= ry; ++dy)
                for (Index dx = -rx; dx <= rx; ++dx) {
                    if (x + dx < 0 || x + dx >= nx || y + dy < 0 ||
                        y + dy >= ny)
                        continue;
                    a.row(y * nx + x).push_back(
                        {(y + dy) * nx + x + dx, rng.matrixValue()});
                }
    return a;
}

/** Exactly @p per_row uniform distinct columns in every row. */
Oracle
genScattered(Index n, Index per_row, Rng& rng)
{
    Oracle a(n, n);
    std::vector<char> mark(static_cast<std::size_t>(n), 0);
    for (Index r = 0; r < n; ++r)
        fillUniformRow(a, r, per_row, rng, mark);
    return a;
}

std::vector<Value>
randomVector(Index n, Rng& rng)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Value& v : x)
        v = rng.operandValue();
    return x;
}

smash::fmt::DenseMatrix
randomBlock(Index rows, Index cols, Rng& rng)
{
    smash::fmt::DenseMatrix b(rows, cols);
    for (Value& v : b.data())
        v = rng.operandValue();
    return b;
}

} // namespace

Inputs
makeInputs(Workload workload, std::uint64_t seed)
{
    Inputs in;
    in.workload = workload;
    in.seed = seed;
    int operands = 2;
    std::array<Rng, kMatrices> rng = {
        Rng(streamSeed(seed, 1)), Rng(streamSeed(seed, 2)),
        Rng(streamSeed(seed, 3)), Rng(streamSeed(seed, 4))};
    switch (workload) {
      case Workload::kRpcSmall:
        in.n = 384;
        operands = 4;
        in.m[kClustered].a = genClustered(in.n, 3, 3, 8, 64, rng[0]);
        in.m[kPowerlaw].a = genPowerLaw(in.n, in.n * 16, 0.6, rng[1]);
        in.m[kBanded].a = genBanded(24, 16, 1, 1, rng[2]);
        in.m[kScattered].a = genScattered(in.n, 16, rng[3]);
        break;
      case Workload::kRpcLarge:
        in.n = 32768;
        in.m[kClustered].a = genClustered(in.n, 4, 6, 8, 2048, rng[0]);
        in.m[kPowerlaw].a = genPowerLaw(in.n, 1250000, 0.6, rng[1]);
        in.m[kBanded].a = genBanded(256, 128, 3, 2, rng[2]);
        in.m[kScattered].a = genScattered(in.n, 38, rng[3]);
        break;
      case Workload::kRpcMutate:
        in.n = 8192;
        in.sharded = kScattered;
        // Runs of 6 in 8-blocks: block locality 0.75, far enough
        // above the SMASH boundary (0.5, 0.6 to re-enter) that
        // removing the scattered inserts always crosses back.
        in.m[kClustered].a = genClustered(in.n, 4, 4, 6, 1024, rng[0]);
        in.m[kPowerlaw].a = genPowerLaw(in.n, in.n * 24, 0.6, rng[1]);
        in.m[kBanded].a = genBanded(128, 64, 2, 2, rng[2]);
        in.m[kScattered].a = genScattered(in.n, 24, rng[3]);
        break;
    }
    for (std::size_t i = 0; i < kMatrices; ++i) {
        MatrixInput& mi = in.m[i];
        mi.name = kMatrixNames[i];
        Rng ops(streamSeed(seed, 16 + i));
        for (int k = 0; k < operands; ++k) {
            mi.xs.push_back(randomVector(in.n, ops));
            mi.ys.push_back(mi.a.spmv(mi.xs.back()));
        }
        mi.b = randomBlock(in.n, 4, ops);
        mi.c = mi.a.spmm(mi.b);
    }
    return in;
}

} // namespace bench
