/**
 * @file
 * The benchmark's inputs, all made from the run's seed by the
 * benchmark's own generators (no library generator, so a change to
 * the library cannot change what is measured).
 *
 * Every workload serves four same-shape matrices, named after their
 * structure, not their format:
 *   clustered  aligned runs of non-zeros in 8-element blocks near a
 *              wide diagonal band (high block locality: SMASH)
 *   powerlaw   Zipf-like row populations, uniform columns (CSR)
 *   banded     a 2-D stencil on a grid, so a few full diagonals (DIA)
 *   scattered  the same count of uniform columns in every row (ELL)
 */

#ifndef SMASH_E2EBENCH_INPUTS_HH
#define SMASH_E2EBENCH_INPUTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace bench
{

enum class Workload
{
    kRpcSmall,
    kRpcLarge,
    kRpcMutate,
};

const char* toString(Workload w);
bool parseWorkload(const std::string& text, Workload& out);

inline constexpr std::size_t kMatrices = 4;
inline constexpr std::array<const char*, kMatrices> kMatrixNames = {
    "clustered", "powerlaw", "banded", "scattered"};
enum MatrixId : std::size_t
{
    kClustered = 0,
    kPowerlaw = 1,
    kBanded = 2,
    kScattered = 3,
};

/** One served matrix with its operands and expected results. */
struct MatrixInput
{
    std::string name;
    Oracle a;
    std::vector<std::vector<Value>> xs; //!< SpMV operands
    std::vector<std::vector<Value>> ys; //!< A xs[i] (initial content)
    smash::fmt::DenseMatrix b;          //!< 4-column SpMM operand
    smash::fmt::DenseMatrix c;          //!< A b (initial content)
};

/** Everything one workload serves. */
struct Inputs
{
    Workload workload = Workload::kRpcSmall;
    std::uint64_t seed = 0;
    Index n = 0; //!< rows = cols of every matrix
    std::array<MatrixInput, kMatrices> m;
    /** The matrix registered with registerSharded(K=2), or -1. */
    int sharded = -1;
};

/** Build @p workload's matrices, operands and expected results. */
Inputs makeInputs(Workload workload, std::uint64_t seed);

} // namespace bench

#endif // SMASH_E2EBENCH_INPUTS_HH
