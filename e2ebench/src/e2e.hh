/**
 * @file
 * The end-to-end harness: an in-process net::Server (its own
 * MatrixRegistry, a Unix socket, a 2-worker session) driven by
 * net::Client connections from the same process, every response
 * checked against the benchmark's oracle.
 *
 * Workloads (all closed loops, window 1):
 *   rpc_small   2 connections; SpMV (mostly), 4-column SpMM and
 *               SpAdd on four 384-row matrices; serial compute.
 *   rpc_large   1 connection; SpMV rotating over four 32768-row
 *               matrices of about 1.2M non-zeros; 2-worker parallel
 *               compute.
 *   rpc_mutate  1 client thread; SpMV and SpAdd reads over the
 *               socket, and, at fixed points of every round, writes
 *               through the in-process Session on two 8192-row
 *               matrices (one plain, one sharded K=2) that cross a
 *               format boundary and back in every round.
 *
 * Every run attempts whole rounds of a fixed operation list, so the
 * work per round never depends on timing. rpc_small and rpc_large
 * end with a fixed write phase (value-only writes on `clustered`,
 * each followed by one read), which gives them the read-after-write
 * metric too without touching their timed phase.
 */

#ifndef SMASH_E2EBENCH_E2E_HH
#define SMASH_E2EBENCH_E2E_HH

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "inputs.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "serve/registry.hh"

namespace bench
{

/** What the self-test plants in one operation. */
enum class Plant : std::uint8_t
{
    kNone,
    kOracle,   //!< perturb the expected result (after a write: its nnz)
    kResponse, //!< perturb the received result
};

/** One operation of the run: step @p step of script @p script. */
struct StepId
{
    std::size_t script = 0;
    std::size_t step = 0;

    bool operator==(const StepId&) const = default;
    auto operator<=>(const StepId&) const = default;
};

/** One fault the self-test plants. */
struct Fault
{
    StepId at;
    Plant plant = Plant::kNone;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports: operations attempted/failed, and metrics. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<StepId> failedSteps; //!< which operations failed
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

enum class OpKind : std::uint8_t
{
    kSpmv,
    kSpmm,
    kSpadd,
};

/** One socket request and the result it must return. */
struct ReadOp
{
    OpKind kind = OpKind::kSpmv;
    int a = 0;                      //!< matrix id
    int b = 0;                      //!< second operand (SpAdd)
    /** Prebuilt requests (shared by every op sending them). */
    std::shared_ptr<const smash::serve::SpmvRequest> spmv;
    std::shared_ptr<const smash::serve::SpmmRequest> spmm;
    const std::vector<Value>* y = nullptr;
    const smash::fmt::DenseMatrix* c = nullptr;
    const std::vector<smash::fmt::CooEntry>* sum = nullptr;
    bool afterWrite = false;        //!< first read after a write
};

/** One in-process write and the state it must leave. */
struct WriteOp
{
    int m = 0;
    bool scale = false;             //!< scaleValues, else applyUpdates
    Value factor = 1;
    smash::fmt::CooMatrix deltas;
    Index expectNnz = 0;            //!< oracle nnz after the write
    bool structural = false;        //!< inserts or removes entries
};

/** One step of a script: a read or a write. */
struct Step
{
    bool write = false;
    std::size_t index = 0;          //!< into the reads or the writes
};

class Harness
{
  public:
    Harness(const Inputs& in, Tracer& tracer);
    ~Harness();
    Harness(const Harness&) = delete;
    Harness& operator=(const Harness&) = delete;

    /** Register, encode, start the server, connect, ping; returns
     *  the seconds from the first put to the answered ping. */
    double setup();

    /** Warm up, run the timed phase for @p seconds, then the write
     *  phase; fills the end-to-end metrics. */
    void run(double seconds, Report& report);

    /** Run every script once with @p faults planted; counts into
     *  @p report (a clean pass when @p faults is empty). */
    void runOnce(const std::vector<Fault>& faults, Report& report);
    /** The faults the self-test plants: for each kind of read the
     *  scripts hold, an oracle fault in its first occurrence and a
     *  response fault in its second, and an oracle fault in the
     *  first write. */
    std::vector<Fault> selfTestFaults() const;

    smash::serve::MatrixRegistry& registry() { return registry_; }
    smash::net::Client& client() { return *clients_[0]; }
    smash::serve::SessionOptions sessionOptions() const;
    const Inputs& inputs() const { return in_; }
    /** The reads of script @p i, in order. */
    std::vector<ReadOp> reads(std::size_t i) const;
    /** Median wall time of one write call in the last run(), in us. */
    double writeP50Us() const { return write_p50_us_; }
    /** Expected A + B for each SpAdd pair of the initial content. */
    const std::vector<smash::fmt::CooEntry>& initialSum(int a, int b);

    /** Stop the server and close the clients (idempotent). */
    void stop();

  private:
    struct Tally;
    ReadOp spmvOp(int m, int k, const std::vector<Value>* y);
    void buildRounds();
    void buildMutateScript();
    void buildWritePhase();
    /** Append a read (a write) step to script @p script. */
    void addRead(std::size_t script, const ReadOp& op);
    void addWrite(std::size_t script, WriteOp w);
    /** Send @p op, check the answer; false when it failed. */
    bool execRead(smash::net::Client& c, const ReadOp& op, Plant plant,
                  Tally& t, std::uint64_t request);
    /** Apply @p w through the session and check the nnz. */
    bool execWrite(const WriteOp& w, Plant plant, Tally& t);
    /** Wait until no re-encode is pending on @p m. */
    void settle(int m);
    /** Run script @p i once on connection @p c: the one step function
     *  of the timed loops, the write phase and the self-test.
     *  @p faults is null when nothing is planted. */
    void runScript(std::size_t i, smash::net::Client& c, Tally& t,
                   std::uint64_t& request, const std::vector<Fault>* faults);
    void clientLoop(std::size_t i, Clock::time_point warm_end,
                    Clock::time_point end, Tally& t);

    const Inputs& in_;
    Tracer& tracer_;
    std::string socket_path_;
    smash::serve::MatrixRegistry registry_;
    std::unique_ptr<smash::net::Server> server_;
    std::vector<std::unique_ptr<smash::net::Client>> clients_;
    /** Scripts: one round per client (rpc_mutate: one, reads and
     *  writes), then, on rpc_small and rpc_large, the write phase
     *  (writes, each followed by a read), run on the first client. */
    std::vector<std::vector<Step>> scripts_;
    std::size_t write_phase_ = SIZE_MAX; //!< its index, if any
    std::vector<ReadOp> reads_;
    std::vector<WriteOp> writes_;
    /** Expected results owned here (stable addresses). */
    std::vector<std::unique_ptr<std::vector<Value>>> owned_ys_;
    std::vector<std::unique_ptr<std::vector<smash::fmt::CooEntry>>>
        owned_sums_;
    std::vector<std::pair<std::pair<int, int>,
                          const std::vector<smash::fmt::CooEntry>*>>
        initial_sums_;
    double write_p50_us_ = 0;
    /** Prebuilt SpMV requests, [matrix][operand]. */
    std::vector<std::vector<
        std::shared_ptr<const smash::serve::SpmvRequest>>> spmv_reqs_;
};

/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace bench

#endif // SMASH_E2EBENCH_E2E_HH
