#include "e2e.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

namespace bench
{

namespace fmt = smash::fmt;
namespace net = smash::net;
namespace serve = smash::serve;

/** Per-thread counts and samples, merged after the run. */
struct Harness::Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;
    bool timing = false;            //!< inside the timed phase
    Clock::time_point timedStart{};
    Clock::time_point timedEnd{};
    std::vector<double> all;        //!< timed request latencies (us)
    std::vector<Clock::time_point> done; //!< their completion times
    std::array<std::vector<double>, kMatrices> perMatrix; //!< SpMV
    std::vector<double> writes;     //!< write call wall times (us)
    std::vector<double> raw;        //!< read-after-write latencies
    std::vector<StepId> failedSteps;
};

namespace
{

/** Warm-up before the timed phase (whole rounds until it passes). */
double
warmSeconds(Workload w)
{
    switch (w) {
      case Workload::kRpcSmall: return 1.0;
      case Workload::kRpcLarge: return 2.0;
      case Workload::kRpcMutate: return 1.5;
    }
    return 1.0;
}

bool
sameBits(const Value* a, const Value* b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(Value)) == 0;
}

/** The self-test's fault: 1/64 added to the first value, an error no
 *  exact result can absorb. */
constexpr Value kFault = 1.0 / 64;

void perturb(std::vector<Value>& v) { v.at(0) += kFault; }
void perturb(fmt::DenseMatrix& m) { m.data().at(0) += kFault; }
void perturb(std::vector<fmt::CooEntry>& e) { e.at(0).value += kFault; }

/** @p want, or under Plant::kOracle a perturbed copy of it. */
template <class T>
const T&
expected(const T& want, T& copy, Plant plant)
{
    if (plant != Plant::kOracle)
        return want;
    copy = want;
    perturb(copy);
    return copy;
}

const char*
spanName(OpKind k)
{
    switch (k) {
      case OpKind::kSpmv: return "rpc.spmv";
      case OpKind::kSpmm: return "rpc.spmm";
      case OpKind::kSpadd: return "rpc.spadd";
    }
    return "rpc";
}

/** A +-1/4 or +-1/2 delta on about 1 in @p every stored entries: added
 *  to an odd multiple of 1/8 it never cancels to zero. */
fmt::CooMatrix
valueDeltas(const Oracle& a, Index every, Rng& rng)
{
    fmt::CooMatrix d(a.rows(), a.cols());
    for (Index r = 0; r < a.rows(); ++r)
        for (const Entry& e : a.row(r))
            if (rng.below(every) == 0)
                d.add(r, e.col,
                      static_cast<Value>(1 + rng.below(2)) / 4 *
                          (rng.below(2) ? 1 : -1));
    return d;
}

fmt::CooMatrix
negated(const fmt::CooMatrix& d)
{
    fmt::CooMatrix out(d.rows(), d.cols());
    for (const fmt::CooEntry& e : d.entries())
        out.add(e.row, e.col, -e.value);
    return out;
}

} // namespace

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Harness::Harness(const Inputs& in, Tracer& tracer)
    : in_(in), tracer_(tracer)
{
    std::filesystem::create_directories(".bench_out");
    socket_path_ = ".bench_out/e2e-" + std::to_string(::getpid()) + ".sock";
    spmv_reqs_.resize(kMatrices);
    for (std::size_t m = 0; m < kMatrices; ++m)
        for (const auto& x : in_.m[m].xs)
            spmv_reqs_[m].push_back(std::make_shared<serve::SpmvRequest>(
                serve::SpmvRequest{in_.m[m].name, x, {}}));
    buildRounds();
}

Harness::~Harness()
{
    stop();
}

void
Harness::stop()
{
    for (auto& c : clients_)
        c->close();
    if (server_) {
        server_->shutdown();
        server_.reset();
        std::filesystem::remove(socket_path_);
    }
}

serve::SessionOptions
Harness::sessionOptions() const
{
    serve::SessionOptions o;
    o.threads = 2;
    o.compute = in_.workload == Workload::kRpcLarge
        ? serve::ComputeExec::kParallel
        : serve::ComputeExec::kSerial;
    return o;
}

const std::vector<fmt::CooEntry>&
Harness::initialSum(int a, int b)
{
    for (const auto& [key, sum] : initial_sums_)
        if (key == std::make_pair(a, b))
            return *sum;
    owned_sums_.push_back(std::make_unique<std::vector<fmt::CooEntry>>(
        in_.m[static_cast<std::size_t>(a)].a.add(
            in_.m[static_cast<std::size_t>(b)].a)));
    initial_sums_.push_back({{a, b}, owned_sums_.back().get()});
    return *owned_sums_.back();
}

ReadOp
Harness::spmvOp(int m, int k, const std::vector<Value>* y)
{
    ReadOp op;
    op.kind = OpKind::kSpmv;
    op.a = m;
    op.spmv = spmv_reqs_[static_cast<std::size_t>(m)]
                        [static_cast<std::size_t>(k)];
    op.y = y ? y
             : &in_.m[static_cast<std::size_t>(m)]
                    .ys[static_cast<std::size_t>(k)];
    return op;
}

void
Harness::buildRounds()
{
    if (in_.workload == Workload::kRpcMutate) {
        buildMutateScript();
        return;
    }
    auto spmm = [&](int m) {
        ReadOp op;
        op.kind = OpKind::kSpmm;
        op.a = m;
        op.spmm = std::make_shared<serve::SpmmRequest>(serve::SpmmRequest{
            in_.m[static_cast<std::size_t>(m)].name,
            in_.m[static_cast<std::size_t>(m)].b, {}});
        op.c = &in_.m[static_cast<std::size_t>(m)].c;
        return op;
    };
    auto spadd = [&](int a, int b) {
        ReadOp op;
        op.kind = OpKind::kSpadd;
        op.a = a;
        op.b = b;
        op.sum = &initialSum(a, b);
        return op;
    };
    std::vector<ReadOp> round;
    if (in_.workload == Workload::kRpcSmall) {
        // 20 requests: 16 SpMV (every matrix x every operand), two
        // 4-column SpMM, two SpAdd.
        for (int k = 0; k < 4; ++k) {
            for (int m = 0; m < 4; ++m)
                round.push_back(spmvOp(m, k, nullptr));
            if (k == 0)
                round.push_back(spmm(kClustered));
            if (k == 1)
                round.push_back(spadd(kClustered, kScattered));
            if (k == 2)
                round.push_back(spmm(kBanded));
            if (k == 3)
                round.push_back(spadd(kPowerlaw, kBanded));
        }
        scripts_.resize(2);
        for (const ReadOp& op : round)
            addRead(0, op);
        // The second connection runs the same round half a round out
        // of phase.
        std::rotate(round.begin(), round.begin() + 10, round.end());
        for (const ReadOp& op : round)
            addRead(1, op);
    } else {
        scripts_.resize(1);
        for (int k = 0; k < 2; ++k)
            for (int m = 0; m < 4; ++m)
                addRead(0, spmvOp(m, k, nullptr));
    }
    buildWritePhase();
}

void
Harness::addRead(std::size_t script, const ReadOp& op)
{
    scripts_[script].push_back({false, reads_.size()});
    reads_.push_back(op);
}

void
Harness::addWrite(std::size_t script, WriteOp w)
{
    scripts_[script].push_back({true, writes_.size()});
    writes_.push_back(std::move(w));
}

std::vector<ReadOp>
Harness::reads(std::size_t i) const
{
    std::vector<ReadOp> out;
    for (const Step& s : scripts_[i])
        if (!s.write)
            out.push_back(reads_[s.index]);
    return out;
}

void
Harness::buildWritePhase()
{
    // Value-only writes on `clustered` (1024; 64 on the large matrices),
    // alternating +d and -d, each followed by one SpMV of the written
    // matrix.
    Rng rng(streamSeed(in_.seed, 40));
    const Oracle& base = in_.m[kClustered].a;
    const fmt::CooMatrix plus = valueDeltas(base, 100, rng);
    Oracle after = base;
    after.apply(plus);
    owned_ys_.push_back(std::make_unique<std::vector<Value>>(
        after.spmv(in_.m[kClustered].xs[0])));
    const std::vector<Value>* y_plus = owned_ys_.back().get();
    const int count = in_.workload == Workload::kRpcLarge ? 64 : 1024;
    write_phase_ = scripts_.size();
    scripts_.emplace_back();
    for (int w = 0; w < count; ++w) {
        WriteOp op;
        op.m = kClustered;
        op.deltas = w % 2 == 0 ? plus : negated(plus);
        op.expectNnz = base.nnz();
        addWrite(write_phase_, std::move(op));
        ReadOp read = spmvOp(kClustered, 0, w % 2 == 0 ? y_plus : nullptr);
        read.afterWrite = true;
        addRead(write_phase_, read);
    }
}

void
Harness::buildMutateScript()
{
    // One round: twelve writes on the plain `clustered` entry (C)
    // and the sharded `scattered` entry (S), each followed by eight
    // SpMV reads, the first of them on the written matrix; two SpAdd
    // reads. Inserts cross a format boundary, removals cross back,
    // and the round ends where it began.
    Oracle cur[kMatrices] = {in_.m[0].a, in_.m[1].a, in_.m[2].a,
                             in_.m[3].a};
    Rng rng(streamSeed(in_.seed, 41));
    scripts_.resize(1);
    auto expectY = [&](int m, int k) -> const std::vector<Value>* {
        if (m != kClustered && m != kScattered)
            return nullptr; // never written: the initial result
        owned_ys_.push_back(std::make_unique<std::vector<Value>>(
            cur[m].spmv(in_.m[static_cast<std::size_t>(m)]
                            .xs[static_cast<std::size_t>(k)])));
        return owned_ys_.back().get();
    };
    auto readBlock = [&](int m) {
        const int other = m == kClustered ? kScattered : kClustered;
        for (int k = 0; k < 2; ++k) {
            for (int target : {m, static_cast<int>(kPowerlaw),
                               static_cast<int>(kBanded), other}) {
                ReadOp op = spmvOp(target, k, expectY(target, k));
                op.afterWrite = k == 0 && target == m;
                addRead(0, op);
            }
        }
    };
    auto spaddRead = [&](int a, int b) {
        ReadOp op;
        op.kind = OpKind::kSpadd;
        op.a = a;
        op.b = b;
        owned_sums_.push_back(std::make_unique<std::vector<fmt::CooEntry>>(
            cur[a].add(cur[b])));
        op.sum = owned_sums_.back().get();
        addRead(0, op);
    };
    auto write = [&](int m, WriteOp w) {
        w.m = m;
        if (w.scale)
            cur[m].scale(w.factor);
        else
            cur[m].apply(w.deltas);
        w.expectNnz = cur[m].nnz();
        addWrite(0, std::move(w));
        readBlock(m);
    };
    auto update = [](fmt::CooMatrix d, bool structural) {
        WriteOp w;
        w.deltas = std::move(d);
        w.structural = structural;
        return w;
    };
    auto scale = [](Value f) {
        WriteOp w;
        w.scale = true;
        w.factor = f;
        return w;
    };
    // The inverse of @p ins at the current values (they may have been
    // scaled since): applying it removes exactly those entries.
    auto removal = [&](int m, const fmt::CooMatrix& ins) {
        fmt::CooMatrix d(ins.rows(), ins.cols());
        for (const fmt::CooEntry& e : ins.entries()) {
            const auto& row = cur[m].row(e.row);
            auto it = std::lower_bound(
                row.begin(), row.end(), e.col,
                [](const Entry& x, Index c) { return x.col < c; });
            d.add(e.row, e.col, -it->value);
        }
        return d;
    };

    const Index n = in_.n;
    // C inserts: six singletons per row, each in an 8-block the row
    // does not touch yet. Block locality falls from 0.75 to about
    // 0.38, below the 0.4 a SMASH matrix needs to leave SMASH.
    fmt::CooMatrix ins_c(n, n);
    {
        std::vector<Index> blocks;
        for (Index r = 0; r < n; ++r) {
            blocks.clear();
            for (const Entry& e : cur[kClustered].row(r))
                blocks.push_back(e.col / 8);
            std::vector<Index> cols;
            while (cols.size() < 6) {
                const Index b = rng.below(n / 8);
                if (std::find(blocks.begin(), blocks.end(), b) !=
                    blocks.end())
                    continue;
                blocks.push_back(b);
                cols.push_back(b * 8 + rng.below(8));
            }
            std::sort(cols.begin(), cols.end());
            for (Index c : cols)
                ins_c.add(r, c, rng.matrixValue());
        }
    }
    // S inserts: 48 extra entries in every 32nd row (128 rows per
    // shard, 6% of a shard's nnz): the row-length spread pushes both
    // shards out of ELL.
    fmt::CooMatrix ins_s(n, n);
    for (Index r = 7; r < n; r += 32) {
        std::vector<Index> cols;
        while (cols.size() < 48) {
            const Index c = rng.below(n);
            if (cur[kScattered].has(r, c) ||
                std::find(cols.begin(), cols.end(), c) != cols.end())
                continue;
            cols.push_back(c);
        }
        std::sort(cols.begin(), cols.end());
        for (Index c : cols)
            ins_s.add(r, c, rng.matrixValue());
    }
    const fmt::CooMatrix dc = valueDeltas(cur[kClustered], 50, rng);
    const fmt::CooMatrix ds = valueDeltas(cur[kScattered], 50, rng);

    write(kClustered, update(dc, false));
    write(kScattered, update(ds, false));
    write(kClustered, update(ins_c, true));
    write(kClustered, scale(-1));
    write(kScattered, update(ins_s, true));
    spaddRead(kClustered, kScattered);
    write(kClustered, update(removal(kClustered, ins_c), true));
    write(kScattered, scale(-1));
    write(kScattered, update(removal(kScattered, ins_s), true));
    write(kClustered, scale(-1));
    write(kClustered, update(negated(dc), false));
    write(kScattered, scale(-1));
    write(kScattered, update(negated(ds), false));
    spaddRead(kScattered, kClustered);

    if (!(cur[kClustered] == in_.m[kClustered].a) ||
        !(cur[kScattered] == in_.m[kScattered].a))
        throw std::runtime_error("rpc_mutate round does not restore "
                                 "its matrices");
}

double
Harness::setup()
{
    // COO copies are input preparation, outside the timed set-up.
    std::vector<fmt::CooMatrix> coo;
    for (const MatrixInput& mi : in_.m)
        coo.push_back(mi.a.toCoo());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t m = 0; m < kMatrices; ++m) {
        if (static_cast<int>(m) == in_.sharded)
            registry_.registerSharded(in_.m[m].name, std::move(coo[m]), 2);
        else
            registry_.put(in_.m[m].name, std::move(coo[m]));
    }
    const Clock::time_point t1 = Clock::now();
    // Encode every matrix the way its first request would, so the
    // timed phase starts warm: the primary encodings, and the CSR
    // views the SpAdd requests read.
    for (std::size_t m = 0; m < kMatrices; ++m) {
        if (auto sh = registry_.sharded(in_.m[m].name))
            sh->ensureEncoded();
        else
            registry_.encoded(in_.m[m].name);
    }
    for (const ReadOp& op : reads_)
        if (op.kind == OpKind::kSpadd) {
            if (!registry_.sharded(in_.m[op.a].name))
                registry_.encodedAs(in_.m[op.a].name,
                                    smash::eng::Format::kCsr);
            registry_.encodedAs(in_.m[op.b].name, smash::eng::Format::kCsr);
        }
    const Clock::time_point t2 = Clock::now();
    net::ServerOptions options;
    options.unixPath = socket_path_;
    options.session = sessionOptions();
    server_ = std::make_unique<net::Server>(registry_, options);
    std::string error;
    if (!server_->start(error))
        throw std::runtime_error("server start: " + error);
    const std::size_t conns = in_.workload == Workload::kRpcSmall ? 2 : 1;
    for (std::size_t i = 0; i < conns; ++i) {
        clients_.push_back(std::make_unique<net::Client>());
        if (!clients_.back()->connectUnixSocket(socket_path_, error))
            throw std::runtime_error("connect: " + error);
    }
    if (!clients_[0]->ping().ok())
        throw std::runtime_error("first ping failed");
    const Clock::time_point t3 = Clock::now();
    std::cerr << "setup: put " << usBetween(t0, t1) / 1e6 << " s, encode "
              << usBetween(t1, t2) / 1e6 << " s, serve "
              << usBetween(t2, t3) / 1e6 << " s\n";
    return std::chrono::duration<double>(t3 - t0).count();
}

bool
Harness::execRead(net::Client& c, const ReadOp& op, Plant plant, Tally& t,
                  std::uint64_t request)
{
    ++t.attempted;
    const MatrixInput& ma = in_.m[static_cast<std::size_t>(op.a)];
    std::string error;
    bool match = false;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1;
    {
        Tracer::Scope span(tracer_, spanName(op.kind), request);
        switch (op.kind) {
          case OpKind::kSpmv: {
            const std::uint64_t id = c.sendSpmv(*op.spmv);
            auto resp = id ? c.readSpmvResponse() : std::nullopt;
            t1 = Clock::now();
            if (!resp || resp->id != id) {
                error = "transport failure";
            } else if (!resp->result.ok()) {
                error = resp->result.status().toString();
            } else {
                std::vector<Value>& y = resp->result.value();
                if (plant == Plant::kResponse)
                    perturb(y);
                std::vector<Value> copy;
                const std::vector<Value>& want = expected(*op.y, copy, plant);
                match = y.size() == want.size() &&
                    sameBits(y.data(), want.data(), y.size());
            }
            break;
          }
          case OpKind::kSpmm: {
            auto r = c.spmm(*op.spmm);
            t1 = Clock::now();
            if (!r.ok()) {
                error = r.status().toString();
            } else {
                fmt::DenseMatrix& got = r.value();
                if (plant == Plant::kResponse)
                    perturb(got);
                fmt::DenseMatrix copy;
                const fmt::DenseMatrix& want = expected(*op.c, copy, plant);
                match = got.rows() == want.rows() &&
                    got.cols() == want.cols() &&
                    sameBits(got.data().data(), want.data().data(),
                             got.data().size());
            }
            break;
          }
          case OpKind::kSpadd: {
            auto r = c.spadd(serve::SpaddRequest{
                ma.name, in_.m[static_cast<std::size_t>(op.b)].name, {}});
            t1 = Clock::now();
            if (!r.ok()) {
                error = r.status().toString();
            } else {
                std::vector<fmt::CooEntry> altered;
                const std::vector<fmt::CooEntry>* entries =
                    &r.value().entries();
                if (plant == Plant::kResponse) {
                    altered = *entries;
                    perturb(altered);
                    entries = &altered;
                }
                const auto& got = *entries;
                std::vector<fmt::CooEntry> copy;
                const auto& want = expected(*op.sum, copy, plant);
                match = got.size() == want.size();
                for (std::size_t i = 0; match && i < got.size(); ++i)
                    match = got[i].row == want[i].row &&
                        got[i].col == want[i].col &&
                        sameBits(&got[i].value, &want[i].value, 1);
            }
            break;
          }
        }
    }
    if (!error.empty() || !match) {
        ++t.failed;
        if (error.empty())
            ++t.mismatched;
        if (t.failed <= 5)
            std::cerr << "FAILED " << spanName(op.kind) << " on " << ma.name
                      << ": " << (error.empty() ? "result differs from the "
                                                  "oracle"
                                                : error)
                      << "\n";
        return false;
    }
    const double us = usBetween(t0, t1);
    if (op.afterWrite)
        t.raw.push_back(us);
    if (t.timing) {
        t.all.push_back(us);
        t.done.push_back(t1);
        if (op.kind == OpKind::kSpmv)
            t.perMatrix[static_cast<std::size_t>(op.a)].push_back(us);
    }
    return true;
}

bool
Harness::execWrite(const WriteOp& w, Plant plant, Tally& t)
{
    ++t.attempted;
    const std::string& name = in_.m[static_cast<std::size_t>(w.m)].name;
    serve::Session& session = server_->session();
    fmt::CooMatrix deltas = w.scale ? fmt::CooMatrix() : w.deltas;
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope span(tracer_, w.scale ? "write.scale_values"
                                            : "write.apply_updates");
        if (w.scale)
            session.scaleValues(name, w.factor);
        else
            session.applyUpdates(name, std::move(deltas));
    }
    const double us = usBetween(t0, Clock::now());
    const Index nnz = registry_.info(name).nnz;
    const Index expect = w.expectNnz + (plant == Plant::kOracle ? 1 : 0);
    if (nnz != expect) {
        ++t.failed;
        ++t.mismatched;
        if (t.failed <= 5)
            std::cerr << "FAILED write on " << name << ": registry nnz "
                      << nnz << ", oracle " << expect << "\n";
        return false;
    }
    t.writes.push_back(us);
    return true;
}

void
Harness::settle(int m)
{
    const std::string& name = in_.m[static_cast<std::size_t>(m)].name;
    while (registry_.info(name).reencodePending)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
}

void
Harness::runScript(std::size_t i, net::Client& c, Tally& t,
                   std::uint64_t& request, const std::vector<Fault>* faults)
{
    const std::vector<Step>& script = scripts_[i];
    for (std::size_t k = 0; k < script.size(); ++k) {
        const Step& s = script[k];
        Plant plant = Plant::kNone;
        if (faults)
            for (const Fault& f : *faults)
                if (f.at == StepId{i, k})
                    plant = f.plant;
        bool ok = false;
        if (s.write) {
            const WriteOp& w = writes_[s.index];
            // A structural write waits for the re-encode it triggers,
            // so every round does the same work whatever the timing:
            // no read races the rebuild.
            if (w.structural)
                settle(w.m);
            ok = execWrite(w, plant, t);
            if (w.structural)
                settle(w.m);
        } else {
            ok = execRead(c, reads_[s.index], plant, t, ++request);
        }
        if (!ok)
            t.failedSteps.push_back({i, k});
    }
}

void
Harness::clientLoop(std::size_t i, Clock::time_point warm_end,
                    Clock::time_point end, Tally& t)
{
    Tracer::Scope root(tracer_, "e2e.client");
    net::Client& c = *clients_[i];
    std::uint64_t request = (static_cast<std::uint64_t>(i) + 1) << 40;
    while (Clock::now() < warm_end)
        runScript(i, c, t, request, nullptr);
    t.writes.clear();
    t.raw.clear();
    t.timing = true;
    t.timedStart = Clock::now();
    while (Clock::now() < end)
        runScript(i, c, t, request, nullptr);
    t.timedEnd = Clock::now();
    t.timing = false;
}

void
Harness::run(double seconds, Report& report)
{
    const Clock::time_point warm_end =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(warmSeconds(in_.workload)));
    const Clock::time_point end =
        warm_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
    std::vector<Tally> tallies(clients_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < clients_.size(); ++i)
        threads.emplace_back(
            [&, i] { clientLoop(i, warm_end, end, tallies[i]); });
    clientLoop(0, warm_end, end, tallies[0]);
    for (auto& th : threads)
        th.join();
    if (write_phase_ != SIZE_MAX) {
        Tracer::Scope root(tracer_, "e2e.write_phase");
        std::uint64_t request = std::uint64_t(3) << 40;
        runScript(write_phase_, *clients_[0], tallies[0], request, nullptr);
    }

    Tally sum;
    sum.timedStart = tallies[0].timedStart;
    sum.timedEnd = tallies[0].timedEnd;
    for (Tally& tl : tallies) {
        sum.attempted += tl.attempted;
        sum.failed += tl.failed;
        sum.mismatched += tl.mismatched;
        sum.timedStart = std::min(sum.timedStart, tl.timedStart);
        sum.timedEnd = std::max(sum.timedEnd, tl.timedEnd);
        sum.all.insert(sum.all.end(), tl.all.begin(), tl.all.end());
        sum.done.insert(sum.done.end(), tl.done.begin(), tl.done.end());
        for (std::size_t m = 0; m < kMatrices; ++m)
            sum.perMatrix[m].insert(sum.perMatrix[m].end(),
                                    tl.perMatrix[m].begin(),
                                    tl.perMatrix[m].end());
        sum.writes.insert(sum.writes.end(), tl.writes.begin(),
                          tl.writes.end());
        sum.raw.insert(sum.raw.end(), tl.raw.begin(), tl.raw.end());
    }
    report.attempted += sum.attempted;
    report.failed += sum.failed;
    if (sum.mismatched)
        report.correct = false;
    // Throughput is the median over ten equal windows of the timed
    // phase: a stall of the shared host in one window moves one of
    // ten values, not the whole figure. The tail is taken over the
    // whole timed phase: a window holds too few requests for a 99th
    // percentile of its own.
    const double wall =
        std::chrono::duration<double>(sum.timedEnd - sum.timedStart).count();
    constexpr std::size_t kWindows = 10;
    std::vector<double> rate(kWindows, 0.0);
    for (const Clock::time_point done : sum.done) {
        const double at =
            std::chrono::duration<double>(done - sum.timedStart).count();
        rate[std::min(kWindows - 1,
                      static_cast<std::size_t>(at / wall * kWindows))] +=
            static_cast<double>(kWindows) / wall;
    }
    report.add("req_per_s", median(rate), "req/s");
    const std::size_t samples = sum.all.size();
    report.add("latency_p50_us", median(sum.all), "us");
    report.add("latency_p99_us", quantile(sum.all, 0.99), "us");
    for (std::size_t m = 0; m < kMatrices; ++m)
        report.add(std::string(kMatrixNames[m]) + "_p50_us",
                   median(sum.perMatrix[m]), "us");
    // The write calls' own times are per-layer (see writeP50Us()):
    // they are bimodal within a process, two modes about 40% apart in
    // a proportion that changes from run to run, so no statistic of
    // them repeats between runs well enough to gate on.
    write_p50_us_ = median(sum.writes);
    report.add("read_after_write_p50_us", median(sum.raw), "us");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cerr << toString(in_.workload) << ": " << samples
              << " timed requests in " << wall << " s, " << sum.writes.size()
              << " writes, " << sum.raw.size() << " reads after a write, "
              << ru.ru_minflt << " minor page faults\n";
}

void
Harness::runOnce(const std::vector<Fault>& faults, Report& report)
{
    Tally t;
    std::uint64_t request = 0;
    for (std::size_t i = 0; i < scripts_.size(); ++i)
        runScript(i, *clients_[i < clients_.size() ? i : 0], t, request,
                  &faults);
    report.attempted += t.attempted;
    report.failed += t.failed;
    report.failedSteps.insert(report.failedSteps.end(),
                              t.failedSteps.begin(), t.failedSteps.end());
    if (t.mismatched)
        report.correct = false;
}

std::vector<Fault>
Harness::selfTestFaults() const
{
    std::vector<Fault> out;
    std::array<int, 3> seen{}; // reads of each OpKind so far
    bool wrote = false;
    for (std::size_t i = 0; i < scripts_.size(); ++i)
        for (std::size_t k = 0; k < scripts_[i].size(); ++k) {
            const Step& s = scripts_[i][k];
            if (s.write) {
                if (!wrote)
                    out.push_back({{i, k}, Plant::kOracle});
                wrote = true;
                continue;
            }
            int& n = seen[static_cast<std::size_t>(reads_[s.index].kind)];
            if (n < 2)
                out.push_back(
                    {{i, k}, n == 0 ? Plant::kOracle : Plant::kResponse});
            ++n;
        }
    return out;
}

} // namespace bench
