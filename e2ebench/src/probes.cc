#include "probes.hh"

#include <algorithm>
#include <functional>
#include <iostream>
#include <thread>

#include "common/parallel_exec.hh"
#include "common/thread_pool.hh"
#include "core/smash_matrix.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "formats/bcsr_matrix.hh"
#include "formats/csc_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dia_matrix.hh"
#include "formats/ell_matrix.hh"
#include "net/codec.hh"
#include "serve/session.hh"
#include "sim/exec_model.hh"

namespace bench
{

namespace eng = smash::eng;
namespace fmt = smash::fmt;
namespace net = smash::net;
namespace serve = smash::serve;

namespace
{

/** Bytes of one encoding as its format stores it. */
std::size_t
encodingBytes(const eng::SparseMatrixAny& m)
{
    switch (m.format()) {
      case eng::Format::kCoo: return m.as<fmt::CooMatrix>().storageBytes();
      case eng::Format::kCsr: return m.as<fmt::CsrMatrix>().storageBytes();
      case eng::Format::kCsc: return m.as<fmt::CscMatrix>().storageBytes();
      case eng::Format::kBcsr: return m.as<fmt::BcsrMatrix>().storageBytes();
      case eng::Format::kEll: return m.as<fmt::EllMatrix>().storageBytes();
      case eng::Format::kDia: return m.as<fmt::DiaMatrix>().storageBytes();
      case eng::Format::kDense:
        return m.as<fmt::DenseMatrix>().storageBytes();
      case eng::Format::kSmash:
        return m.as<smash::core::SmashMatrix>().storageBytesCompact();
    }
    return 0;
}

bool
sameBits(const std::vector<Value>& a, const Value* b, std::size_t n)
{
    return a.size() >= n &&
        std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n), b,
                   [](Value x, Value y) {
                       return std::memcmp(&x, &y, sizeof x) == 0;
                   });
}

/**
 * Times repeated calls of one layer function: each call in its own
 * span named @p name, at least @p min_reps calls and until
 * @p budget_s has passed (at most 100000). @p prepare runs before
 * each call, outside the timing. Returns the median, in us.
 */
class Prober
{
  public:
    Prober(Tracer& tracer, Report& report)
        : tracer_(tracer), report_(report)
    {}

    double
    time(const std::string& name, int min_reps, double budget_s,
         const std::function<void()>& call,
         const std::function<void()>& prepare = {})
    {
        std::vector<double> us;
        const Clock::time_point until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(budget_s));
        while ((static_cast<int>(us.size()) < min_reps ||
                Clock::now() < until) &&
               us.size() < 100000) {
            if (prepare)
                prepare();
            const Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope span(tracer_, name.c_str());
                call();
            }
            us.push_back(usBetween(t0, Clock::now()));
        }
        return median(us);
    }

    /** time(), reported as @p name in @p unit (us or ms). */
    void
    report(const std::string& name, const std::string& unit, int min_reps,
           double budget_s, const std::function<void()>& call,
           const std::function<void()>& prepare = {})
    {
        const double us = time(name, min_reps, budget_s, call, prepare);
        report_.add(name, unit == "ms" ? us / 1000 : us, unit);
    }

    /** Count one checked operation of a probe. */
    void
    check(bool ok, const std::string& what)
    {
        ++report_.attempted;
        if (ok)
            return;
        ++report_.failed;
        report_.correct = false;
        std::cerr << "FAILED probe check: " << what << "\n";
    }

  private:
    Tracer& tracer_;
    Report& report_;
};

/** Budget scale: the large matrices take milliseconds per call. */
double
budget(const Inputs& in, double seconds)
{
    return in.workload == Workload::kRpcLarge ? seconds * 2 : seconds;
}

} // namespace

void
runNetProbes(Harness& h, Tracer& tracer, Report& report)
{
    Tracer::Scope layer(tracer, "probe.net");
    Prober p(tracer, report);
    net::Client& client = h.client();
    bool pings_ok = true;
    p.report("net.ping_us", "us", 100, 0.3,
             [&] { pings_ok = client.ping().ok() && pings_ok; });
    p.check(pings_ok, "net ping");

    // The codec on the workload's own request mix: one round, each
    // request and its expected response encoded and decoded.
    const Inputs& in = h.inputs();
    const std::vector<ReadOp> round = h.reads(0);
    std::vector<net::Buffer> req(round.size()), resp(round.size());
    std::vector<double> enc_req, dec_req, enc_resp, dec_resp;
    double bytes = 0;
    bool decoded = true;
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < round.size(); ++i) {
            const ReadOp& op = round[i];
            Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "net.encode.request");
                req[i].clear();
                switch (op.kind) {
                  case OpKind::kSpmv:
                    net::encodeSpmvRequest(*op.spmv, req[i]);
                    break;
                  case OpKind::kSpmm:
                    net::encodeSpmmRequest(*op.spmm, req[i]);
                    break;
                  case OpKind::kSpadd:
                    net::encodeSpaddRequest(
                        serve::SpaddRequest{
                            in.m[static_cast<std::size_t>(op.a)].name,
                            in.m[static_cast<std::size_t>(op.b)].name, {}},
                        req[i]);
                    break;
                }
            }
            Clock::time_point t1 = Clock::now();
            enc_req.push_back(usBetween(t0, t1));
            {
                Tracer::Scope span(tracer, "net.decode.request");
                switch (op.kind) {
                  case OpKind::kSpmv:
                    decoded &= net::decodeSpmvRequest(req[i].data(),
                                                      req[i].size())
                                   .has_value();
                    break;
                  case OpKind::kSpmm:
                    decoded &= net::decodeSpmmRequest(req[i].data(),
                                                      req[i].size())
                                   .has_value();
                    break;
                  case OpKind::kSpadd:
                    decoded &= net::decodeSpaddRequest(req[i].data(),
                                                       req[i].size())
                                   .has_value();
                    break;
                }
            }
            t0 = Clock::now();
            dec_req.push_back(usBetween(t1, t0));
            // The response as the server would encode it.
            fmt::CooMatrix sum;
            if (op.kind == OpKind::kSpadd) {
                sum = fmt::CooMatrix(in.n, in.n);
                for (const fmt::CooEntry& e : *op.sum)
                    sum.add(e.row, e.col, e.value);
            }
            t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "net.encode.response");
                resp[i].clear();
                switch (op.kind) {
                  case OpKind::kSpmv:
                    net::encodeSpmvResult(*op.y, resp[i]);
                    break;
                  case OpKind::kSpmm:
                    net::encodeSpmmResult(*op.c, resp[i]);
                    break;
                  case OpKind::kSpadd:
                    net::encodeSpaddResult(sum, resp[i]);
                    break;
                }
            }
            t1 = Clock::now();
            enc_resp.push_back(usBetween(t0, t1));
            {
                Tracer::Scope span(tracer, "net.decode.response");
                switch (op.kind) {
                  case OpKind::kSpmv: {
                    auto r = net::decodeSpmvResult(resp[i].data(),
                                                   resp[i].size());
                    decoded &= r && r->ok() &&
                        sameBits(r->value(), op.y->data(), op.y->size());
                    break;
                  }
                  case OpKind::kSpmm:
                    decoded &= net::decodeSpmmResult(resp[i].data(),
                                                     resp[i].size())
                                   .has_value();
                    break;
                  case OpKind::kSpadd:
                    decoded &= net::decodeSpaddResult(resp[i].data(),
                                                      resp[i].size())
                                   .has_value();
                    break;
                }
            }
            dec_resp.push_back(usBetween(t1, Clock::now()));
            if (rep == 0)
                bytes += static_cast<double>(req[i].size() + resp[i].size() +
                                             2 * net::kHeaderBytes);
        }
    }
    p.check(decoded, "codec round trip");
    report.add("net.encode_us.request", median(enc_req), "us");
    report.add("net.decode_us.request", median(dec_req), "us");
    report.add("net.encode_us.response", median(enc_resp), "us");
    report.add("net.decode_us.response", median(dec_resp), "us");
    report.add("net.bytes_per_request",
               bytes / static_cast<double>(round.size()), "bytes");
}

void
runLayerProbes(Harness& h, Tracer& tracer, Report& report)
{
    const Inputs& in = h.inputs();
    Prober p(tracer, report);
    serve::MatrixRegistry& reg = h.registry();
    smash::sim::NativeExec ne;

    // --- registry counters of the traced end-to-end run. ---
    {
        double conversions = 0, reselects = 0;
        for (const MatrixInput& mi : in.m) {
            const serve::MatrixInfo info = reg.info(mi.name);
            conversions += static_cast<double>(info.conversions);
            reselects += static_cast<double>(info.reselects);
        }
        report.add("registry.conversions", conversions, "count");
        report.add("registry.reselects", reselects, "count");
    }

    // --- engine/kernels and formats, per matrix. ---
    std::vector<fmt::CooMatrix> coo;
    for (const MatrixInput& mi : in.m)
        coo.push_back(mi.a.toCoo());
    {
        Tracer::Scope layer(tracer, "probe.engine");
        smash::exec::ParallelExec pe(2);
        for (std::size_t m = 0; m < kMatrices; ++m) {
            const MatrixInput& mi = in.m[m];
            const std::string& name = mi.name;

            eng::Format chosen = eng::Format::kCsr;
            p.report("engine.profile_ms." + name, "ms", 3, budget(in, 0.2),
                     [&] {
                         chosen = eng::chooseFormat(
                             eng::analyzeStructure(coo[m]));
                     });
            std::shared_ptr<const eng::SparseMatrixAny> enc;
            p.report("formats.encode_ms." + name, "ms", 3, budget(in, 0.2),
                     [&] {
                         enc = std::make_shared<eng::SparseMatrixAny>(
                             eng::SparseMatrixAny::fromCoo(coo[m], chosen));
                     });
            report.add("formats.encoding_bytes." + name,
                       static_cast<double>(encodingBytes(*enc)), "bytes");
            fmt::CooMatrix copy;
            p.report(
                "registry.put_ms." + name, "ms", 3, budget(in, 0.2),
                [&] {
                    serve::MatrixRegistry fresh;
                    fresh.put(name, std::move(copy));
                },
                [&] { copy = coo[m]; });
            // The served encoding where the entry is plain (the probe's
            // own, same format and content, for the sharded entry).
            if (!reg.sharded(name))
                enc = reg.encoded(name);

            const Index rows = enc->rows();
            const std::size_t xlen = static_cast<std::size_t>(enc->xLength());
            std::vector<Value> y(static_cast<std::size_t>(rows));
            auto zero = [&] { std::fill(y.begin(), y.end(), 0.0); };
            p.report("engine.spmv_serial_us." + name, "us", 5,
                     budget(in, 0.2),
                     [&] { eng::spmv(enc->ref(), mi.xs[0], y, ne); }, zero);
            p.check(sameBits(y, mi.ys[0].data(), mi.ys[0].size()),
                    "serial spmv " + name);
            p.report("engine.spmv_par2_us." + name, "us", 5,
                     budget(in, 0.2),
                     [&] { eng::spmv(enc->ref(), mi.xs[0], y, pe); }, zero);
            p.check(sameBits(y, mi.ys[0].data(), mi.ys[0].size()),
                    "2-worker spmv " + name);
            // Computed, not measured: the encoding plus x and y.
            report.add("engine.bytes_per_spmv." + name,
                       static_cast<double>(encodingBytes(*enc) +
                                           (xlen + static_cast<std::size_t>(
                                                       rows)) *
                                               sizeof(Value)),
                       "bytes");

            fmt::DenseMatrix xb(enc->xLength(), 8), yb(rows, 8);
            for (Index r = 0; r < in.n; ++r)
                for (Index j = 0; j < 8; ++j)
                    xb.at(r, j) = mi.xs[static_cast<std::size_t>(j) %
                                        mi.xs.size()]
                                       [static_cast<std::size_t>(r)];
            p.report("engine.spmv_batch8_us." + name, "us", 5,
                     budget(in, 0.2),
                     [&] { eng::spmvBatch(enc->ref(), xb, yb, ne); },
                     [&] { std::fill(yb.data().begin(), yb.data().end(), 0); });
            bool batch_ok = true;
            for (Index r = 0; r < in.n; ++r)
                for (Index j = 0; j < 8; ++j)
                    batch_ok &= yb.at(r, j) ==
                        mi.ys[static_cast<std::size_t>(j) % mi.ys.size()]
                             [static_cast<std::size_t>(r)];
            p.check(batch_ok, "batched spmv " + name);
            fmt::DenseMatrix c(rows, 4);
            p.report("engine.spmm4_us." + name, "us", 5, budget(in, 0.2),
                     [&] { eng::spmmBatch(enc->ref(), mi.b, c, ne); },
                     [&] { std::fill(c.data().begin(), c.data().end(), 0); });
            p.check(sameBits(c.data(), mi.c.data().data(),
                             mi.c.data().size()),
                    "spmm " + name);
        }
        // SpAdd on the CSR views the served SpAdd requests read.
        const auto a = reg.encodedAs(in.m[kClustered].name, eng::Format::kCsr);
        const auto b = reg.encodedAs(in.m[kScattered].name, eng::Format::kCsr);
        eng::SparseMatrixAny sum(fmt::CooMatrix{});
        p.report("engine.spadd_us", "us", 5, budget(in, 0.2),
                 [&] { sum = eng::spadd(a->ref(), b->ref(), ne); });
        const auto& got = sum.as<fmt::CooMatrix>().entries();
        const auto& want = h.initialSum(kClustered, kScattered);
        bool sum_ok = got.size() == want.size();
        for (std::size_t i = 0; sum_ok && i < got.size(); ++i)
            sum_ok = got[i].row == want[i].row && got[i].col == want[i].col &&
                got[i].value == want[i].value;
        p.check(sum_ok, "spadd");
    }

    // --- registry mutation path: a value-only write, then the first
    // encoded() after it (the rebuild a read would pay). ---
    {
        Tracer::Scope layer(tracer, "probe.registry");
        serve::MatrixRegistry probe;
        const MatrixInput& mi = in.m[kClustered];
        probe.put(mi.name, coo[kClustered]);
        probe.encoded(mi.name);
        Rng rng(streamSeed(in.seed, 50));
        fmt::CooMatrix plus(in.n, in.n), minus(in.n, in.n);
        for (Index r = 0; r < in.n; ++r)
            for (const Entry& e : mi.a.row(r))
                if (rng.below(100) == 0) {
                    plus.add(r, e.col, 0.25);
                    minus.add(r, e.col, -0.25);
                }
        std::vector<double> write_us, rebuild_us;
        for (int rep = 0; rep < (in.workload == Workload::kRpcLarge ? 4 : 10);
             ++rep) {
            fmt::CooMatrix d = rep % 2 == 0 ? plus : minus;
            write_us.push_back(p.time("registry.apply_updates", 1, 0, [&] {
                probe.applyUpdates(mi.name, std::move(d));
            }));
            rebuild_us.push_back(p.time("registry.reencode", 1, 0,
                                        [&] { probe.encoded(mi.name); }));
        }
        report.add("registry.apply_updates_us", median(write_us), "us");
        report.add("registry.reencode_ms", median(rebuild_us) / 1000, "ms");
        p.check(probe.info(mi.name).nnz == mi.a.nnz(), "registry nnz");
    }

    // --- shard: the same calls on a K=2 entry and a plain entry. ---
    {
        Tracer::Scope layer(tracer, "probe.shard");
        serve::MatrixRegistry probe;
        const MatrixInput& mi = in.m[kScattered];
        probe.put("plain", coo[kScattered]);
        probe.registerSharded("k2", coo[kScattered], 2);
        const auto plain = probe.encoded("plain");
        const auto k2 = probe.sharded("k2");
        k2->ensureEncoded();
        std::vector<Value> y(static_cast<std::size_t>(in.n));
        auto zero = [&] { std::fill(y.begin(), y.end(), 0.0); };
        p.report("shard.spmv_us", "us", 5, budget(in, 0.2),
                 [&] { k2->spmv(mi.xs[0], y, nullptr); }, zero);
        p.check(sameBits(y, mi.ys[0].data(), mi.ys[0].size()),
                "sharded spmv");
        p.report("shard.spmv_plain_us", "us", 5, budget(in, 0.2),
                 [&] { eng::spmv(plain->ref(), mi.xs[0], y, ne); }, zero);
        p.check(sameBits(y, mi.ys[0].data(), mi.ys[0].size()),
                "plain spmv");
        Rng rng(streamSeed(in.seed, 51));
        fmt::CooMatrix plus(in.n, in.n), minus(in.n, in.n);
        for (Index r = 0; r < in.n; ++r)
            for (const Entry& e : mi.a.row(r))
                if (rng.below(100) == 0) {
                    plus.add(r, e.col, 0.25);
                    minus.add(r, e.col, -0.25);
                }
        for (const char* entry : {"k2", "plain"}) {
            int rep = 0;
            fmt::CooMatrix d;
            p.report(
                std::string(entry) == "k2" ? "shard.apply_updates_us"
                                           : "shard.apply_updates_plain_us",
                "us", 6, budget(in, 0.1),
                [&] { probe.applyUpdates(entry, std::move(d)); },
                [&] { d = rep++ % 2 == 0 ? plus : minus; });
            if (rep % 2 == 1) // leave the content as it started
                probe.applyUpdates(entry, minus);
            p.check(probe.info(entry).nnz == mi.a.nnz(),
                    std::string("nnz after writes on ") + entry);
        }
    }

    // --- common: an empty 2-way parallelFor. ---
    {
        Tracer::Scope layer(tracer, "probe.common");
        smash::exec::ThreadPool pool(2);
        p.report("pool.parallel_for_us", "us", 1000, 0.2, [&] {
            pool.parallelFor(0, 2, 1, [](Index, Index) {});
        });
    }
}

void
runSessionProbes(Harness& h, Tracer& tracer, Report& report)
{
    // In-process Session on the served registry, no socket: SpMV
    // from two threads, closed loop, over every matrix and operand.
    Tracer::Scope layer(tracer, "probe.session");
    const Inputs& in = h.inputs();
    serve::Session session(h.registry(), h.sessionOptions());
    const double seconds = budget(in, 0.5);
    std::vector<std::vector<double>> us(2);
    std::vector<std::uint64_t> bad(2, 0), sent(2, 0);
    auto loop = [&](std::size_t t) {
        const Clock::time_point until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        for (std::size_t k = t; Clock::now() < until || k < t + 8; ++k) {
            const MatrixInput& mi = in.m[k % kMatrices];
            const std::size_t xi = (k / kMatrices) % mi.xs.size();
            serve::SpmvRequest req{mi.name, mi.xs[xi], {}};
            const Clock::time_point t0 = Clock::now();
            serve::Result<std::vector<Value>> r = [&] {
                Tracer::Scope span(tracer, "session.spmv");
                return session.submit(std::move(req)).get();
            }();
            us[t].push_back(usBetween(t0, Clock::now()));
            ++sent[t];
            if (!r.ok() ||
                !sameBits(r.value(), mi.ys[xi].data(), mi.ys[xi].size()))
                ++bad[t];
        }
    };
    std::thread other(loop, 1);
    loop(0);
    other.join();
    report.attempted += sent[0] + sent[1];
    if (bad[0] + bad[1]) {
        report.failed += bad[0] + bad[1];
        report.correct = false;
        std::cerr << "FAILED session probe: " << bad[0] + bad[1]
                  << " SpMV results differ\n";
    }
    std::vector<double> all = us[0];
    all.insert(all.end(), us[1].begin(), us[1].end());
    report.add("session.spmv_us", median(all), "us");
    session.drain();
    const serve::PipelineStats& st = session.stats();
    for (std::size_t s = 0; s < serve::kNumPipelineStages; ++s) {
        const auto& hist = st.stageLatency[s];
        report.add(std::string("session.stage_mean_us.") +
                       serve::toString(static_cast<serve::PipelineStage>(s)),
                   hist.count() ? static_cast<double>(hist.sumUs()) /
                           static_cast<double>(hist.count())
                                : 0.0,
                   "us");
    }
    const double batches = static_cast<double>(st.batches.load());
    report.add("batcher.mean_batch_width",
               batches > 0 ? static_cast<double>(st.completed.load()) / batches
                           : 0.0,
               "count");
}

} // namespace bench
