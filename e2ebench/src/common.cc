#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace bench
{

Index
Oracle::nnz() const
{
    Index n = 0;
    for (const auto& r : row_)
        n += static_cast<Index>(r.size());
    return n;
}

bool
Oracle::has(Index r, Index c) const
{
    const auto& v = row(r);
    auto it = std::lower_bound(
        v.begin(), v.end(), c,
        [](const Entry& e, Index col) { return e.col < col; });
    return it != v.end() && it->col == c;
}

std::vector<Value>
Oracle::spmv(const std::vector<Value>& x) const
{
    std::vector<Value> y(static_cast<std::size_t>(rows_), 0.0);
    for (Index r = 0; r < rows_; ++r) {
        Value s = 0;
        for (const Entry& e : row(r))
            s += e.value * x[static_cast<std::size_t>(e.col)];
        y[static_cast<std::size_t>(r)] = s;
    }
    return y;
}

smash::fmt::DenseMatrix
Oracle::spmm(const smash::fmt::DenseMatrix& b) const
{
    smash::fmt::DenseMatrix c(rows_, b.cols());
    for (Index r = 0; r < rows_; ++r)
        for (const Entry& e : row(r))
            for (Index j = 0; j < b.cols(); ++j)
                c.at(r, j) += e.value * b.at(e.col, j);
    return c;
}

std::vector<smash::fmt::CooEntry>
Oracle::add(const Oracle& b) const
{
    std::vector<smash::fmt::CooEntry> out;
    for (Index r = 0; r < rows_; ++r) {
        const auto& ra = row(r);
        const auto& rb = b.row(r);
        std::size_t i = 0, j = 0;
        while (i < ra.size() || j < rb.size()) {
            Index col;
            Value v;
            if (j == rb.size() || (i < ra.size() && ra[i].col < rb[j].col)) {
                col = ra[i].col;
                v = ra[i++].value;
            } else if (i == ra.size() || rb[j].col < ra[i].col) {
                col = rb[j].col;
                v = rb[j++].value;
            } else {
                col = ra[i].col;
                v = ra[i++].value + rb[j++].value;
            }
            if (v != 0)
                out.push_back({r, col, v});
        }
    }
    return out;
}

void
Oracle::apply(const smash::fmt::CooMatrix& deltas)
{
    const auto& d = deltas.entries();
    std::size_t k = 0;
    while (k < d.size()) {
        const Index r = d[k].row;
        std::vector<Entry>& cur = row(r);
        std::vector<Entry> merged;
        merged.reserve(cur.size() + 8);
        std::size_t i = 0;
        for (; k < d.size() && d[k].row == r; ++k) {
            while (i < cur.size() && cur[i].col < d[k].col)
                merged.push_back(cur[i++]);
            Value v = d[k].value;
            if (i < cur.size() && cur[i].col == d[k].col)
                v += cur[i++].value;
            if (v != 0)
                merged.push_back({d[k].col, v});
        }
        for (; i < cur.size(); ++i)
            merged.push_back(cur[i]);
        cur.swap(merged);
    }
}

void
Oracle::scale(Value factor)
{
    for (auto& r : row_)
        for (Entry& e : r)
            e.value *= factor;
}

smash::fmt::CooMatrix
Oracle::toCoo() const
{
    smash::fmt::CooMatrix coo(rows_, cols_);
    for (Index r = 0; r < rows_; ++r)
        for (const Entry& e : row(r))
            coo.add(r, e.col, e.value);
    return coo; // row-major, sorted, zero-free: canonical already
}

bool
Oracle::operator==(const Oracle& o) const
{
    if (rows_ != o.rows_ || cols_ != o.cols_)
        return false;
    for (Index r = 0; r < rows_; ++r) {
        const auto& a = row(r);
        const auto& b = o.row(r);
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].col != b[i].col || a[i].value != b[i].value)
                return false;
    }
    return true;
}

double
quantile(std::vector<double>& v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace
{

thread_local std::int64_t t_current_span = -1;
std::atomic<std::uint32_t> g_next_thread{0};
thread_local std::uint32_t t_thread_id =
    g_next_thread.fetch_add(1, std::memory_order_relaxed);

} // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request)
    : tracer_(t)
{
    if (!t.enabled_)
        return;
    saved_parent_ = t_current_span;
    index_ = t.open(name, request, saved_parent_);
    t_current_span = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.close(index_);
    t_current_span = saved_parent_;
}

std::int64_t
Tracer::open(const char* name, std::uint64_t request, std::int64_t parent)
{
    Span s;
    s.parent = parent;
    s.request = request;
    s.thread = t_thread_id;
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, added] = name_ids_.try_emplace(
        name, static_cast<std::uint32_t>(names_.size()));
    if (added)
        names_.push_back(name);
    s.name = it->second;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t index)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Self time: each span's duration minus the union of its
    // children's intervals (clipped to the span).
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(i);
    struct Total
    {
        std::uint64_t count = 0;
        double totalUs = 0;
        double selfUs = 0;
    };
    std::vector<Total> totals(names_.size());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first_event = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double dur = usBetween(s.start, s.end);
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i]) {
            const double b = std::max(0.0, usBetween(s.start, spans_[c].start));
            const double e = std::min(dur, usBetween(s.start, spans_[c].end));
            if (e > b)
                iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0, reach = 0;
        for (const auto& [b, e] : iv) {
            const double from = std::max(b, reach);
            if (e > from)
                covered += e - from;
            reach = std::max(reach, e);
        }
        Total& t = totals[s.name];
        ++t.count;
        t.totalUs += dur;
        t.selfUs += dur - covered;
        if (t.count > kEventsPerName)
            continue;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"request\": %llu, \"self_us\": %.3f}}\n",
                     first_event ? "" : ",", names_[s.name].c_str(),
                     s.thread,
                     usBetween(epoch_, s.start), dur, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     dur - covered);
        first_event = false;
    }
    std::fprintf(f, "],\n\"summary\": {");
    bool first = true;
    for (std::size_t n = 0; n < names_.size(); ++n) {
        const Total& t = totals[n];
        std::fprintf(f,
                     "%s\n  \"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                     "\"self_us\": %.3f}",
                     first ? "" : ",", names_[n].c_str(),
                     static_cast<unsigned long long>(t.count), t.totalUs,
                     t.selfUs);
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
}

} // namespace bench
