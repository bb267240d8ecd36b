// Process-wide observability primitives (the measurement plane DESIGN.md's
// experiments report through): lock-free counters and gauges, histograms with
// fixed log-scale buckets and quantile estimation, labeled metric families
// (e.g. per node_id or per shard), and a thread-safe registry that snapshots
// everything into Prometheus text or JSON.
//
// Determinism contract (matching the threading model): metrics are *pure
// observers*. Nothing in protocol or simulation logic may read a metric to
// make a decision, so experiment outputs are byte-identical with observability
// on or off and at any DLT_THREADS — enforced by tests/test_obs.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlt::obs {

/// Monotonic event count. inc() is a single relaxed fetch_add (~1-2 ns), cheap
/// enough for per-message hot paths; readers see individually-exact values.
class Counter {
public:
    void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (queue depth, cache size, current height).
class Gauge {
public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double d) {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
        }
    }
    double value() const { return v_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> v_{0.0};
};

/// Bucket layout for Histogram: bucket i spans (bound(i-1), bound(i)] with
/// bound(i) = first_bound * growth^i, plus one overflow bucket. Log-scale
/// buckets cover nanoseconds-to-seconds (or bytes-to-megabytes) ranges with a
/// constant relative error, which is what latency distributions need.
struct HistogramOptions {
    double first_bound = 1e-6; // upper bound of the first bucket
    double growth = 2.0;       // geometric bucket growth factor
    std::size_t bucket_count = 40; // finite buckets (an overflow bucket is added)
};

/// Fixed-bucket histogram: record() finds the bucket by binary search over the
/// precomputed bounds and does two relaxed atomic adds. Quantiles are
/// estimated by log-linear interpolation inside the covering bucket, so the
/// estimate's relative error is bounded by the growth factor.
class Histogram {
public:
    explicit Histogram(HistogramOptions options = {});

    void record(double value);

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const {
        const auto n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    /// Estimated q-quantile (q in [0,1]) from the bucket counts; 0 when empty.
    /// Values in the overflow bucket report the last finite bound.
    double quantile(double q) const;

    /// Upper bounds of the finite buckets (the overflow bucket is implicit).
    const std::vector<double>& bucket_bounds() const { return bounds_; }
    /// Snapshot of per-bucket counts, including the final overflow bucket.
    std::vector<std::uint64_t> bucket_counts() const;

    void reset();

private:
    std::vector<double> bounds_; // ascending upper bounds, size = bucket_count
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_; // size = bucket_count+1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// RAII wall-clock scope: records elapsed seconds into a histogram on
/// destruction. For host-side hot paths (fsync latency, signature batches);
/// virtual-time measurements go through the Tracer instead.
class ScopedTimer {
public:
    explicit ScopedTimer(Histogram& sink)
        : sink_(&sink), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
        const auto d = std::chrono::steady_clock::now() - start_;
        sink_->record(std::chrono::duration<double>(d).count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Histogram* sink_;
    std::chrono::steady_clock::time_point start_;
};

/// Label values for one child of a family, in the family's label-name order:
/// {"3"} for labels {"node_id"}.
using LabelValues = std::vector<std::string>;

/// A named set of metrics of one type distinguished by label values
/// (Prometheus-style). with() returns a stable reference: children are
/// created on first use and never move or disappear.
template <typename Metric>
class Family {
public:
    Family(std::string name, std::string help, std::vector<std::string> label_names,
           HistogramOptions histogram_options = {})
        : name_(std::move(name)),
          help_(std::move(help)),
          label_names_(std::move(label_names)),
          histogram_options_(histogram_options) {}

    Metric& with(const LabelValues& values);

    const std::string& name() const { return name_; }
    const std::string& help() const { return help_; }
    const std::vector<std::string>& label_names() const { return label_names_; }

    /// Visit every child as (label values, metric), sorted by label values.
    template <typename Fn>
    void visit(Fn&& fn) const {
        std::shared_lock lock(m_);
        for (const auto& [values, metric] : children_) fn(values, *metric);
    }

    std::size_t size() const {
        std::shared_lock lock(m_);
        return children_.size();
    }

private:
    std::string name_;
    std::string help_;
    std::vector<std::string> label_names_;
    HistogramOptions histogram_options_;
    mutable std::shared_mutex m_;
    std::map<LabelValues, std::unique_ptr<Metric>> children_;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;
using HistogramFamily = Family<Histogram>;

/// Thread-safe name -> metric registry. Metrics are created on first lookup
/// and owned by the registry; returned references are stable for the
/// registry's lifetime. A name registered as one kind cannot be re-registered
/// as another (throws std::logic_error). global() is the process-wide instance
/// every subsystem reports into.
class MetricsRegistry {
public:
    MetricsRegistry();  // out-of-line: Entry is incomplete here
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    static MetricsRegistry& global();

    Counter& counter(const std::string& name, const std::string& help = "");
    Gauge& gauge(const std::string& name, const std::string& help = "");
    Histogram& histogram(const std::string& name, const std::string& help = "",
                         HistogramOptions options = {});

    CounterFamily& counter_family(const std::string& name, const std::string& help,
                                  std::vector<std::string> label_names);
    GaugeFamily& gauge_family(const std::string& name, const std::string& help,
                              std::vector<std::string> label_names);
    HistogramFamily& histogram_family(const std::string& name,
                                      const std::string& help,
                                      std::vector<std::string> label_names,
                                      HistogramOptions options = {});

    /// Prometheus text exposition (sorted by name, deterministic).
    std::string prometheus_text() const;

    /// JSON snapshot: {"name": value, ...} with histograms expanded to
    /// {count, sum, mean, p50, p99, buckets}. Sorted by name, deterministic.
    std::string json_snapshot() const;

    /// Write json_snapshot() to a file; returns false when the file cannot be
    /// opened (read-only working dir).
    bool write_json(const std::string& path) const;

    /// Zero every counter/gauge/histogram (children of families included).
    /// For test/bench isolation; registered names survive.
    void reset();

private:
    struct Entry; // one named metric or family, tagged by kind
    /// The entry named `name`; a new one gets its metric from `make`.
    Entry& get_or_create(const std::string& name, const std::string& help, int kind,
                         const std::function<void(Entry&)>& make);

    mutable std::shared_mutex m_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;

    friend struct RegistryAccess; // exporters iterate entries_
};

template <typename Metric>
Metric& Family<Metric>::with(const LabelValues& values) {
    {
        std::shared_lock lock(m_);
        if (const auto it = children_.find(values); it != children_.end())
            return *it->second;
    }
    std::unique_lock lock(m_);
    auto& slot = children_[values];
    if (slot == nullptr) {
        if constexpr (std::is_same_v<Metric, Histogram>)
            slot = std::make_unique<Histogram>(histogram_options_);
        else
            slot = std::make_unique<Metric>();
    }
    return *slot;
}

} // namespace dlt::obs
