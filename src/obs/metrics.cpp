#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "obs/export.hpp"

namespace dlt::obs {

// --- Histogram -----------------------------------------------------------------

Histogram::Histogram(HistogramOptions options) {
    if (options.bucket_count == 0) options.bucket_count = 1;
    if (!(options.growth > 1.0)) options.growth = 2.0;
    if (!(options.first_bound > 0.0)) options.first_bound = 1e-6;
    bounds_.reserve(options.bucket_count);
    double bound = options.first_bound;
    for (std::size_t i = 0; i < options.bucket_count; ++i) {
        bounds_.push_back(bound);
        bound *= options.growth;
    }
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::record(double value) {
    // Bucket i holds values in (bounds[i-1], bounds[i]]; the final slot is the
    // overflow bucket for values beyond the last finite bound.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value, std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

double Histogram::quantile(double q) const {
    const auto counts = bucket_counts();
    std::uint64_t total = 0;
    for (const auto c : counts) total += c;
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-quantile among `total` samples (1-based, ceil convention).
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        if (seen + counts[i] < rank) {
            seen += counts[i];
            continue;
        }
        // The rank lands in bucket i. Interpolate log-linearly between the
        // bucket's bounds; the overflow bucket reports the last finite bound.
        if (i >= bounds_.size()) return bounds_.back();
        const double hi = bounds_[i];
        const double lo = i == 0 ? hi / 2.0 : bounds_[i - 1];
        const double frac = static_cast<double>(rank - seen) /
                            static_cast<double>(counts[i]);
        return lo * std::pow(hi / lo, frac);
    }
    return bounds_.back();
}

void Histogram::reset() {
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

// --- MetricsRegistry -----------------------------------------------------------

namespace {
enum Kind {
    kCounter,
    kGauge,
    kHistogram,
    kCounterFamily,
    kGaugeFamily,
    kHistogramFamily
};

const char* kind_name(int kind) {
    switch (kind) {
        case kCounter: return "counter";
        case kGauge: return "gauge";
        case kHistogram: return "histogram";
        case kCounterFamily: return "counter family";
        case kGaugeFamily: return "gauge family";
        case kHistogramFamily: return "histogram family";
    }
    return "?";
}
} // namespace

struct MetricsRegistry::Entry {
    int kind;
    std::string help;
    // Exactly one of these is set, per `kind`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<CounterFamily> counter_family;
    std::unique_ptr<GaugeFamily> gauge_family;
    std::unique_ptr<HistogramFamily> histogram_family;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(
    const std::string& name, const std::string& help, int kind,
    const std::function<void(Entry&)>& make) {
    const auto checked = [&](Entry& entry) -> Entry& {
        if (entry.kind != kind)
            throw std::logic_error("metric '" + name + "' already registered as " +
                                   kind_name(entry.kind));
        return entry;
    };
    {
        std::shared_lock lock(m_);
        if (const auto it = entries_.find(name); it != entries_.end())
            return checked(*it->second);
    }
    // The entry and its metric appear in one locked step, so an exporter
    // never meets an entry without its metric.
    std::unique_lock lock(m_);
    if (const auto it = entries_.find(name); it != entries_.end()) return checked(*it->second);
    auto entry = std::make_unique<Entry>();
    entry->kind = kind;
    entry->help = help;
    make(*entry);
    return *entries_.emplace(name, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
    return *get_or_create(name, help, kCounter, [](Entry& e) {
        e.counter = std::make_unique<Counter>();
    }).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
    return *get_or_create(name, help, kGauge, [](Entry& e) {
        e.gauge = std::make_unique<Gauge>();
    }).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      HistogramOptions options) {
    return *get_or_create(name, help, kHistogram, [&](Entry& e) {
        e.histogram = std::make_unique<Histogram>(options);
    }).histogram;
}

CounterFamily& MetricsRegistry::counter_family(const std::string& name,
                                               const std::string& help,
                                               std::vector<std::string> label_names) {
    return *get_or_create(name, help, kCounterFamily, [&](Entry& e) {
        e.counter_family = std::make_unique<CounterFamily>(name, help, std::move(label_names));
    }).counter_family;
}

GaugeFamily& MetricsRegistry::gauge_family(const std::string& name,
                                           const std::string& help,
                                           std::vector<std::string> label_names) {
    return *get_or_create(name, help, kGaugeFamily, [&](Entry& e) {
        e.gauge_family = std::make_unique<GaugeFamily>(name, help, std::move(label_names));
    }).gauge_family;
}

HistogramFamily& MetricsRegistry::histogram_family(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names, HistogramOptions options) {
    return *get_or_create(name, help, kHistogramFamily, [&](Entry& e) {
        e.histogram_family = std::make_unique<HistogramFamily>(
            name, help, std::move(label_names), options);
    }).histogram_family;
}

// --- Exporters -----------------------------------------------------------------

namespace {

std::string label_suffix(const std::vector<std::string>& names,
                         const LabelValues& values) {
    std::string out = "{";
    for (std::size_t i = 0; i < names.size() && i < values.size(); ++i) {
        if (i > 0) out += ",";
        out += names[i] + "=\"" + json_escape(values[i]) + "\"";
    }
    out += "}";
    return out;
}

void prometheus_histogram(std::string& out, const std::string& name,
                          const std::string& labels, const Histogram& h) {
    const auto counts = h.bucket_counts();
    const auto& bounds = h.bucket_bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        cumulative += counts[i];
        std::string le = labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
        out += name + "_bucket" + le + "le=\"" + json_number(bounds[i]) + "\"} " +
               std::to_string(cumulative) + "\n";
    }
    cumulative += counts.back();
    std::string le = labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
    out += name + "_bucket" + le + "le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += name + "_sum" + labels + " " + json_number(h.sum()) + "\n";
    out += name + "_count" + labels + " " + std::to_string(h.count()) + "\n";
}

std::string histogram_json(const Histogram& h) {
    std::string out = "{\"count\": " + std::to_string(h.count()) +
                      ", \"sum\": " + json_number(h.sum()) +
                      ", \"mean\": " + json_number(h.mean()) +
                      ", \"p50\": " + json_number(h.quantile(0.5)) +
                      ", \"p90\": " + json_number(h.quantile(0.9)) +
                      ", \"p99\": " + json_number(h.quantile(0.99)) + "}";
    return out;
}

} // namespace

std::string MetricsRegistry::prometheus_text() const {
    std::shared_lock lock(m_);
    std::string out;
    for (const auto& [name, entry] : entries_) {
        if (!entry->help.empty())
            out += "# HELP " + name + " " + entry->help + "\n";
        switch (entry->kind) {
            case kCounter:
                out += "# TYPE " + name + " counter\n";
                out += name + " " + std::to_string(entry->counter->value()) + "\n";
                break;
            case kGauge:
                out += "# TYPE " + name + " gauge\n";
                out += name + " " + json_number(entry->gauge->value()) + "\n";
                break;
            case kHistogram:
                out += "# TYPE " + name + " histogram\n";
                prometheus_histogram(out, name, "", *entry->histogram);
                break;
            case kCounterFamily:
                out += "# TYPE " + name + " counter\n";
                entry->counter_family->visit(
                    [&](const LabelValues& values, const Counter& c) {
                        out += name +
                               label_suffix(entry->counter_family->label_names(),
                                            values) +
                               " " + std::to_string(c.value()) + "\n";
                    });
                break;
            case kGaugeFamily:
                out += "# TYPE " + name + " gauge\n";
                entry->gauge_family->visit(
                    [&](const LabelValues& values, const Gauge& g) {
                        out += name +
                               label_suffix(entry->gauge_family->label_names(),
                                            values) +
                               " " + json_number(g.value()) + "\n";
                    });
                break;
            case kHistogramFamily:
                out += "# TYPE " + name + " histogram\n";
                entry->histogram_family->visit(
                    [&](const LabelValues& values, const Histogram& h) {
                        prometheus_histogram(
                            out, name,
                            label_suffix(entry->histogram_family->label_names(),
                                         values),
                            h);
                    });
                break;
        }
    }
    return out;
}

std::string MetricsRegistry::json_snapshot() const {
    std::shared_lock lock(m_);
    JsonObjectWriter w;
    for (const auto& [name, entry] : entries_) {
        switch (entry->kind) {
            case kCounter:
                w.field_uint(name, entry->counter->value());
                break;
            case kGauge:
                w.field_number(name, entry->gauge->value());
                break;
            case kHistogram:
                w.field_raw(name, histogram_json(*entry->histogram));
                break;
            case kCounterFamily:
                entry->counter_family->visit(
                    [&](const LabelValues& values, const Counter& c) {
                        w.field_uint(
                            name + label_suffix(
                                       entry->counter_family->label_names(), values),
                            c.value());
                    });
                break;
            case kGaugeFamily:
                entry->gauge_family->visit(
                    [&](const LabelValues& values, const Gauge& g) {
                        w.field_number(
                            name + label_suffix(entry->gauge_family->label_names(),
                                                values),
                            g.value());
                    });
                break;
            case kHistogramFamily:
                entry->histogram_family->visit(
                    [&](const LabelValues& values, const Histogram& h) {
                        w.field_raw(
                            name + label_suffix(
                                       entry->histogram_family->label_names(), values),
                            histogram_json(h));
                    });
                break;
        }
    }
    return w.str();
}

bool MetricsRegistry::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = json_snapshot();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return true;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = prometheus_text();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return true;
}

void MetricsRegistry::reset() {
    std::shared_lock lock(m_);
    for (const auto& [name, entry] : entries_) {
        switch (entry->kind) {
            case kCounter: entry->counter->reset(); break;
            case kGauge: entry->gauge->set(0); break;
            case kHistogram: entry->histogram->reset(); break;
            case kCounterFamily:
                entry->counter_family->visit(
                    [](const LabelValues&, const Counter& c) {
                        const_cast<Counter&>(c).reset();
                    });
                break;
            case kGaugeFamily:
                entry->gauge_family->visit([](const LabelValues&, const Gauge& g) {
                    const_cast<Gauge&>(g).set(0);
                });
                break;
            case kHistogramFamily:
                entry->histogram_family->visit(
                    [](const LabelValues&, const Histogram& h) {
                        const_cast<Histogram&>(h).reset();
                    });
                break;
        }
    }
}

} // namespace dlt::obs
