#include "storage/wal.hpp"

#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "storage/recordio.hpp"

namespace dlt::storage {

namespace {
constexpr std::uint32_t kWalMagic = 0x57414C31; // "WAL1"

struct WalMetrics {
    obs::Histogram& sync_seconds;
    obs::Counter& appends;
    obs::Counter& bytes_appended;

    static WalMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static WalMetrics m{
            registry.histogram("wal_sync_seconds",
                               "Wall-clock latency of WAL fsync calls"),
            registry.counter("wal_appends_total", "Records appended to the WAL"),
            registry.counter("wal_bytes_appended_total",
                             "Framed bytes appended to the WAL")};
        return m;
    }
};
} // namespace

Wal::Wal(const std::filesystem::path& path, WalOptions options)
    : fsync_mode_(options.fsync) {
    const Bytes image = read_file(path);
    // A record whose sequence number breaks the strictly increasing order is
    // treated like a torn frame: it and everything after it are discarded
    // (stale frames from a previous log generation must never replay).
    std::uint64_t valid_end = 0;
    bool stopped = false;
    scan_records(ByteView(image), kWalMagic,
                 [this, &valid_end, &stopped](std::uint64_t offset, ByteView payload) {
                     if (stopped) return;
                     Reader r(payload);
                     WalRecord rec;
                     rec.seq = r.u64();
                     rec.type = r.u8();
                     rec.payload = r.bytes(r.remaining());
                     if (!records_.empty() && rec.seq != next_seq_) {
                         stopped = true;
                         return;
                     }
                     next_seq_ = rec.seq + 1;
                     records_.push_back(std::move(rec));
                     valid_end = offset + kRecordHeaderSize + payload.size();
                 });
    open_stats_.records_recovered = records_.size();
    open_stats_.truncated_bytes = image.size() - valid_end;

    file_ = std::make_unique<AppendFile>(path, options.injector);
    if (file_->size() > valid_end) file_->truncate(valid_end);
}

std::uint64_t Wal::append(std::uint8_t type, ByteView payload) {
    const std::uint64_t seq = next_seq_;
    Writer w;
    w.u64(seq);
    w.u8(type);
    w.bytes(payload);
    const Bytes frame = frame_record(kWalMagic, w.data());
    WalMetrics& metrics = WalMetrics::get();
    file_->append(frame); // CrashError propagates with the frame torn
    metrics.appends.inc();
    metrics.bytes_appended.inc(frame.size());
    if (fsync_mode_ == FsyncMode::kAlways) {
        obs::ScopedTimer timer(metrics.sync_seconds);
        file_->sync();
    }
    ++next_seq_;
    return seq;
}

void Wal::reset() {
    file_->truncate(0);
    file_->sync();
    records_.clear();
}

} // namespace dlt::storage
